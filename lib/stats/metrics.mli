(** Derive the paper's availability metrics from an event timeline.

    All functions are pure over the [(time, event)] list produced by an
    {!Haf_core.Events.sink}, so experiments can re-analyze a run from its
    recorded timeline. *)

type timeline = (float * Haf_core.Events.t) list

val session_ids : timeline -> string list
(** Sessions that were requested, sorted. *)

(** {2 Response stream quality (client-side)} *)

val responses_received : timeline -> sid:string -> (float * int * bool) list
(** (time, response id, critical), oldest first. *)

val duplicates : ?critical:bool -> timeline -> sid:string -> int
(** Responses received more than once (excess copies).  [critical]
    restricts to (non-)critical responses. *)

val missing : ?critical:bool -> timeline -> sid:string -> int
(** Ids never received between the lowest and highest received id — for
    services with contiguous response ids. *)

val stall_time : timeline -> sid:string -> threshold:float -> until:float -> float
(** Total time, between the grant and [until], covered by
    response-arrival gaps longer than [threshold].  Only the excess above
    the threshold counts, so a healthy stream scores ~0. *)

val availability : timeline -> sid:string -> threshold:float -> until:float -> float
(** [1 - stall_time/span]; 0 if the session was never granted. *)

(** {2 Context updates} *)

val requests_lost : timeline -> sid:string -> int * int
(** [(lost, sent)].  A request is {e lost} when no server that applied it
    ever sent this session a response afterwards — i.e. its effect was
    never visible to the client (the paper's "responses completely
    unrelated to the client's current wishes" hazard). *)

(** {2 Primary uniqueness and takeovers} *)

val primary_intervals : timeline -> sid:string -> horizon:float -> (int * float * float) list
(** Per-server closed intervals during which the server (believed it)
    was primary; truncated by crash or [horizon]. *)

val dual_primary_time : timeline -> sid:string -> horizon:float -> float
(** Total time with two or more simultaneous self-believed primaries. *)

val no_primary_time : timeline -> sid:string -> horizon:float -> float
(** Total time after the first grant with no live self-believed primary. *)

val response_arrivals : timeline -> sid:string -> (float * int) list
(** (time, sending server) for each response the client received. *)

val multi_source_time : timeline -> sid:string -> window:float -> float
(** Total time during which the client was receiving responses from two
    or more distinct servers within [window] of each other — the
    client-visible signature of a dual primary (paper: non-transitive
    WAN connectivity). *)

val count_takeovers : ?kind:Haf_core.Events.takeover_kind -> timeline -> int

val count_propagations : ?server:int -> timeline -> int

val count_requests_applied : ?server:int -> ?role:Haf_core.Events.role -> timeline -> int

val responses_sent : ?server:int -> timeline -> int

(** {2 Client-visible latencies}

    One chronological fold derives both: grant latency, from a session's
    first [Session_requested] to its first [Session_granted] (the
    client's receipt of the server's grant and any re-grant add no
    sample), and crash-takeover latency, for each crash-kind takeover
    the delay since its [from_primary]'s latest crash.  A takeover from
    a predecessor that never crashed, or that assumed the session's
    primary role again after its latest crash, was a false suspicion of
    a live primary and yields no sample.  Run the fold online by
    subscribing {!observe} to a sink, or over a retained timeline with
    {!grant_latencies} and {!takeover_latencies}; both see the same
    samples. *)

type latencies
(** The fold's state: one entry per session, per crashed server and per
    (server, session) primary assumption, plus the samples. *)

val latencies : unit -> latencies

val observe : latencies -> now:float -> Haf_core.Events.t -> unit
(** Fold one event; an {!Haf_core.Events.subscribe} tap. *)

val grants : latencies -> float list
(** Grant latency samples so far, oldest first. *)

val takeovers : latencies -> float list
(** Crash-takeover latency samples so far, oldest first. *)

val grant_latencies : timeline -> float list

val takeover_latencies : timeline -> float list

(** {2 Invariant violations (online monitor)}

    The invariant monitor ({!Haf_monitor.Monitor}) records its findings
    in this vocabulary so experiments report violations alongside the
    availability metrics. *)

type invariant =
  | Unique_primary
      (** Two servers in the same bidirectional partition component both
          believed they were primary for one session, beyond the
          view-change grace window. *)
  | No_acked_loss
      (** A propagation by the sole primary omitted request seqs that an
          earlier propagation had already incorporated, although a
          continuous witness of the earlier state survived. *)
  | Staleness_bound
      (** A session with an active primary went longer than the
          Policy-implied bound without propagating its context. *)
  | Assignment_agreement
      (** Two settled members of the same unit view disagreed on the
          session-to-server assignment. *)
  | Convergence
      (** After the last injected state corruption the group failed to
          return to a legal configuration (audits clean, unique primary,
          agreed assignment) within the stabilization oracle's quiescence
          window. *)

type violation = {
  v_time : float;
  v_invariant : invariant;
  v_session : string option;
  v_detail : string;
}

val invariant_to_string : invariant -> string

val pp_violation : Format.formatter -> violation -> unit
