(** Framework instrumentation.

    Servers and clients emit typed events into a sink; the experiment
    harness and the metrics layer consume the timeline afterwards.  This
    keeps measurement entirely out of the protocol code paths. *)

type role = Primary | Backup

type takeover_kind =
  | Initial  (** First assignment of a fresh session. *)
  | Crash  (** The previous primary left the view involuntarily. *)
  | Rebalance  (** Load-balancing migration; previous primary alive. *)

type t =
  | Session_requested of { client : int; session_id : string; unit_id : string }
  | Session_granted of { client : int; session_id : string; primary : int }
  | Session_ended of { session_id : string }
  | Request_sent of { client : int; session_id : string; seq : int }
  | Request_applied of { server : int; session_id : string; seq : int; role : role }
  | Response_sent of { server : int; session_id : string; id : int; critical : bool }
  | Response_received of {
      client : int;
      session_id : string;
      id : int;
      critical : bool;
      from_server : int;
    }
  | Role_assumed of { server : int; session_id : string; role : role }
  | Role_dropped of { server : int; session_id : string; role : role }
  | Takeover of {
      server : int;
      session_id : string;
      kind : takeover_kind;
      from_primary : int option;
      had_live_context : bool;
          (** The new primary held a live (backup) context rather than
              reconstructing from the unit database. *)
    }
  | Propagated of {
      server : int;
      session_id : string;
      applied : Seqset.t;
          (** Exactly the request seqs the propagated snapshot
              incorporates; {!Seqset.max} is its high-water mark. *)
    }
  | View_noted of { server : int; group : string; members : int list }
  | Server_crashed of { server : int }
      (** Emitted by the fault injector, not the framework: lets the
          metrics layer compute takeover latencies and primary-interval
          truncation. *)
  | Server_restarted of { server : int }
  | Exchange_sent of { server : int; group : string; digest : bool; records : int; bytes : int }
      (** One state-exchange message multicast by [server]: the digest
          round or the delta round.  [bytes] is the encoded payload size
          — the recovery state-transfer cost E14 measures. *)
  | Store_recovered of {
      server : int;
      sessions : int;  (** Sessions rebuilt from snapshot + WAL replay. *)
      wal_records : int;
      torn_tail : bool;  (** Detected (and truncated) torn append. *)
      crc_mismatch : bool;  (** Detected (and discarded) corruption. *)
      snapshot_lost : bool;
    }
      (** A restarted server replayed its stable store before rejoining. *)
  | Audit_failed of { server : int; subsystem : string; detail : string }
      (** A local self-check convicted in-memory state corruption —
          [subsystem] names the damaged component ("gcs:<group>" or
          "unit-db:<unit>"). *)
  | Server_reset of { server : int; subsystem : string }
      (** The convicted component took the reset-and-rejoin path: state
          falls back to a safe default and the ordinary merge /
          state-exchange machinery reconciles it with the group. *)

type sink

val make_sink : ?retain:bool -> unit -> sink
(** [retain] (default [true]): keep the full timeline for post-hoc
    analysis.  [~retain:false] keeps memory flat for huge runs — events
    still reach every tap (so the online monitor and streaming metrics
    work unchanged) but {!events} stays empty. *)

val subscribe : sink -> (now:float -> t -> unit) -> unit
(** Register an online tap: called synchronously on every {!emit}, in
    subscription order, after the event is appended to the timeline.
    This is how the invariant monitor watches a run {e as it unfolds}
    rather than post-hoc; taps must not emit into the same sink. *)

val emit : sink -> now:float -> t -> unit

val events : sink -> (float * t) list
(** Oldest first. *)

val kind_to_string : takeover_kind -> string

val pp : Format.formatter -> t -> unit
