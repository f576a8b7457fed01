(** Per-process GCS daemon.

    One daemon runs on every simulated process (servers and clients
    alike).  It implements:

    - a heartbeat failure detector with group adverts piggybacked on the
      probes (discovery, join and merge all derive from adverts);
    - an epoch-numbered, coordinator-driven membership protocol with a
      flush phase that realizes {e virtual synchrony}: members moving
      together from view [v] to [v'] deliver the same set of messages in
      [v], obtained as the union of the surviving members' view logs;
    - sequencer-based totally ordered reliable multicast within each
      view (the view coordinator assigns sequence numbers);
    - open-group sends: a non-member routes a message to the group via
      the members it believes exist (or relay daemons), deduplicated at
      the sequencer by message uid;
    - point-to-point application messages.

    Join, leave, crash, partition and merge all funnel through one code
    path: "my candidate set for group [g] no longer matches my view",
    evaluated on every sweep.  A joining process first self-installs a
    singleton view, then merges. *)

type proc = int

type callbacks = {
  on_view : View.t -> unit;
      (** A new view was installed for a group this process is in: the
          singleton of a {!join}, or a view the membership protocol
          installed, whose [merged] is [true] iff its members' flush
          replies named more than one previous view. *)
  on_message : group:string -> sender:proc -> string -> unit;
      (** Totally ordered delivery of a group multicast. *)
  on_p2p : sender:proc -> string -> unit;
  on_reset : group:string -> Audit.verdict -> unit;
      (** The group's state failed its self-audit with this verdict and
          is about to be reset (see Self-stabilization below).  The
          framework emits [Audit_failed]/[Server_reset] events here. *)
}

val no_callbacks : callbacks

type t

val create :
  engine:Haf_sim.Engine.t ->
  transport:Haf_net.Transport.t ->
  config:Config.t ->
  ?heartbeat_interval:float ->
  ?incarnation:int ->
  contacts:proc list ->
  proc ->
  t
(** [contacts] are the a-priori-known peer daemons (the paper's "clients
    have a priori knowledge of this group's name"): they are monitored
    from startup and used as a routing fallback.  [heartbeat_interval]
    overrides the config's (clients probe less often than servers).
    [incarnation] overrides the default randomly drawn incarnation — a
    restarted daemon given a value strictly above its previous life's is
    {e guaranteed} (not just overwhelmingly likely) to be told apart
    from it; see {!Gcs.restart}. *)

val set_callbacks : t -> callbacks -> unit

val start : t -> unit
(** Attach to the transport and start the heartbeat/sweep timers. *)

val stop : t -> unit
(** Crash the process: all timers cancelled, every late event ignored. *)

val alive : t -> bool

(** {2 Group operations} *)

val join : t -> string -> unit
(** Self-install a singleton view and start advertising; existing members
    merge us in within a few heartbeats. *)

val leave : t -> string -> unit

val view_of : t -> string -> View.t option
(** The currently installed view, if a member. *)

val multicast : t -> string -> string -> unit
(** [multicast t group payload]: totally ordered multicast as a member.
    Buffered across view changes and resubmitted, deduplicated by uid.
    @raise Invalid_argument if not a member. *)

val open_send : t -> string -> string -> unit
(** Send to a group we are not (necessarily) a member of. *)

val p2p : t -> dst:proc -> string -> unit

(** {2 Beliefs (local, possibly stale)} *)

val believed_members : t -> string -> proc list
(** Own view if a member, else peers advertising the group, else []. *)

val groups : t -> string list

(** {2 Introspection for tests and experiments} *)

val membership_stable : t -> string -> bool
(** No membership protocol round in progress and candidates match the
    installed view. *)

val stats_view_changes : t -> int

val incarnation : t -> int

(** {2 Self-stabilization}

    Each heartbeat tick (and each totally ordered data receive) the
    daemon audits its own per-group state — view structure, counter
    monotonicity, delivery-clock/log agreement (see {!Audit}).  On a
    failing verdict it {e resets and rejoins}: the group's state falls
    back to a fresh singleton view and the ordinary vid-mismatch merge
    machinery reconciles it with the surviving members, resubmitting
    every entry it holds that no log has shown yet.  Gated by {!Audit.enabled}. *)

val audit_ok : t -> bool
(** Pure: every joined group currently passes its audit checks.
    Independent of {!Audit.enabled} — the convergence oracle evaluates
    it on hardened and unhardened builds alike. *)

val stats_resets : t -> int
(** Group resets taken by the audit-failure path. *)
