(** Online invariant monitor.

    Subscribes to a run's {!Haf_core.Events.sink} and checks, {e while
    the run unfolds}, the safety properties the framework promises:

    - {b (a) unique primary}: at most one self-believed primary per
      session within one bidirectional partition component, beyond a
      grace window for view changes in flight.  Concurrent primaries in
      {e disjoint} components are the paper's intended WAN behaviour
      and are not flagged — the component oracle is
      {!Haf_net.Network.reachable} restricted to server nodes, so a
      client that can see both sides of a partition does not join them.
      The check further requires the shared component to be a {e clique}
      (all pairwise links healthy both ways): under non-transitive
      connectivity precise membership may legitimately keep the two
      primaries in disjoint views for as long as the asymmetry lasts,
      so only a clique puts the GCS under an obligation to merge.
    - {b (b) no acked loss}: a sole primary's propagation never drops
      request seqs an earlier propagation incorporated, unless every
      member that held the earlier state crashed in between (permitted
      whole-group amnesia, the regime E14 measures).
    - {b (c) staleness bound}: while a session has a live primary, its
      context is propagated at least every
      [3 * propagation_period + slack] seconds, where the slack covers
      one suspicion plus two view-change rounds.  The clock suspends
      while no primary is up and resets on view changes and takeovers.
    - {b (d) assignment agreement} is probed from the experiment runner
      (it needs the concrete service instance) and recorded here via
      {!report}.

    Violations are recorded as {!Haf_stats.Metrics.violation} values;
    the monitor never prints, never mutates the system under test, and
    draws no randomness, so attaching it cannot change a run's
    trajectory. *)

type t

type config = {
  dual_primary_grace : float;
      (** Same-component dual-primary overlap tolerated before flagging. *)
  staleness_bound : float;
      (** Max seconds between context propagations while a primary is
          active. *)
  ack_confirm_delay : float;
      (** A propagation becomes the acked-loss baseline only after this
          long passes with no content-group view change: the [Propagated]
          event fires at multicast {e send} time, and a view change
          within the window may drop the in-flight delivery, so the
          snapshot would never have reached any member's database. *)
}

val create :
  ?config:config ->
  network:Haf_net.Network.t ->
  servers:int list ->
  policy:Haf_core.Policy.t ->
  gcs:Haf_gcs.Config.t ->
  events:Haf_core.Events.sink ->
  unit ->
  t
(** Attach a monitor to the run: subscribes to [events] immediately.
    [servers] are the node ids eligible as partition-component hops and
    endpoints (clients are excluded by construction). *)

val pump : t -> now:float -> unit
(** Evaluate the time-based invariants (a) and (c) at virtual time
    [now].  Call periodically — every few hundred milliseconds of
    virtual time — and once at the end of the run; event-driven checks
    (b) need no pumping.

    A pump touches only the sessions whose verdict could have changed
    since the last one.  Indices maintained as events arrive find them:
    a staleness deadline min-heap keyed by [last_activity + bound], and
    a watch set of sessions with >= 2 believed primaries.  The result is
    the same violation ledger (same order, timestamps and details) that
    {!pump_reference} records, on any {e well-formed} event stream: one
    where role beliefs are only asserted by live servers and every crash
    fault is mirrored as a [Server_crashed] event.  The framework's
    emitters and fault injectors guarantee both.  Outside that contract,
    say a grant naming an already-dead primary later resurrected by a
    bare network recover, a session can turn checkable with no event for
    the indices to observe, and the staleness clocks of the two pumps may
    drift by up to one bound. *)

val pump_reference : t -> now:float -> unit
(** The reference semantics of {!pump}: visit every session, in
    ascending id, on every call — O(population).  Not used by any run;
    it is the oracle the equivalence tests compare {!pump} against.  A
    monitor should be driven by one of the two pumps only. *)

val report :
  t ->
  now:float ->
  invariant:Haf_stats.Metrics.invariant ->
  ?session:string ->
  detail:string ->
  unit ->
  unit
(** Record an externally detected violation — the runner's
    assignment-agreement probe (invariant (d)) reports through this. *)

val violations : t -> Haf_stats.Metrics.violation list
(** Oldest first. *)

val violation_count : t -> int

val events_seen : t -> int
(** Events observed so far (denominator for overhead benchmarks). *)

val multi_primary_sessions : t -> string list
(** Sessions that two or more servers currently believe they are primary
    for, per the role and crash events seen so far, in ascending id.
    Read from the dual-primary watch set, so it costs O(watched
    sessions), not O(population).  The runner's legality probe takes its
    candidates from here and judges each against ground truth. *)
