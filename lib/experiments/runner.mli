(** Scenario runner: deploys a {!Scenario.t} onto a fresh simulated
    fabric, drives the client workload, injects faults, and returns the
    event timeline for analysis with {!Haf_stats.Metrics}. *)

val reset_observed : unit -> unit
(** Clear the cross-run violation ledger (call before an experiment). *)

val observed_violations : unit -> Haf_stats.Metrics.violation list
(** Everything any monitored run recorded since the last
    {!reset_observed}, across all runner instantiations — the CLI
    prints this after each experiment, so "0 violations" is a visible
    claim, not a silent assumption. *)

module Make (S : Haf_core.Service_intf.SERVICE) : sig
  module Fw : module type of Haf_core.Framework.Make (S)

  type world = {
    scenario : Scenario.t;
    engine : Haf_sim.Engine.t;
    gcs : Haf_gcs.Gcs.t;
    events : Haf_core.Events.sink;
    monitor : Haf_monitor.Monitor.t;
        (** Online invariant checker, subscribed to [events] before any
            process exists.  {e Every} run is monitored; {!run} pumps it
            periodically and once more at the horizon. *)
    mutable servers : (int * Fw.Server.t) list;
    clients : Fw.Client.t list;
    stores : (int, Haf_store.Store.t) Hashtbl.t;
        (** Per-server stable storage when the scenario enables it; each
            store outlives its server's crashes. *)
    rng : Haf_sim.Rng.t;
    corrupt_armed : (string * int, int) Hashtbl.t;
        (** Pending corruption injections per (site, proc); armed by
            {!apply_schedule}'s [Corrupt] ops, consumed one per [true]
            answer by the engine's corruptor hook. *)
    mutable stabilizer : Haf_monitor.Stabilize.t option;
        (** Convergence oracle, once {!track_stabilization} attached one. *)
    unit_ks : int list;
        (** [0 .. n_units-1], hoisted out of the per-tick probes. *)
  }

  val setup : Scenario.t -> world
  (** Build the fabric, servers and clients, and schedule the client
      sessions (staggered starts, round-robin unit choice). *)

  val run : world -> Haf_stats.Metrics.timeline
  (** Run the engine to the scenario horizon and return the recorded
      events, oldest first. *)

  val run_scenario :
    ?prepare:(world -> unit) -> Scenario.t -> Haf_stats.Metrics.timeline * world
  (** [setup], then [prepare] (schedule fault injections there), then
      {!run}. *)

  (** {2 Fault injection}

      All injectors emit [Server_crashed]/[Server_restarted] events so
      the metrics layer can compute takeover latencies. *)

  val crash_server : world -> int -> unit
  (** Power-fail the process {e and} its store (unsynced writes lost or
      torn, per the scenario's fault config). *)

  val restart_server : world -> int -> unit
  (** Fresh GCS daemon and a fresh framework server re-join their
      groups, triggering the state-exchange/rebalance path.  With a
      store, the new server first recovers its unit databases from
      snapshot+WAL (see {!Fw.Server.create}). *)

  val store_of : world -> int -> Haf_store.Store.t option

  val schedule_poisson_crashes :
    world ->
    lambda:float ->
    ?repair:float ->
    ?start:float ->
    ?stop:float ->
    unit ->
    unit
  (** Independent Poisson crash processes per server; with [repair],
      exponential repair and further crashes after each return. *)

  val schedule_primary_kills :
    world ->
    every:float ->
    ?repair:float ->
    ?start:float ->
    ?stop:float ->
    unit ->
    unit
  (** Periodically crash the current primary of a random live session:
      the targeted schedule used by the takeover experiments. *)

  val schedule_group_wipes :
    world ->
    every:float ->
    kill_prob:float ->
    repair:float ->
    ?start:float ->
    ?stop:float ->
    unit ->
    unit
  (** Every [every] seconds pick one session and crash each of its
      session-group members independently with probability [kill_prob]
      — the paper's "every session group member failing" loss pattern,
      with P(all die) = kill_prob^(group size). *)

  val wipe_unit : world -> unit_k:int -> repair:float -> unit
  (** Crash {e every} live replica of content unit [unit_k] now,
      restarting each [repair] seconds later: the total-loss scenario the
      paper declares unsurvivable without stable storage.  Chaos
      [Wipe_unit] ops run through this too. *)

  val apply_schedule : world -> Haf_chaos.Chaos.schedule -> unit
  (** Schedule every op of a chaos schedule against this world (server
      and unit indices are resolved against the scenario; clients are
      dealt round-robin across partition components).  Also arms the
      transport give-up threshold (30 s) so crash-restart storms cannot
      leak retransmission timers.  Every op is interpreted idempotently,
      so shrunk sub-schedules remain valid. *)

  val violations : world -> Haf_stats.Metrics.violation list
  (** What the monitor (plus the runner's assignment-agreement probe)
      recorded, oldest first.  Meaningful after {!run}. *)

  (** {2 Self-stabilization oracle} *)

  val unique_primaries : world -> bool
  (** No two mutually reachable live servers claim primary for one
      session.  Only the sessions the claims index counts twice are
      checked, each against the servers' actual beliefs; the tests
      compare this against a scan of every session. *)

  val legal_configuration : world -> bool
  (** The deployment is in a legal configuration right now: every live
      process passes its {e pure} local audits ([Daemon.audit_ok] and
      the framework's unit-db soundness — both independent of
      [Audit.enabled]), {!unique_primaries} holds, and settled sharers
      of a unit view agree on the assignment. *)

  val track_stabilization : world -> window:float -> Haf_monitor.Stabilize.t
  (** Attach a convergence oracle before {!run}: the monitor loop then
      probes {!legal_configuration} every pump, the corruptor hook
      restarts its quiescence deadline at the instant each armed
      [Corrupt] op's damage actually lands, and window overruns are
      reported as [Metrics.Convergence] violations through the world's
      monitor. *)

  (** {2 Introspection} *)

  val live_servers : world -> (int * Fw.Server.t) list

  val current_primary : world -> string -> int option

  val all_session_ids : world -> string list

  val server_counters : world -> (int * Haf_net.Network.counters) list
end
