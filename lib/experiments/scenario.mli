(** Experiment scenario description: one deployment of the framework on
    the simulated fabric, with a client workload.

    Every experiment is a sweep over scenarios; a scenario plus a seed is
    fully deterministic. *)

type t = {
  seed : int;
  n_servers : int;
  n_units : int;
  replication : int;  (** Servers per content unit (round-robin placement). *)
  n_clients : int;
  sessions_per_client : int;
  session_duration : float;
  request_interval : float;  (** 0 = the client sends no context updates. *)
  policy : Haf_core.Policy.t;
  gcs_config : Haf_gcs.Config.t;
  net_config : Haf_net.Network.config;
  store : Haf_store.Store.config option;
      (** [Some cfg]: every server gets a {!Haf_store.Store.t} that
          survives its crashes, so a restarted server recovers its unit
          databases from snapshot+WAL instead of rejoining amnesiac. *)
  warmup : float;  (** Views settle before clients arrive. *)
  duration : float;  (** Total simulated seconds. *)
  monitor_interval : float;
      (** Simulated seconds between invariant-monitor probes (default
          0.25).  The probes compare every pair of unit-db replicas,
          so huge-population benchmarks raise this to keep the monitor
          from dominating the run — the checks are unchanged, just
          sampled more coarsely. *)
  retain_events : bool;
      (** Default [true].  [false] runs the event sink tap-only
          ({!Haf_core.Events.make_sink}): the monitor still sees every
          event, but the timeline returned by {!Runner} stays empty —
          required above ~10{^5} sessions, where retaining every event
          would dominate memory. *)
  retain_responses : bool;
      (** Default [true].  [false] creates clients with
          [~retain_responses:false]: per-session response lists stay
          empty (counts and the silence watchdog still work), keeping
          client memory flat at bench scale. *)
}

val default : t
(** 5 servers, 2 units at replication 3, 3 clients with one long session
    each, 120 simulated seconds, no stable storage. *)

val unit_name : int -> string

val servers_for_unit : t -> int -> int list
(** Deterministic round-robin placement of unit replicas. *)
