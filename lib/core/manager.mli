(** Availability manager: automated policy enforcement.

    The paper (Sections 1 and 5) leaves policy {e enforcement} to
    automation: "once a policy is chosen, its enforcement could be
    automated through techniques such as spawning new servers when
    needed, as described in [5]" (Mishra & Pang's availability
    management service).  This component closes that loop: a periodic
    control loop observes per-unit health (live replicas, active
    sessions) and asks the environment to bring up capacity when a unit
    is under-replicated or the cluster is overloaded.

    The manager is deliberately mechanism-free: [observe] and [spawn]
    are supplied by the deployment (in this repository, the experiment
    harness), so the same loop drives a simulation or a real fleet. *)

type health = {
  h_unit : string;
  h_live_replicas : int;
  h_sessions : int;
}

type reason =
  | Under_replicated of string  (** Unit below the replica floor. *)
  | Overloaded of string  (** Unit above the sessions-per-replica ceiling. *)

type t

val create :
  engine:Haf_sim.Engine.t ->
  check_period:float ->
  min_replicas:int ->
  max_load:float ->
  ?cooldown:float ->
  observe:(unit -> health list) ->
  spawn:(reason -> unit) ->
  unit ->
  t
(** Start the control loop.  Every [check_period] seconds it scans the
    [observe] report and calls [spawn] for the worst-off unit if any unit
    has fewer than [min_replicas] live replicas or more than [max_load]
    sessions per live replica.  [cooldown] (default [3 *. check_period])
    suppresses further spawns while the previous one takes effect —
    without it the loop would stampede capacity during a long repair. *)

val stop : t -> unit

val decisions : t -> (float * reason) list
(** Spawn decisions taken so far, oldest first. *)

val evaluate :
  min_replicas:int -> max_load:float -> health list -> reason option
(** The pure policy kernel: worst under-replication first, then worst
    overload.  Exposed for direct unit testing. *)
