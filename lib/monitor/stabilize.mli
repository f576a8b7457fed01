(** Convergence oracle for self-stabilization runs.

    Checks the practically-self-stabilizing contract: after the {e last}
    injected state corruption the deployment must return to a legal
    configuration — audits clean, unique primary, agreed assignment —
    within a bounded quiescence window.  The caller decides legality and
    feeds it in via {!probe} (the runner's monitor loop does this every
    pump); window overruns are reported through the supplied callback,
    which experiments wire to {!Monitor.report} with the
    [Metrics.Convergence] invariant so they surface like any other
    violation. *)

type t

val create : window:float -> report:(now:float -> detail:string -> unit) -> t
(** @raise Invalid_argument if [window <= 0]. *)

val note_corruption : t -> now:float -> unit
(** A corruption was injected now: (re)start the quiescence deadline.
    Each injection restarts the clock — the contract bounds recovery
    from the last fault, not the first. *)

val probe : t -> now:float -> legal:bool -> unit
(** Periodic observation.  A legal probe closes the open episode and
    records its duration; an illegal probe past the window reports a
    violation (once per episode).  Call once more at the horizon. *)

val converged : t -> bool
(** No illegal episode currently open. *)

val injected : t -> int
(** Corruptions noted so far. *)

val reconvergence_times : t -> float list
(** Closed episodes' corruption-to-legal durations, oldest first.
    Resolution is the caller's probe interval. *)
