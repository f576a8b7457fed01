(** Systematic schedule-space exploration (stateless model checking).

    The explorer drives the deterministic simulation through {e all}
    schedules of a bounded scenario instead of one seeded schedule.  It
    builds on the engine's scheduler interface ({!Haf_sim.Engine.set_picker}
    / {!Haf_sim.Engine.choice}): message-delivery orderings and
    instrumented crash points become {!decision}s, one execution is a
    re-run of the scenario from scratch under a forced decision prefix,
    and a DFS over prefixes enumerates the schedule tree — naively, or
    with sleep-set partial-order reduction over commuting deliveries.

    Everything here is harness-agnostic: the caller supplies [run], a
    function that executes its world once under a given prefix (via
    {!Exec.attach}) and reports the branch points passed plus any
    oracle/monitor violation.  See {!Spec} for the reference-model
    oracle and [Haf_experiments.E16_explore] for the full-stack
    harness. *)

(** {1 Decisions and schedules} *)

type decision =
  | Deliver of { src : int; dst : int; k : int }
      (** Fire the head of channel [(src, dst)]; [k] is the per-channel
          delivery index, stable across re-executions of a prefix. *)
  | Crash of { site : string; proc : int; occ : int }
      (** Take the crash offered by the [occ]-th {!Haf_sim.Engine.choice}
          call at instrumented point [site] of process [proc]. *)
  | No_crash of { site : string; proc : int; occ : int }
      (** Decline that crash. *)

val equal_decision : decision -> decision -> bool

val indep : decision -> decision -> bool
(** The partial-order-reduction independence relation: deliveries to
    different destination processes commute; everything else conflicts
    (same-destination deliveries are ordered by the handler, same-channel
    deliveries by FIFO, crash choices conservatively by everything). *)

val dep_all : decision -> decision -> bool
(** Always [false]: the degenerate relation that turns the sleep-set DFS
    into the naive exhaustive DFS (the baseline E16 measures against). *)

val decision_to_string : decision -> string

type schedule = (float * decision) list
(** Decisions with the virtual times at which they were taken: the
    replay artifact a failing exploration prints. *)

val to_string : schedule -> string
(** One ["%.6f <op> <args>"] line per decision — the same line discipline
    as {!Haf_chaos.Chaos.to_string}, so failing schedules are reported
    and re-ingested the same way fault schedules are. *)

val of_string : string -> (schedule, string) result
(** Inverse of {!to_string}; blank lines and [#] comments are skipped. *)

(** {1 One execution} *)

exception Replay_divergence of string
(** Raised (in strict mode) when a planned decision is not applicable at
    the branch point where it comes due — impossible for prefixes the
    DFS recorded itself, so it signals a broken determinism assumption. *)

type outcome = {
  branches : decision list list;
      (** Options offered at each branch point passed, in order.  A
          branch point is a picker call with two or more candidates, or
          an eligible crash choice, inside the explore window. *)
  taken : schedule;  (** The decision actually taken at each of them. *)
  violation : string option;
}

(** Per-execution controller: installs the engine's picker and chooser
    so the run replays [plan] and then continues under the default
    policy (first candidate; take the crash while budget remains). *)
module Exec : sig
  type t

  val attach :
    ?plan:decision list ->
    ?tolerant:bool ->
    ?crash_budget:int ->
    ?crash:(int -> unit) ->
    ?crashable:(int -> bool) ->
    ?branch_after:float ->
    ?max_branches:int ->
    Haf_sim.Engine.t ->
    t
  (** [tolerant] (default false): an inapplicable planned decision falls
      back to the default instead of raising {!Replay_divergence} — the
      mode ddmin's subset probes run under.  [crash] performs the actual
      fault (e.g. the runner's [crash_server] plus a scheduled restart);
      crash choice points are only eligible for processes satisfying
      [crashable] and while fewer than [crash_budget] crashes were taken.
      Branch points are only recorded from virtual time [branch_after]
      on (the deterministic warmup does not consume depth) and stop
      after [max_branches]. *)

  val detach : t -> unit

  val taken : t -> schedule

  val outcome : t -> violation:string option -> outcome
end

(** {1 The DFS driver} *)

type stats = {
  executions : int;  (** Scenario re-executions (tree nodes visited). *)
  schedules : int;  (** Complete schedules (leaves) explored. *)
  pruned : int;  (** Children skipped because they slept. *)
}

type violation = { message : string; schedule : schedule }

val explore :
  run:(decision list -> outcome) ->
  max_depth:int ->
  indep:(decision -> decision -> bool) ->
  ?stop_on_violation:bool ->
  unit ->
  stats * violation list
(** Enumerate the schedule tree to [max_depth] branch points by repeated
    re-execution.  [run prefix] must execute the scenario from scratch
    with the prefix forced (same prefix ⇒ same state: the determinism
    contract).  [indep] is consulted by the sleep sets: pass {!indep}
    for DPOR, {!dep_all} for the naive baseline.  Violations are
    deduplicated by message; with [stop_on_violation] (default true) the
    walk stops at the first one. *)

val shrink :
  failing:(decision list -> bool) -> decision list -> decision list * int
(** ddmin over the decision list (same algorithm as
    {!Haf_chaos.Chaos.shrink}): returns a 1-minimal failing sub-schedule
    and the number of probe executions.  Probes must be run in tolerant
    mode so arbitrary subsets stay interpretable. *)
