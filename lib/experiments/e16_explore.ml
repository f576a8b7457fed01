(** E16 — systematic schedule-space exploration of small configurations:
    the explorer drives the full stack (GCS, framework, clients, store)
    through every schedule of a bounded scenario, checks each execution
    against the {!Haf_explore.Spec} reference model and the online
    monitor, and measures how much of the naive schedule tree the
    sleep-set partial-order reduction prunes. *)

module R = Runner.Make (Haf_services.Synthetic)
module Engine = Haf_sim.Engine
module Network = Haf_net.Network
module Latency = Haf_net.Latency
module Monitor = Haf_monitor.Monitor
module Framework = Haf_core.Framework
module Explore = Haf_explore.Explore
module Spec = Haf_explore.Spec
open Common

let id = "e16"

let title =
  "Schedule-space exploration: DPOR vs naive DFS, spec-conformance oracle"

(* ---------------------------------------------------------------- *)
(* Explorable configurations.  Small worlds, constant latency, no
   message loss: every nondeterminism the scenario still has is a
   delivery ordering or an instrumented crash point, i.e. exactly the
   decisions the explorer enumerates. *)

type config = {
  procs : int;  (** servers *)
  sessions : int;  (** one client per session *)
  depth : int;  (** branch-point budget per execution *)
  store : bool;
  crash_budget : int;
  zombie : bool;  (** re-introduce PR 3's bug 6 via the test-only flag *)
  horizon : float;
  branch_after : float;
}

let config ?(procs = 3) ?(sessions = 2) ?(depth = 12) ?(store = false)
    ?(crash_budget = 0) ?(zombie = false) () =
  {
    procs;
    sessions;
    depth;
    store;
    crash_budget;
    zombie;
    (* Sessions start in [1.2, 2.2); a 1 s session with a couple of
       requests ends well before 4 s even across a crash/restart. *)
    horizon = 4.6;
    branch_after = 1.2;
  }

let explore_store =
  {
    Haf_store.Store.snapshot_period = 1.0;
    sync_period = 0.25;
    faults = Haf_store.Disk.no_faults;
  }

let scenario cfg =
  {
    Scenario.default with
    seed = 1;
    n_servers = cfg.procs;
    (* Overlapping replica groups (u00 on s0,s1; u01 on s1,s2): the two
       sessions run in different content groups that share a server, so
       schedules mix genuinely commuting deliveries (different
       destinations) with conflicting ones (the shared server). *)
    n_units = Int.min 2 cfg.sessions;
    replication = Int.min 2 cfg.procs;
    n_clients = cfg.sessions;
    sessions_per_client = 1;
    session_duration = 1.0;
    request_interval = 0.6;
    net_config =
      {
        Network.latency = Latency.Constant 0.003;
        drop_probability = 0.;
      };
    store = (if cfg.store then Some explore_store else None);
    warmup = 1.2;
    duration = cfg.horizon;
  }

let restart_delay = 0.4

(* One execution: a fresh world per call (stateless model checking), the
   decision prefix forced through {!Explore.Exec}, the spec oracle
   listening on the event stream, crashes wired to the runner's
   fault-injection path, each crash restarted [restart_delay] later. *)
let run_one cfg ~tolerant plan =
  let prev = !Framework.test_end_session_deletes in
  Framework.test_end_session_deletes := cfg.zombie;
  Fun.protect ~finally:(fun () -> Framework.test_end_session_deletes := prev)
  @@ fun () ->
  let sc = scenario cfg in
  let w = R.setup sc in
  let spec = Spec.create_attached w.R.events in
  let exec =
    Explore.Exec.attach ~plan ~tolerant ~crash_budget:cfg.crash_budget
      ~crash:(fun p ->
        R.crash_server w p;
        ignore
          (Engine.schedule w.R.engine ~delay:restart_delay (fun () ->
               R.restart_server w p)))
      ~crashable:(fun p -> p < cfg.procs)
      ~branch_after:cfg.branch_after ~max_branches:cfg.depth w.R.engine
  in
  let (_ : (float * Events.t) list) = R.run w in
  let violation =
    match Spec.first_violation spec with
    | Some (at, msg) -> Some (Printf.sprintf "%s (at %.3f)" msg at)
    | None -> (
        match Monitor.violations w.R.monitor with
        | [] -> None
        | v :: _ -> Some (Format.asprintf "%a" Metrics.pp_violation v))
  in
  Explore.Exec.detach exec;
  Explore.Exec.outcome exec ~violation

type mode = Naive | Dpor

let explore ?(stop_on_violation = true) ~mode cfg =
  let indep =
    match mode with Dpor -> Explore.indep | Naive -> Explore.dep_all
  in
  Explore.explore
    ~run:(fun plan -> run_one cfg ~tolerant:false plan)
    ~max_depth:cfg.depth ~indep ~stop_on_violation ()

(* ddmin the counterexample (probes replay in tolerant mode so arbitrary
   subsets stay interpretable), then replay the minimum once more to
   re-time its decisions and confirm it still fails. *)
let shrink_counterexample cfg (v : Explore.violation) =
  let failing ds = (run_one cfg ~tolerant:true ds).Explore.violation <> None in
  let minimal, probes = Explore.shrink ~failing (List.map snd v.Explore.schedule) in
  let replay = run_one cfg ~tolerant:true minimal in
  let timed =
    List.map
      (fun d ->
        match
          List.find_opt
            (fun (_, d') -> Explore.equal_decision d d')
            replay.Explore.taken
        with
        | Some (at, _) -> (at, d)
        | None -> (0., d))
      minimal
  in
  (timed, probes, replay)

(* ---------------------------------------------------------------- *)

let check cond msg = if not cond then failwith ("E16: " ^ msg)

let ratio_table ~quick =
  let t =
    Table.create
      ~title:
        "E16a: schedule-space size, naive DFS vs sleep-set DPOR (0 \
         violations asserted; depth-12 ratio asserted <= 25%)"
      ~columns:
        [
          ("configuration", Table.Left);
          ("depth", Table.Right);
          ("naive execs", Table.Right);
          ("naive schedules", Table.Right);
          ("DPOR execs", Table.Right);
          ("DPOR schedules", Table.Right);
          ("pruned", Table.Right);
          ("DPOR/naive", Table.Right);
          ("violations", Table.Right);
        ]
      ()
  in
  let configs =
    (if quick then []
     else [ ("2 servers / 1 session", config ~procs:2 ~sessions:1 ~depth:8 ()) ])
    @ [ ("3 servers / 2 sessions", config ~procs:3 ~sessions:2 ~depth:12 ()) ]
  in
  List.iter
    (fun (name, cfg) ->
      let sn, vn = explore ~mode:Naive cfg in
      let sd, vd = explore ~mode:Dpor cfg in
      let nviol = List.length vn + List.length vd in
      let ratio =
        Common.ratio sd.Explore.schedules sn.Explore.schedules
      in
      Table.add_row t
        [
          name;
          Table.fint cfg.depth;
          Table.fint sn.Explore.executions;
          Table.fint sn.Explore.schedules;
          Table.fint sd.Explore.executions;
          Table.fint sd.Explore.schedules;
          Table.fint sd.Explore.pruned;
          Table.fpct ratio;
          Table.fint nviol;
        ];
      List.iter
        (fun (v : Explore.violation) ->
          Table.add_row t
            [ "  violation"; ""; ""; ""; ""; ""; ""; ""; v.Explore.message ])
        (vn @ vd);
      check (nviol = 0)
        (Printf.sprintf "expected 0 violations on %s, found %d" name nviol);
      check
        (sd.Explore.schedules > 0
        && sn.Explore.schedules >= sd.Explore.schedules)
        "DPOR explored more schedules than the naive DFS";
      if cfg.depth >= 12 then
        check (ratio <= 0.25)
          (Printf.sprintf
             "DPOR explored %.1f%% of the naive schedules at depth %d \
              (bound: 25%%)"
             (100. *. ratio) cfg.depth))
    configs;
  t

let bug_table () =
  let t =
    Table.create
      ~title:
        "E16b: seeded zombie-session bug (End_session deletes instead of \
         tombstoning) — the oracle must find and shrink it"
      ~columns:[ ("metric", Table.Left); ("value", Table.Left) ]
      ()
  in
  let cfg =
    config ~procs:3 ~sessions:1 ~depth:10 ~store:true ~crash_budget:1
      ~zombie:true ()
  in
  let stats, violations = explore ~mode:Dpor cfg in
  let add k v = Table.add_row t [ k; v ] in
  add "executions until violation" (Table.fint stats.Explore.executions);
  (match violations with
  | [] -> check false "seeded zombie bug was not detected"
  | v :: _ ->
      add "violation" v.Explore.message;
      add "schedule length" (Table.fint (List.length v.Explore.schedule));
      let minimal, probes, replay = shrink_counterexample cfg v in
      check (replay.Explore.violation <> None)
        "shrunk schedule no longer reproduces the violation";
      add "ddmin probes" (Table.fint probes);
      add "minimal decisions" (Table.fint (List.length minimal));
      check (List.length minimal <= 5)
        (Printf.sprintf "minimal counterexample has %d decisions (bound: 5)"
           (List.length minimal));
      List.iter
        (fun (at, d) ->
          add "  decision"
            (Printf.sprintf "%.6f %s" at (Explore.decision_to_string d)))
        minimal);
  t

let run ~quick = [ ratio_table ~quick; bug_table () ]

(* CLI hook (bin/haf_experiments --explore [--depth N] [--procs K]
   [--explore-bug]): one exploration with both relations, reduction
   ratio printed, nonzero exit and a replayable shrunk schedule on any
   violation. *)
let run_custom ~depth ~procs ~bug () =
  let cfg =
    if bug then
      config ~procs ~sessions:1 ~depth ~store:true ~crash_budget:1
        ~zombie:true ()
    else config ~procs ~sessions:2 ~depth ()
  in
  let sd, vd = explore ~mode:Dpor cfg in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "E16 (custom): --explore, %d servers, depth %d%s"
           procs depth
           (if bug then ", seeded zombie bug" else ""))
      ~columns:[ ("metric", Table.Left); ("value", Table.Left) ]
      ()
  in
  let add k v = Table.add_row table [ k; v ] in
  add "DPOR executions" (Table.fint sd.Explore.executions);
  add "DPOR schedules" (Table.fint sd.Explore.schedules);
  add "pruned children" (Table.fint sd.Explore.pruned);
  let tables, failed =
    match vd with
    | [] ->
        (* Only measure the naive baseline when the run is clean: after a
           violation the DPOR walk stopped early and a ratio would
           compare apples to oranges. *)
        let sn, _ = explore ~mode:Naive cfg in
        add "naive executions" (Table.fint sn.Explore.executions);
        add "naive schedules" (Table.fint sn.Explore.schedules);
        add "DPOR/naive schedules"
          (Table.fpct (Common.ratio sd.Explore.schedules sn.Explore.schedules));
        add "violations" "0";
        ([ table ], false)
    | v :: _ ->
        add "violation" v.Explore.message;
        let minimal, probes, replay = shrink_counterexample cfg v in
        add "ddmin probes" (Table.fint probes);
        add "minimal decisions" (Table.fint (List.length minimal));
        (match replay.Explore.violation with
        | Some msg -> add "replay confirms" msg
        | None -> add "replay confirms" "NO (shrunk schedule passed!)");
        let sched_table =
          Table.create
            ~title:
              "E16 (custom): minimal failing schedule (replayable via \
               Explore.of_string)"
            ~columns:[ ("time", Table.Right); ("decision", Table.Left) ]
            ()
        in
        List.iter
          (fun (at, d) ->
            Table.add_row sched_table
              [ Printf.sprintf "%.6f" at; Explore.decision_to_string d ])
          minimal;
        ([ table; sched_table ], true)
  in
  (tables, failed)
