(* Smoke and determinism tests for the experiment harness. *)

module Scenario = Haf_experiments.Scenario
module R = Haf_experiments.Runner.Make (Haf_services.Synthetic)
module Metrics = Haf_stats.Metrics
module Events = Haf_core.Events

let check = Alcotest.check

let small_scenario ?(seed = 3) () =
  {
    Scenario.default with
    seed;
    n_servers = 3;
    n_units = 1;
    replication = 3;
    n_clients = 2;
    session_duration = 40.;
    request_interval = 2.;
    duration = 30.;
  }

let test_runner_basic () =
  let tl, w = R.run_scenario (small_scenario ()) in
  let sids = Metrics.session_ids tl in
  check Alcotest.int "two sessions" 2 (List.length sids);
  List.iter
    (fun sid ->
      check Alcotest.bool
        (Printf.sprintf "%s streams" sid)
        true
        (List.length (Metrics.responses_received tl ~sid) > 20))
    sids;
  check Alcotest.int "all servers alive" 3 (List.length (R.live_servers w))

let test_runner_deterministic () =
  let run () =
    let tl, _ = R.run_scenario (small_scenario ()) in
    ( List.length tl,
      List.map (fun sid -> List.length (Metrics.responses_received tl ~sid))
        (Metrics.session_ids tl) )
  in
  check
    (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.int))
    "same seed, same timeline" (run ()) (run ())

let test_runner_seed_changes_run () =
  (* Different seeds draw different jitters: response arrival instants
     cannot coincide. *)
  let arrivals seed =
    let tl, _ = R.run_scenario (small_scenario ~seed ()) in
    match Metrics.session_ids tl with
    | sid :: _ -> List.map (fun (at, _, _) -> at) (Metrics.responses_received tl ~sid)
    | [] -> []
  in
  check Alcotest.bool "different seeds differ" true (arrivals 3 <> arrivals 4)

let test_unit_placement () =
  let sc = { Scenario.default with n_servers = 5; replication = 3 } in
  check (Alcotest.list Alcotest.int) "unit 0" [ 0; 1; 2 ] (Scenario.servers_for_unit sc 0);
  check (Alcotest.list Alcotest.int) "unit 3 wraps" [ 3; 4; 0 ] (Scenario.servers_for_unit sc 3);
  let sc1 = { sc with replication = 9 } in
  check Alcotest.int "replication capped at cluster" 5
    (List.length (Scenario.servers_for_unit sc1 0))

let test_crash_and_restart_emit_events () =
  let tl, _ =
    R.run_scenario (small_scenario ()) ~prepare:(fun w ->
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:10. (fun () ->
               R.crash_server w 2));
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:18. (fun () ->
               R.restart_server w 2)))
  in
  let crashes =
    List.filter (fun (_, e) -> match e with Events.Server_crashed _ -> true | _ -> false) tl
  in
  let restarts =
    List.filter
      (fun (_, e) -> match e with Events.Server_restarted _ -> true | _ -> false)
      tl
  in
  check Alcotest.int "one crash event" 1 (List.length crashes);
  check Alcotest.int "one restart event" 1 (List.length restarts)

let test_poisson_crashes_eventually_fire () =
  let tl, _ =
    R.run_scenario (small_scenario ()) ~prepare:(fun w ->
        R.schedule_poisson_crashes w ~lambda:0.5 ~repair:3. ~start:2. ())
  in
  check Alcotest.bool "several crashes at lambda=0.5" true
    (Metrics.session_ids tl <> []
    && List.length
         (List.filter
            (fun (_, e) -> match e with Events.Server_crashed _ -> true | _ -> false)
            tl)
       > 2)

let test_group_wipes_scoped () =
  (* Wipes with kill_prob 1.0 must only ever crash servers that were
     serving the targeted session, never the whole cluster at once (at
     most primary + backups per event). *)
  let sc = { (small_scenario ()) with n_servers = 5 } in
  let tl, _ =
    R.run_scenario sc ~prepare:(fun w ->
        R.schedule_group_wipes w ~every:8. ~kill_prob:1.0 ~repair:2. ())
  in
  (* Group size = 1 primary + 1 backup (default policy): each wipe kills
     at most 2 servers. *)
  let crash_times = Hashtbl.create 8 in
  List.iter
    (fun (at, e) ->
      match e with
      | Events.Server_crashed _ ->
          Hashtbl.replace crash_times at (1 + Option.value (Hashtbl.find_opt crash_times at) ~default:0)
      | _ -> ())
    tl;
  Hashtbl.iter
    (fun at n ->
      if n > 2 then Alcotest.failf "wipe at %.1f killed %d servers" at n)
    crash_times

let test_registry_complete () =
  let module Reg = Haf_experiments.Registry in
  (* e1..e16 plus e18; e17 is the real-UDP cluster harness
     (bin/haf_cluster), which cannot run inside the registry. *)
  check Alcotest.int "seventeen experiments" 17 (List.length Reg.all);
  check
    (Alcotest.list Alcotest.string)
    "ids in order, e17 external"
    (List.init 16 (fun i -> Printf.sprintf "e%d" (i + 1)) @ [ "e18" ])
    (List.map (fun e -> e.Reg.id) Reg.all);
  check Alcotest.bool "find works" true (Reg.find "e3" <> None);
  check Alcotest.bool "find rejects unknown" true (Reg.find "e99" = None)

(* Run the cheapest analytical experiment end to end as a smoke test;
   the simulation-heavy ones run through `bin/haf_experiments.exe all`. *)
let test_e9_runs () =
  let module Reg = Haf_experiments.Registry in
  match Reg.find "e9" with
  | Some e ->
      let tables = e.Reg.run ~quick:true in
      check Alcotest.int "one table" 1 (List.length tables);
      let rendered = Haf_stats.Table.render (List.hd tables) in
      check Alcotest.bool "has rows" true (String.length rendered > 200)
  | None -> Alcotest.fail "e9 missing"

(* The scale mode ([session_shards] > 0: shard groups) plus a mid-run
   primary crash.  Incremental placement's whole assignment is checked
   against the full selection (test_core), and the scale mode runs
   under a chaos schedule (test_chaos).  This is the end-to-end check
   that the monitored protocol still grants, streams, and takes over
   cleanly in the scale mode. *)
let test_fast_path_knobs_combined () =
  let sc =
    {
      (small_scenario ~seed:11 ()) with
      Scenario.policy = { Haf_core.Policy.default with session_shards = 4 };
    }
  in
  let tl, w =
    R.run_scenario sc ~prepare:(fun w ->
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:12. (fun () ->
               R.crash_server w 0)))
  in
  (match R.violations w with
  | [] -> ()
  | vs ->
      Alcotest.failf "monitor recorded %d violation(s), first: %s"
        (List.length vs)
        (Format.asprintf "%a" Haf_stats.Metrics.pp_violation (List.hd vs)));
  let sids = Metrics.session_ids tl in
  check Alcotest.int "two sessions granted" 2 (List.length sids);
  List.iter
    (fun sid ->
      check Alcotest.bool
        (Printf.sprintf "%s streams under knobs" sid)
        true
        (List.length (Metrics.responses_received tl ~sid) > 20))
    sids;
  let takeovers =
    List.filter (fun (_, e) -> match e with Events.Takeover _ -> true | _ -> false) tl
  in
  check Alcotest.bool "crash triggered at least one takeover" true
    (List.length takeovers >= 1)

let suite =
  [
    ( "experiments.runner",
      [
        Alcotest.test_case "basic run" `Quick test_runner_basic;
        Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_runner_seed_changes_run;
        Alcotest.test_case "unit placement" `Quick test_unit_placement;
        Alcotest.test_case "fault events emitted" `Quick test_crash_and_restart_emit_events;
        Alcotest.test_case "poisson crashes" `Quick test_poisson_crashes_eventually_fire;
        Alcotest.test_case "group wipes scoped" `Quick test_group_wipes_scoped;
        Alcotest.test_case "fast-path knobs combined" `Quick
          test_fast_path_knobs_combined;
      ] );
    ( "experiments.registry",
      [
        Alcotest.test_case "complete" `Quick test_registry_complete;
        Alcotest.test_case "e9 runs" `Quick test_e9_runs;
      ] );
  ]
