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

(* The latency fold subscribed online sees the run exactly as the
   retained timeline replays it: one grant sample per session and the
   same crash-takeover samples after a primary crash. *)
let test_latency_fold_online_matches_timeline () =
  let online = Metrics.latencies () in
  let tl, _ =
    R.run_scenario (small_scenario ()) ~prepare:(fun w ->
        Events.subscribe w.R.events (Metrics.observe online);
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:12. (fun () ->
               R.crash_server w 0)))
  in
  let samples = Alcotest.list (Alcotest.float 0.) in
  let grants = Metrics.grant_latencies tl and takeovers = Metrics.takeover_latencies tl in
  check Alcotest.int "one grant sample per session"
    (List.length (Metrics.session_ids tl))
    (List.length grants);
  check Alcotest.bool "the crash was taken over" true (takeovers <> []);
  check samples "grants online = timeline" grants (Metrics.grants online);
  check samples "takeovers online = timeline" takeovers (Metrics.takeovers online)

(* Per-session context must not grow with session age.  The deployment
   [Runner.setup] builds for [Scenario.default], under Vod with 4
   clients x 4 concurrent sessions, one update per 0.1 s, stable storage
   on and no fault, composed here over a substrate whose [send] records
   the largest datagram of the current window.  The largest datagram of
   the 10 s ending at 60 s of session age must equal that of the 10 s
   ending at 180 s, and so must the largest [Ctx] record in the
   durable WAL at those two ages.  While every applied seq travelled as
   its own list cell, the 60 s / 180 s figures were 6,818 / 21,218 B per
   datagram and 2,256 / 7,056 B per record; with interval sets they are
   311 B and 61 B at both ages. *)
module RV = Haf_experiments.Runner.Make (Haf_services.Vod)

let test_context_flat_in_session_age () =
  let sc =
    {
      Scenario.default with
      n_clients = 4;
      request_interval = 0.1;
      store = Some Haf_store.Store.default_config;
    }
  in
  let engine = Haf_sim.Engine.create ~seed:sc.Scenario.seed () in
  let net = Haf_net.Network.create engine sc.Scenario.net_config in
  let base = Haf_net.Network.substrate net in
  let window_max = ref 0 in
  let sub =
    {
      base with
      Haf_net.Substrate.send =
        (fun ?label ~src ~dst payload ->
          window_max := Int.max !window_max (String.length payload);
          base.Haf_net.Substrate.send ?label ~src ~dst payload);
    }
  in
  let servers = List.init sc.Scenario.n_servers Fun.id in
  let gcs =
    Haf_gcs.Gcs.create_on ~gcs_config:sc.Scenario.gcs_config ~servers ~local:servers sub
  in
  let events = Events.make_sink ~retain:false () in
  let catalog = List.init sc.Scenario.n_units Scenario.unit_name in
  let stores =
    List.map
      (fun p ->
        let st =
          Haf_store.Store.create ~name:(Printf.sprintf "disk.s%d" p)
            Haf_store.Store.default_config engine
        in
        let units =
          List.filter
            (fun u -> List.mem p (Scenario.servers_for_unit sc u))
            (List.init sc.Scenario.n_units Fun.id)
          |> List.map Scenario.unit_name
        in
        ignore
          (RV.Fw.Server.create ~store:st gcs ~proc:p ~policy:sc.Scenario.policy ~units
             ~catalog ~events);
        st)
      servers
  in
  let clients =
    List.init sc.Scenario.n_clients (fun _ ->
        RV.Fw.Client.create gcs ~proc:(Haf_gcs.Gcs.add_client gcs)
          ~policy:sc.Scenario.policy ~events)
  in
  let start = sc.Scenario.warmup in
  Haf_sim.Engine.run ~until:start engine;
  List.iteri
    (fun ci client ->
      for si = 0 to 3 do
        ignore
          (RV.Fw.Client.start_session client
             ~unit_id:(Scenario.unit_name ((ci + si) mod sc.Scenario.n_units))
             ~duration:1000. ~request_interval:sc.Scenario.request_interval)
      done)
    clients;
  let largest_ctx_record () =
    List.fold_left
      (fun acc st ->
        let wal = Haf_store.Wal.replay (Haf_store.Disk.durable (Haf_store.Store.wal_disk st)) in
        List.fold_left
          (fun acc r ->
            match RV.Fw.decode_op r with
            | Ctx _ -> Int.max acc (String.length r)
            | Add _ | End _ | Assign _ | Merge _ -> acc)
          acc wal.Haf_store.Wal.records)
      0 stores
  in
  let at_age age =
    Haf_sim.Engine.run ~until:(start +. age -. 10.) engine;
    window_max := 0;
    Haf_sim.Engine.run ~until:(start +. age) engine;
    (!window_max, largest_ctx_record ())
  in
  let dgram_60, ctx_60 = at_age 60. in
  let dgram_180, ctx_180 = at_age 180. in
  check Alcotest.bool "updates flowed" true (ctx_60 > 0);
  check Alcotest.int "largest datagram: 180 s as at 60 s" dgram_60 dgram_180;
  check Alcotest.int "largest Ctx record: 180 s as at 60 s" ctx_60 ctx_180

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
        Alcotest.test_case "latency fold online = timeline" `Quick
          test_latency_fold_online_matches_timeline;
        Alcotest.test_case "fast-path knobs combined" `Quick
          test_fast_path_knobs_combined;
        Alcotest.test_case "context flat in session age" `Quick
          test_context_flat_in_session_age;
      ] );
    ( "experiments.registry",
      [
        Alcotest.test_case "complete" `Quick test_registry_complete;
        Alcotest.test_case "e9 runs" `Quick test_e9_runs;
      ] );
  ]
