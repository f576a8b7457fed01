(* Tests for lib/chaos (schedule generation, serialization, shrinking)
   and lib/monitor (online invariant checking), plus the end-to-end
   properties the chaos harness rests on: same seed => byte-identical
   trace, and 0 violations under default configuration. *)

module Chaos = Haf_chaos.Chaos
module Monitor = Haf_monitor.Monitor
module Scenario = Haf_experiments.Scenario
module Metrics = Haf_stats.Metrics
module Config = Haf_gcs.Config
module R = Haf_experiments.Runner.Make (Haf_services.Synthetic)
module Engine = Haf_sim.Engine

let check = Alcotest.check

let gen ?(seed = 42) ?(intensity = 2.0) () =
  Chaos.generate ~seed ~intensity ~horizon:100. ~n_servers:5 ~n_units:2 ()

(* ------------------------------------------------------------------ *)
(* Schedule as a first-class value                                     *)

let test_generate_deterministic () =
  let a = gen () and b = gen () in
  check Alcotest.bool "same seed, same schedule"
    true
    (Chaos.to_string a = Chaos.to_string b);
  let c = gen ~seed:43 () in
  check Alcotest.bool "different seed, different schedule"
    false
    (Chaos.to_string a = Chaos.to_string c)

let test_generate_nonempty_sorted () =
  let s = gen () in
  check Alcotest.bool "nonempty" true (s <> []);
  let times = List.map fst s in
  check Alcotest.bool "time-sorted" true (List.sort compare times = times);
  List.iter
    (fun t -> check Alcotest.bool "within horizon" true (t >= 0. && t <= 100.))
    times

let test_roundtrip () =
  let s = gen ~intensity:3.0 () in
  match Chaos.of_string (Chaos.to_string s) with
  | Error e -> Alcotest.failf "of_string failed: %s" e
  | Ok s' ->
      check Alcotest.bool "roundtrip is identity"
        true
        (Chaos.to_string s = Chaos.to_string s')

let test_of_string_comments_and_errors () =
  (match Chaos.of_string "# a comment\n\n20.0 crash 3\n" with
  | Ok [ (t, Chaos.Crash 3) ] ->
      check (Alcotest.float 1e-9) "time parsed" 20.0 t
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Chaos.of_string "20.0 frobnicate 3" with
  | Ok _ -> Alcotest.fail "bogus op accepted"
  | Error _ -> ()

let test_all_op_kinds_roundtrip () =
  let s : Chaos.schedule =
    [
      (1.0, Chaos.Partition [ [ 0; 1 ]; [ 2 ] ]);
      (2.0, Chaos.Heal);
      (3.0, Chaos.Link { src = 0; dst = 1; up = false });
      (4.0, Chaos.Link { src = 0; dst = 1; up = true });
      (5.0, Chaos.Delay { src = 1; dst = 2; extra = 0.25 });
      (6.0, Chaos.Crash 4);
      (7.0, Chaos.Restart 4);
      (8.0, Chaos.Wipe_unit 1);
      (9.0, Chaos.Disk_faults { server = 2; on = true });
    ]
  in
  match Chaos.of_string (Chaos.to_string s) with
  | Error e -> Alcotest.failf "of_string failed: %s" e
  | Ok s' ->
      check Alcotest.int "all ops survive" (List.length s) (List.length s');
      check Alcotest.bool "identical text" true
        (Chaos.to_string s = Chaos.to_string s')

let test_corruption_roundtrip () =
  (* Every corruption target serializes and parses back, both as a bare
     target name and as a schedule entry. *)
  List.iter
    (fun tgt ->
      let name = Chaos.target_to_string tgt in
      (match Chaos.target_of_string name with
      | Some tgt' -> check Alcotest.bool ("target " ^ name) true (tgt = tgt')
      | None -> Alcotest.failf "target %s does not parse back" name);
      let s = [ (12.5, Chaos.Corrupt { server = 3; target = tgt }) ] in
      match Chaos.of_string (Chaos.to_string s) with
      | Error e -> Alcotest.failf "corrupt-%s entry: %s" name e
      | Ok s' ->
          check Alcotest.bool ("corrupt-" ^ name ^ " roundtrip") true
            (Chaos.to_string s = Chaos.to_string s'))
    Chaos.all_targets;
  check Alcotest.bool "bogus target rejected" true
    (Chaos.target_of_string "frobnicate" = None);
  match Chaos.of_string "3.0 corrupt-frobnicate 1" with
  | Ok _ -> Alcotest.fail "bogus corruption target accepted"
  | Error _ -> ()

let test_generate_corruption_weight () =
  let has_corrupt s =
    List.exists (function _, Chaos.Corrupt _ -> true | _ -> false) s
  in
  let plain = gen () in
  let weighted =
    Chaos.generate ~seed:42 ~intensity:2.0 ~corruption:10 ~horizon:100.
      ~n_servers:5 ~n_units:2 ()
  in
  check Alcotest.bool "weight 10 injects corruptions" true (has_corrupt weighted);
  (* Weight 0 must leave pre-corruption-era seeded schedules
     byte-identical — replayability across the feature boundary. *)
  let zero =
    Chaos.generate ~seed:42 ~intensity:2.0 ~corruption:0 ~horizon:100.
      ~n_servers:5 ~n_units:2 ()
  in
  check Alcotest.bool "weight 0 is byte-identical to the legacy mix" true
    (Chaos.to_string plain = Chaos.to_string zero)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let test_shrink_to_known_core () =
  (* Failure := schedule still contains both ops of a specific pair.
     ddmin must strip the 8 decoys and keep exactly the pair. *)
  let core = [ (10.0, Chaos.Crash 1); (20.0, Chaos.Crash 2) ] in
  let decoys =
    List.init 8 (fun i -> (30.0 +. float_of_int i, Chaos.Heal))
  in
  let sched = core @ decoys in
  let failing cand =
    List.mem (List.nth core 0) cand && List.mem (List.nth core 1) cand
  in
  let minimal, iters = Chaos.shrink ~failing sched in
  check Alcotest.int "minimal is the pair" 2 (List.length minimal);
  check Alcotest.bool "pair preserved" true (failing minimal);
  check Alcotest.bool "spent some iterations" true (iters > 0)

let test_shrink_non_failing_is_identity () =
  let sched = gen () in
  let minimal, _ = Chaos.shrink ~failing:(fun _ -> false) sched in
  check Alcotest.bool "unchanged" true
    (Chaos.to_string minimal = Chaos.to_string sched)

(* ------------------------------------------------------------------ *)
(* End to end: monitored chaos runs                                    *)

let chaos_scenario ~seed =
  {
    Scenario.default with
    seed;
    session_duration = 60.;
    duration = 80.;
  }

let run_chaos ~seed ~intensity =
  let sc = chaos_scenario ~seed in
  let sched =
    Chaos.generate ~seed:(seed * 7) ~intensity ~horizon:sc.Scenario.duration
      ~n_servers:sc.Scenario.n_servers ~n_units:sc.Scenario.n_units ()
  in
  R.run_scenario sc ~prepare:(fun w -> R.apply_schedule w sched)

let test_chaos_run_clean () =
  let _tl, w = run_chaos ~seed:1600 ~intensity:2.0 in
  check Alcotest.int "no invariant violations" 0
    (List.length (R.violations w));
  check Alcotest.bool "monitor saw events" true
    (Monitor.events_seen w.R.monitor > 0)

let test_chaos_trace_deterministic () =
  let render (tl : Metrics.timeline) =
    List.map
      (fun (t, e) -> Format.asprintf "%.6f %a" t Haf_core.Events.pp e)
      tl
    |> String.concat "\n"
  in
  let tl1, _ = run_chaos ~seed:1723 ~intensity:2.0 in
  let tl2, _ = run_chaos ~seed:1723 ~intensity:2.0 in
  check Alcotest.bool "same chaos seed, byte-identical trace" true
    (render tl1 = render tl2);
  let tl3, _ = run_chaos ~seed:1724 ~intensity:2.0 in
  check Alcotest.bool "different seed, different trace" false
    (render tl1 = render tl3)

(* The scale mode under the same faults as the paper's mode: one seeded
   schedule at [session_shards] 0 and 4.  Right after every monitor
   probe, the run must have no violations, and every live server's
   daemon must be a member of exactly the session groups of the
   sessions it holds a role in — no group leaked by a crash, reset or
   handoff, none missing. *)
let test_chaos_scale_mode () =
  List.iter
    (fun shards ->
      let seed = 1600 in
      let sc =
        {
          (chaos_scenario ~seed) with
          Scenario.policy = { Haf_core.Policy.default with session_shards = shards };
        }
      in
      let sched =
        Chaos.generate ~seed:(seed * 7) ~intensity:2.0 ~horizon:sc.Scenario.duration
          ~n_servers:sc.Scenario.n_servers ~n_units:sc.Scenario.n_units ()
      in
      let probes = ref 0 and roles = ref 0 in
      let check_membership w =
        incr probes;
        let at = Engine.now w.R.engine in
        check Alcotest.int
          (Printf.sprintf "shards=%d t=%.1f: no violations" shards at)
          0
          (List.length (R.violations w));
        let group sid = Haf_core.Naming.session_group ~shards sid in
        let expected =
          List.map
            (fun (p, srv) ->
              let served = R.Fw.Server.sessions_served srv in
              roles := !roles + List.length served;
              (p, List.sort_uniq String.compare (List.map (fun (sid, _) -> group sid) served)))
            (R.live_servers w)
        in
        let candidates =
          List.sort_uniq String.compare
            (List.map group (R.all_session_ids w) @ List.concat_map snd expected)
        in
        let wrong =
          List.concat_map
            (fun (p, groups) ->
              List.filter_map
                (fun g ->
                  let joined = Haf_gcs.Gcs.view_of w.R.gcs p g <> None in
                  if joined = List.mem g groups then None
                  else Some (Printf.sprintf "s%d %s %s" p (if joined then "leaked" else "missing") g))
                candidates)
            expected
        in
        check (Alcotest.list Alcotest.string)
          (Printf.sprintf "shards=%d t=%.1f: session-group membership" shards at)
          [] wrong
      in
      let interval = sc.Scenario.monitor_interval in
      let _tl, w =
        R.run_scenario sc ~prepare:(fun w ->
            R.apply_schedule w sched;
            let rec probe_at t =
              if t <= sc.Scenario.duration then
                ignore
                  (Engine.schedule_at w.R.engine ~time:t (fun () ->
                       (* Equal instants fire in scheduling order, so a
                          zero delay lands just after the monitor's probe. *)
                       ignore
                         (Engine.schedule w.R.engine ~delay:0. (fun () -> check_membership w));
                       probe_at (t +. interval)))
            in
            probe_at interval)
      in
      check Alcotest.int (Printf.sprintf "shards=%d: final violations" shards) 0
        (List.length (R.violations w));
      check Alcotest.bool (Printf.sprintf "shards=%d: probed live roles" shards) true
        (!probes > 10 && !roles > 0))
    [ 0; 4 ]

(* A failure detector tuned below the injected delay: the spike forges
   a failure, the two sides each elect a primary, and when the spike
   ends they share one clique component — the monitor must flag it. *)
let test_monitor_catches_dual_primary () =
  let hair_trigger =
    { Config.heartbeat_interval = 0.05; suspect_timeout = 0.12; flush_timeout = 0.3 }
  in
  let sc =
    {
      Scenario.default with
      seed = 7;
      n_servers = 2;
      n_units = 1;
      replication = 2;
      n_clients = 1;
      sessions_per_client = 1;
      session_duration = 70.;
      duration = 80.;
      gcs_config = hair_trigger;
    }
  in
  let sched : Chaos.schedule =
    [
      (20.0, Chaos.Delay { src = 0; dst = 1; extra = 0.6 });
      (20.0, Chaos.Delay { src = 1; dst = 0; extra = 0.6 });
      (45.0, Chaos.Delay { src = 0; dst = 1; extra = 0. });
      (45.0, Chaos.Delay { src = 1; dst = 0; extra = 0. });
    ]
  in
  let _tl, w = R.run_scenario sc ~prepare:(fun w -> R.apply_schedule w sched) in
  let dual =
    List.filter
      (fun v -> v.Metrics.v_invariant = Metrics.Unique_primary)
      (R.violations w)
  in
  check Alcotest.bool "dual primary flagged" true (dual <> [])

(* ------------------------------------------------------------------ *)
(* Self-stabilization: corruption faults under the convergence oracle  *)

let stabilize_scenario ~seed =
  {
    Scenario.default with
    seed;
    n_servers = 3;
    n_units = 1;
    replication = 2;
    n_clients = 1;
    sessions_per_client = 1;
    session_duration = 50.;
    duration = 60.;
  }

let convergence_violations ~window sched =
  let sc = stabilize_scenario ~seed:7 in
  let _tl, w =
    R.run_scenario sc ~prepare:(fun w ->
        ignore (R.track_stabilization w ~window);
        R.apply_schedule w sched)
  in
  ( List.filter
      (fun v -> v.Metrics.v_invariant = Metrics.Convergence)
      (R.violations w),
    w )

let test_hardened_corruption_converges () =
  (* Hardened build: a corruption-heavy seeded schedule, the oracle
     tracks every injection, and no episode overruns the window. *)
  let sc = stabilize_scenario ~seed:7 in
  let sched =
    Chaos.generate ~seed:91 ~intensity:0.8 ~corruption:12
      ~horizon:sc.Scenario.duration ~n_servers:sc.Scenario.n_servers
      ~n_units:sc.Scenario.n_units ()
  in
  let conv, w = convergence_violations ~window:20. sched in
  check Alcotest.int "no convergence violations" 0 (List.length conv);
  match w.R.stabilizer with
  | Some st ->
      check Alcotest.bool "oracle saw the injections" true
        (Haf_monitor.Stabilize.injected st
        >= List.length
             (List.filter (function _, Chaos.Corrupt _ -> true | _ -> false) sched))
  | None -> Alcotest.fail "no stabilizer attached"

(* A mixed crash+corruption schedule against an {e unhardened} build:
   only the epoch corruption is irreparable (nothing moves the epoch
   high-water mark in a steady group), so the oracle flags it and ddmin
   must strip the crash/restart/flap padding down to that single pinned
   corruption entry — which then replays byte-identically. *)
let test_shrink_isolates_corruption () =
  let sched : Chaos.schedule =
    [
      (4.0, Chaos.Link { src = 0; dst = 2; up = false });
      (5.0, Chaos.Link { src = 0; dst = 2; up = true });
      (8.0, Chaos.Crash 2);
      (12.0, Chaos.Restart 2);
      (25.0, Chaos.Corrupt { server = 1; target = Chaos.Epoch });
    ]
  in
  let failing cand =
    let was = !Haf_gcs.Audit.enabled in
    Haf_gcs.Audit.enabled := false;
    Fun.protect
      ~finally:(fun () -> Haf_gcs.Audit.enabled := was)
      (fun () -> fst (convergence_violations ~window:12. cand) <> [])
  in
  check Alcotest.bool "full schedule caught" true (failing sched);
  let minimal, _iters = Chaos.shrink ~failing sched in
  check Alcotest.int "shrinks to one op" 1 (List.length minimal);
  (match minimal with
  | [ (t, Chaos.Corrupt { server = 1; target = Chaos.Epoch }) ] ->
      check (Alcotest.float 1e-9) "the pinned corruption" 25.0 t
  | _ -> Alcotest.fail "minimal schedule is not the corruption entry");
  let text = Chaos.to_string minimal in
  match Chaos.of_string text with
  | Ok parsed ->
      check Alcotest.bool "byte-identical replay text" true
        (Chaos.to_string parsed = text);
      check Alcotest.bool "parsed replay still caught" true (failing parsed)
  | Error e -> Alcotest.failf "minimal schedule does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* The state-exchange trigger: [View.merged], the same at every member  *)

(* Three servers replicating one unit, so every server is in the one
   content group the tests watch. *)
let exchange_scenario ~seed ~sessions ~duration =
  {
    Scenario.default with
    seed;
    n_servers = 3;
    n_units = 1;
    replication = 3;
    n_clients = 30;
    sessions_per_client = sessions;
    session_duration = 2.;
    request_interval = 0.5;
    duration;
  }

let check_replicas_agree w =
  (match R.violations w with
  | [] -> ()
  | v :: _ as vs ->
      Alcotest.failf "%d monitor violation(s), first: %s" (List.length vs)
        (Format.asprintf "%a" Metrics.pp_violation v));
  match List.filter_map (fun (_, srv) -> R.Fw.Server.db srv "u00") (R.live_servers w) with
  | first :: rest ->
      check Alcotest.int "every server live" 3 (1 + List.length rest);
      List.iteri
        (fun i db ->
          check Alcotest.bool
            (Printf.sprintf "replica %d agrees with the first" (i + 1))
            true (Haf_core.Unit_db.equal_shape first db))
        rest
  | [] -> Alcotest.fail "no live replica of u00"

(* Server 2 crashes and restarts 0.1 s later, inside the 0.35 s
   suspicion timeout: the survivors never install a view without it, so
   from their own history the view that readmits it looks like nothing
   changed.  The view is [merged] (server 2 comes from its join
   singleton), so every member starts the exchange at the install
   itself: its digest goes out at the instant it notes the view. *)
let test_fast_rejoin_exchanges_at_install () =
  let sc = exchange_scenario ~seed:5 ~sessions:3 ~duration:20. in
  let crash_at = 6.0 in
  let tl, w =
    R.run_scenario sc ~prepare:(fun w ->
        R.apply_schedule w [ (crash_at, Chaos.Crash 2); (crash_at +. 0.1, Chaos.Restart 2) ])
  in
  let group = Haf_core.Naming.content_group "u00" in
  List.iter
    (fun p ->
      let readmitted =
        List.find_map
          (fun (t, e) ->
            match e with
            | Haf_core.Events.View_noted { server; group = g; members }
              when server = p && t > crash_at && String.equal g group
                   && members = [ 0; 1; 2 ] ->
                Some t
            | _ -> None)
          tl
      in
      match readmitted with
      | None -> Alcotest.failf "s%d never noted the view readmitting s2" p
      | Some at ->
          let digest_at =
            List.find_map
              (fun (t, e) ->
                match e with
                | Haf_core.Events.Exchange_sent { server; group = "u00"; digest = true; _ }
                  when server = p && t >= at ->
                    Some t
                | _ -> None)
              tl
          in
          check
            (Alcotest.option (Alcotest.float 0.))
            (Printf.sprintf "s%d sends its digest as it notes the view" p)
            (Some at) digest_at)
    [ 0; 1; 2 ];
  check_replicas_agree w

(* A GCS audit reset puts server 2's content group in a singleton view
   with no [on_view]; what the others sequence meanwhile reaches it only
   as another previous view's sync entries, noted but not delivered.
   The re-merge is [merged], so the exchange repairs its database; were
   it judged crash-only, the reset replica would keep a session fewer
   than the others. *)
let test_exchange_after_audit_reset () =
  List.iter
    (fun (seed, at, target) ->
      let sc = exchange_scenario ~seed ~sessions:6 ~duration:45. in
      let _tl, w =
        R.run_scenario sc ~prepare:(fun w ->
            R.apply_schedule w [ (at, Chaos.Corrupt { server = 2; target }) ])
      in
      check Alcotest.bool "the audit reset the group" true
        (Haf_gcs.Gcs.total_resets w.R.gcs > 0);
      check_replicas_agree w)
    [ (3, 18.6, Chaos.Epoch); (1, 13.1, Chaos.Clock) ]

let suite =
  [
    ( "chaos.schedule",
      [
        Alcotest.test_case "generate deterministic" `Quick
          test_generate_deterministic;
        Alcotest.test_case "nonempty, sorted, bounded" `Quick
          test_generate_nonempty_sorted;
        Alcotest.test_case "to_string/of_string roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "comments and errors" `Quick
          test_of_string_comments_and_errors;
        Alcotest.test_case "all op kinds roundtrip" `Quick
          test_all_op_kinds_roundtrip;
        Alcotest.test_case "corruption targets roundtrip" `Quick
          test_corruption_roundtrip;
        Alcotest.test_case "corruption weight in generate" `Quick
          test_generate_corruption_weight;
      ] );
    ( "chaos.shrink",
      [
        Alcotest.test_case "ddmin finds known core" `Quick
          test_shrink_to_known_core;
        Alcotest.test_case "non-failing schedule unchanged" `Quick
          test_shrink_non_failing_is_identity;
      ] );
    ( "chaos.monitored",
      [
        Alcotest.test_case "chaos run has 0 violations" `Slow
          test_chaos_run_clean;
        Alcotest.test_case "trace deterministic per seed" `Slow
          test_chaos_trace_deterministic;
        Alcotest.test_case "monitor catches dual primary" `Slow
          test_monitor_catches_dual_primary;
        Alcotest.test_case "scale mode under chaos" `Slow test_chaos_scale_mode;
      ] );
    ( "chaos.stabilize",
      [
        Alcotest.test_case "hardened corruption run converges" `Slow
          test_hardened_corruption_converges;
        Alcotest.test_case "ddmin isolates the corruption" `Slow
          test_shrink_isolates_corruption;
      ] );
    ( "chaos.exchange_trigger",
      [
        Alcotest.test_case "fast rejoin exchanges at install" `Quick
          test_fast_rejoin_exchanges_at_install;
        Alcotest.test_case "exchange after a GCS audit reset" `Slow
          test_exchange_after_audit_reset;
      ] );
  ]
