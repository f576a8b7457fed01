(* Incremental-vs-full monitor equivalence.

   [Monitor.pump] replaces the per-pump population scan with dirty-set
   indices (a staleness deadline min-heap and a dual-primary watch set).
   The claim in monitor.mli is strong: it records the {e identical}
   violation ledger — same order, same timestamps, same details — that
   the full scan [Monitor.pump_reference] records, on any well-formed
   event stream.  This file holds that claim to account three ways:

   - a qcheck property drives two monitors (one per pump) attached to
     the SAME events sink over random histories of grants, role churn,
     crashes, link faults, propagations (with occasional dropped acked
     seqs) and view notes, pumped at random times, and asserts the
     ledgers are equal element-wise;
   - a directed history provokes each pump-evaluated invariant
     (dual primary, staleness) plus the event-driven acked-loss check,
     so the property is known to range over non-empty ledgers;
   - a scenario-level run replays one corruption-heavy chaos schedule
     with both pumps attached, and at every probe compares the
     runner's [unique_primaries] verdict (candidates from the monitor's
     claims index) with a scan of every session — the legality
     Stabilize's quiescence clock polls.

   Every Network crash/recover in the random driver is mirrored as a
   [Server_crashed]/[Server_restarted] event.  This mirrors the
   framework's contract (the fault injectors always emit both) and is
   load-bearing for the test: a silent [Network.crash] would leave the
   full scan resetting the staleness clock every pump (no live primary)
   while the incremental heap still holds the old deadline — a timing
   skew of up to one staleness bound that no real run can produce. *)

module Events = Haf_core.Events
module Monitor = Haf_monitor.Monitor
module Stabilize = Haf_monitor.Stabilize
module Network = Haf_net.Network
module Engine = Haf_sim.Engine
module Metrics = Haf_stats.Metrics
module Chaos = Haf_chaos.Chaos
module Scenario = Haf_experiments.Scenario
module R = Haf_experiments.Runner.Make (Haf_services.Synthetic)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Random-history driver: one sink, two monitors                       *)

let n_servers = 4

let sids = [| "sa"; "sb"; "sc"; "sd"; "se"; "sf" |]

let unit_of i = Printf.sprintf "u%02d" (i mod 2)

type op =
  | Grant of int * int  (* session idx granted with this primary *)
  | Assume of int * int  (* server believes itself primary *)
  | Drop of int * int
  | End_session of int
  | Crash of int
  | Recover of int
  | Link of int * int * bool
  | Heal
  | Propagate of int * int * bool  (* session, emitter, drop acked history *)
  | View_note of int * int  (* server, session idx (-> its content unit) *)
  | Pump

let op_to_string = function
  | Grant (i, s) -> Printf.sprintf "grant %s s%d" sids.(i) s
  | Assume (i, s) -> Printf.sprintf "assume %s s%d" sids.(i) s
  | Drop (i, s) -> Printf.sprintf "drop %s s%d" sids.(i) s
  | End_session i -> Printf.sprintf "end %s" sids.(i)
  | Crash s -> Printf.sprintf "crash s%d" s
  | Recover s -> Printf.sprintf "recover s%d" s
  | Link (a, b, up) -> Printf.sprintf "link s%d s%d %b" a b up
  | Heal -> "heal"
  | Propagate (i, s, drop) -> Printf.sprintf "propagate %s s%d drop:%b" sids.(i) s drop
  | View_note (s, i) -> Printf.sprintf "view s%d %s" s (unit_of i)
  | Pump -> "pump"

(* Tight bounds so violations actually occur inside short histories:
   the equivalence claim is only interesting on non-empty ledgers. *)
let test_config =
  {
    Monitor.dual_primary_grace = 0.75;
    staleness_bound = 3.0;
    ack_confirm_delay = 0.4;
  }

let viol_eq (a : Metrics.violation) (b : Metrics.violation) =
  a.Metrics.v_time = b.Metrics.v_time
  && a.Metrics.v_invariant = b.Metrics.v_invariant
  && a.Metrics.v_session = b.Metrics.v_session
  && a.Metrics.v_detail = b.Metrics.v_detail

let ledgers_eq va vb =
  List.length va = List.length vb && List.for_all2 viol_eq va vb

(* Replay one history into two monitors sharing the sink and the
   network, one driven by [pump_reference] and one by [pump]; return
   both ledgers. *)
let replay steps =
  let engine = Engine.create ~seed:1 () in
  let net = Network.create engine Network.default_config in
  let servers = List.init n_servers (fun _ -> Network.add_node net) in
  let node = Array.of_list servers in
  let sink = Events.make_sink ~retain:false () in
  let mk () =
    Monitor.create ~config:test_config ~network:net ~servers
      ~policy:Haf_core.Policy.default ~gcs:Haf_gcs.Config.default ~events:sink
      ()
  in
  let m_full = mk () in
  let m_incr = mk () in
  let pump_both ~now =
    Monitor.pump_reference m_full ~now;
    Monitor.pump m_incr ~now
  in
  let seq = Array.make (Array.length sids) 0 in
  let now = ref 0.0 in
  let emit ev = Events.emit sink ~now:!now ev in
  List.iter
    (fun (dt, op) ->
      now := !now +. dt;
      match op with
      (* Role beliefs are only ever asserted by live servers
         ([Role_assumed] is emitted by the server itself), so the
         generator never targets a crashed one — the well-formedness
         half of the monitor's stream contract.  Without it a belief in
         an already-dead primary can flip back into a checkable state
         through a bare [Network.recover], with no event for the
         incremental indices to see. *)
      | Grant (i, srv) ->
          if Network.alive net node.(srv) then begin
            emit
              (Events.Session_requested
                 { client = 0; session_id = sids.(i); unit_id = unit_of i });
            emit
              (Events.Session_granted
                 { client = 0; session_id = sids.(i); primary = srv });
            emit
              (Events.Role_assumed
                 { server = srv; session_id = sids.(i); role = Events.Primary })
          end
      | Assume (i, srv) ->
          if Network.alive net node.(srv) then
            emit
              (Events.Role_assumed
                 { server = srv; session_id = sids.(i); role = Events.Primary })
      | Drop (i, srv) ->
          emit
            (Events.Role_dropped
               { server = srv; session_id = sids.(i); role = Events.Primary })
      | End_session i -> emit (Events.Session_ended { session_id = sids.(i) })
      | Crash s ->
          if Network.alive net node.(s) then begin
            Network.crash net node.(s);
            emit (Events.Server_crashed { server = node.(s) })
          end
      | Recover s ->
          if not (Network.alive net node.(s)) then begin
            Network.recover net node.(s);
            emit (Events.Server_restarted { server = node.(s) })
          end
      | Link (a, b, up) ->
          if a <> b then Network.set_link_sym net node.(a) node.(b) up
      | Heal -> Network.heal_links net
      | Propagate (i, srv, drop) ->
          let k = seq.(i) + 1 in
          seq.(i) <- k;
          let applied = if drop then [ k ] else List.init k (fun j -> j + 1) in
          emit
            (Events.Propagated
               {
                 server = srv;
                 session_id = sids.(i);
                 applied = Haf_core.Seqset.of_list applied;
               })
      | View_note (srv, i) ->
          let members =
            List.filter (fun s -> Network.alive net s) servers
          in
          emit
            (Events.View_noted
               {
                 server = srv;
                 group = Haf_core.Naming.content_group (unit_of i);
                 members;
               })
      | Pump -> pump_both ~now:!now)
    steps;
  (* Flush: pump past the staleness bound and the dual grace so every
     armed deadline and open episode gets its verdict in both pumps. *)
  pump_both ~now:!now;
  pump_both ~now:(!now +. test_config.Monitor.staleness_bound +. 0.1);
  pump_both ~now:(!now +. (2. *. test_config.Monitor.staleness_bound) +. 0.2);
  ( Monitor.violations m_full,
    Monitor.violations m_incr,
    Monitor.events_seen m_full,
    Monitor.events_seen m_incr )

(* ------------------------------------------------------------------ *)
(* qcheck: random histories                                            *)

let op_gen =
  let open QCheck.Gen in
  let si = int_range 0 (Array.length sids - 1) in
  let sv = int_range 0 (n_servers - 1) in
  frequency
    [
      (3, map2 (fun i s -> Grant (i, s)) si sv);
      (3, map2 (fun i s -> Assume (i, s)) si sv);
      (2, map2 (fun i s -> Drop (i, s)) si sv);
      (1, map (fun i -> End_session i) si);
      (2, map (fun s -> Crash s) sv);
      (2, map (fun s -> Recover s) sv);
      (2, map3 (fun a b up -> Link (a, b, up)) sv sv bool);
      (1, return Heal);
      (4, map3 (fun i s d -> Propagate (i, s, d)) si sv bool);
      (2, map2 (fun s i -> View_note (s, i)) sv si);
      (5, return Pump);
    ]

let step_gen =
  QCheck.Gen.(
    pair (map (fun k -> 0.05 +. (0.01 *. float_of_int k)) (int_range 0 115)) op_gen)

let steps_arb =
  (* The printer replays the failing history and appends both ledgers:
     a divergence report arrives pre-diffed. *)
  let pp_ledger tag vs =
    Printf.sprintf "%s (%d):\n%s" tag (List.length vs)
      (String.concat "\n"
         (List.map
            (fun v ->
              Printf.sprintf "  %.3f %s %s %s" v.Metrics.v_time
                (Metrics.invariant_to_string v.Metrics.v_invariant)
                (Option.value v.Metrics.v_session ~default:"-")
                v.Metrics.v_detail)
            vs))
  in
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun steps ->
      let vf, vi, _, _ = replay steps in
      String.concat "\n"
        (List.map (fun (dt, op) -> Printf.sprintf "+%.2f %s" dt (op_to_string op)) steps)
      ^ "\n" ^ pp_ledger "full" vf ^ "\n" ^ pp_ledger "incr" vi)
    QCheck.Gen.(list_size (int_range 0 120) step_gen)

let prop_equivalence =
  QCheck.Test.make ~count:300
    ~name:"monitor: incremental ledger == full-scan ledger, element-wise"
    steps_arb
    (fun steps ->
      let vf, vi, ef, ei = replay steps in
      ef = ei && ledgers_eq vf vi)

(* ------------------------------------------------------------------ *)
(* Directed histories: each invariant provoked, both pumps agree       *)

let invariants vs = List.sort_uniq compare (List.map (fun v -> v.Metrics.v_invariant) vs)

let test_directed_all_invariants () =
  let steps =
    [
      (* s0: dual primary in one healthy clique, past the 0.75s grace. *)
      (0.1, Grant (0, 0));
      (0.1, Assume (0, 1));
      (0.1, Pump);
      (1.0, Pump);
      (* s1: granted, then silent beyond the 3s staleness bound with its
         primary alive the whole time. *)
      (0.1, Grant (1, 2));
      (0.1, Propagate (1, 2, false));
      (3.5, Pump);
      (* s2: sole primary's later propagation drops acked seqs 1-2 after
         the 0.4s confirmation window passed with no view change. *)
      (0.1, Grant (2, 3));
      (0.1, Propagate (2, 3, false));
      (0.2, Propagate (2, 3, false));
      (0.6, Propagate (2, 3, true));
      (0.1, Pump);
    ]
  in
  let vf, vi, ef, ei = replay steps in
  check Alcotest.int "both monitors saw every event" ef ei;
  check Alcotest.bool "ledgers identical" true (ledgers_eq vf vi);
  check
    (Alcotest.list Alcotest.string)
    "all three invariant families provoked"
    [ "no-acked-loss"; "staleness-bound"; "unique-primary" ]
    (List.sort compare (List.map Metrics.invariant_to_string (invariants vf)))

let test_directed_crash_suspends_staleness () =
  (* The staleness clock must suspend while no primary is up, in both
     pumps: crash the sole primary right after a propagation, stay
     silent well past the bound, recover and re-assume — no violation. *)
  let steps =
    [
      (0.1, Grant (0, 0));
      (0.1, Propagate (0, 0, false));
      (0.2, Crash 0);
      (4.0, Pump);
      (0.1, Recover 0);
      (0.1, Assume (0, 0));
      (0.1, Propagate (0, 0, false));
      (0.1, Pump);
      (0.1, End_session 0);
    ]
  in
  let vf, vi, _, _ = replay steps in
  check Alcotest.bool "ledgers identical" true (ledgers_eq vf vi);
  check Alcotest.int "no violations: clock suspended during the outage" 0
    (List.length vf)

let test_directed_partitioned_duals_not_flagged () =
  (* Two primaries on opposite sides of a cut are the paper's intended
     WAN behaviour; both pumps must stay silent, then flag once the
     partition heals and the grace passes. *)
  let steps =
    [
      (0.1, Grant (0, 0));
      (0.1, Link (0, 1, false));
      (0.1, Link (0, 2, false));
      (0.1, Link (0, 3, false));
      (0.1, Assume (0, 1));
      (0.2, Pump);
      (1.5, Pump);
      (* partitioned: nothing flagged yet *)
      (0.1, Heal);
      (0.1, Pump);
      (1.0, Pump);
    ]
  in
  let vf, vi, _, _ = replay steps in
  check Alcotest.bool "ledgers identical" true (ledgers_eq vf vi);
  let dual =
    List.filter (fun v -> v.Metrics.v_invariant = Metrics.Unique_primary) vf
  in
  check Alcotest.int "flagged exactly once, after the heal" 1 (List.length dual);
  (* The heal lands at t>=2.2; any earlier flag means the partitioned
     phase was wrongly counted against the grace. *)
  List.iter
    (fun v ->
      check Alcotest.bool "flag postdates the heal" true (v.Metrics.v_time > 2.2))
    dual

let test_directed_long_acked_loss () =
  (* A long session: the sole primary's acked history holds 5,000 seqs,
     and its next propagation lacks only seq 2,500.  The acked-loss
     check is one merge pass over the two ascending lists, and the
     ledger names exactly the missing seq. *)
  let engine = Engine.create ~seed:1 () in
  let net = Network.create engine Network.default_config in
  let servers = List.init n_servers (fun _ -> Network.add_node net) in
  let sink = Events.make_sink ~retain:false () in
  let m =
    Monitor.create ~config:test_config ~network:net ~servers
      ~policy:Haf_core.Policy.default ~gcs:Haf_gcs.Config.default ~events:sink
      ()
  in
  let emit now ev = Events.emit sink ~now ev in
  emit 0.1
    (Events.Session_granted { client = 0; session_id = "sa"; primary = 0 });
  emit 0.1
    (Events.Role_assumed { server = 0; session_id = "sa"; role = Events.Primary });
  let n = 5_000 and lost = 2_500 in
  let all = List.init n (fun j -> j + 1) in
  emit 0.2
    (Events.Propagated
       { server = 0; session_id = "sa"; applied = Haf_core.Seqset.of_list all });
  emit 1.0
    (Events.Propagated
       {
         server = 0;
         session_id = "sa";
         applied = Haf_core.Seqset.of_list (List.filter (fun seq -> seq <> lost) all);
       });
  Monitor.pump m ~now:1.0;
  match Monitor.violations m with
  | [ v ] ->
      check Alcotest.string "acked-loss flagged" "no-acked-loss"
        (Metrics.invariant_to_string v.Metrics.v_invariant);
      check Alcotest.string "names exactly the missing seq"
        "propagation by s0 dropped acked seqs [2500] although [s0] survived \
         since 0.200"
        v.Metrics.v_detail
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* The claims index the runner's legality probe reads                  *)

let test_multi_primary_sessions () =
  let engine = Engine.create ~seed:1 () in
  let net = Network.create engine Network.default_config in
  let servers = List.init 3 (fun _ -> Network.add_node net) in
  let sink = Events.make_sink ~retain:false () in
  let m =
    Monitor.create ~config:test_config ~network:net ~servers
      ~policy:Haf_core.Policy.default ~gcs:Haf_gcs.Config.default ~events:sink ()
  in
  let emit ev = Events.emit sink ~now:1. ev in
  let assume server session_id =
    emit (Events.Role_assumed { server; session_id; role = Events.Primary })
  in
  let listed what expected =
    check Alcotest.(list string) what expected (Monitor.multi_primary_sessions m)
  in
  assume 0 "sb";
  emit (Events.Role_assumed { server = 1; session_id = "sb"; role = Events.Backup });
  listed "one primary claim and a backup are no dual" [];
  assume 1 "sb";
  listed "two servers claiming sb list it" [ "sb" ];
  assume 2 "sc";
  assume 1 "sc";
  assume 2 "sa";
  assume 0 "sa";
  listed "in ascending id" [ "sa"; "sb"; "sc" ];
  emit (Events.Role_dropped { server = 1; session_id = "sb"; role = Events.Primary });
  listed "a drop delists sb" [ "sa"; "sc" ];
  emit (Events.Server_crashed { server = 2 });
  listed "a crash delists every session it claimed" [];
  assume 0 "sc";
  listed "a fresh second claim lists sc again" [ "sc" ]

(* ------------------------------------------------------------------ *)
(* Scenario-level: corruption episodes on the dirty-set path           *)

let stabilize_scenario =
  {
    Scenario.default with
    seed = 11;
    n_servers = 3;
    n_units = 1;
    replication = 2;
    n_clients = 1;
    sessions_per_client = 1;
    session_duration = 50.;
    duration = 60.;
  }

(* Reference legality: scan every session, judging each against the
   servers' actual beliefs. *)
let unique_primaries_reference (w : R.world) =
  let net = Haf_gcs.Gcs.network w.R.gcs in
  let servers = Haf_gcs.Gcs.servers w.R.gcs in
  let live = R.live_servers w in
  List.for_all
    (fun sid ->
      let ps =
        List.filter_map
          (fun (p, srv) -> if R.Fw.Server.is_primary_of srv sid then Some p else None)
          live
      in
      List.for_all
        (fun p ->
          List.for_all
            (fun q -> p >= q || not (Network.reachable net ~among:servers p q))
            ps)
        ps)
    (R.all_session_ids w)

type probes = {
  mutable p_count : int;
  mutable p_illegal : int;  (* reference verdicts that were false *)
  mutable p_disagree : int;
  mutable p_ledgers : (Metrics.violation list * Metrics.violation list) option;
}

(* One corruption-heavy chaos schedule.  With [probe], two extra
   monitors ride the run's sink — one per pump, pumped together on the
   runner's monitor period — and every probe compares the claims-index
   uniqueness verdict with the full scan. *)
let run_corruption ~probe =
  let sc = stabilize_scenario in
  let sched =
    Chaos.generate ~seed:91 ~intensity:0.8 ~corruption:12
      ~horizon:sc.Scenario.duration ~n_servers:sc.Scenario.n_servers
      ~n_units:sc.Scenario.n_units ()
  in
  let pr = { p_count = 0; p_illegal = 0; p_disagree = 0; p_ledgers = None } in
  let tl, w =
    R.run_scenario sc ~prepare:(fun w ->
        ignore (R.track_stabilization w ~window:20.);
        R.apply_schedule w sched;
        if probe then begin
          let mk () =
            Monitor.create ~network:(Haf_gcs.Gcs.network w.R.gcs)
              ~servers:(Haf_gcs.Gcs.servers w.R.gcs) ~policy:sc.Scenario.policy
              ~gcs:sc.Scenario.gcs_config ~events:w.R.events ()
          in
          let m_full = mk () and m_incr = mk () in
          let rec loop t =
            if t <= sc.Scenario.duration then
              ignore
                (Engine.schedule_at w.R.engine ~time:t (fun () ->
                     let now = Engine.now w.R.engine in
                     Monitor.pump_reference m_full ~now;
                     Monitor.pump m_incr ~now;
                     let reference = unique_primaries_reference w in
                     pr.p_count <- pr.p_count + 1;
                     if not reference then pr.p_illegal <- pr.p_illegal + 1;
                     if R.unique_primaries w <> reference then
                       pr.p_disagree <- pr.p_disagree + 1;
                     if t +. sc.Scenario.monitor_interval > sc.Scenario.duration
                     then
                       pr.p_ledgers <-
                         Some (Monitor.violations m_full, Monitor.violations m_incr);
                     loop (t +. sc.Scenario.monitor_interval)))
          in
          loop sc.Scenario.monitor_interval
        end)
  in
  let injected, times =
    match w.R.stabilizer with
    | Some st -> (Stabilize.injected st, Stabilize.reconvergence_times st)
    | None -> (0, [])
  in
  ((List.length tl, R.violations w, injected, times), pr)

let test_corruption_run_equivalence () =
  (* The probed run must be indistinguishable from a plain one — the
     reference monitors and scans are pure observers — and inside it
     the dirty-set paths must agree with the full scans at every
     probe. *)
  let (n_plain, v_plain, inj_plain, t_plain), _ = run_corruption ~probe:false in
  let (n, v, inj, times), pr = run_corruption ~probe:true in
  check Alcotest.int "same timeline length" n_plain n;
  check Alcotest.bool "same runner ledger" true (ledgers_eq v_plain v);
  check Alcotest.int "same corruption injections" inj_plain inj;
  check (Alcotest.list (Alcotest.float 1e-9)) "same reconvergence times" t_plain times;
  check Alcotest.bool "the oracle actually saw corruption episodes" true (inj > 0);
  check Alcotest.bool "probes ran" true (pr.p_count > 100);
  check Alcotest.int "claims index == full scan at every probe" 0 pr.p_disagree;
  check Alcotest.bool "the scans saw a dual-primary instant" true (pr.p_illegal > 0);
  match pr.p_ledgers with
  | None -> Alcotest.fail "final probe never ran"
  | Some (vf, vi) ->
      check Alcotest.bool "pump ledger == pump_reference ledger" true
        (ledgers_eq vf vi)

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "monitor.incremental",
      Alcotest.
        [
          test_case "directed: all invariants, both pumps agree" `Quick
            test_directed_all_invariants;
          test_case "directed: crash suspends the staleness clock" `Quick
            test_directed_crash_suspends_staleness;
          test_case "directed: partitioned duals exempt until heal" `Quick
            test_directed_partitioned_duals_not_flagged;
          test_case "directed: long-session acked loss names the seq" `Quick
            test_directed_long_acked_loss;
          test_case "directed: multi-primary sessions follow claims" `Quick
            test_multi_primary_sessions;
          test_case "scenario: corruption run matches the reference scans"
            `Slow test_corruption_run_equivalence;
        ]
      @ qsuite [ prop_equivalence ] );
  ]
