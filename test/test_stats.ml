(* Tests for the statistics layer: summaries, table rendering and the
   event-timeline metrics. *)

module Summary = Haf_stats.Summary
module Table = Haf_stats.Table
module Metrics = Haf_stats.Metrics
module Events = Haf_core.Events

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_summary_basics () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4. ] in
  check Alcotest.int "n" 4 s.Summary.n;
  check (Alcotest.float 1e-9) "mean" 2.5 s.Summary.mean;
  check (Alcotest.float 1e-9) "min" 1. s.Summary.min;
  check (Alcotest.float 1e-9) "max" 4. s.Summary.max;
  check (Alcotest.float 1e-6) "stddev" 1.290994 s.Summary.stddev

let test_summary_empty () =
  let s = Summary.of_list [] in
  check Alcotest.int "n" 0 s.Summary.n;
  check (Alcotest.float 1e-9) "mean 0" 0. s.Summary.mean;
  check (Alcotest.float 1e-9) "ci 0" 0. (Summary.ci95_halfwidth s)

let test_summary_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50. (Summary.percentile xs 50.);
  check (Alcotest.float 1e-9) "p95" 95. (Summary.percentile xs 95.);
  check (Alcotest.float 1e-9) "p100" 100. (Summary.percentile xs 100.)

let prop_summary_mean_bounds =
  QCheck.Test.make ~name:"summary: min <= mean <= max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_bound_inclusive 100.))
    (fun xs ->
      let s = Summary.of_list xs in
      s.Summary.min <= s.Summary.mean +. 1e-9 && s.Summary.mean <= s.Summary.max +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("n", Table.Right) ] () in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  check Alcotest.bool "aligned header" true
    (String.length out > 0
    && List.exists
         (fun line -> line = "| alpha |  1 |")
         (String.split_on_char '\n' out))

let test_table_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] () in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_csv () =
  let t = Table.create ~columns:[ ("a", Table.Left); ("b", Table.Left) ] () in
  Table.add_row t [ "x,1"; "plain" ];
  check Alcotest.string "csv escaping" "a,b\n\"x,1\",plain" (Table.to_csv t)

let test_table_formatters () =
  check Alcotest.string "pct" "12.50%" (Table.fpct 0.125);
  check Alcotest.string "prob small" "1.00e-05" (Table.fprob 1e-5);
  check Alcotest.string "prob zero" "0" (Table.fprob 0.);
  check Alcotest.string "float prec" "1.23" (Table.ffloat ~prec:2 1.2345)

(* ------------------------------------------------------------------ *)
(* Metrics: hand-built timelines *)

let ev at e = (at, e)

let recv ?(crit = false) ?(from = 0) at id =
  ev at
    (Events.Response_received
       { client = 9; session_id = "s"; id; critical = crit; from_server = from })

let granted at = ev at (Events.Session_granted { client = 9; session_id = "s"; primary = 0 })

let test_metrics_duplicates_missing () =
  let tl = [ granted 0.; recv 1. 10; recv 2. 11; recv 3. 11; recv 4. 13 ] in
  check Alcotest.int "one duplicate" 1 (Metrics.duplicates tl ~sid:"s");
  check Alcotest.int "one missing (12)" 1 (Metrics.missing tl ~sid:"s");
  check Alcotest.int "other session clean" 0 (Metrics.duplicates tl ~sid:"t")

let test_metrics_stall_and_availability () =
  (* Granted at 0; responses at 1,2,3 then silence until 8, then 9. *)
  let tl = [ granted 0.; recv 1. 1; recv 2. 2; recv 3. 3; recv 8. 4; recv 9. 5 ] in
  let stall = Metrics.stall_time tl ~sid:"s" ~threshold:1.5 ~until:10. in
  (* Gaps: 0->1 (ok), 3->8 (3.5s over threshold), 9->10 (ok). *)
  check (Alcotest.float 1e-9) "stall" 3.5 stall;
  check (Alcotest.float 1e-9) "availability" 0.65
    (Metrics.availability tl ~sid:"s" ~threshold:1.5 ~until:10.)

let test_metrics_availability_ungranted () =
  check (Alcotest.float 1e-9) "never granted -> 0" 0.
    (Metrics.availability [] ~sid:"s" ~threshold:1. ~until:10.)

let req at seq = ev at (Events.Request_sent { client = 9; session_id = "s"; seq })

let applied at server seq role =
  ev at (Events.Request_applied { server; session_id = "s"; seq; role })

let prop at server applied_seqs =
  ev at
    (Events.Propagated
       {
         server;
         session_id = "s";
         applied = Haf_core.Seqset.of_list applied_seqs;
       })

let takeover at server kind ~from ~live =
  ev at
    (Events.Takeover
       { server; session_id = "s"; kind; from_primary = from; had_live_context = live })

let assume at server =
  ev at (Events.Role_assumed { server; session_id = "s"; role = Events.Primary })

let drop at server =
  ev at (Events.Role_dropped { server; session_id = "s"; role = Events.Primary })

let crashed at server = ev at (Events.Server_crashed { server })

let test_requests_lost_simple () =
  (* Primary 0 applies both requests and stays primary: nothing lost. *)
  let tl =
    [ assume 0. 0; req 1. 1; applied 1.1 0 1 Events.Primary; req 2. 2;
      applied 2.1 0 2 Events.Primary ]
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "none lost" (0, 2)
    (Metrics.requests_lost tl ~sid:"s")

let test_requests_lost_unapplied () =
  let tl = [ assume 0. 0; req 1. 1 ] in
  check (Alcotest.pair Alcotest.int Alcotest.int) "unapplied is lost" (1, 1)
    (Metrics.requests_lost tl ~sid:"s")

let test_requests_lost_across_db_takeover () =
  (* Request 1 propagated, request 2 applied after the last propagation;
     primary dies; successor resumes from the snapshot: 2 is lost. *)
  let tl =
    [
      assume 0. 0;
      req 1. 1;
      applied 1.1 0 1 Events.Primary;
      prop 2. 0 [ 1 ];
      req 3. 2;
      applied 3.1 0 2 Events.Primary;
      crashed 4. 0;
      takeover 4.5 1 Events.Crash ~from:(Some 0) ~live:false;
    ]
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "post-propagation update lost" (1, 2)
    (Metrics.requests_lost tl ~sid:"s")

let test_requests_lost_backup_saves () =
  (* Same, but a backup (server 1) saw request 2 and takes over. *)
  let tl =
    [
      assume 0. 0;
      req 1. 1;
      applied 1.1 0 1 Events.Primary;
      prop 2. 0 [ 1 ];
      req 3. 2;
      applied 3.1 0 2 Events.Primary;
      applied 3.1 1 2 Events.Backup;
      crashed 4. 0;
      takeover 4.5 1 Events.Crash ~from:(Some 0) ~live:true;
    ]
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "backup knowledge survives" (0, 2)
    (Metrics.requests_lost tl ~sid:"s")

let test_requests_lost_rebalance_handoff () =
  (* Rebalance: successor inherits the live predecessor's exact set. *)
  let tl =
    [
      assume 0. 0;
      req 1. 1;
      applied 1.1 0 1 Events.Primary;
      takeover 2. 1 Events.Rebalance ~from:(Some 0) ~live:false;
    ]
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "handoff preserves" (0, 1)
    (Metrics.requests_lost tl ~sid:"s")

let test_dual_primary_time () =
  let tl = [ assume 0. 0; assume 5. 1; drop 8. 0; drop 12. 1 ] in
  check (Alcotest.float 1e-9) "overlap 5..8" 3.
    (Metrics.dual_primary_time tl ~sid:"s" ~horizon:20.)

let test_dual_primary_truncated_by_crash () =
  let tl = [ assume 0. 0; assume 5. 1; crashed 6. 0 ] in
  check (Alcotest.float 1e-9) "overlap 5..6" 1.
    (Metrics.dual_primary_time tl ~sid:"s" ~horizon:20.)

let test_no_primary_time () =
  (* Primary 0 from 0..4 (crash), successor from 6..horizon 10. *)
  let tl = [ assume 0. 0; crashed 4. 0; assume 6. 1 ] in
  check (Alcotest.float 1e-9) "gap 4..6" 2. (Metrics.no_primary_time tl ~sid:"s" ~horizon:10.)

let restarted at server = ev at (Events.Server_restarted { server })

let test_takeover_latency () =
  let latencies = Alcotest.list (Alcotest.float 1e-9) in
  let tl =
    [ crashed 4. 0; takeover 4.5 1 Events.Crash ~from:(Some 0) ~live:true ]
  in
  check latencies "latency" [ 0.5 ] (Metrics.takeover_latencies tl);
  (* Server 2's crash does not time a takeover from the live primary 0. *)
  let tl =
    [
      assume 0. 0;
      crashed 4. 2;
      takeover 12. 1 Events.Crash ~from:(Some 0) ~live:true;
    ]
  in
  check latencies "takeover from a live primary" [] (Metrics.takeover_latencies tl);
  (* Nor does 0's own crash once 0 has restarted and is primary again. *)
  let tl =
    [
      assume 0. 0;
      crashed 4. 0;
      takeover 4.5 1 Events.Crash ~from:(Some 0) ~live:true;
      restarted 6. 0;
      assume 8. 0;
      takeover 12. 1 Events.Crash ~from:(Some 0) ~live:true;
    ]
  in
  check latencies "false suspicion after a restart" [ 0.5 ]
    (Metrics.takeover_latencies tl);
  (* A restart that beats the takeover leaves it timed from the crash. *)
  let tl =
    [
      assume 0. 0;
      crashed 4. 0;
      restarted 4.3 0;
      takeover 4.5 1 Events.Crash ~from:(Some 0) ~live:true;
    ]
  in
  check latencies "restart before the takeover" [ 0.5 ] (Metrics.takeover_latencies tl)

(* The server's grant, the client's receipt of it and a later re-grant
   are three [Session_granted] events for one session; only the first
   times the admission. *)
let test_grant_latency_first_grant () =
  let latencies = Alcotest.list (Alcotest.float 1e-9) in
  let grant at client =
    ev at (Events.Session_granted { client; session_id = "s"; primary = 0 })
  in
  let tl =
    [
      ev 1. (Events.Session_requested { client = 9; session_id = "s"; unit_id = "u" });
      grant 1.25 9;
      grant 1.5 9;
      ev 2. (Events.Session_requested { client = 9; session_id = "s"; unit_id = "u" });
      grant 7. 9;
    ]
  in
  check latencies "one sample per session" [ 0.25 ] (Metrics.grant_latencies tl);
  let l = Metrics.latencies () in
  List.iter (fun (at, e) -> Metrics.observe l ~now:at e) tl;
  check latencies "online fold agrees" [ 0.25 ] (Metrics.grants l)

let test_multi_source_time () =
  (* Interleaved arrivals from two servers for 4 seconds, then single. *)
  let tl =
    [ granted 0. ]
    @ List.concat_map
        (fun i ->
          [ recv ~from:0 (float_of_int i) (2 * i); recv ~from:1 (float_of_int i +. 0.2) ((2 * i) + 1) ])
        [ 1; 2; 3; 4 ]
    @ [ recv ~from:0 10. 100; recv ~from:0 11. 101 ]
  in
  let t = Metrics.multi_source_time tl ~sid:"s" ~window:1.0 in
  check Alcotest.bool "covers the interleaved window" true (t >= 3. && t <= 5.5);
  let single = [ granted 0.; recv ~from:0 1. 1; recv ~from:0 2. 2 ] in
  check (Alcotest.float 1e-9) "single source -> 0" 0.
    (Metrics.multi_source_time single ~sid:"s" ~window:1.0)

let test_session_ids_and_counts () =
  let tl =
    [
      ev 0. (Events.Session_requested { client = 9; session_id = "b"; unit_id = "u" });
      ev 0. (Events.Session_requested { client = 9; session_id = "a"; unit_id = "u" });
      ev 1. (Events.Response_sent { server = 0; session_id = "a"; id = 1; critical = false });
      prop 2. 0 [];
      applied 3. 1 1 Events.Backup;
    ]
  in
  check (Alcotest.list Alcotest.string) "sorted ids" [ "a"; "b" ] (Metrics.session_ids tl);
  check Alcotest.int "responses sent" 1 (Metrics.responses_sent tl);
  check Alcotest.int "propagations" 1 (Metrics.count_propagations tl);
  check Alcotest.int "backup applies" 1
    (Metrics.count_requests_applied ~role:Events.Backup tl);
  check Alcotest.int "primary applies" 0
    (Metrics.count_requests_applied ~role:Events.Primary tl)

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_renders () =
  let tl =
    [
      ev 0. (Events.Session_requested { client = 9; session_id = "s"; unit_id = "u" });
      granted 0.5;
      assume 0.5 0;
      recv 1. 1;
      recv 2. 2;
      crashed 3. 0;
      takeover 3.4 1 Events.Crash ~from:(Some 0) ~live:true;
      recv 4. 3;
    ]
  in
  let out = Haf_stats.Report.render ~title:"t" ~horizon:5. tl in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec scan i = i + nl <= hl && (String.sub out i nl = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "report mentions %S" needle) true
        (contains needle))
    [ "server 0 crashed"; "took over s"; "mean availability"; "| s " ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "stats.summary",
      [
        Alcotest.test_case "basics" `Quick test_summary_basics;
        Alcotest.test_case "empty" `Quick test_summary_empty;
        Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
      ]
      @ qsuite [ prop_summary_mean_bounds ] );
    ( "stats.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "arity" `Quick test_table_arity;
        Alcotest.test_case "csv" `Quick test_table_csv;
        Alcotest.test_case "formatters" `Quick test_table_formatters;
      ] );
    ( "stats.metrics",
      [
        Alcotest.test_case "duplicates+missing" `Quick test_metrics_duplicates_missing;
        Alcotest.test_case "stall+availability" `Quick test_metrics_stall_and_availability;
        Alcotest.test_case "ungranted availability" `Quick test_metrics_availability_ungranted;
        Alcotest.test_case "lost: simple" `Quick test_requests_lost_simple;
        Alcotest.test_case "lost: unapplied" `Quick test_requests_lost_unapplied;
        Alcotest.test_case "lost: db takeover" `Quick test_requests_lost_across_db_takeover;
        Alcotest.test_case "lost: backup saves" `Quick test_requests_lost_backup_saves;
        Alcotest.test_case "lost: rebalance handoff" `Quick test_requests_lost_rebalance_handoff;
        Alcotest.test_case "dual primary" `Quick test_dual_primary_time;
        Alcotest.test_case "dual primary crash" `Quick test_dual_primary_truncated_by_crash;
        Alcotest.test_case "no primary" `Quick test_no_primary_time;
        Alcotest.test_case "takeover latency" `Quick test_takeover_latency;
        Alcotest.test_case "grant latency: first grant" `Quick test_grant_latency_first_grant;
        Alcotest.test_case "multi source" `Quick test_multi_source_time;
        Alcotest.test_case "session ids and counts" `Quick test_session_ids_and_counts;
        Alcotest.test_case "report renders" `Quick test_report_renders;
      ] );
  ]
