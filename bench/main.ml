(* Benchmark harness: the measurements no other command takes.

   Part 2 runs bechamel microbenchmarks of the hot operations
   underneath: deterministic selection, unit-database maintenance, wire
   marshalling, the risk-model integral, the event engine and a whole
   in-simulation GCS multicast round.  Part 3 re-measures the
   stable-storage path and writes BENCH_store.json — store op latencies
   plus the E14 recovery tables in machine-readable form.  Part 4
   measures the chaos/monitor harness itself — schedule generation,
   text roundtrip, ddmin shrinking, and the monitor's per-event
   observation overhead — and writes BENCH_chaos.json.  Part 5 exercises
   the real-time substrate (lib/net_unix): reliable-FIFO throughput and
   ping-pong latency of the unmodified Transport over actual UDP
   loopback sockets, with the per-node traffic table rendered through
   Netstats.

   The part numbers are the names the docs cite.  Parts 1 and 6 are CLI
   commands: the evaluation tables are `haf_experiments` with no
   arguments, and the engine scale bench (BENCH_engine.json) is
   `haf_experiments --engine-bench N --engine-json PATH`. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Microbenchmark subjects                                              *)

let bench_selection =
  let prevs =
    List.init 100 (fun i ->
        {
          Haf_core.Selection.p_session_id = Printf.sprintf "s%03d" i;
          p_primary = (if i mod 7 = 0 then None else Some (i mod 5));
          p_backups = [ (i + 1) mod 5 ];
        })
  in
  Test.make ~name:"selection.assign (100 sessions, 5 members)"
    (Staged.stage (fun () ->
         ignore
           (Haf_core.Selection.assign ~n_backups:2 ~members:[ 0; 1; 2; 3; 4 ]
              ~rebalance:true prevs)))

let bench_unit_db =
  Test.make ~name:"unit_db add+propagate+export (20 sessions)"
    (Staged.stage (fun () ->
         let db = Haf_core.Unit_db.create ~unit_id:"u" () in
         for i = 0 to 19 do
           let sid = Printf.sprintf "s%02d" i in
           ignore (Haf_core.Unit_db.add_session db ~session_id:sid ~client:i ~started_at:0.);
           Haf_core.Unit_db.set_propagated db sid
             {
               Haf_core.Unit_db.snap_ctx = i;
               snap_req_seq = i;
               snap_applied = [ i ];
               snap_at = float_of_int i;
             }
         done;
         ignore (Haf_core.Unit_db.export db)))

let bench_db_merge =
  let export =
    let db = Haf_core.Unit_db.create ~unit_id:"u" () in
    for i = 0 to 49 do
      ignore
        (Haf_core.Unit_db.add_session db
           ~session_id:(Printf.sprintf "s%02d" i)
           ~client:i ~started_at:0.)
    done;
    Haf_core.Unit_db.export db
  in
  Test.make ~name:"unit_db state-exchange merge (3x50 sessions)"
    (Staged.stage (fun () ->
         let db = Haf_core.Unit_db.create ~unit_id:"u" () in
         Haf_core.Unit_db.replace_with_merge db [ export; export; export ]))

let bench_marshal =
  let payload = String.make 256 'x' in
  Test.make ~name:"wire marshal round-trip (data msg, 256B payload)"
    (Staged.stage (fun () ->
         let msg =
           Haf_gcs.Wire.Data
             {
               group = "session:c004-0";
               vid = { Haf_gcs.View.Id.epoch = 12; coord = 3 };
               seq = 42;
               entry =
                 { uid = { origin = 1; incarnation = 77; serial = 1042 }; orig = 1; payload };
             }
         in
         ignore (Haf_gcs.Wire.decode (Haf_gcs.Wire.encode msg))))

let bench_model =
  Test.make ~name:"risk model loss integral"
    (Staged.stage (fun () ->
         ignore
           (Haf_analysis.Model.update_loss_probability ~lambda:0.01 ~period:0.5
              ~group_size:3.)))

let bench_engine =
  Test.make ~name:"engine schedule+run 1000 events"
    (Staged.stage (fun () ->
         let e = Haf_sim.Engine.create () in
         for i = 1 to 1000 do
           ignore (Haf_sim.Engine.schedule e ~delay:(float_of_int i *. 0.001) ignore)
         done;
         Haf_sim.Engine.run e))

let bench_rng =
  Test.make ~name:"rng exponential sample"
    (let r = Haf_sim.Rng.create 1 in
     Staged.stage (fun () -> ignore (Haf_sim.Rng.exponential r ~mean:1.0)))

let bench_gcs_round =
  Test.make ~name:"gcs: 3-member group formation + 10 multicasts (full sim)"
    (Staged.stage (fun () ->
         let engine = Haf_sim.Engine.create ~seed:3 () in
         let gcs = Haf_gcs.Gcs.create ~num_servers:3 engine in
         List.iter (fun p -> Haf_gcs.Gcs.join gcs p "g") (Haf_gcs.Gcs.servers gcs);
         Haf_sim.Engine.run ~until:2. engine;
         for i = 1 to 10 do
           Haf_gcs.Gcs.multicast gcs 0 "g" (string_of_int i)
         done;
         Haf_sim.Engine.run ~until:3. engine))

let bench_metrics =
  let tl =
    let sink = Haf_core.Events.make_sink () in
    for i = 1 to 200 do
      Haf_core.Events.emit sink ~now:(float_of_int i)
        (Haf_core.Events.Response_received
           {
             client = 9;
             session_id = "s";
             id = i mod 150;
             critical = false;
             from_server = 0;
           })
    done;
    Haf_core.Events.events sink
  in
  Test.make ~name:"metrics duplicates+missing (200 events)"
    (Staged.stage (fun () ->
         ignore (Haf_stats.Metrics.duplicates tl ~sid:"s");
         ignore (Haf_stats.Metrics.missing tl ~sid:"s")))

let bench_framework_session =
  (* The whole stack end to end: 3 VoD servers form their groups, a
     client starts a session and streams for two simulated seconds. *)
  let module F = Haf_core.Framework.Make (Haf_services.Vod) in
  Test.make ~name:"framework: session start + 2s of streaming (full sim)"
    (Staged.stage (fun () ->
         let engine = Haf_sim.Engine.create ~seed:9 () in
         let gcs = Haf_gcs.Gcs.create ~num_servers:3 engine in
         let events = Haf_core.Events.make_sink () in
         let policy = Haf_core.Policy.default in
         List.iter
           (fun p ->
             ignore
               (F.Server.create gcs ~proc:p ~policy ~units:[ "m" ] ~catalog:[ "m" ]
                  ~events))
           (Haf_gcs.Gcs.servers gcs);
         let cp = Haf_gcs.Gcs.add_client gcs in
         let client = F.Client.create gcs ~proc:cp ~policy ~events in
         Haf_sim.Engine.run ~until:1. engine;
         ignore
           (F.Client.start_session client ~unit_id:"m" ~duration:10.
              ~request_interval:0.);
         Haf_sim.Engine.run ~until:3. engine))

(* ------------------------------------------------------------------ *)
(* Stable-storage subjects (lib/store)                                  *)

let store_quiet =
  {
    Haf_store.Store.default_config with
    snapshot_period = 1000.;
    sync_period = 1000.;
  }

let bench_store_log_sync =
  Test.make ~name:"store: log 100 x 64B + group commit (full sim)"
    (Staged.stage (fun () ->
         let engine = Haf_sim.Engine.create ~seed:1 () in
         let st = Haf_store.Store.create ~name:"b" store_quiet engine in
         let payload = String.make 64 'r' in
         for _ = 1 to 100 do
           Haf_store.Store.log st payload
         done;
         Haf_store.Store.sync st (fun ~ok:_ -> ());
         Haf_sim.Engine.run engine))

let bench_store_snapshot =
  Test.make ~name:"store: 8KiB snapshot + wal compaction (full sim)"
    (Staged.stage (fun () ->
         let engine = Haf_sim.Engine.create ~seed:1 () in
         let st = Haf_store.Store.create ~name:"b" store_quiet engine in
         for _ = 1 to 100 do
           Haf_store.Store.log st (String.make 64 'r')
         done;
         Haf_store.Store.sync st (fun ~ok:_ -> ());
         Haf_sim.Engine.run engine;
         Haf_store.Store.snapshot st (String.make 8192 's') (fun ~ok:_ -> ());
         Haf_sim.Engine.run engine))

let bench_store_recover =
  Test.make ~name:"store: crash + recover 100-record wal"
    (let engine = Haf_sim.Engine.create ~seed:1 () in
     let st = Haf_store.Store.create ~name:"b" store_quiet engine in
     for _ = 1 to 100 do
       Haf_store.Store.log st (String.make 64 'r')
     done;
     Haf_store.Store.sync st (fun ~ok:_ -> ());
     Haf_sim.Engine.run engine;
     Haf_store.Store.crash st;
     Staged.stage (fun () -> ignore (Haf_store.Store.recover st)))

let store_benches = [ bench_store_log_sync; bench_store_snapshot; bench_store_recover ]

(* ------------------------------------------------------------------ *)
(* Chaos & monitor subjects (lib/chaos, lib/monitor)                    *)

module Chaos = Haf_chaos.Chaos
module Monitor = Haf_monitor.Monitor

let bench_chaos_generate =
  Test.make ~name:"chaos: generate schedule (100s horizon, intensity 2)"
    (Staged.stage (fun () ->
         ignore
           (Chaos.generate ~seed:42 ~intensity:2.0 ~horizon:100. ~n_servers:5
              ~n_units:2 ())))

let chaos_sched =
  Chaos.generate ~seed:42 ~intensity:2.0 ~horizon:100. ~n_servers:5 ~n_units:2 ()

let bench_chaos_roundtrip =
  Test.make ~name:"chaos: schedule text roundtrip"
    (Staged.stage (fun () -> ignore (Chaos.of_string (Chaos.to_string chaos_sched))))

(* Pure predicate, so this times the ddmin search itself rather than
   the simulation replays it would drive in anger. *)
let shrink_core = (50.0, Chaos.Crash 1)

let shrink_failing cand = List.mem shrink_core cand

let shrink_input = chaos_sched @ [ shrink_core ]

let bench_chaos_shrink =
  Test.make
    ~name:
      (Printf.sprintf "chaos: ddmin shrink (%d ops, pure predicate)"
         (List.length shrink_input))
    (Staged.stage (fun () -> ignore (Chaos.shrink ~failing:shrink_failing shrink_input)))

(* The monitor's observation cost per event, over a representative mix:
   role changes, propagations (acked-loss bookkeeping), view notes
   (staleness clock resets) and the client-response firehose. *)
let monitor_bench_events = 1000

let bench_monitor_observe =
  Test.make
    ~name:
      (Printf.sprintf "monitor: observe %d events + pump (5 servers)"
         monitor_bench_events)
    (Staged.stage (fun () ->
         let engine = Haf_sim.Engine.create ~seed:1 () in
         let net = Haf_net.Network.create engine Haf_net.Network.default_config in
         let servers = List.init 5 (fun _ -> Haf_net.Network.add_node net) in
         let sink = Haf_core.Events.make_sink () in
         let mon =
           Monitor.create ~network:net ~servers ~policy:Haf_core.Policy.default
             ~gcs:Haf_gcs.Config.default ~events:sink ()
         in
         Haf_core.Events.emit sink ~now:0.
           (Haf_core.Events.Session_granted
              { client = 9; session_id = "s"; primary = 0 });
         for i = 1 to monitor_bench_events do
           let now = float_of_int i *. 0.01 in
           Haf_core.Events.emit sink ~now
             (match i mod 4 with
             | 0 ->
                 Haf_core.Events.Propagated
                   { server = 0; session_id = "s"; req_seq = i; applied = [ i ] }
             | 1 ->
                 Haf_core.Events.Response_received
                   {
                     client = 9;
                     session_id = "s";
                     id = i;
                     critical = false;
                     from_server = 0;
                   }
             | 2 ->
                 Haf_core.Events.Role_assumed
                   { server = 0; session_id = "s"; role = Haf_core.Events.Primary }
             | _ ->
                 Haf_core.Events.View_noted
                   {
                     server = 0;
                     group = Haf_core.Naming.content_group "u00";
                     members = [ 0; 1; 2 ];
                   })
         done;
         Monitor.pump mon ~now:11.;
         ignore (Monitor.violations mon)))

let chaos_benches =
  [ bench_chaos_generate; bench_chaos_roundtrip; bench_chaos_shrink; bench_monitor_observe ]

let microbenches =
  [
    bench_selection;
    bench_unit_db;
    bench_db_merge;
    bench_marshal;
    bench_model;
    bench_engine;
    bench_rng;
    bench_gcs_round;
    bench_framework_session;
    bench_metrics;
  ]

(* [(subject name, estimated ns/run)] — None when OLS cannot fit. *)
let estimate tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000)
      ~stabilize:true ()
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.fold
        (fun name raw acc ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> (name, Some t) :: acc
          | Some _ | None -> (name, None) :: acc)
        results [])
    tests

let pretty_ns t =
  if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
  else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
  else Printf.sprintf "%.0f ns" t

let print_estimates title ests =
  let table =
    Haf_stats.Table.create ~title
      ~columns:[ ("operation", Haf_stats.Table.Left); ("time/run", Haf_stats.Table.Right) ]
      ()
  in
  List.iter
    (fun (name, est) ->
      Haf_stats.Table.add_row table
        [ name; (match est with Some t -> pretty_ns t | None -> "n/a") ])
    ests;
  Haf_stats.Table.print Format.std_formatter table

(* ------------------------------------------------------------------ *)
(* BENCH_store.json: hand-rolled JSON (no json dependency) with the
   store op latencies and the E14 recovery tables (as escaped CSV). *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_store_json ~path store_ests =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"benchmark\": \"lib/store stable storage\",\n";
  Buffer.add_string b "  \"mode\": \"quick\",\n";
  Buffer.add_string b "  \"op_latency_ns\": {\n";
  List.iteri
    (fun i (name, est) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": %s%s\n" (json_escape name)
           (match est with Some t -> Printf.sprintf "%.1f" t | None -> "null")
           (if i < List.length store_ests - 1 then "," else "")))
    store_ests;
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"e14_recovery_tables_csv\": [\n";
  let tables = Haf_experiments.E14_recovery.run ~quick:true in
  List.iteri
    (fun i t ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\"%s\n"
           (json_escape (Haf_stats.Table.to_csv t))
           (if i < List.length tables - 1 then "," else "")))
    tables;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

(* ------------------------------------------------------------------ *)
(* BENCH_chaos.json: harness-cost numbers — chaos op latencies, the
   monitor's per-event overhead, and one concrete ddmin run. *)

let write_chaos_json ~path chaos_ests =
  let minimal, evals = Chaos.shrink ~failing:shrink_failing shrink_input in
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"benchmark\": \"lib/chaos + lib/monitor harness\",\n";
  Buffer.add_string b "  \"mode\": \"quick\",\n";
  Buffer.add_string b "  \"op_latency_ns\": {\n";
  List.iteri
    (fun i (name, est) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": %s%s\n" (json_escape name)
           (match est with Some t -> Printf.sprintf "%.1f" t | None -> "null")
           (if i < List.length chaos_ests - 1 then "," else "")))
    chaos_ests;
  Buffer.add_string b "  },\n";
  let observe_est =
    List.find_map
      (fun (name, est) ->
        if
          String.length name >= 7
          && String.sub name 0 7 = "monitor"
        then est
        else None)
      chaos_ests
  in
  Buffer.add_string b
    (Printf.sprintf "  \"monitor_ns_per_event\": %s,\n"
       (match observe_est with
       | Some t -> Printf.sprintf "%.1f" (t /. float_of_int monitor_bench_events)
       | None -> "null"));
  Buffer.add_string b "  \"shrink\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"ops_before\": %d,\n" (List.length shrink_input));
  Buffer.add_string b
    (Printf.sprintf "    \"ops_after\": %d,\n" (List.length minimal));
  Buffer.add_string b (Printf.sprintf "    \"failing_evals\": %d\n" evals);
  Buffer.add_string b "  }\n";
  Buffer.add_string b "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc

(* ------------------------------------------------------------------ *)
(* BENCH_stabilize.json: the self-stabilization claim in numbers — one
   hardened E18 corruption sweep (quick seeds, intensity 1.0) under the
   convergence oracle, reporting time-to-reconvergence percentiles and
   the audit/reset work the recovery took. *)

let write_stabilize_json ~path =
  let module E18 = Haf_experiments.E18_stabilize in
  let st = E18.bench_stats ~intensity:1.0 ~quick:true () in
  let oc = open_out path in
  output_string oc (E18.json_of_stats ~mode:"quick" ~intensity:1.0 st);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Part 5: the real-time substrate.  Not a bechamel subject — sockets
   and the select reactor do not fit a closed staged thunk — so this is
   a direct wall-clock measurement of the same Transport the sim
   benchmarks exercise, now over real UDP loopback. *)

let udp_loopback_bench () =
  let module Udp = Haf_net_unix.Udp in
  let module Sub = Haf_net.Substrate in
  let module Transport = Haf_net.Transport in
  let module Clock = Haf_net_unix.Clock in
  let u = Udp.create_local ~seed:7 ~base_port:7950 ~nodes:2 () in
  let sub = Udp.substrate u in
  ignore (sub.Sub.add_node ());
  ignore (sub.Sub.add_node ());
  let tr = Transport.create sub in
  let delivered = ref 0 in
  let last = ref "" in
  Transport.attach tr 1 (fun ~src:_ p ->
      incr delivered;
      last := p);
  Transport.attach tr 0 (fun ~src:_ p ->
      incr delivered;
      last := p);
  (* One-way throughput: a batch of payloads through the reliable-FIFO
     pipeline (seq/ack bookkeeping, cumulative acks, no loss). *)
  let n_batch = 5_000 in
  let payload = String.make 64 'x' in
  let t0 = Clock.now () in
  for _ = 1 to n_batch do
    Transport.send tr ~src:0 ~dst:1 payload
  done;
  let ok = Udp.run_until u ~timeout:30. (fun () -> !delivered = n_batch) in
  let batch_s = Clock.now () -. t0 in
  (* Ping-pong: one payload in flight at a time, so each round trip pays
     the full select-wakeup + recv + ack path twice. *)
  let n_pong = 500 in
  delivered := 0;
  let t0 = Clock.now () in
  let pong = ref true in
  for i = 1 to n_pong do
    let tag = string_of_int i in
    Transport.send tr ~src:0 ~dst:1 tag;
    pong := Udp.run_until u ~timeout:5. (fun () -> !last = tag) && !pong;
    Transport.send tr ~src:1 ~dst:0 tag;
    pong := Udp.run_until u ~timeout:5. (fun () -> !delivered = 2 * i) && !pong
  done;
  let pong_s = Clock.now () -. t0 in
  let table =
    Haf_stats.Table.create ~title:"UDP loopback (lib/net_unix, 64-byte payloads)"
      ~columns:
        [
          ("measure", Haf_stats.Table.Left);
          ("count", Haf_stats.Table.Right);
          ("seconds", Haf_stats.Table.Right);
          ("rate", Haf_stats.Table.Right);
        ]
      ()
  in
  Haf_stats.Table.add_row table
    [
      (if ok then "one-way throughput" else "one-way throughput (INCOMPLETE)");
      string_of_int n_batch;
      Printf.sprintf "%.3f" batch_s;
      Printf.sprintf "%.0f payloads/s" (float_of_int n_batch /. batch_s);
    ];
  Haf_stats.Table.add_row table
    [
      (if !pong then "ping-pong round trip" else "ping-pong (INCOMPLETE)");
      string_of_int n_pong;
      Printf.sprintf "%.3f" pong_s;
      Printf.sprintf "%.1f us/rtt" (1e6 *. pong_s /. float_of_int n_pong);
    ];
  Haf_stats.Table.print Format.std_formatter table;
  Haf_stats.Table.print Format.std_formatter
    (Haf_stats.Netstats.substrate_table sub);
  Haf_stats.Table.print Format.std_formatter
    (Haf_stats.Netstats.transport_table (Transport.stats tr));
  Udp.close u

let () =
  print_endline "=== Part 2: microbenchmarks ===";
  print_newline ();
  print_estimates "microbenchmarks (monotonic clock)" (estimate microbenches);
  print_endline "=== Part 3: stable storage (lib/store) ===";
  print_newline ();
  let store_ests = estimate store_benches in
  print_estimates "store microbenchmarks (monotonic clock)" store_ests;
  write_store_json ~path:"BENCH_store.json" store_ests;
  print_endline "wrote BENCH_store.json";
  print_endline "=== Part 4: chaos & monitor harness (lib/chaos, lib/monitor) ===";
  print_newline ();
  let chaos_ests = estimate chaos_benches in
  print_estimates "chaos/monitor microbenchmarks (monotonic clock)" chaos_ests;
  write_chaos_json ~path:"BENCH_chaos.json" chaos_ests;
  print_endline "wrote BENCH_chaos.json";
  write_stabilize_json ~path:"BENCH_stabilize.json";
  print_endline "wrote BENCH_stabilize.json";
  print_endline "=== Part 5: real UDP loopback substrate (lib/net_unix) ===";
  print_newline ();
  udp_loopback_bench ()
