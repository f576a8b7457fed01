(** E12 — Scaling with the client population.

    Paper (Section 2): "The service should be able to overcome process
    and network failures, and should be able to serve a variable number
    of clients"; and Section 4 notes the per-server work grows with the
    sessions each server carries.

    Fault-free runs sweeping the number of concurrent sessions over a
    fixed 5-server deployment: per-server message load should grow
    linearly with sessions (each session costs its response stream,
    propagations and backup deliveries), while the time from
    start-session to grant stays flat — admission is one totally ordered
    multicast regardless of population. *)

module R = Runner.Make (Haf_services.Synthetic)
open Common

let id = "e12"

let title = "E12: scaling with concurrent sessions (Sec. 2, variable client load)"

(* ------------------------------------------------------------------ *)
(* Engine scale bench: 10^4..10^5+ concurrent sessions in ONE process  *)
(* ------------------------------------------------------------------ *)

(* The sweep above keeps the paper's literal per-session groups; this
   bench runs the scale mode ([Policy.session_shards] > 0: shard
   groups) and drives the population to the point where one group per
   session stops being runnable.  Incremental placement's whole
   assignment is property-tested against the full selection
   (test_core), and test_chaos runs the scale mode under faults; here
   the run stays fully monitored, so "10^5 sessions, 0 violations" is
   an observed claim.

   The synthetic service streams an item every 0.2 s — at 10^5 sessions
   that is 5x10^5 responses per simulated second of pure service
   payload, which would swamp what the bench is measuring (framework
   admission, propagation and takeover).  A 2 s frame period keeps the
   response stream an order of magnitude below the session count. *)
module Slow_synthetic = struct
  include Haf_services.Synthetic

  let name = "synthetic-slow"

  let tick_period = 2.0
end

module Rb = Runner.Make (Slow_synthetic)
module Profile = Haf_sim.Profile

(* Per-rung self-profile: what the engine spent its time and allocation
   on, from the opt-in {!Haf_sim.Profile} layer plus a 1 sim-s GC
   sampler.  This is how the bench finds its own hot spots — the numbers
   land in BENCH_engine.json next to the throughput they explain. *)
type bench_profile = {
  bpr_subsystems : Profile.entry list;
  bpr_minor_words : float;  (** Minor-heap words allocated over the rung. *)
  bpr_major_words : float;
  bpr_minor_collections : int;
  bpr_major_collections : int;
  bpr_heap_words_peak : int;  (** Max major-heap size at any 1 sim-s sample. *)
}

type bench_rung = {
  br_target : int;  (** Sessions the ramp asked for. *)
  br_peak : int;  (** Sessions granted, one grant sample each; none ends in the run. *)
  br_grant_p50 : float;
  br_grant_p95 : float;
  br_takeovers : int;
  br_takeover_p95 : float option;  (** None: no crash takeovers observed. *)
  br_sim_events : int;  (** Engine events processed over the whole run. *)
  br_cpu_s : float;
  br_requests : int;  (** Client requests: session starts + context updates. *)
  br_responses : int;  (** Responses that reached a client. *)
  br_violations : int;
  br_profile : bench_profile;
}

let bench_n_clients = 20

let bench_ramp = 10.

let bench_duration = 30.

(* A crash after the ramp settles, so takeover latency is measured at
   full population. *)
let bench_crash_offset = 5.

let takeover_threshold = 2.5

let bench_scenario ~sessions =
  {
    Scenario.default with
    seed = 9_000 + sessions;
    n_servers = 5;
    n_units = 2;
    replication = 4;
    n_clients = bench_n_clients;
    sessions_per_client = 0;  (* the ramp below drives admission *)
    session_duration = 10_000.;  (* outlives the horizon: population only grows *)
    request_interval = 30.;
    warmup = 3.;
    duration = bench_duration;
    monitor_interval = 2.5;
    retain_events = false;
    retain_responses = false;  (* flat client memory: counts, not lists *)
    policy = { Policy.default with session_shards = 64; propagation_period = 5. };
  }

(* Streaming probe: the sink retains nothing at this scale, so every
   number comes from online taps: both latencies from the {!Metrics}
   fold, client traffic from this one. *)
type bench_probe = {
  mutable bp_requests : int;
  mutable bp_responses : int;
}

let bench_tap st ~now:_ ev =
  match ev with
  | Events.Session_requested _ | Events.Request_sent _ ->
      st.bp_requests <- st.bp_requests + 1
  | Events.Response_received _ -> st.bp_responses <- st.bp_responses + 1
  | _ -> ()

(* Admission ramp: each client owns a repeating starter that admits one
   session per fire and cancels itself at quota — O(clients) live
   timers, not O(sessions) pre-scheduled closures. *)
let bench_prepare ~sessions ~latencies st (w : Rb.world) =
  Events.subscribe w.Rb.events (Metrics.observe latencies);
  Events.subscribe w.Rb.events (bench_tap st);
  let sc = w.Rb.scenario in
  List.iteri
    (fun ci client ->
      let quota =
        (sessions / bench_n_clients)
        + (if ci < sessions mod bench_n_clients then 1 else 0)
      in
      if quota > 0 then begin
        let period = bench_ramp /. float_of_int quota in
        let started = ref 0 in
        let tmr = ref None in
        tmr :=
          Some
            (Haf_sim.Engine.every w.Rb.engine
               ~first:(sc.Scenario.warmup +. (float_of_int ci *. 0.01))
               ~period
               (fun () ->
                 if !started < quota then begin
                   incr started;
                   let unit_id =
                     Scenario.unit_name ((ci + !started) mod sc.Scenario.n_units)
                   in
                   ignore
                     (Rb.Fw.Client.start_session client ~unit_id
                        ~duration:sc.Scenario.session_duration
                        ~request_interval:sc.Scenario.request_interval)
                 end
                 else Option.iter Haf_sim.Engine.cancel !tmr))
      end)
    w.Rb.clients;
  ignore
    (Haf_sim.Engine.schedule_at w.Rb.engine
       ~time:(sc.Scenario.warmup +. bench_ramp +. bench_crash_offset)
       (fun () -> Rb.crash_server w 1))

let bench_rung ~clock ~sessions =
  let sc = bench_scenario ~sessions in
  let latencies = Metrics.latencies () in
  let st = { bp_requests = 0; bp_responses = 0 } in
  (* Self-profile the rung: subsystem slots sample 1-in-64 guarded
     entries, a 1 sim-s engine tick tracks the major-heap peak.  The
     injected clock keeps ambient time out of the library (R1). *)
  Profile.reset ();
  Profile.set_clock (Some clock);
  Profile.enable ();
  let g0 = Profile.gc_sample () in
  let heap_peak = ref 0 in
  let t0 = clock () in
  let _tl, w =
    Rb.run_scenario sc ~prepare:(fun w ->
        bench_prepare ~sessions ~latencies st w;
        ignore
          (Haf_sim.Engine.every w.Rb.engine ~first:1.0 ~period:1.0 (fun () ->
               let g = Profile.gc_sample () in
               if g.Profile.g_heap_words > !heap_peak then
                 heap_peak := g.Profile.g_heap_words)))
  in
  let cpu = Float.max 1e-9 (clock () -. t0) in
  let g1 = Profile.gc_sample () in
  let subsystems = Profile.snapshot () in
  Profile.disable ();
  Profile.set_clock None;
  let profile =
    {
      bpr_subsystems = subsystems;
      bpr_minor_words = g1.Profile.g_minor_words -. g0.Profile.g_minor_words;
      bpr_major_words = g1.Profile.g_major_words -. g0.Profile.g_major_words;
      bpr_minor_collections =
        g1.Profile.g_minor_collections - g0.Profile.g_minor_collections;
      bpr_major_collections =
        g1.Profile.g_major_collections - g0.Profile.g_major_collections;
      bpr_heap_words_peak = Int.max !heap_peak g1.Profile.g_heap_words;
    }
  in
  let grants = Summary.of_list (Metrics.grants latencies) in
  let takeovers = Metrics.takeovers latencies in
  {
    br_target = sessions;
    br_peak = grants.Summary.n;
    br_grant_p50 = grants.Summary.p50;
    br_grant_p95 = grants.Summary.p95;
    br_takeovers = List.length takeovers;
    br_takeover_p95 =
      (if takeovers = [] then None else Some (Summary.percentile takeovers 95.));
    br_sim_events = Haf_sim.Engine.events_processed w.Rb.engine;
    br_cpu_s = cpu;
    br_requests = st.bp_requests;
    br_responses = st.bp_responses;
    br_violations = List.length (Rb.violations w);
    br_profile = profile;
  }

(* Highest concurrently granted population among rungs that kept
   takeover p95 under the threshold with a clean monitor — the bench's
   headline number. *)
let max_sessions_at_threshold rungs =
  List.fold_left
    (fun acc r ->
      match r.br_takeover_p95 with
      | Some p when p <= takeover_threshold && r.br_violations = 0 ->
          Int.max acc r.br_peak
      | Some _ | None -> acc)
    0 rungs

(* ------------------------------------------------------------------ *)
(* Throughput floors.  BENCH_engine.json is a generated artifact (not
   tracked), so the regression gate lives here in source: the last
   committed measurement per rung, compared with a wide tolerance
   because CI machines vary.  Re-baseline by editing this table when a
   deliberate change moves the numbers. *)

let floor_events_per_cpu_s = [ (10_000, 128_930.); (100_000, 74_169.) ]

let floor_tolerance = 0.5

let floor_for sessions =
  Option.map (fun f -> f *. floor_tolerance)
    (List.assoc_opt sessions floor_events_per_cpu_s)

let below_floor rungs =
  List.filter_map
    (fun r ->
      let rate = float_of_int r.br_sim_events /. r.br_cpu_s in
      match floor_for r.br_target with
      | Some fl when rate < fl -> Some (r.br_target, rate, fl)
      | Some _ | None -> None)
    rungs

(* The profile rendered for humans; the same numbers go to JSON. *)
let profile_table r =
  let p = r.br_profile in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E12 bench self-profile (%d sessions): per-subsystem attribution \
            (1-in-64 sampled, scaled)"
           r.br_target)
      ~columns:
        [
          ("subsystem", Table.Left);
          ("entries", Table.Right);
          ("sampled", Table.Right);
          ("minor words", Table.Right);
          ("words/entry", Table.Right);
          ("cpu s", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (e : Profile.entry) ->
      Table.add_row table
        [
          e.Profile.e_name;
          Table.fint e.Profile.e_count;
          Table.fint e.Profile.e_sampled;
          Table.ffloat ~prec:0 e.Profile.e_minor_words;
          Table.ffloat ~prec:1
            (if e.Profile.e_count = 0 then 0.
             else e.Profile.e_minor_words /. float_of_int e.Profile.e_count);
          Table.ffloat ~prec:3 e.Profile.e_cpu_s;
        ])
    p.bpr_subsystems;
  Table.add_row table
    [
      "gc (whole rung)";
      "-";
      "-";
      Table.ffloat ~prec:0 p.bpr_minor_words;
      "-";
      Printf.sprintf "minors=%d majors=%d heap-peak=%dw" p.bpr_minor_collections
        p.bpr_major_collections p.bpr_heap_words_peak;
    ];
  table

let run_bench ~clock ~ladder () =
  Runner.reset_observed ();
  let rungs = List.map (fun s -> bench_rung ~clock ~sessions:s) ladder in
  let table =
    Table.create
      ~title:
        "E12 bench: engine scale (sharded groups, batched propagation, \
         incremental placement)"
      ~columns:
        [
          ("sessions", Table.Right);
          ("granted", Table.Right);
          ("grant p95", Table.Right);
          ("takeover p95", Table.Right);
          ("sim events", Table.Right);
          ("events/cpu-s", Table.Right);
          ("client req/sim-s", Table.Right);
          ("violations", Table.Right);
        ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Table.fint r.br_target;
          Table.fint r.br_peak;
          Printf.sprintf "%.3fs" r.br_grant_p95;
          (match r.br_takeover_p95 with
          | Some p -> Printf.sprintf "%.3fs" p
          | None -> "-");
          Table.fint r.br_sim_events;
          Table.ffloat ~prec:0 (float_of_int r.br_sim_events /. r.br_cpu_s);
          Table.ffloat ~prec:1 (float_of_int r.br_requests /. bench_duration);
          Table.fint r.br_violations;
        ])
    rungs;
  (table, rungs)

let json_of_bench rungs =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    "  \"benchmark\": \"engine scale (E12 bench: sharded hot paths, one \
     process)\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"service_tick_s\": %.1f,\n" Slow_synthetic.tick_period);
  Buffer.add_string b
    (Printf.sprintf "  \"duration_sim_s\": %.1f,\n" bench_duration);
  Buffer.add_string b "  \"rungs\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b "    {\n";
      Buffer.add_string b
        (Printf.sprintf "      \"target_sessions\": %d,\n" r.br_target);
      Buffer.add_string b
        (Printf.sprintf "      \"peak_concurrent_granted\": %d,\n" r.br_peak);
      Buffer.add_string b
        (Printf.sprintf "      \"grant_latency_s\": { \"p50\": %.4f, \"p95\": %.4f },\n"
           r.br_grant_p50 r.br_grant_p95);
      Buffer.add_string b
        (Printf.sprintf "      \"takeovers\": %d,\n" r.br_takeovers);
      Buffer.add_string b
        (Printf.sprintf "      \"takeover_p95_s\": %s,\n"
           (match r.br_takeover_p95 with
           | Some p -> Printf.sprintf "%.4f" p
           | None -> "null"));
      Buffer.add_string b
        (Printf.sprintf "      \"sim_events\": %d,\n" r.br_sim_events);
      Buffer.add_string b (Printf.sprintf "      \"cpu_s\": %.3f,\n" r.br_cpu_s);
      Buffer.add_string b
        (Printf.sprintf "      \"sim_events_per_cpu_s\": %.0f,\n"
           (float_of_int r.br_sim_events /. r.br_cpu_s));
      Buffer.add_string b
        (Printf.sprintf "      \"client_requests\": %d,\n" r.br_requests);
      Buffer.add_string b
        (Printf.sprintf "      \"client_requests_per_sim_s\": %.1f,\n"
           (float_of_int r.br_requests /. bench_duration));
      Buffer.add_string b
        (Printf.sprintf "      \"responses_received\": %d,\n" r.br_responses);
      Buffer.add_string b
        (Printf.sprintf "      \"monitor_violations\": %d,\n" r.br_violations);
      let p = r.br_profile in
      Buffer.add_string b "      \"profile\": {\n";
      Buffer.add_string b "        \"gc\": {\n";
      Buffer.add_string b
        (Printf.sprintf "          \"minor_words\": %.0f,\n" p.bpr_minor_words);
      Buffer.add_string b
        (Printf.sprintf "          \"major_words\": %.0f,\n" p.bpr_major_words);
      Buffer.add_string b
        (Printf.sprintf "          \"minor_collections\": %d,\n"
           p.bpr_minor_collections);
      Buffer.add_string b
        (Printf.sprintf "          \"major_collections\": %d,\n"
           p.bpr_major_collections);
      Buffer.add_string b
        (Printf.sprintf "          \"heap_words_peak\": %d\n" p.bpr_heap_words_peak);
      Buffer.add_string b "        },\n";
      Buffer.add_string b "        \"subsystems\": [\n";
      List.iteri
        (fun j (e : Profile.entry) ->
          Buffer.add_string b
            (Printf.sprintf
               "          { \"name\": \"%s\", \"entries\": %d, \"sampled\": %d, \
                \"minor_words\": %.0f, \"cpu_s\": %.4f }%s\n"
               e.Profile.e_name e.Profile.e_count e.Profile.e_sampled
               e.Profile.e_minor_words e.Profile.e_cpu_s
               (if j = List.length p.bpr_subsystems - 1 then "" else ",")))
        p.bpr_subsystems;
      Buffer.add_string b "        ]\n";
      Buffer.add_string b "      }\n";
      Buffer.add_string b
        (if i = List.length rungs - 1 then "    }\n" else "    },\n"))
    rungs;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"takeover_p95_threshold_s\": %.1f,\n" takeover_threshold);
  Buffer.add_string b "  \"floors_events_per_cpu_s\": {\n";
  List.iteri
    (fun i (sessions, fl) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%d\": %.0f%s\n" sessions fl
           (if i = List.length floor_events_per_cpu_s - 1 then "" else ",")))
    floor_events_per_cpu_s;
  Buffer.add_string b "  },\n";
  Buffer.add_string b
    (Printf.sprintf "  \"floor_tolerance\": %.2f,\n" floor_tolerance);
  Buffer.add_string b
    (Printf.sprintf "  \"max_sessions_at_threshold\": %d\n"
       (max_sessions_at_threshold rungs));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Behind [haf_experiments --engine-bench]: the scale claim is
   "monitored, clean, measured and fast", not just "didn't crash", so a
   rung fails on a monitor violation, a throughput below its floor, or
   a missing grant or crash-takeover sample. *)
let bench ~clock ~ladder ?(profile_all = false) ?json ppf =
  let table, rungs = run_bench ~clock ~ladder () in
  Table.print ppf table;
  let last = List.length rungs - 1 in
  List.iteri
    (fun i r -> if profile_all || i = last then Table.print ppf (profile_table r))
    rungs;
  (match json with
  | Some path ->
      let oc = open_out path in
      output_string oc (json_of_bench rungs);
      close_out oc;
      Format.fprintf ppf "wrote %s@." path
  | None -> ());
  let regressions = below_floor rungs in
  List.iter
    (fun (s, rate, fl) ->
      Format.fprintf ppf
        "FLOOR REGRESSION: %d sessions ran at %.0f sim events/cpu-s, below the \
         tolerated floor %.0f@."
        s rate fl)
    regressions;
  let dirty = List.filter (fun r -> r.br_violations > 0) rungs in
  List.iter
    (fun r ->
      Format.fprintf ppf "MONITOR VIOLATIONS: %d at %d sessions@." r.br_violations
        r.br_target)
    dirty;
  let unmeasured = List.filter (fun r -> r.br_peak = 0 || r.br_takeovers = 0) rungs in
  List.iter
    (fun r ->
      Format.fprintf ppf
        "MISSING SAMPLES: %d grant and %d crash-takeover samples at %d sessions@."
        r.br_peak r.br_takeovers r.br_target)
    unmeasured;
  regressions = [] && dirty = [] && unmeasured = []

let run ~quick =
  let table =
    Table.create ~title
      ~columns:
        [
          ("sessions", Table.Right);
          ("responses sent", Table.Right);
          ("srv datagrams/s", Table.Right);
          ("grant latency p95", Table.Right);
          ("availability", Table.Right);
        ]
      ()
  in
  let duration = if quick then 40. else 80. in
  let populations = if quick then [ 4; 16; 48 ] else [ 4; 8; 16; 32; 64 ] in
  List.iter
    (fun n_clients ->
      let sc =
        {
          Scenario.default with
          seed = 1200 + n_clients;
          n_servers = 5;
          n_units = 2;
          replication = 4;
          n_clients;
          request_interval = 2.;
          session_duration = duration +. 30.;
          duration;
          policy = { Policy.default with n_backups = 1 };
        }
      in
      let tl, w = R.run_scenario sc in
      let per_server =
        List.map
          (fun (_, c) ->
            float_of_int Haf_net.Network.(c.datagrams_sent + c.datagrams_received)
            /. duration)
          (R.server_counters w)
      in
      let grants = Summary.of_list (Metrics.grant_latencies tl) in
      Table.add_row table
        [
          Table.fint n_clients;
          Table.fint (Metrics.responses_sent tl);
          Table.ffloat ~prec:1 (Summary.mean per_server);
          Printf.sprintf "%.1fms" (grants.Summary.p95 *. 1000.);
          Table.fpct (mean_availability tl ~until:duration);
        ])
    populations;
  [ table ]
