(* The four workloads and the trial that runs them.

   A trial is one fresh deployment: set up, start sessions on a fixed
   schedule (open loop), measure a fault-free window, then run fault
   cycles that kill the busiest primary and bring up replacements.  A
   run repeats trials until its time budget is spent and pools their
   samples; all times inside a trial are substrate time (virtual on the
   sim, monotonic wall clock on UDP), set-up and CPU are real. *)

module Engine = Haf_sim.Engine
module Clock = Haf_net_unix.Clock
module Store = Haf_store.Store
module Gcs = Haf_gcs.Gcs
module Monitor = Haf_monitor.Monitor
module Samples = Stats.Samples
module Hist = Stats.Hist
module Fw = Deploy.Fw

type fault =
  | Kill  (** Kill the live server holding the most primaries. *)
  | Replace  (** Replace the oldest unreplaced victim, with its units. *)

type spec = {
  name : string;
  substrate : Deploy.substrate;
  why : string;
  sessions : int;
  start_rate : float;  (** Sessions started per second. *)
  update_interval : float;  (** Seconds between one session's updates. *)
  store : bool;  (** Durable-before-ack grants through a stable store. *)
  window : float;  (** Fault-free seconds after the last session start. *)
  cycle : (float * fault) list;  (** Offsets within one fault cycle. *)
  cycle_len : float;
  cycles : int;
  faults_in_window : bool;
      (** The throughput window spans the fault cycles too (failover
          workloads); otherwise it closes before the first kill. *)
}

(* Steady workloads end with single-kill probe cycles, so failover is
   measured on every workload, and one kill's detection time is a single
   draw of the heartbeat phase, so a run needs several.  Failover
   workloads run the double kill (the busiest primary, then the next
   busiest while the first failover settles) and replace both victims,
   once per trial: a second round would kill survivors whose only
   partner is a replacement, and clients — whose GCS contact list is
   fixed at creation — never learn replacements, so updates they send
   during that detection window are lost (see README). *)
let probe_cycle = [ (0., Kill); (1.2, Replace) ]

let failover_cycle = [ (0., Kill); (1.5, Kill); (3., Replace); (4., Replace) ]

let specs =
  [
    {
      name = "sim-steady";
      substrate = Deploy.Sim;
      why =
        "paper-literal one group per session at a population where group-count \
         costs (GCS, codec, propagation) dominate; no view change in the window";
      sessions = 400;
      start_rate = 80.;
      update_interval = 1.0;
      store = false;
      window = 5.;
      cycle = probe_cycle;
      cycle_len = 2.5;
      cycles = 3;
      faults_in_window = false;
    };
    {
      name = "sim-failover";
      substrate = Deploy.Sim;
      why =
        "detection, flush, install, takeover, state exchange and WAL on a \
         deterministic clock, with durable-before-ack grants";
      sessions = 200;
      start_rate = 40.;
      update_interval = 0.5;
      store = true;
      window = 3.;
      cycle = failover_cycle;
      cycle_len = 5.;
      cycles = 1;
      faults_in_window = true;
    };
    {
      name = "udp-steady";
      substrate = Deploy.Udp { base_port = 47_100 };
      why =
        "real sockets, the select reactor and the wall clock: per-datagram cost \
         shows up as update latency, not only CPU";
      sessions = 120;
      start_rate = 60.;
      update_interval = 0.5;
      store = false;
      window = 3.;
      cycle = probe_cycle;
      cycle_len = 2.4;
      cycles = 3;
      faults_in_window = false;
    };
    {
      name = "udp-failover";
      substrate = Deploy.Udp { base_port = 47_200 };
      why =
        "the sim-failover fault schedule on a real clock, sized to keep \
         view-change datagrams under the 65,507-byte UDP limit";
      sessions = 64;
      start_rate = 32.;
      update_interval = 0.5;
      store = true;
      window = 1.;
      cycle = failover_cycle;
      cycle_len = 5.;
      cycles = 1;
      faults_in_window = true;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

let scaled spec factor =
  let sessions = Int.max 4 (int_of_float (Float.round (float_of_int spec.sessions *. factor))) in
  { spec with sessions; start_rate = spec.start_rate *. float_of_int sessions /. float_of_int spec.sessions }

(* ------------------------------------------------------------------ *)
(* Accumulated results of one run (all its trials)                     *)

type span = {
  sp_name : string;
  sp_trial : int;
  sp_session : int;
  sp_start : float;  (* substrate seconds *)
  sp_dur : float;
}

type tally = {
  setups : Samples.t;  (* wall seconds *)
  grants : Samples.t;  (* the rest in substrate ms *)
  updates : Samples.t;
  gaps : Samples.t;
  detect : Samples.t;
  takeover : Samples.t;
  resume : Samples.t;
  rejoins : Samples.t;
  lag : Samples.t;
  slices : Samples.t;  (* ops per CPU-second, one per throughput slice *)
  window : (string, float) Hashtbl.t;  (* summed counter deltas *)
  failures : (string, int) Hashtbl.t;  (* by kind *)
  attempts : (string, int) Hashtbl.t;
  send_us : Hist.t;
  recv_us : Hist.t;
  mutable max_dgram : int;
  mutable oversize : int;
  mutable session_s : float;
  mutable violations : int;
  mutable timeouts : int;  (* harness waits that hit their timeout *)
  mutable trials : int;
  mutable errors : string list;  (* correctness-gate failures *)
  mutable spans : span list;
  mutable n_spans : int;
}

let create_tally () =
  {
    setups = Samples.create ();
    grants = Samples.create ();
    updates = Samples.create ();
    gaps = Samples.create ();
    detect = Samples.create ();
    takeover = Samples.create ();
    resume = Samples.create ();
    rejoins = Samples.create ();
    lag = Samples.create ();
    slices = Samples.create ();
    window = Hashtbl.create 32;
    failures = Hashtbl.create 8;
    attempts = Hashtbl.create 8;
    send_us = Hist.create ();
    recv_us = Hist.create ();
    max_dgram = 0;
    oversize = 0;
    session_s = 0.;
    violations = 0;
    timeouts = 0;
    trials = 0;
    errors = [];
    spans = [];
    n_spans = 0;
  }

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let attempt t kind ~ok =
  bump t.attempts kind;
  if not ok then bump t.failures kind

let total tbl = Hashtbl.fold (fun _ n acc -> acc + n) tbl 0

let error t msg = t.errors <- msg :: t.errors

let window_value t k = Option.value (Hashtbl.find_opt t.window k) ~default:0.

(* Spans kept for the trace: enough to inspect, bounded in memory. *)
let max_spans = 20_000

let add_span t sp =
  if t.n_spans < max_spans then begin
    t.spans <- sp :: t.spans;
    t.n_spans <- t.n_spans + 1
  end

(* haf-lint: allow R1 — process CPU time is what the benchmark reports;
   it never feeds the system under test. *)
let cpu_time () = Sys.time ()

(* Every counter the throughput window takes a delta of. *)
let counters (d : Deploy.t) =
  let gc = Gc.quick_stat () in
  let tr = Deploy.transport_stats d in
  let st = Deploy.store_stats d in
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 st) in
  let pr = d.Deploy.probe in
  [
    ("cpu_s", cpu_time ());
    ("ops", float_of_int (Probe.ops pr));
    ("engine_events", float_of_int (Engine.events_processed d.Deploy.engine));
    ("minor_words", gc.Gc.minor_words);
    ("major_collections", float_of_int gc.Gc.major_collections);
    ("dgrams", float_of_int d.Deploy.shim.Shim.sent);
    ("dgram_bytes", float_of_int d.Deploy.shim.Shim.bytes);
    ("dropped", float_of_int (Deploy.dropped d));
    ("payloads_sent", float_of_int tr.Haf_net.Transport.payloads_sent);
    ("payloads_delivered", float_of_int tr.Haf_net.Transport.payloads_delivered);
    ("retransmissions", float_of_int tr.Haf_net.Transport.retransmissions);
    ("view_changes", float_of_int (Gcs.total_view_changes d.Deploy.gcs));
    ("propagations", float_of_int pr.Probe.propagations);
    ("responses_sent", float_of_int pr.Probe.responses_sent);
    ("responses_received", float_of_int pr.Probe.received);
    ("duplicates", float_of_int pr.Probe.duplicates);
    ("exchange_bytes", float_of_int pr.Probe.exchange_bytes);
    ("wal_records", sum (fun s -> s.Store.s_wal_records));
    ("fsyncs", sum (fun s -> s.Store.s_fsyncs));
    ("bytes_logged", sum (fun s -> s.Store.s_bytes_logged));
    ( "monitor_events",
      float_of_int (match d.Deploy.monitor with Some m -> Monitor.events_seen m | None -> 0) );
    ("monitor_event_us", d.Deploy.cost.Deploy.event_us);
    ("monitor_pump_us", d.Deploy.cost.Deploy.pump_us);
    ("monitor_pumps", float_of_int d.Deploy.cost.Deploy.pumps);
  ]

let add_window t c0 c1 =
  List.iter2 (fun (k, a) (_, b) -> Hashtbl.replace t.window k (window_value t k +. b -. a)) c0 c1

let setup_timeout = 10.

let slice_len = 0.5

(* Every wait is bounded; a timeout is counted here and the caller must
   record it as a failed attempt — the gate checks both agree. *)
let wait t d ~timeout pred =
  let ok = Deploy.run_until d ~timeout pred in
  if not ok then t.timeouts <- t.timeouts + 1;
  ok

(* Deploy and wait for every content group to form; returns the wall
   seconds it took when it did. *)
let set_up t spec ~seed ~traced =
  let w0 = Clock.now () in
  let d = Deploy.create ~substrate:spec.substrate ~seed ~store:spec.store ~traced in
  let ok =
    wait t d ~timeout:setup_timeout (fun () ->
        Probe.views_complete d.Deploy.probe Deploy.placement)
  in
  attempt t "setup" ~ok;
  (d, if ok then Some (Clock.now () -. w0) else None)

let resume_deadline = 10.

(* Post-trial accounting over the probe's per-session records. *)
let account t spec (d : Deploy.t) ~trial ~window_start ~window_end ~end_at ~traced =
  let pr = d.Deploy.probe in
  let ms x = x *. 1e3 in
  let keep_spans = traced && trial = 0 in
  List.iter
    (fun (s : Probe.session) ->
      let granted = not (Float.is_nan s.granted_at) in
      attempt t "grant" ~ok:granted;
      if granted then begin
        Samples.add t.grants (ms (s.granted_at -. s.requested_at));
        t.session_s <-
          t.session_s +. Float.max 0. (window_end -. Float.max window_start s.granted_at);
        if keep_spans then
          add_span t
            {
              sp_name = "session.admit";
              sp_trial = trial;
              sp_session = s.index;
              sp_start = s.requested_at;
              sp_dur = s.granted_at -. s.requested_at;
            }
      end;
      (* Open loop on a drift-free timer chain: update k was due at
         base + (k-1) * interval, whenever it was actually sent. *)
      let interval = spec.update_interval in
      let base = ref Float.infinity in
      Array.iteri
        (fun j sent ->
          if not (Float.is_nan sent) then
            base := Float.min !base (sent -. (float_of_int j *. interval)))
        s.sent;
      if granted && Float.is_finite !base then begin
        let k = ref 0 in
        (* Updates due in the last 2 s may still be in flight. *)
        let last_due = Float.min (end_at -. 2.) window_end in
        while !base +. (float_of_int !k *. interval) < last_due do
          let due = !base +. (float_of_int !k *. interval) in
          (* Updates of a granted session count; ones due before the
             grant had nowhere to go yet. *)
          if due >= s.granted_at then begin
            let get a = if !k < Array.length a then a.(!k) else Float.nan in
            let sent = get s.sent and applied = get s.applied in
            if not (Float.is_nan sent) then Samples.add t.lag (ms (sent -. due));
            let ok = not (Float.is_nan applied) in
            attempt t "update" ~ok;
            if ok then begin
              Samples.add t.updates (ms (applied -. due));
              if keep_spans then
                add_span t
                  {
                    sp_name = "update";
                    sp_trial = trial;
                    sp_session = s.index;
                    sp_start = due;
                    sp_dur = applied -. due;
                  }
            end
          end;
          incr k
        done
      end)
    (Probe.sessions pr);
  List.iter
    (fun (r : Probe.resumed) ->
      let gap = r.r_resumed_at -. r.r_killed_at in
      attempt t "resume" ~ok:(gap <= resume_deadline);
      let detect = r.r_view_at -. r.r_killed_at
      and takeover = r.r_takeover_at -. r.r_view_at
      and resume = r.r_resumed_at -. r.r_takeover_at in
      if Float.abs (detect +. takeover +. resume -. gap) > 1e-3 || detect < 0. || takeover < 0. || resume < 0.
      then error t (Printf.sprintf "failover phases of session %d do not partition its gap" r.r_session);
      Samples.add t.gaps (ms gap);
      Samples.add t.detect (ms detect);
      Samples.add t.takeover (ms takeover);
      Samples.add t.resume (ms resume);
      if keep_spans then begin
        let sp name start dur =
          add_span t
            { sp_name = name; sp_trial = trial; sp_session = r.r_session; sp_start = start; sp_dur = dur }
        in
        sp "failover" r.r_killed_at gap;
        sp "detect" r.r_killed_at detect;
        sp "takeover" r.r_view_at takeover;
        sp "resume" r.r_takeover_at resume
      end)
    pr.Probe.resumed;
  List.iter (fun _ -> attempt t "resume" ~ok:false) (Probe.pending pr);
  (* Counters that must be mutually consistent. *)
  let sh = d.Deploy.shim in
  let tr = Deploy.transport_stats d in
  let check cond what = if not cond then error t ("inconsistent counters: " ^ what) in
  check (sh.Shim.delivered <= sh.Shim.sent) "datagrams delivered > sent";
  check
    (tr.Haf_net.Transport.payloads_delivered <= tr.Haf_net.Transport.payloads_sent)
    "transport payloads delivered > sent";
  check (Deploy.dropped d <= sh.Shim.sent) "datagrams dropped > sent";
  check (pr.Probe.received <= pr.Probe.responses_sent) "responses received > sent";
  check (pr.Probe.granted <= List.length (Probe.sessions pr)) "grants > sessions";
  check (List.length pr.Probe.resumed <= pr.Probe.affected) "resumed > affected sessions";
  List.iter (fun m -> error t ("replica disagreement: " ^ m)) (Deploy.disagreements d);
  (match d.Deploy.monitor with
  | Some m ->
      Monitor.pump m ~now:(Deploy.now d);
      t.violations <- t.violations + Monitor.violation_count m
  | None -> ());
  t.max_dgram <- Int.max t.max_dgram sh.Shim.max_bytes;
  t.oversize <- t.oversize + sh.Shim.oversize;
  Hist.merge_into ~dst:t.send_us sh.Shim.send_us;
  Hist.merge_into ~dst:t.recv_us sh.Shim.recv_us

(* Kill the busiest primary, never taking a unit's last replica; its
   units join the queue of victims awaiting a replacement. *)
let kill_busiest t (d : Deploy.t) victims =
  let replicas u = List.filter (fun q -> List.mem u (Hashtbl.find d.units_of q)) (Deploy.live d) in
  let killable p = List.for_all (fun u -> List.length (replicas u) >= 2) (Hashtbl.find d.units_of p) in
  match Probe.busiest d.probe (List.filter killable (Deploy.live d)) with
  | Some p ->
      Queue.push (Hashtbl.find d.units_of p) victims;
      Deploy.kill d p
  | None -> error t "no server could be killed"

(* Replace the oldest victim and time its rejoin, for at most [budget]. *)
let replace_next t d victims ~budget =
  match Queue.take_opt victims with
  | None -> error t "replacement scheduled with no victim"
  | Some units ->
      let created = Deploy.now d in
      let p = Deploy.replace d ~units in
      let ok = wait t d ~timeout:budget (fun () -> Deploy.rejoined d p) in
      attempt t "rejoin" ~ok;
      if ok then Samples.add t.rejoins ((Deploy.now d -. created) *. 1e3)

let trial t spec ~seed ~trial ~traced =
  let d, took = set_up t spec ~seed ~traced in
  Fun.protect
    ~finally:(fun () -> Deploy.close d)
    (fun () ->
      if took <> None then begin
        t.trials <- t.trials + 1;
        let t0 = Deploy.now d +. 0.05 in
        for i = 0 to spec.sessions - 1 do
          let at = t0 +. (float_of_int i /. spec.start_rate) in
          ignore
            (Engine.schedule_at d.Deploy.engine ~time:at (fun () ->
                 Samples.add t.lag ((Deploy.now d -. at) *. 1e3);
                 let client = d.Deploy.clients.(i mod Deploy.n_clients) in
                 let unit_id = List.nth Deploy.catalog (i / Deploy.n_clients mod 2) in
                 ignore
                   (Fw.Client.start_session client ~unit_id ~duration:1e6
                      ~request_interval:spec.update_interval)))
        done;
        (* The throughput window opens once every session has started. *)
        let steady = t0 +. (float_of_int spec.sessions /. spec.start_rate) in
        let faults_at = steady +. spec.window in
        let end_at = faults_at +. (float_of_int spec.cycles *. spec.cycle_len) in
        let window_end = if spec.faults_in_window then end_at else faults_at in
        Deploy.run_to d steady;
        let c0 = counters d in
        (* Throughput per slice.  Other tenants of the host only ever
           slow a slice down, by up to a third for seconds at a time, so
           the best slice is the steadiest estimate of the code's own
           cost; one aggregate ratio would absorb every burst. *)
        let last = ref (cpu_time (), Probe.ops d.Deploy.probe) in
        let slicer =
          Engine.every d.Deploy.engine ~period:slice_len (fun () ->
              if Deploy.now d <= window_end +. 1e-6 then begin
                let cpu = cpu_time () and ops = Probe.ops d.Deploy.probe in
                let cpu0, ops0 = !last in
                if cpu > cpu0 then
                  Samples.add t.slices (float_of_int (ops - ops0) /. (cpu -. cpu0));
                last := (cpu, ops)
              end)
        in
        Deploy.run_to d faults_at;
        if not spec.faults_in_window then add_window t c0 (counters d);
        let victims = Queue.create () in
        for c = 0 to spec.cycles - 1 do
          let base = faults_at +. (float_of_int c *. spec.cycle_len) in
          let rec go = function
            | [] -> Deploy.run_to d (base +. spec.cycle_len)
            | (off, f) :: rest ->
                Deploy.run_to d (base +. off);
                let next = match rest with (o, _) :: _ -> o | [] -> spec.cycle_len in
                (match f with
                | Kill -> kill_busiest t d victims
                | Replace -> replace_next t d victims ~budget:(next -. off));
                go rest
          in
          go spec.cycle
        done;
        Engine.cancel slicer;
        if spec.faults_in_window then add_window t c0 (counters d);
        account t spec d ~trial ~window_start:steady ~window_end ~end_at ~traced
      end)

(* [setup_s] is the median of standalone set-ups, five before every
   trial: the host's speed drifts over a run, and a millisecond-long
   set-up would otherwise sample it at a single instant.  The first
   few of a process pay for page faults and cold caches, so the run
   starts with untimed ones. *)
let setups_per_trial = 5

let warm_up_setups = 3

let time_setups t spec ~seed ~traced ~trial =
  let first = if trial = 0 then -warm_up_setups else 0 in
  for r = first to setups_per_trial - 1 do
    let seed = (seed * 7919) + 100_000 + (trial * setups_per_trial) + r in
    let d, took = set_up t spec ~seed ~traced in
    Deploy.close d;
    if r >= 0 then Option.iter (Samples.add t.setups) took
  done

(* One run: standalone set-ups for [setup_s], then trials until
   [seconds] of wall time are spent — another trial starts only if at
   least half of it fits — or exactly one trial when [single]. *)
let run spec ~seed ~seconds ~traced ~single =
  let t = create_tally () in
  let deadline = Clock.now () +. seconds in
  let rec loop k =
    let w0 = Clock.now () in
    time_setups t spec ~seed ~traced ~trial:k;
    trial t spec ~seed:((seed * 7919) + k) ~trial:k ~traced;
    let took = Clock.now () -. w0 in
    if (not single) && Clock.now () +. (took /. 2.) < deadline then loop (k + 1)
  in
  loop 0;
  if t.timeouts > Option.value (Hashtbl.find_opt t.failures "setup") ~default:0
                  + Option.value (Hashtbl.find_opt t.failures "rejoin") ~default:0
  then error t "a harness wait timed out without recording a failure";
  if spec.substrate = Deploy.Sim && t.violations > 0 then
    error t (Printf.sprintf "%d monitor violations" t.violations);
  t

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_n : int;  (* samples behind the value; 0 for counts and ratios *)
}

let m ?(n = 0) m_name m_unit m_value = { m_name; m_value; m_unit; m_n = n }

let pct ?(p = 50.) name samples =
  m ~n:(Samples.count samples) name "ms" (Samples.percentile samples p)

let ratio a b = if b = 0. then 0. else a /. b

let best_ops_per_cpu t = Samples.percentile t.slices 100.

let end_to_end t =
  [
    m ~n:(Samples.count t.setups) "setup_s" "s" (Samples.median t.setups);
    m ~n:(Samples.count t.slices) "ops_per_cpu_s" "ops/cpu-s" (best_ops_per_cpu t);
    pct "grant_p50_ms" t.grants;
    pct ~p:90. "grant_p90_ms" t.grants;
    pct "update_p50_ms" t.updates;
    pct ~p:99. "update_p99_ms" t.updates;
    pct "gap_p50_ms" t.gaps;
    pct ~p:90. "gap_p90_ms" t.gaps;
    m "heap_peak_mb" "MB"
      (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6);
  ]

let failed_ratio t = ratio (float_of_int (total t.failures)) (float_of_int (total t.attempts))

(* [t] is the traced run; CPU rates come from the [untraced] one. *)
let per_layer t ~untraced =
  let w = window_value t in
  let ops = w "ops" in
  [
    m "engine.events" "count" (w "engine_events");
    m "engine.events_per_cpu_s" "events/cpu-s"
      (ratio (window_value untraced "engine_events") (window_value untraced "cpu_s"));
    m "net.dgrams_per_op" "dgrams/op" (ratio (w "dgrams") ops);
    m "net.bytes_per_dgram" "B" (ratio (w "dgram_bytes") (w "dgrams"));
    m "net.max_dgram_bytes" "B" (float_of_int t.max_dgram);
    m "net.oversize_dgrams" "count" (float_of_int t.oversize);
    m "net.retransmissions" "count" (w "retransmissions");
    m "net.delivered_ratio" "ratio" (ratio (w "payloads_delivered") (w "payloads_sent"));
    m "net.send_us" "us" (Hist.mean t.send_us);
    m "net.recv_us" "us" (Hist.mean t.recv_us);
    m "net.recv_us_p99" "us" (Hist.percentile t.recv_us 99.);
    m "udp.dropped" "count" (w "dropped");
    m "gcs.view_changes" "count" (w "view_changes");
    pct "gcs.detect_ms" t.detect;
    pct "framework.takeover_ms" t.takeover;
    pct "framework.resume_ms" t.resume;
    pct "framework.rejoin_ms" t.rejoins;
    m "framework.propagations_per_session_s" "1/s" (ratio (w "propagations") t.session_s);
    m "framework.sent_per_received" "ratio" (ratio (w "responses_sent") (w "responses_received"));
    m "framework.exchange_bytes" "B" (w "exchange_bytes");
    m "framework.dup_ratio" "ratio" (ratio (w "duplicates") (w "responses_received"));
    m "store.wal_records_per_op" "records/op" (ratio (w "wal_records") ops);
    m "store.fsyncs" "count" (w "fsyncs");
    m "store.bytes_logged_per_op" "B/op" (ratio (w "bytes_logged") ops);
    m "monitor.us_per_event" "us" (ratio (w "monitor_event_us") (w "monitor_events"));
    m "monitor.pump_ms" "ms" (ratio (w "monitor_pump_us") (w "monitor_pumps") /. 1e3);
    m "gc.minor_words_per_op" "words/op" (ratio (w "minor_words") ops);
    m "gc.major_collections" "count" (w "major_collections");
    m "loadgen.lag_ms_p99" "ms" (Samples.percentile t.lag 99.);
    m "trace.overhead_pct" "%"
      (100.
      *. ratio (best_ops_per_cpu untraced -. best_ops_per_cpu t) (best_ops_per_cpu untraced));
  ]
