(** E18 — Corruption sweep under the convergence oracle.

    The self-stabilization claim, carried by two tables:

    (a) {e Convergence}: under seeded schedules mixing transient
        in-memory state corruption (view ids, epochs, delivery clocks,
        unit-db records, transport connections) with the E15 fault mix,
        the {e hardened} build always returns to a legal configuration —
        audits clean, unique primary, agreed assignment — within a
        bounded quiescence window after the last injected corruption.
        The {!Haf_monitor.Stabilize} oracle watches every run; the sweep
        reports convergence violations (must be 0 at every intensity)
        and the p50/p95 corruption-to-legal reconvergence time.

    (b) {e The oracle has teeth}: with the hardening switched off
        ([Haf_gcs.Audit.enabled := false]) a single epoch corruption
        leaves the group illegal forever — no audit fires, no reset
        heals it — and the oracle flags it.  The triggering
        schedule then ddmin-shrinks to exactly that one corruption
        entry, and its text form replays byte-identically. *)

module R = Runner.Make (Haf_services.Synthetic)
module Chaos = Haf_chaos.Chaos
module Monitor = Haf_monitor.Monitor
module Stabilize = Haf_monitor.Stabilize
module Gcs = Haf_gcs.Gcs
module Events = Haf_core.Events
open Common

let id = "e18"

let title = "E18: corruption sweep + convergence oracle + self-stabilization"

(* Quiescence window: local audit detection (two fabric heartbeats),
   plus a reset-and-rejoin round (view change, state exchange, and the
   framework's alone-grace of two suspicion timeouts), plus the
   transport give-up horizon armed below for connection rollbacks —
   with the default GCS config, well under 20 s even when corruptions
   land mid-partition. *)
let window = 20.

(* Connection-id rollbacks heal only when the sender's transport gives
   the channel up and restarts it; the default armed by
   [apply_schedule] (30 s) is tuned for crash storms, not for a bounded
   reconvergence claim, so corruption runs tighten it. *)
let give_up_after = 6.

let is_convergence v =
  v.Metrics.v_invariant = Metrics.Convergence

let count_events tl =
  List.fold_left
    (fun (audits, resets) (_, ev) ->
      match ev with
      | Events.Audit_failed _ -> (audits + 1, resets)
      | Events.Server_reset _ -> (audits, resets + 1)
      | _ -> (audits, resets))
    (0, 0) tl

(* ------------------------------------------------------------------ *)
(* (a) Hardened sweep: seeds x corruption intensities                   *)

let sweep_scenario ~seed =
  { Scenario.default with seed; session_duration = 80.; duration = 100. }

let sweep_schedule ~seed ~intensity sc =
  (* Corruption weight 12 vs. 15 for the whole E15 mix: roughly every
     other incident damages state rather than the network or a process,
     so reconvergence is measured both in isolation and while the
     membership machinery is already busy with ordinary faults. *)
  Chaos.generate ~seed:(seed * 13) ~intensity ~corruption:12
    ~horizon:sc.Scenario.duration ~n_servers:sc.Scenario.n_servers
    ~n_units:sc.Scenario.n_units ()

let count_corruptions sched =
  List.length
    (List.filter (function _, Chaos.Corrupt _ -> true | _ -> false) sched)

type sweep_acc = {
  mutable runs : int;
  mutable ops : int;
  mutable corruptions : int;
  mutable audits : int;
  mutable resets : int;
  mutable conv_violations : int;
  mutable times : float list;
}

let sweep_one acc ~seed ~intensity =
  let sc = sweep_scenario ~seed in
  let sched = sweep_schedule ~seed ~intensity sc in
  let tl, w =
    R.run_scenario sc ~prepare:(fun w ->
        let st = R.track_stabilization w ~window in
        R.apply_schedule w sched;
        Haf_net.Transport.set_give_up_after (Gcs.transport w.R.gcs)
          (Some give_up_after);
        ignore st)
  in
  let audits, resets = count_events tl in
  acc.runs <- acc.runs + 1;
  acc.ops <- acc.ops + List.length sched;
  acc.corruptions <- acc.corruptions + count_corruptions sched;
  acc.audits <- acc.audits + audits;
  acc.resets <- acc.resets + resets;
  acc.conv_violations <-
    acc.conv_violations + List.length (List.filter is_convergence (R.violations w));
  match w.R.stabilizer with
  | Some st -> acc.times <- Stabilize.reconvergence_times st @ acc.times
  | None -> ()

let sweep_table ~quick =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E18a: hardened corruption sweep — convergence violations must be 0 \
            (window %.0fs)"
           window)
      ~columns:
        [
          ("intensity", Table.Left);
          ("runs", Table.Right);
          ("fault ops", Table.Right);
          ("corruptions", Table.Right);
          ("audits fired", Table.Right);
          ("resets", Table.Right);
          ("conv violations", Table.Right);
          ("reconv p50", Table.Right);
          ("reconv p95", Table.Right);
        ]
      ()
  in
  let intensities = if quick then [ 0.5; 1.5 ] else [ 0.5; 1.0; 2.0; 3.0 ] in
  List.iter
    (fun intensity ->
      let acc =
        {
          runs = 0;
          ops = 0;
          corruptions = 0;
          audits = 0;
          resets = 0;
          conv_violations = 0;
          times = [];
        }
      in
      List.iter
        (fun seed -> sweep_one acc ~seed ~intensity)
        (seeds ~quick ~base:1800);
      let pct p =
        match acc.times with
        | [] -> "n/a"
        | ts -> Printf.sprintf "%.2fs" (Summary.percentile ts p)
      in
      Table.add_row table
        [
          Printf.sprintf "%.1f" intensity;
          Table.fint acc.runs;
          Table.fint acc.ops;
          Table.fint acc.corruptions;
          Table.fint acc.audits;
          Table.fint acc.resets;
          Table.fint acc.conv_violations;
          pct 50.;
          pct 95.;
        ])
    intensities;
  table

(* ------------------------------------------------------------------ *)
(* (b) Unhardened negative control: catch, shrink, replay              *)

let unhardened_scenario ~seed =
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

(* The pinned schedule: one epoch corruption on server 1 at t=25 — the
   per-group epoch high-water mark is rolled to -1, and since it only
   ever moves on membership events, nothing in a steady group repairs
   it: without the audit-and-reset path the daemon stays illegal
   forever.  (A delivery-clock corruption would not do: in a busy group
   the log eventually holds the skewed horizon again once enough new
   messages arrive, and the state re-legalizes by accident.)  Padded
   with ops that are irrelevant to the violation — an early link flap, a
   disk-fault toggle, a sub-threshold delay on {e other} servers, all
   repaired before the corruption lands — for the shrinker to strip
   away. *)
let unhardened_schedule : Chaos.schedule =
  [
    (4.0, Chaos.Link { src = 0; dst = 2; up = false });
    (5.0, Chaos.Link { src = 0; dst = 2; up = true });
    (7.0, Chaos.Disk_faults { server = 2; on = true });
    (8.0, Chaos.Disk_faults { server = 2; on = false });
    (10.0, Chaos.Delay { src = 2; dst = 0; extra = 0.05 });
    (12.0, Chaos.Delay { src = 2; dst = 0; extra = 0. });
    (25.0, Chaos.Corrupt { server = 1; target = Chaos.Epoch });
  ]

let unhardened_window = 12.

(* Run one unhardened scenario and return the convergence violations.
   [Audit.enabled] gates only the detect-and-reset response; the
   oracle's legality probe uses the pure audit predicates either way. *)
let unhardened_convergence sched =
  let was = !Haf_gcs.Audit.enabled in
  Haf_gcs.Audit.enabled := false;
  Fun.protect
    ~finally:(fun () -> Haf_gcs.Audit.enabled := was)
    (fun () ->
      let sc = unhardened_scenario ~seed:7 in
      let _tl, w =
        R.run_scenario sc ~prepare:(fun w ->
            ignore (R.track_stabilization w ~window:unhardened_window);
            R.apply_schedule w sched)
      in
      List.filter is_convergence (R.violations w))

let op_text (t, op) =
  match Chaos.to_string [ (t, op) ] |> String.split_on_char ' ' with
  | _ :: rest -> String.concat " " rest
  | [] -> ""

let unhardened_table ~quick:_ =
  let table =
    Table.create
      ~title:
        "E18b: hardening off — an epoch corruption never reconverges; the \
         oracle catches it, ddmin isolates it"
      ~columns:[ ("metric", Table.Left); ("value", Table.Left) ]
      ()
  in
  let add k v = Table.add_row table [ k; v ] in
  let original = unhardened_convergence unhardened_schedule in
  add "schedule ops" (Table.fint (List.length unhardened_schedule));
  add "convergence violations" (Table.fint (List.length original));
  (match original with
  | v :: _ -> add "first violation" (Format.asprintf "%a" Metrics.pp_violation v)
  | [] -> add "first violation" "NONE (expected at least one)");
  let minimal, iters =
    Chaos.shrink
      ~failing:(fun cand -> unhardened_convergence cand <> [])
      unhardened_schedule
  in
  add "shrink iterations (runs)" (Table.fint iters);
  add "minimal ops" (Table.fint (List.length minimal));
  List.iteri
    (fun i (t, op) ->
      add
        (Printf.sprintf "minimal op %d" (i + 1))
        (Printf.sprintf "%.3f %s" t (op_text (t, op))))
    minimal;
  (* Byte-identical replay: the printed form parses back to the same
     schedule, and the parsed copy still trips the oracle. *)
  let text = Chaos.to_string minimal in
  (match Chaos.of_string text with
  | Ok parsed when Chaos.to_string parsed = text ->
      add "replay"
        (if unhardened_convergence parsed <> [] then
           "byte-identical round-trip, still caught"
         else "round-trip OK but NOT caught (BUG)")
  | Ok _ -> add "replay" "round-trip NOT byte-identical (BUG)"
  | Error e -> add "replay" ("parse error: " ^ e));
  table

(* ------------------------------------------------------------------ *)

let run ~quick = [ sweep_table ~quick; unhardened_table ~quick ]

(* Everything BENCH_stabilize.json needs, from one custom run (the CI
   smoke job). *)
type stats = {
  st_runs : int;
  st_corruptions : int;
  st_audits : int;
  st_resets : int;
  st_conv_violations : int;
  st_reconv_p50 : float option;
  st_reconv_p95 : float option;
}

let json_of_stats ~intensity st =
  let fopt = function
    | Some t -> Printf.sprintf "%.3f" t
    | None -> "null"
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    "  \"benchmark\": \"self-stabilization (E18 corruption sweep, hardened)\",\n";
  Buffer.add_string b "  \"mode\": \"custom\",\n";
  Buffer.add_string b (Printf.sprintf "  \"intensity\": %.2f,\n" intensity);
  Buffer.add_string b (Printf.sprintf "  \"runs\": %d,\n" st.st_runs);
  Buffer.add_string b
    (Printf.sprintf "  \"corruptions_injected\": %d,\n" st.st_corruptions);
  Buffer.add_string b (Printf.sprintf "  \"audits_fired\": %d,\n" st.st_audits);
  Buffer.add_string b (Printf.sprintf "  \"resets_taken\": %d,\n" st.st_resets);
  Buffer.add_string b
    (Printf.sprintf "  \"convergence_violations\": %d,\n" st.st_conv_violations);
  Buffer.add_string b
    (Printf.sprintf "  \"reconvergence_s\": { \"p50\": %s, \"p95\": %s }\n"
       (fopt st.st_reconv_p50) (fopt st.st_reconv_p95));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* CLI hook (bin/haf_experiments --chaos-corruption SEED
   [--chaos-intensity X]): one monitored, oracle-tracked hardened run
   with the schedule printed, so a failing seed can be replayed; the
   CI stabilize-smoke job gates on its exit status. *)
let run_custom ~chaos_seed ?(intensity = 1.0) ~quick () =
  let sc = sweep_scenario ~seed:chaos_seed in
  let sc =
    if quick then sc else { sc with duration = 200.; session_duration = 180. }
  in
  let sched =
    Chaos.generate ~seed:(chaos_seed * 13) ~intensity ~corruption:12
      ~horizon:sc.Scenario.duration ~n_servers:sc.Scenario.n_servers
      ~n_units:sc.Scenario.n_units ()
  in
  let tl, w =
    R.run_scenario sc ~prepare:(fun w ->
        ignore (R.track_stabilization w ~window);
        R.apply_schedule w sched;
        Haf_net.Transport.set_give_up_after (Gcs.transport w.R.gcs)
          (Some give_up_after))
  in
  let audits, resets = count_events tl in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "E18 (custom): corruption seed %d, intensity %.2f"
           chaos_seed intensity)
      ~columns:[ ("metric", Table.Left); ("value", Table.Left) ]
      ()
  in
  let conv_violations = List.filter is_convergence (R.violations w) in
  let times =
    match w.R.stabilizer with
    | Some st -> Stabilize.reconvergence_times st
    | None -> []
  in
  let pct p =
    match times with [] -> None | ts -> Some (Summary.percentile ts p)
  in
  let stats =
    {
      st_runs = 1;
      st_corruptions = count_corruptions sched;
      st_audits = audits;
      st_resets = resets;
      st_conv_violations = List.length conv_violations;
      st_reconv_p50 = pct 50.;
      st_reconv_p95 = pct 95.;
    }
  in
  let add k v = Table.add_row table [ k; v ] in
  add "fault ops" (Table.fint (List.length sched));
  add "corruptions" (Table.fint (count_corruptions sched));
  add "audits fired" (Table.fint audits);
  add "resets taken" (Table.fint resets);
  add "events monitored" (Table.fint (Monitor.events_seen w.R.monitor));
  add "violations" (Table.fint (Monitor.violation_count w.R.monitor));
  List.iteri
    (fun i v ->
      add
        (Printf.sprintf "violation %d" (i + 1))
        (Format.asprintf "%a" Metrics.pp_violation v))
    (R.violations w);
  (match w.R.stabilizer with
  | Some st ->
      add "converged at horizon" (if Stabilize.converged st then "yes" else "NO");
      let ts = Stabilize.reconvergence_times st in
      add "reconvergence episodes" (Table.fint (List.length ts));
      if ts <> [] then begin
        add "reconv p50" (Printf.sprintf "%.2fs" (Summary.percentile ts 50.));
        add "reconv p95" (Printf.sprintf "%.2fs" (Summary.percentile ts 95.))
      end
  | None -> ());
  let sched_table =
    Table.create
      ~title:"E18 (custom): the schedule (replayable via Chaos.of_string)"
      ~columns:[ ("time", Table.Right); ("op", Table.Left) ]
      ()
  in
  List.iter
    (fun (t, op) ->
      Table.add_row sched_table [ Printf.sprintf "%.3f" t; op_text (t, op) ])
    sched;
  ([ table; sched_table ], stats)
