(** E15 — Chaos sweep under invariant monitoring.

    Two claims, each carried by one table:

    (a) {e Robustness}: under seeded chaos schedules — partitions,
        one-way cuts, link flapping, delay spikes, crash-restart storms,
        whole-replica-set wipes and disk-fault bursts — the framework
        never violates its safety invariants.  The online monitor
        (unique primary per component, no acked loss with a surviving
        witness, staleness bound, assignment agreement) watches every
        run; the sweep reports the violation count, which must be 0 at
        every intensity, with and without stable storage.

    (b) {e Diagnosability}: when the invariants {e are} breakable — here
        by a failure detector configured so aggressively that an
        in-fabric delay spike forges a failure, yielding two primaries
        in one connected component — the monitor catches it and the
        schedule shrinker (ddmin) reduces the triggering fault history
        to a locally minimal counterexample of a handful of ops. *)

module R = Runner.Make (Haf_services.Synthetic)
module Chaos = Haf_chaos.Chaos
module Monitor = Haf_monitor.Monitor
module Config = Haf_gcs.Config
open Common

let id = "e15"

let title = "E15: chaos sweep + invariant monitor + counterexample shrinking"

(* ------------------------------------------------------------------ *)
(* (a) Sweep: seeds x intensities x storage                            *)

let sweep_scenario ~seed ~store =
  {
    Scenario.default with
    seed;
    store;
    session_duration = 80.;
    duration = 100.;
  }

let chaos_store =
  Some
    {
      Haf_store.Store.snapshot_period = 2.0;
      sync_period = 0.5;
      faults = Haf_store.Disk.no_faults;
    }

let sweep_row table ~quick ~intensity ~store ~store_name =
  let runs, ops, events, violations =
    List.fold_left
      (fun (runs, ops, events, violations) seed ->
        let sc = sweep_scenario ~seed ~store in
        let sched =
          Chaos.generate ~seed:(seed * 7) ~intensity ~horizon:sc.Scenario.duration
            ~n_servers:sc.Scenario.n_servers ~n_units:sc.Scenario.n_units ()
        in
        let _tl, w = R.run_scenario sc ~prepare:(fun w -> R.apply_schedule w sched) in
        ( runs + 1,
          ops + List.length sched,
          events + Monitor.events_seen w.R.monitor,
          violations + Monitor.violation_count w.R.monitor ))
      (0, 0, 0, 0)
      (seeds ~quick ~base:1600)
  in
  Table.add_row table
    [
      Printf.sprintf "%.1f" intensity;
      store_name;
      Table.fint runs;
      Table.fint ops;
      Table.fint events;
      Table.fint violations;
    ]

let sweep_table ~quick =
  let table =
    Table.create ~title:"E15a: seeded chaos sweep — violations must be 0"
      ~columns:
        [
          ("intensity", Table.Left);
          ("storage", Table.Left);
          ("runs", Table.Right);
          ("fault ops", Table.Right);
          ("events monitored", Table.Right);
          ("violations", Table.Right);
        ]
      ()
  in
  let intensities = if quick then [ 0.5; 1.5 ] else [ 0.5; 1.0; 2.0; 3.0 ] in
  List.iter
    (fun intensity ->
      sweep_row table ~quick ~intensity ~store:None ~store_name:"none";
      sweep_row table ~quick ~intensity ~store:chaos_store ~store_name:"wal+snap")
    intensities;
  table

(* ------------------------------------------------------------------ *)
(* (b) Mis-configured policy: catch and shrink                         *)

(* A failure detector tuned far below the fabric's worst-case delay:
   any delay spike longer than [suspect_timeout] forges a failure.
   (Config.validate still holds — the config is legal, just unwise.) *)
let hair_trigger_gcs =
  { Config.heartbeat_interval = 0.05; suspect_timeout = 0.12; flush_timeout = 0.3 }

let misconfig_scenario ~seed =
  {
    Scenario.default with
    seed;
    n_servers = 2;
    n_units = 1;
    replication = 2;
    n_clients = 1;
    sessions_per_client = 1;
    session_duration = 70.;
    duration = 80.;
    gcs_config = hair_trigger_gcs;
  }

(* The seeded schedule: a symmetric in-fabric delay spike (the links
   stay {e up}) between t=20 and t=45, padded with ops that are
   irrelevant to the violation — early link flaps, disk-fault toggles
   on storeless servers, a sub-threshold delay — for the shrinker to
   strip away. *)
let misconfig_schedule : Chaos.schedule =
  [
    (5.0, Chaos.Link { src = 0; dst = 1; up = false });
    (6.0, Chaos.Link { src = 0; dst = 1; up = true });
    (8.0, Chaos.Disk_faults { server = 0; on = true });
    (9.0, Chaos.Disk_faults { server = 0; on = false });
    (10.0, Chaos.Delay { src = 0; dst = 1; extra = 0.01 });
    (12.0, Chaos.Delay { src = 0; dst = 1; extra = 0. });
    (20.0, Chaos.Delay { src = 0; dst = 1; extra = 0.6 });
    (20.0, Chaos.Delay { src = 1; dst = 0; extra = 0.6 });
    (45.0, Chaos.Delay { src = 0; dst = 1; extra = 0. });
    (45.0, Chaos.Delay { src = 1; dst = 0; extra = 0. });
  ]

let dual_primary_violations sched =
  let sc = misconfig_scenario ~seed:7 in
  let _tl, w = R.run_scenario sc ~prepare:(fun w -> R.apply_schedule w sched) in
  List.filter
    (fun v -> v.Metrics.v_invariant = Metrics.Unique_primary)
    (R.violations w)

let misconfig_table ~quick:_ =
  let table =
    Table.create
      ~title:
        "E15b: hair-trigger failure detector — monitor catches, ddmin shrinks"
      ~columns:[ ("metric", Table.Left); ("value", Table.Left) ]
      ()
  in
  let add k v = Table.add_row table [ k; v ] in
  let original = dual_primary_violations misconfig_schedule in
  add "schedule ops" (Table.fint (List.length misconfig_schedule));
  add "unique-primary violations" (Table.fint (List.length original));
  (match original with
  | v :: _ -> add "first violation" (Format.asprintf "%a" Metrics.pp_violation v)
  | [] -> add "first violation" "NONE (expected at least one)");
  let minimal, iters =
    Chaos.shrink
      ~failing:(fun cand -> dual_primary_violations cand <> [])
      misconfig_schedule
  in
  add "shrink iterations (runs)" (Table.fint iters);
  add "minimal ops" (Table.fint (List.length minimal));
  List.iteri
    (fun i (t, op) ->
      add
        (Printf.sprintf "minimal op %d" (i + 1))
        (Printf.sprintf "%.3f %s"
           t
           (match Chaos.to_string [ (t, op) ] |> String.split_on_char ' ' with
           | _ :: rest -> String.concat " " rest
           | [] -> "")))
    minimal;
  table

(* ------------------------------------------------------------------ *)

let run ~quick = [ sweep_table ~quick; misconfig_table ~quick ]

(* CLI hook (bin/haf_experiments --chaos SEED [--chaos-intensity X]):
   one monitored chaos run with the schedule printed, so a failing seed
   can be replayed and inspected directly. *)
let run_custom ~chaos_seed ?(intensity = 1.0) ~quick () =
  let sc = sweep_scenario ~seed:chaos_seed ~store:chaos_store in
  let sc = if quick then sc else { sc with duration = 200.; session_duration = 180. } in
  let sched =
    Chaos.generate ~seed:(chaos_seed * 7) ~intensity ~horizon:sc.Scenario.duration
      ~n_servers:sc.Scenario.n_servers ~n_units:sc.Scenario.n_units ()
  in
  let tl, w = R.run_scenario sc ~prepare:(fun w -> R.apply_schedule w sched) in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "E15 (custom): chaos seed %d, intensity %.2f" chaos_seed
           intensity)
      ~columns:[ ("metric", Table.Left); ("value", Table.Left) ]
      ()
  in
  let add k v = Table.add_row table [ k; v ] in
  add "fault ops" (Table.fint (List.length sched));
  add "events monitored" (Table.fint (Monitor.events_seen w.R.monitor));
  add "violations" (Table.fint (Monitor.violation_count w.R.monitor));
  List.iteri
    (fun i v ->
      add (Printf.sprintf "violation %d" (i + 1))
        (Format.asprintf "%a" Metrics.pp_violation v))
    (R.violations w);
  add "mean availability"
    (Table.fpct (mean_availability tl ~until:sc.Scenario.duration));
  let sched_table =
    Table.create
      ~title:"E15 (custom): the schedule (replayable via Chaos.of_string)"
      ~columns:[ ("time", Table.Right); ("op", Table.Left) ]
      ()
  in
  List.iter
    (fun (t, op) ->
      Table.add_row sched_table
        [
          Printf.sprintf "%.3f" t;
          (match Chaos.to_string [ (t, op) ] |> String.split_on_char ' ' with
          | _ :: rest -> String.concat " " rest
          | [] -> "");
        ])
    sched;
  [ table; sched_table ]
