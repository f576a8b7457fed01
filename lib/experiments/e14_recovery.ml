(** E14 — Stable storage: recovery cost vs. snapshot period, and
    surviving the unsurvivable.

    The paper's framework keeps all state in volatile replicas: it
    tolerates any failure pattern that leaves one content-group member
    standing, and explicitly gives up when "every member of a session's
    group fails".  lib/store removes that caveat.  Three questions:

    (a) What does recovery cost, as a function of the snapshot period?
        A restarted server replays snapshot+WAL and then runs the
        digest/delta state exchange; peers ship only the records the
        recovered database is missing or holds stale.  Shorter snapshot
        (and proportionally shorter group-commit) periods mean a fresher
        recovered database, so the delta shrinks — at the price of more
        fsync traffic during normal operation.  The no-store row is the
        limit case: an amnesiac joiner is shipped every record.

    (b) Does the store survive a simultaneous whole-content-group crash?
        Without it, no member of the re-formed group ever held the unit
        database: sessions restart from scratch and the response stream
        replays from zero (duplicates explode).  With it, every replica
        recovers from disk, the exchange reconciles the copies, and the
        stream resumes near the last durable propagation.

    (c) Are injected disk faults detected rather than silently read?
        Torn tails and CRC mismatches must surface in [Store_recovered]
        events (detected, truncated, recovered past) while the service
        stays correct. *)

module R = Runner.Make (Haf_services.Synthetic)
module Store = Haf_store.Store
module Disk = Haf_store.Disk
open Common

let id = "e14"

let title = "E14: recovery cost vs snapshot period; whole-group crash (lib/store)"

(* ------------------------------------------------------------------ *)
(* Timeline probes                                                     *)

let restart_times tl =
  List.filter_map
    (fun (at, e) ->
      match e with Events.Server_restarted _ -> Some at | _ -> None)
    tl

(* State-exchange bytes attributable to one recovery: everything the
   content group multicast in the exchange window right after the
   restart.  [digest]: the metadata round; otherwise the record delta. *)
let exchange_bytes_after tl ~digest ~at =
  List.fold_left
    (fun (b, r) (t, e) ->
      match e with
      | Events.Exchange_sent { digest = d; bytes; records; _ }
        when d = digest && t >= at && t <= at +. 5. ->
          (b + bytes, r + records)
      | _ -> (b, r))
    (0, 0) tl

type recovery_ev = {
  rv_sessions : int;
  rv_wal : int;
  rv_torn : bool;
  rv_crc : bool;
}

let recoveries tl =
  List.filter_map
    (fun (_, e) ->
      match e with
      | Events.Store_recovered { sessions; wal_records; torn_tail; crc_mismatch; _ } ->
          Some
            {
              rv_sessions = sessions;
              rv_wal = wal_records;
              rv_torn = torn_tail;
              rv_crc = crc_mismatch;
            }
      | _ -> None)
    tl

(* Time from a restart to the rebalance takeover it causes. *)
let rejoin_latencies tl =
  List.filter_map
    (fun r ->
      List.find_map
        (fun (at, e) ->
          match e with
          | Events.Takeover { kind = Events.Rebalance; _ } when at >= r && at <= r +. 5.
            ->
              Some (at -. r)
          | _ -> None)
        tl)
    (restart_times tl)

(* ------------------------------------------------------------------ *)
(* (a) Recovery cost vs snapshot period                                *)

(* Group commit scales with the snapshot cadence (a quarter of it), so
   sweeping the snapshot period sweeps the whole durability schedule. *)
let store_config ~snapshot_period ~faults =
  { Store.snapshot_period; sync_period = snapshot_period /. 4.; faults }

(* Pure tick streams (no repositions), so response ids are monotone and
   the duplicate/missing metrics mean what they say (cf. E3).  The
   propagation period is stretched to 2 s and the repair time kept short
   so that the staleness of a recovered database is dominated by the
   durability schedule (the swept quantity), not by propagations that
   happened while the server was down. *)
let cost_scenario ~seed ~duration ~store =
  {
    Scenario.default with
    seed;
    n_servers = 4;
    n_units = 1;
    replication = 4;
    n_clients = 6;
    request_interval = 0.;
    session_duration = duration +. 30.;
    duration;
    store;
    policy = { Policy.default with n_backups = 1; propagation_period = 2.0 };
  }

type cost_row = {
  c_recoveries : int;
  c_wal_records : int;
  c_delta_bytes : int;
  c_delta_records : int;
  c_digest_bytes : int;
  c_rejoin : float list;
}

let measure_cost ~quick ~store =
  let duration = if quick then 100. else 200. in
  List.fold_left
    (fun acc seed ->
      let sc = cost_scenario ~seed ~duration ~store in
      let tl, _ =
        R.run_scenario sc ~prepare:(fun w ->
            R.schedule_primary_kills w ~every:20. ~repair:0.6 ~start:15. ())
      in
      let restarts = restart_times tl in
      let delta_bytes, delta_records =
        List.fold_left
          (fun (b, r) at ->
            let b', r' = exchange_bytes_after tl ~digest:false ~at in
            (b + b', r + r'))
          (0, 0) restarts
      in
      let digest_bytes, _ =
        List.fold_left
          (fun (b, r) at ->
            let b', r' = exchange_bytes_after tl ~digest:true ~at in
            (b + b', r + r'))
          (0, 0) restarts
      in
      {
        c_recoveries = acc.c_recoveries + List.length restarts;
        c_wal_records =
          acc.c_wal_records
          + List.fold_left (fun a r -> a + r.rv_wal) 0 (recoveries tl);
        c_delta_bytes = acc.c_delta_bytes + delta_bytes;
        c_delta_records = acc.c_delta_records + delta_records;
        c_digest_bytes = acc.c_digest_bytes + digest_bytes;
        c_rejoin = acc.c_rejoin @ rejoin_latencies tl;
      })
    {
      c_recoveries = 0;
      c_wal_records = 0;
      c_delta_bytes = 0;
      c_delta_records = 0;
      c_digest_bytes = 0;
      c_rejoin = [];
    }
    (seeds ~quick ~base:1400)

let per_recovery row v =
  if row.c_recoveries = 0 then 0. else float_of_int v /. float_of_int row.c_recoveries

let cost_table ~quick =
  let table =
    Table.create ~title:"E14a: recovery state transfer vs snapshot period"
      ~columns:
        [
          ("snapshot period", Table.Left);
          ("recoveries", Table.Right);
          ("wal replay/rec", Table.Right);
          ("delta recs/rec", Table.Right);
          ("delta B/rec", Table.Right);
          ("digest B/rec", Table.Right);
          ("rejoin p95", Table.Right);
        ]
      ()
  in
  let periods = if quick then [ 0.5; 2.; 8. ] else [ 0.5; 1.; 2.; 4.; 8. ] in
  let add name row =
    let rj = Summary.of_list row.c_rejoin in
    Table.add_row table
      [
        name;
        Table.fint row.c_recoveries;
        Printf.sprintf "%.1f" (per_recovery row row.c_wal_records);
        Printf.sprintf "%.1f" (per_recovery row row.c_delta_records);
        Printf.sprintf "%.0f" (per_recovery row row.c_delta_bytes);
        Printf.sprintf "%.0f" (per_recovery row row.c_digest_bytes);
        Printf.sprintf "%.3fs" rj.Summary.p95;
      ]
  in
  List.iter
    (fun p ->
      let store = Some (store_config ~snapshot_period:p ~faults:Disk.no_faults) in
      add (Printf.sprintf "%gs" p) (measure_cost ~quick ~store))
    periods;
  add "none (amnesiac join)" (measure_cost ~quick ~store:None);
  table

(* ------------------------------------------------------------------ *)
(* (b) Simultaneous whole-content-group crash                          *)

let wipe_scenario ~seed ~duration ~store =
  {
    Scenario.default with
    seed;
    n_servers = 3;
    n_units = 1;
    replication = 3;
    n_clients = 2;
    request_interval = 0.;
    session_duration = duration +. 30.;
    duration;
    store;
    policy = { Policy.default with n_backups = 1 };
  }

let wipe_table ~quick =
  let table =
    Table.create
      ~title:"E14b: simultaneous crash of every content-group replica"
      ~columns:
        [
          ("stable storage", Table.Left);
          ("runs", Table.Right);
          ("sessions recovered", Table.Right);
          ("duplicates", Table.Right);
          ("missing", Table.Right);
          ("post-crash responses", Table.Right);
        ]
      ()
  in
  let duration = if quick then 90. else 150. in
  let wipe_at = 40. in
  let add name store =
    let runs, recovered, dups, miss, post =
      List.fold_left
        (fun (runs, recovered, dups, miss, post) seed ->
          let sc = wipe_scenario ~seed ~duration ~store in
          let tl, _ =
            R.run_scenario sc ~prepare:(fun w ->
                ignore
                  (Haf_sim.Engine.schedule_at w.R.engine ~time:wipe_at (fun () ->
                       R.wipe_unit w ~unit_k:0 ~repair:10.)))
          in
          let post_responses =
            List.length
              (List.filter
                 (fun (at, e) ->
                   match e with
                   | Events.Response_received _ -> at > wipe_at +. 10.
                   | _ -> false)
                 tl)
          in
          ( runs + 1,
            recovered
            + List.fold_left (fun a r -> a + r.rv_sessions) 0 (recoveries tl),
            dups + total_duplicates tl,
            miss + total_missing ~critical:true tl,
            post + post_responses ))
        (0, 0, 0, 0, 0)
        (seeds ~quick ~base:1450)
    in
    Table.add_row table
      [
        name;
        Table.fint runs;
        Table.fint recovered;
        Table.fint dups;
        Table.fint miss;
        Table.fint post;
      ]
  in
  add "none (unit database lost)" None;
  add "wal+snapshots"
    (Some (store_config ~snapshot_period:1. ~faults:Disk.no_faults));
  table

(* ------------------------------------------------------------------ *)
(* (c) Disk fault injection                                            *)

let fault_table ~quick =
  let table =
    Table.create ~title:"E14c: injected disk faults are detected, never silently read"
      ~columns:
        [
          ("fault model", Table.Left);
          ("recoveries", Table.Right);
          ("torn tails", Table.Right);
          ("crc mismatches", Table.Right);
          ("fsync failures", Table.Right);
          ("critical missing", Table.Right);
        ]
      ()
  in
  let duration = if quick then 100. else 200. in
  let add name faults =
    let recs, torn, crc, fsf, miss =
      List.fold_left
        (fun (recs, torn, crc, fsf, miss) seed ->
          let sc =
            cost_scenario ~seed ~duration
              ~store:(Some (store_config ~snapshot_period:2. ~faults))
          in
          let tl, w =
            R.run_scenario sc ~prepare:(fun w ->
                R.schedule_primary_kills w ~every:20. ~repair:6. ~start:15. ())
          in
          let rs = recoveries tl in
          let count f = List.length (List.filter f rs) in
          let fsync_failures =
            Haf_sim.Det_tbl.fold_sorted ~compare:Int.compare
              (fun _ st a -> a + (Store.stats st).Store.s_fsync_failures)
              w.R.stores 0
          in
          ( recs + List.length rs,
            torn + count (fun r -> r.rv_torn),
            crc + count (fun r -> r.rv_crc),
            fsf + fsync_failures,
            miss + total_missing ~critical:true tl ))
        (0, 0, 0, 0, 0)
        (seeds ~quick ~base:1500)
    in
    Table.add_row table
      [
        name;
        Table.fint recs;
        Table.fint torn;
        Table.fint crc;
        Table.fint fsf;
        Table.fint miss;
      ]
  in
  add "none" Disk.no_faults;
  add "torn 0.3 / corrupt 0.05 / fsync-fail 0.02" Disk.default_faults;
  table

(* ------------------------------------------------------------------ *)

let run ~quick = [ cost_table ~quick; wipe_table ~quick; fault_table ~quick ]

(* CLI hook: one-off run with explicit knobs (bin/haf_experiments
   --snapshot-period / --disk-faults). *)
let run_custom ?(snapshot_period = 2.) ?(disk_faults = false) ~quick () =
  let faults = if disk_faults then Disk.default_faults else Disk.no_faults in
  let store = Some (store_config ~snapshot_period ~faults) in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "E14 (custom): snapshot=%gs sync=%gs faults=%s"
           snapshot_period (snapshot_period /. 4.)
           (if disk_faults then "on" else "off"))
      ~columns:
        [
          ("metric", Table.Left);
          ("value", Table.Right);
        ]
      ()
  in
  let row = measure_cost ~quick ~store in
  let rj = Summary.of_list row.c_rejoin in
  let add k v = Table.add_row table [ k; v ] in
  add "recoveries" (Table.fint row.c_recoveries);
  add "wal records replayed / recovery"
    (Printf.sprintf "%.1f" (per_recovery row row.c_wal_records));
  add "delta records / recovery"
    (Printf.sprintf "%.1f" (per_recovery row row.c_delta_records));
  add "delta bytes / recovery"
    (Printf.sprintf "%.0f" (per_recovery row row.c_delta_bytes));
  add "digest bytes / recovery"
    (Printf.sprintf "%.0f" (per_recovery row row.c_digest_bytes));
  add "rejoin latency p95" (Printf.sprintf "%.3fs" rj.Summary.p95);
  [ table ]
