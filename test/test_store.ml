(* lib/store: CRC framing, the simulated disk, WAL+snapshot recovery
   per fault class, and end-to-end determinism with a store attached. *)

module Engine = Haf_sim.Engine
module Crc32 = Haf_store.Crc32
module Disk = Haf_store.Disk
module Wal = Haf_store.Wal
module Store = Haf_store.Store

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let test_crc_check_vector () =
  check Alcotest.int32 "empty" 0l (Crc32.string "");
  check Alcotest.int32 "standard check value" 0xCBF43926l
    (Crc32.string "123456789");
  let s = "the quick brown fox" in
  check Alcotest.int32 "incremental = whole" (Crc32.string s)
    (Crc32.update (Crc32.update 0l s ~off:0 ~len:9) s ~off:9
       ~len:(String.length s - 9))

(* ------------------------------------------------------------------ *)
(* WAL framing and replay                                              *)

let image records = String.concat "" (List.map Wal.frame records)

let test_wal_roundtrip () =
  let rs = [ "alpha"; ""; "a longer record with \x00 binary \xff bytes" ] in
  let r = Wal.replay (image rs) in
  check (Alcotest.list Alcotest.string) "records back" rs r.Wal.records;
  check Alcotest.bool "no torn tail" false r.Wal.torn_tail;
  check Alcotest.bool "no crc mismatch" false r.Wal.crc_mismatch;
  check Alcotest.int "all bytes valid" (String.length (image rs))
    r.Wal.valid_bytes

let test_wal_torn_tail () =
  let whole = image [ "first"; "second" ] in
  (* Cut mid-way through the second frame: an interrupted append. *)
  let cut = String.sub whole 0 (String.length whole - 3) in
  let r = Wal.replay cut in
  check (Alcotest.list Alcotest.string) "prefix survives" [ "first" ]
    r.Wal.records;
  check Alcotest.bool "torn tail detected" true r.Wal.torn_tail;
  check Alcotest.bool "not misread as corruption" false r.Wal.crc_mismatch;
  check Alcotest.int "valid prefix is first frame" (Wal.framed_size "first")
    r.Wal.valid_bytes

let test_wal_crc_mismatch () =
  let whole = image [ "first"; "second"; "third" ] in
  (* Flip a payload byte inside the second frame: a complete frame whose
     checksum no longer matches.  Replay must stop there — frame
     boundaries after corrupt data are untrustworthy. *)
  let off = Wal.framed_size "first" + Wal.header_size + 2 in
  let b = Bytes.of_string whole in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  let r = Wal.replay (Bytes.to_string b) in
  check (Alcotest.list Alcotest.string) "records before corruption"
    [ "first" ] r.Wal.records;
  check Alcotest.bool "crc mismatch detected" true r.Wal.crc_mismatch

(* ------------------------------------------------------------------ *)
(* Simulated disk                                                      *)

let test_disk_fsync_boundary () =
  let engine = Engine.create ~seed:7 () in
  let disk = Disk.create engine in
  Disk.append disk "unsynced-";
  check Alcotest.int "nothing durable before fsync" 0 (Disk.durable_size disk);
  let synced = ref None in
  Disk.fsync disk (fun ~ok -> synced := Some ok);
  Disk.append disk "late";
  Engine.run engine;
  check (Alcotest.option Alcotest.bool) "fsync completed ok" (Some true)
    !synced;
  check Alcotest.string "only the pre-fsync window is durable" "unsynced-"
    (Disk.durable disk);
  check Alcotest.int "late append still pending" 4 (Disk.pending_size disk)

let test_disk_crash_loses_unsynced () =
  let engine = Engine.create ~seed:7 () in
  let disk = Disk.create engine in
  Disk.append disk "durable";
  Disk.fsync disk (fun ~ok:_ -> ());
  Engine.run engine;
  Disk.append disk "lost";
  Disk.crash disk;
  check Alcotest.string "unsynced data vanished" "durable" (Disk.durable disk);
  check Alcotest.int "pending cleared" 0 (Disk.pending_size disk)

let test_disk_deterministic () =
  (* Same seed, same fault draws: two engines replay the same history. *)
  let run () =
    let engine = Engine.create ~seed:42 () in
    let disk =
      Disk.create ~faults:Disk.default_faults engine
    in
    let log = Buffer.create 64 in
    for i = 0 to 19 do
      Disk.append disk (Printf.sprintf "record-%d" i);
      Disk.fsync disk (fun ~ok ->
          Buffer.add_string log (if ok then "s" else "F"));
      Engine.run engine;
      if i mod 5 = 4 then begin
        Disk.crash disk;
        Buffer.add_string log
          (Printf.sprintf "[%d]" (Disk.durable_size disk))
      end
    done;
    Buffer.contents log
  in
  check Alcotest.string "byte-identical fault history" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Store: recovery per fault class                                     *)

let quiet_config =
  { Store.default_config with snapshot_period = 1000.; sync_period = 1000. }

let make_store ?(config = quiet_config) ?seed () =
  let engine = Engine.create ?seed () in
  (engine, Store.create ~name:"s" config engine)

let test_store_log_sync_recover () =
  let engine, st = make_store () in
  Store.log st "one";
  Store.log st "two";
  Store.sync st (fun ~ok:_ -> ());
  Engine.run engine;
  Store.crash st;
  let r = Store.recover st in
  check (Alcotest.list Alcotest.string) "synced records recovered"
    [ "one"; "two" ] r.Store.rec_wal;
  check (Alcotest.option Alcotest.string) "no snapshot yet" None
    r.Store.rec_snapshot;
  check Alcotest.bool "clean tail" false
    (r.Store.rec_torn_tail || r.Store.rec_crc_mismatch)

let test_store_unsynced_lost () =
  let _engine, st = make_store () in
  Store.log st "never-synced";
  Store.crash st;
  let r = Store.recover st in
  check (Alcotest.list Alcotest.string) "unsynced record gone" []
    r.Store.rec_wal

let test_store_snapshot_compacts () =
  let engine, st = make_store () in
  Store.log st "old";
  Store.sync st (fun ~ok:_ -> ());
  Engine.run engine;
  Store.snapshot st "SNAP" (fun ~ok -> check Alcotest.bool "snap ok" true ok);
  Engine.run engine;
  Store.log st "new";
  Store.sync st (fun ~ok:_ -> ());
  Engine.run engine;
  Store.crash st;
  let r = Store.recover st in
  check (Alcotest.option Alcotest.string) "snapshot back" (Some "SNAP")
    r.Store.rec_snapshot;
  check (Alcotest.list Alcotest.string) "only post-snapshot records"
    [ "new" ] r.Store.rec_wal;
  check Alcotest.bool "wal was compacted" true
    ((Store.stats st).Store.s_compactions > 0)

let test_store_torn_tail_truncated () =
  (* Force a torn append: unsynced bytes with the torn-write lottery
     rigged to always persist a strict prefix.  The prefix length is a
     random draw, so scan seeds until one actually tears mid-frame. *)
  let seed = ref 0 in
  let torn = ref None in
  while !torn = None && !seed < 50 do
    let engine = Engine.create ~seed:!seed () in
    let st =
      Store.create ~name:"s"
        {
          quiet_config with
          faults = { Disk.no_faults with torn_write_prob = 1.0 };
        }
        engine
    in
    Store.log st "good";
    Store.sync st (fun ~ok:_ -> ());
    Engine.run engine;
    Store.log st "interrupted-record-long-enough-to-tear";
    Store.crash st;
    let r = Store.recover st in
    if r.Store.rec_torn_tail then torn := Some r;
    incr seed
  done;
  match !torn with
  | None -> Alcotest.fail "no torn tail in 50 seeds"
  | Some r ->
      check (Alcotest.list Alcotest.string) "only the synced record survives"
        [ "good" ] r.Store.rec_wal

let test_store_recovery_resumes_on_frame_boundary () =
  (* After a detected torn tail, recover truncates the junk: subsequent
     appends must replay cleanly on top. *)
  let engine = Engine.create ~seed:11 () in
  let st =
    Store.create ~name:"s"
      {
        quiet_config with
        faults = { Disk.no_faults with torn_write_prob = 1.0 };
      }
      engine
  in
  Store.log st "good";
  Store.sync st (fun ~ok:_ -> ());
  Engine.run engine;
  Store.log st "interrupted-record-long-enough-to-tear";
  Store.crash st;
  ignore (Store.recover st);
  Store.log st "after-recovery";
  Store.sync st (fun ~ok:_ -> ());
  Engine.run engine;
  Store.crash st;
  let r = Store.recover st in
  check (Alcotest.list Alcotest.string) "clean replay after truncation"
    [ "good"; "after-recovery" ] r.Store.rec_wal;
  check Alcotest.bool "second recovery clean" false
    (r.Store.rec_torn_tail || r.Store.rec_crc_mismatch)

let test_store_missing_snapshot () =
  (* A corrupted snapshot device is reported, and recovery proceeds
     from the WAL alone — never a silent read of bad data. *)
  let engine, st = make_store () in
  Store.log st "wal-record";
  Store.sync st (fun ~ok:_ -> ());
  Engine.run engine;
  Store.snapshot st "SNAP" (fun ~ok:_ -> ());
  Engine.run engine;
  (* Corrupt the snapshot device image directly. *)
  let snap = Store.snap_disk st in
  Disk.truncate_to snap (Disk.durable_size snap - 2);
  Store.crash st;
  let r = Store.recover st in
  check (Alcotest.option Alcotest.string) "snapshot refused" None
    r.Store.rec_snapshot;
  check Alcotest.bool "loss reported" true
    (r.Store.rec_snapshot_lost || r.Store.rec_torn_tail
   || r.Store.rec_crc_mismatch)

let test_store_fsync_failure_reported () =
  let engine = Engine.create ~seed:3 () in
  let st =
    Store.create ~name:"s"
      {
        quiet_config with
        faults = { Disk.no_faults with fsync_fail_prob = 1.0 };
      }
      engine
  in
  Store.log st "doomed";
  let result = ref None in
  Store.sync st (fun ~ok -> result := Some ok);
  Engine.run engine;
  check (Alcotest.option Alcotest.bool) "failure surfaced" (Some false)
    !result;
  check Alcotest.bool "counted" true
    ((Store.stats st).Store.s_fsync_failures > 0)

let test_store_validate () =
  check Alcotest.bool "default validates" true
    (Result.is_ok (Store.validate Store.default_config));
  check Alcotest.bool "negative period rejected" true
    (Result.is_error
       (Store.validate { Store.default_config with snapshot_period = -1. }))

(* ------------------------------------------------------------------ *)
(* End to end: determinism and whole-group crash with a store          *)

module Scenario = Haf_experiments.Scenario
module R = Haf_experiments.Runner.Make (Haf_services.Synthetic)
module Metrics = Haf_stats.Metrics
module Events = Haf_core.Events

let stored_scenario =
  {
    Scenario.default with
    seed = 5;
    n_servers = 3;
    n_units = 1;
    replication = 3;
    n_clients = 2;
    session_duration = 60.;
    request_interval = 0.;
    duration = 60.;
    store = Some { Store.default_config with snapshot_period = 2. };
  }

let render_timeline tl =
  let b = Buffer.create 4096 in
  List.iter
    (fun (at, e) ->
      Buffer.add_string b (Format.asprintf "%.6f %a\n" at Events.pp e))
    tl;
  Buffer.contents b

let test_replay_byte_identical_with_store () =
  (* The acceptance bar for the store subsystem: attaching it must keep
     the simulation history byte-identical across replays, crashes and
     recoveries included. *)
  let run () =
    let tl, _ =
      R.run_scenario stored_scenario ~prepare:(fun w ->
          ignore
            (Engine.schedule_at w.R.engine ~time:20. (fun () ->
                 R.crash_server w 1));
          ignore
            (Engine.schedule_at w.R.engine ~time:24. (fun () ->
                 R.restart_server w 1)))
    in
    render_timeline tl
  in
  check Alcotest.string "byte-identical timeline with store" (run ()) (run ())

let test_whole_group_crash_recovers_with_store () =
  let tl, _ =
    R.run_scenario stored_scenario ~prepare:(fun w ->
        ignore
          (Engine.schedule_at w.R.engine ~time:25. (fun () ->
               R.wipe_unit w ~unit_k:0 ~repair:8.)))
  in
  let recovered =
    List.fold_left
      (fun acc (_, e) ->
        match e with
        | Events.Store_recovered { sessions; _ } -> acc + sessions
        | _ -> acc)
      0 tl
  in
  check Alcotest.bool "sessions survive a whole-group crash" true
    (recovered > 0);
  (* The streams keep going after the wipe. *)
  let late_responses =
    List.exists
      (fun (at, e) ->
        at > 40. && match e with Events.Response_received _ -> true | _ -> false)
      tl
  in
  check Alcotest.bool "responses resume after recovery" true late_responses

(* Replaying a live server's store yields the database it serves.  The
   servers are stopped first, so nothing changes a database after the
   last sync. *)
module Unit_db = Haf_core.Unit_db

let replay_store st db =
  (match List.rev (Wal.replay (Disk.durable (Store.snap_disk st))).Wal.records with
  | blob :: _ ->
      List.iter
        (fun (unit_id, records) ->
          if unit_id = Unit_db.unit_id db then
            ignore (Unit_db.apply db (Merge { unit_id; records })))
        (Marshal.from_string blob 0 : (string * _ Unit_db.session list) list)
  | [] -> ());
  List.iter
    (fun r ->
      match R.Fw.decode_op r with
      | ( Add { unit_id; _ }
        | End { unit_id; _ }
        | Assign { unit_id; _ }
        | Ctx { unit_id; _ }
        | Merge { unit_id; _ } ) as op ->
          if unit_id = Unit_db.unit_id db then ignore (Unit_db.apply db op))
    (Wal.replay (Disk.durable (Store.wal_disk st))).Wal.records

let check_store_replays sc ~prepare =
  let _, w = R.run_scenario sc ~prepare in
  let live = R.live_servers w in
  List.iter (fun (_, srv) -> R.Fw.Server.stop srv) live;
  List.iter
    (fun (p, _) -> Store.sync (Option.get (R.store_of w p)) (fun ~ok:_ -> ()))
    live;
  Engine.run ~until:(Engine.now w.R.engine +. 5.) w.R.engine;
  check Alcotest.bool "some server is live" true (live <> []);
  List.iter
    (fun (p, srv) ->
      List.iter
        (fun u ->
          let db = Option.get (R.Fw.Server.db srv u) in
          let replayed = Unit_db.create ~unit_id:u () in
          replay_store (Option.get (R.store_of w p)) replayed;
          check Alcotest.bool (Printf.sprintf "s%d holds sessions" p) true
            (Unit_db.size db > 0);
          check Alcotest.bool
            (Printf.sprintf "s%d %s: replayed store = live database" p u)
            true
            (Unit_db.equal_shape db replayed))
        (R.Fw.Server.units srv))
    live

let test_store_replays_to_live_db () =
  (* Snapshot plus WAL: one crash and restart. *)
  check_store_replays stored_scenario ~prepare:(fun w ->
      ignore (Engine.schedule_at w.R.engine ~time:20. (fun () -> R.crash_server w 1));
      ignore (Engine.schedule_at w.R.engine ~time:24. (fun () -> R.restart_server w 1)));
  (* WAL only (no snapshot in the run), repeated primary kills and
     sessions that outlive the run: the log alone must carry every
     change, the state exchanges' reconciled assignments included.
     With those unlogged, s3's replay keeps a stale assignment. *)
  check_store_replays
    {
      stored_scenario with
      seed = 1;
      n_servers = 4;
      replication = 4;
      n_clients = 6;
      duration = 100.;
      session_duration = 200.;
      store = Some { Store.default_config with snapshot_period = 1000. };
      policy =
        { stored_scenario.Scenario.policy with n_backups = 1; propagation_period = 2.0 };
    }
    ~prepare:(fun w -> R.schedule_primary_kills w ~every:20. ~repair:0.6 ~start:15. ())

(* The WAL's disk format: a frozen copy of the record type the store was
   first written with.  Every op marshals to the bytes of its frozen
   twin and decodes back to itself, so the constructor and field order
   of [Unit_db.op] stays the disk format. *)
type 'ctx frozen_record =
  | P_session of {
      unit_id : string;
      session_id : string;
      client : int;
      started_at : float;
    }
  | P_end of { unit_id : string; session_id : string }
  | P_assign of {
      unit_id : string;
      session_id : string;
      primary : int;
      backups : int list;
    }
  | P_ctx of { unit_id : string; session_id : string; snap : 'ctx Unit_db.snapshot }
  | P_merge of { unit_id : string; records : 'ctx Unit_db.session list }

let test_wal_format_frozen () =
  let snap =
    {
      Unit_db.snap_ctx = { Haf_services.Synthetic.pos = 41; marker = 7 };
      snap_applied = Haf_core.Seqset.(add 7 (add 5 (add 1 empty)));
      snap_at = 12.5;
    }
  in
  let session =
    {
      Unit_db.session_id = "c3-1";
      client = 3;
      unit_id = "u0";
      started_at = 2.25;
      propagated = Some snap;
      primary = Some 1;
      backups = [ 2; 0 ];
      ended = false;
    }
  in
  let tombstone =
    {
      session with
      session_id = "c4-0";
      propagated = None;
      primary = None;
      backups = [];
      ended = true;
    }
  in
  let u = "u0" and sid = "c3-1" in
  let pairs =
    [
      ( P_session { unit_id = u; session_id = sid; client = 3; started_at = 2.25 },
        Unit_db.Add { unit_id = u; session_id = sid; client = 3; started_at = 2.25 } );
      (P_end { unit_id = u; session_id = sid }, End { unit_id = u; session_id = sid });
      ( P_assign { unit_id = u; session_id = sid; primary = 1; backups = [ 2; 0 ] },
        Assign { unit_id = u; session_id = sid; primary = 1; backups = [ 2; 0 ] } );
      ( P_ctx { unit_id = u; session_id = sid; snap },
        Ctx { unit_id = u; session_id = sid; snap } );
      ( P_merge { unit_id = u; records = [ session; tombstone ] },
        Merge { unit_id = u; records = [ session; tombstone ] } );
    ]
  in
  List.iter
    (fun (frozen, op) ->
      let name =
        match op with
        | Unit_db.Add _ -> "Add"
        | End _ -> "End"
        | Assign _ -> "Assign"
        | Ctx _ -> "Ctx"
        | Merge _ -> "Merge"
      in
      let bytes = Marshal.to_string frozen [] in
      check Alcotest.string (name ^ ": same bytes as the frozen record") bytes
        (R.Fw.encode_op op);
      check Alcotest.bool (name ^ ": decodes back") true (R.Fw.decode_op bytes = op))
    pairs

let suite =
  [
    ( "store.crc",
      [
        Alcotest.test_case "check vector" `Quick test_crc_check_vector;
      ] );
    ( "store.wal",
      [
        Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
        Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
        Alcotest.test_case "crc mismatch" `Quick test_wal_crc_mismatch;
      ] );
    ( "store.disk",
      [
        Alcotest.test_case "fsync boundary" `Quick test_disk_fsync_boundary;
        Alcotest.test_case "crash loses unsynced" `Quick
          test_disk_crash_loses_unsynced;
        Alcotest.test_case "deterministic faults" `Quick
          test_disk_deterministic;
      ] );
    ( "store.recovery",
      [
        Alcotest.test_case "log+sync+recover" `Quick test_store_log_sync_recover;
        Alcotest.test_case "unsynced lost" `Quick test_store_unsynced_lost;
        Alcotest.test_case "snapshot compacts" `Quick test_store_snapshot_compacts;
        Alcotest.test_case "torn tail truncated" `Quick
          test_store_torn_tail_truncated;
        Alcotest.test_case "frame boundary after recovery" `Quick
          test_store_recovery_resumes_on_frame_boundary;
        Alcotest.test_case "missing snapshot" `Quick test_store_missing_snapshot;
        Alcotest.test_case "fsync failure reported" `Quick
          test_store_fsync_failure_reported;
        Alcotest.test_case "config validation" `Quick test_store_validate;
      ] );
    ( "store.e2e",
      [
        Alcotest.test_case "byte-identical replay" `Quick
          test_replay_byte_identical_with_store;
        Alcotest.test_case "whole-group crash recovers" `Quick
          test_whole_group_crash_recovers_with_store;
        Alcotest.test_case "replayed store = live database" `Quick
          test_store_replays_to_live_db;
      ] );
    ( "store.format",
      [ Alcotest.test_case "WAL records keep their bytes" `Quick test_wal_format_frozen ] );
  ]
