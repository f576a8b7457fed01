type config = {
  snapshot_period : float;
  sync_period : float;
  faults : Disk.fault_config;
}

let default_config =
  { snapshot_period = 2.0; sync_period = 0.25; faults = Disk.no_faults }

let validate c =
  if c.snapshot_period <= 0. then Error "snapshot_period must be positive"
  else if c.sync_period <= 0. then Error "sync_period must be positive"
  else Ok c

type t = {
  config : config;
  wal : Disk.t;
  snap : Disk.t;
  mutable wal_records : int;
  mutable snapshots_taken : int;
  mutable compactions : int;
  mutable recoveries : int;
}

let create ~name config engine =
  (match validate config with
  | Ok _ -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Store.create %s: %s" name msg));
  {
    config;
    wal = Disk.create ~faults:config.faults engine;
    snap = Disk.create ~faults:config.faults engine;
    wal_records = 0;
    snapshots_taken = 0;
    compactions = 0;
    recoveries = 0;
  }

let config t = t.config

let log t payload =
  Wal.append t.wal payload;
  t.wal_records <- t.wal_records + 1

let sync t k = Disk.fsync t.wal k

let snapshot t payload k =
  (* Everything logged before this instant is covered by [payload]; the
     compaction point excludes records appended while the snapshot write
     is in flight. *)
  let mark = Disk.durable_size t.wal + Disk.pending_size t.wal in
  Disk.rewrite t.snap (Wal.frame payload) (fun ~ok ->
      if ok then begin
        t.snapshots_taken <- t.snapshots_taken + 1;
        Disk.truncate_prefix t.wal mark;
        t.compactions <- t.compactions + 1
      end;
      k ~ok)

let crash t =
  Disk.crash t.wal;
  Disk.crash t.snap

type recovery = {
  rec_snapshot : string option;
  rec_wal : string list;
  rec_torn_tail : bool;
  rec_crc_mismatch : bool;
  rec_snapshot_lost : bool;
}

let recover t =
  t.recoveries <- t.recoveries + 1;
  let snap_image = Disk.durable t.snap in
  let snap_replay = Wal.replay snap_image in
  let rec_snapshot =
    match List.rev snap_replay.Wal.records with latest :: _ -> Some latest | [] -> None
  in
  let rec_snapshot_lost =
    rec_snapshot = None && String.length snap_image > 0
  in
  let wal_replay = Wal.replay (Disk.durable t.wal) in
  (* Drop the untrusted suffix so post-recovery appends start on a valid
     frame boundary; the truncated records are re-learned from the
     peers' state exchange, never read corrupt. *)
  Disk.truncate_to t.wal wal_replay.Wal.valid_bytes;
  {
    rec_snapshot;
    rec_wal = wal_replay.Wal.records;
    rec_torn_tail = wal_replay.Wal.torn_tail;
    rec_crc_mismatch = wal_replay.Wal.crc_mismatch || rec_snapshot_lost;
    rec_snapshot_lost;
  }

type stats = {
  s_wal_records : int;
  s_snapshots : int;
  s_compactions : int;
  s_recoveries : int;
  s_bytes_logged : int;
  s_fsyncs : int;
  s_fsync_failures : int;
  s_torn_writes : int;
  s_corruptions : int;
}

let stats t =
  let w = Disk.stats t.wal and s = Disk.stats t.snap in
  {
    s_wal_records = t.wal_records;
    s_snapshots = t.snapshots_taken;
    s_compactions = t.compactions;
    s_recoveries = t.recoveries;
    s_bytes_logged = w.Disk.bytes_appended + s.Disk.bytes_appended;
    s_fsyncs = w.Disk.fsyncs + s.Disk.fsyncs;
    s_fsync_failures = w.Disk.fsync_failures + s.Disk.fsync_failures;
    s_torn_writes = w.Disk.torn_writes + s.Disk.torn_writes;
    s_corruptions = w.Disk.corruptions + s.Disk.corruptions;
  }

let wal_disk t = t.wal

let snap_disk t = t.snap

let set_faults t f =
  Disk.set_faults t.wal f;
  Disk.set_faults t.snap f
