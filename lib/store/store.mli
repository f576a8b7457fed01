(** Per-node stable storage: a checksummed write-ahead log plus periodic
    snapshots with compaction, over two simulated {!Disk} devices.

    The store is payload-agnostic — callers log opaque strings and
    supply opaque snapshot blobs; the framework layers its own record
    codec on top.  A store outlives the crash of the node that owns it:
    the fault injector calls {!crash} at node-crash time, and the
    restarted process calls {!recover} to read back the last durable
    snapshot plus every valid log record after it, with torn tails and
    CRC mismatches detected and truncated, never silently decoded.

    Durability boundary: a record is recoverable once a {!sync} (or the
    torn-write lottery) has made it to the platter; the snapshot cadence
    bounds both the WAL length and — together with [sync_period] — the
    state lost by a crash.  All fsyncs are explicit simulation events;
    all fault randomness flows from {!Haf_sim.Rng} streams forked off
    the engine, preserving byte-identical replay. *)

type config = {
  snapshot_period : float;
      (** Seconds between snapshot+compaction cycles (driven by the
          owning server's timer). *)
  sync_period : float;  (** Seconds between periodic WAL group commits. *)
  faults : Disk.fault_config;
}

val default_config : config
(** 2 s snapshots, 250 ms group commit, no fault injection. *)

val validate : config -> (config, string) result

type t

val create : name:string -> config -> Haf_sim.Engine.t -> t
(** An empty store (first boot).  @raise Invalid_argument, naming the
    store by [name], on a config that fails {!validate}. *)

val config : t -> config

val log : t -> string -> unit
(** Append one record to the WAL's pending buffer. *)

val sync : t -> (ok:bool -> unit) -> unit
(** Group commit: fsync the WAL.  See {!Disk.fsync} for [ok] semantics. *)

val snapshot : t -> string -> (ok:bool -> unit) -> unit
(** Write a snapshot blob (atomic rewrite of the snapshot device) and,
    once durable, compact away the WAL prefix it covers.  Records logged
    while the write is in flight survive compaction. *)

val crash : t -> unit
(** Node power loss: crash both devices (see {!Disk.crash}). *)

type recovery = {
  rec_snapshot : string option;
      (** Latest valid snapshot blob, if any survived. *)
  rec_wal : string list;
      (** Valid log records after the snapshot, oldest first. *)
  rec_torn_tail : bool;  (** A torn append was detected and truncated. *)
  rec_crc_mismatch : bool;
      (** Corruption was detected (in the WAL or the snapshot) and the
          affected suffix discarded. *)
  rec_snapshot_lost : bool;
      (** The snapshot device held data but no valid record — recovery
          proceeds from the WAL alone. *)
}

val recover : t -> recovery
(** Read back durable state and truncate any untrusted WAL suffix so
    subsequent appends start on a valid frame boundary.  Idempotent
    between writes. *)

type stats = {
  s_wal_records : int;
  s_snapshots : int;
  s_compactions : int;
  s_recoveries : int;
  s_bytes_logged : int;
  s_fsyncs : int;
  s_fsync_failures : int;
  s_torn_writes : int;  (** Injected by the fault model. *)
  s_corruptions : int;  (** Injected by the fault model. *)
}

val stats : t -> stats

val wal_disk : t -> Disk.t
(** The underlying devices, exposed for tests and benchmarks. *)

val snap_disk : t -> Disk.t

val set_faults : t -> Disk.fault_config -> unit
(** Swap the fault model of both underlying devices at runtime — how a
    chaos schedule opens and closes a disk-fault burst. *)
