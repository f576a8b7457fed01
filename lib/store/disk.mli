(** A deterministic simulated disk.

    One [t] models one append-only file (plus an atomic whole-file
    rewrite primitive for snapshots).  Writes land in a volatile pending
    buffer — the page cache — and only become durable when an explicit
    {!fsync} completes; fsyncs are scheduled simulation events whose
    latency scales with the batch size.  All randomness (fsync failures,
    torn writes, bit rot) is drawn from an {!Haf_sim.Rng.t} forked off
    the engine, so a run with the same seed injects the same faults at
    the same instants and byte-identical replay holds with storage
    enabled.

    The disk deliberately {e survives} {!crash}: crashing models power
    loss of the node, after which {!durable} is what a recovering
    process reads back.  Contrast {!Haf_net.Network.crash}, which loses
    all in-memory state. *)

type fault_config = {
  fsync_latency : float;  (** Base seconds per fsync. *)
  fsync_latency_per_kb : float;  (** Additional seconds per KiB synced. *)
  fsync_fail_prob : float;
      (** Probability an fsync reports failure; the data stays pending
          (retryable), nothing is lost. *)
  torn_write_prob : float;
      (** Probability that a crash persists a strict prefix of the
          unsynced bytes — the torn tail a WAL replay must detect. *)
  corrupt_prob : float;
      (** Probability that a crash flips one bit in the tail of the
          durable region — a CRC mismatch inside a complete record. *)
}

val no_faults : fault_config
(** Realistic latency, no failure injection. *)

val default_faults : fault_config
(** The fault mix used by the disk-fault experiments: 30% torn writes,
    5% bit rot, 2% fsync failures. *)

type stats = {
  mutable bytes_appended : int;
  mutable fsyncs : int;
  mutable fsync_failures : int;
  mutable crashes : int;
  mutable torn_writes : int;  (** Faults injected (not detected). *)
  mutable corruptions : int;  (** Faults injected (not detected). *)
}

type t

val create : ?faults:fault_config -> Haf_sim.Engine.t -> t
(** A fresh, empty disk. *)

val append : t -> string -> unit
(** Write into the pending buffer.  Instantaneous (page-cache write);
    durable only after a successful {!fsync}. *)

val fsync : t -> (ok:bool -> unit) -> unit
(** Schedule a sync of everything pending {e at call time}.  The
    continuation fires after the simulated latency with [ok = true]
    (bytes moved to durable) or [ok = false] (injected failure; bytes
    remain pending and may be re-synced).  A crash before the event
    fires orphans it: the continuation never runs. *)

val rewrite : t -> string -> (ok:bool -> unit) -> unit
(** Atomically replace the entire durable contents (the write-tmp-then-
    rename idiom): after [ok = true] the durable bytes are exactly the
    argument; on failure or an intervening crash the previous contents
    survive untouched. *)

val crash : t -> unit
(** Power loss: drop pending bytes (modulo a torn-write prefix), drop
    any staged rewrite, possibly flip a bit of the durable tail, and
    orphan in-flight syncs.  The durable contents remain readable. *)

val durable : t -> string
(** What a recovery reads back. *)

val durable_size : t -> int

val pending_size : t -> int

val truncate_prefix : t -> int -> unit
(** Drop the first [n] logical bytes (durable first, then pending) —
    the WAL-compaction primitive after a snapshot becomes durable. *)

val truncate_to : t -> int -> unit
(** Keep only the first [n] durable bytes; drop the durable remainder
    and everything pending — recovery's discard of an untrusted tail. *)

val stats : t -> stats

val set_faults : t -> fault_config -> unit
(** Swap the fault model at runtime.  Affects every subsequent sync and
    crash; the chaos engine uses this to open and close disk-fault
    bursts mid-run without rebuilding the store. *)
