module Engine = Haf_sim.Engine
module Rng = Haf_sim.Rng

type fault_config = {
  fsync_latency : float;
  fsync_latency_per_kb : float;
  fsync_fail_prob : float;
  torn_write_prob : float;
  corrupt_prob : float;
}

let no_faults =
  {
    fsync_latency = 0.005;
    fsync_latency_per_kb = 0.0001;
    fsync_fail_prob = 0.;
    torn_write_prob = 0.;
    corrupt_prob = 0.;
  }

let default_faults =
  { no_faults with torn_write_prob = 0.3; corrupt_prob = 0.05; fsync_fail_prob = 0.02 }

type stats = {
  mutable bytes_appended : int;
  mutable fsyncs : int;
  mutable fsync_failures : int;
  mutable crashes : int;
  mutable torn_writes : int;
  mutable corruptions : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable faults : fault_config;
  mutable durable : string;  (* bytes a post-crash recovery reads back *)
  pending : Buffer.t;  (* written but not yet synced (the page cache) *)
  mutable staged : string option;  (* in-flight atomic rewrite *)
  mutable epoch : int;  (* bumped on crash: orphans in-flight syncs *)
  stats : stats;
}

let fresh_stats () =
  {
    bytes_appended = 0;
    fsyncs = 0;
    fsync_failures = 0;
    crashes = 0;
    torn_writes = 0;
    corruptions = 0;
  }

let create ?(faults = no_faults) engine =
  {
    engine;
    rng = Engine.fork_rng engine;
    faults;
    durable = "";
    pending = Buffer.create 256;
    staged = None;
    epoch = 0;
    stats = fresh_stats ();
  }

let append t bytes =
  Buffer.add_string t.pending bytes;
  t.stats.bytes_appended <- t.stats.bytes_appended + String.length bytes

let sync_delay t ~bytes =
  t.faults.fsync_latency
  +. (t.faults.fsync_latency_per_kb *. float_of_int bytes /. 1024.)

(* An fsync (or rewrite) is an explicit simulation event: the caller's
   continuation fires only once the write is (or fails to become)
   durable, after a latency proportional to the batch size.  A crash
   between schedule and fire orphans the event via the epoch check. *)
let schedule_sync t ~bytes k =
  let epoch = t.epoch in
  t.stats.fsyncs <- t.stats.fsyncs + 1;
  ignore
    (Engine.schedule t.engine ~delay:(sync_delay t ~bytes) (fun () ->
         if t.epoch = epoch then
           if Rng.chance t.rng t.faults.fsync_fail_prob then begin
             t.stats.fsync_failures <- t.stats.fsync_failures + 1;
             k ~ok:false
           end
           else k ~ok:true))

let fsync t k =
  let len = Buffer.length t.pending in
  schedule_sync t ~bytes:len (fun ~ok ->
      if ok then begin
        (* Sync what was pending at call time; later appends stay
           pending.  A compaction ([truncate_prefix]) may have dropped
           part of that window while the sync was in flight, so clamp —
           making a few newer bytes durable early is a stronger fsync,
           never a wrong one. *)
        let all = Buffer.contents t.pending in
        let len = Int.min len (String.length all) in
        t.durable <- t.durable ^ String.sub all 0 len;
        Buffer.clear t.pending;
        Buffer.add_string t.pending (String.sub all len (String.length all - len))
      end;
      k ~ok)

let rewrite t bytes k =
  t.staged <- Some bytes;
  schedule_sync t ~bytes:(String.length bytes) (fun ~ok ->
      (match (ok, t.staged) with
      | true, Some staged ->
          (* The tmp-file-then-rename idiom: the replacement becomes the
             durable contents atomically, or not at all. *)
          t.durable <- staged;
          t.staged <- None
      | true, None | false, _ -> ());
      k ~ok)

let flip_byte t s =
  let n = String.length s in
  let window = Int.min 512 n in
  let i = n - window + Rng.int t.rng window in
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int t.rng 8)));
  Bytes.to_string b

let crash t =
  t.epoch <- t.epoch + 1;
  t.staged <- None;
  t.stats.crashes <- t.stats.crashes + 1;
  let lost = Buffer.contents t.pending in
  Buffer.clear t.pending;
  (* Unsynced data normally vanishes, but with [torn_write_prob] a strict
     prefix of it reaches the platter — the torn tail recovery must
     detect. *)
  if String.length lost > 0 && Rng.chance t.rng t.faults.torn_write_prob then begin
    let keep = Rng.int t.rng (String.length lost) in
    t.durable <- t.durable ^ String.sub lost 0 keep;
    t.stats.torn_writes <- t.stats.torn_writes + 1
  end;
  (* Bit rot near the write head: one flipped bit in the tail of the
     durable region — a complete record whose CRC no longer matches. *)
  if String.length t.durable > 0 && Rng.chance t.rng t.faults.corrupt_prob then begin
    t.durable <- flip_byte t t.durable;
    t.stats.corruptions <- t.stats.corruptions + 1
  end

let durable t = t.durable

let durable_size t = String.length t.durable

let pending_size t = Buffer.length t.pending

let truncate_prefix t n =
  if n < 0 then invalid_arg "Disk.truncate_prefix";
  let d = String.length t.durable in
  if n <= d then t.durable <- String.sub t.durable n (d - n)
  else begin
    let rest = n - d in
    t.durable <- "";
    let p = Buffer.contents t.pending in
    let rest = Int.min rest (String.length p) in
    Buffer.clear t.pending;
    Buffer.add_string t.pending (String.sub p rest (String.length p - rest))
  end

let truncate_to t n =
  if n < 0 then invalid_arg "Disk.truncate_to";
  Buffer.clear t.pending;
  if n < String.length t.durable then t.durable <- String.sub t.durable 0 n

let stats t = t.stats

let set_faults t f = t.faults <- f
