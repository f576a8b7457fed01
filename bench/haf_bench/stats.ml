(* Sample buffers and fixed-memory histograms for the benchmark.  Kept
   local so the benchmark depends only on the system's public API, not
   on its own statistics layer. *)

(* A growable float buffer: exact percentiles over every sample. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 64 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  (* Linear interpolation between closest ranks (numpy's default); nan
     on an empty buffer so a missing metric cannot pass as a number. *)
  let percentile t p =
    if t.n = 0 then Float.nan
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Float.compare a;
      let rank = p /. 100. *. float_of_int (t.n - 1) in
      let lo = int_of_float rank in
      let hi = Int.min (t.n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end

  let median t = percentile t 50.
end

(* Log-bucketed histogram (8 buckets per octave, ~9% wide) for the
   per-datagram costs: millions of samples, constant memory. *)
module Hist = struct
  let per_octave = 8.

  let n_buckets = 320

  (* Bucket 0 holds everything at or below [floor_us]. *)
  let floor_us = 0.001

  type t = { buckets : int array; mutable count : int; mutable sum : float }

  let create () = { buckets = Array.make n_buckets 0; count = 0; sum = 0. }

  let bucket_of x =
    if x <= floor_us then 0
    else
      Int.min (n_buckets - 1)
        (1 + int_of_float (Float.log2 (x /. floor_us) *. per_octave))

  (* Upper edge of a bucket: the value percentiles report. *)
  let upper i = floor_us *. Float.pow 2. (float_of_int i /. per_octave)

  let add t x =
    let i = bucket_of x in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x

  let merge_into ~dst src =
    Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) src.buckets;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum +. src.sum

  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  let percentile t p =
    if t.count = 0 then 0.
    else begin
      let target = Float.max 1. (Float.ceil (p /. 100. *. float_of_int t.count)) in
      let rec go i acc =
        let acc = acc + t.buckets.(i) in
        if float_of_int acc >= target || i = n_buckets - 1 then upper i
        else go (i + 1) acc
      in
      go 0 0
    end

  (* Non-empty buckets as (upper edge, count) pairs, for the trace. *)
  let nonempty t =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if t.buckets.(i) > 0 then acc := (upper i, t.buckets.(i)) :: !acc
    done;
    !acc
end
