(* Fixed-memory streaming aggregate: moments + a log-bucket quantile
   sketch + a deterministic-seed reservoir.

   The bench path cannot afford [Summary.of_list]'s retained vector (at
   10^5 sessions, the largest measured rung, it would hold one list cell
   per grant), so latency
   observations stream into this instead.  Memory is fixed at creation:
   one int array of [n_buckets] plus one float array of [reservoir]
   slots, independent of how many values are added.

   Quantiles use DDSketch-style logarithmic buckets: value [v] lands in
   bucket [floor (log (v / min_value) / log gamma)] with
   [gamma = (1 + alpha) / (1 - alpha)], and the bucket's representative
   is its geometric midpoint, so any reported quantile is within a
   relative [alpha] of the true order statistic for values inside
   [min_value, min_value * gamma^n_buckets) — values outside clamp to
   the edge buckets (the underflow bucket reports exactly, as [<=
   min_value] observations are almost always the zero-latency case).

   The reservoir is Vitter's algorithm R over a splitmix64 stream
   seeded explicitly by the caller: same seed + same observations =
   same sample, byte for byte, so bench artifacts stay replayable
   (haf-lint R1 keeps ambient randomness out of libraries; this PRNG
   is seeded, local and deterministic). *)

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  min_value : float;
  buckets : int array;
  mutable underflow : int;  (* observations <= min_value *)
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable mn : float;
  mutable mx : float;
  reservoir : float array;
  mutable res_filled : int;
  mutable rng : int64;  (* splitmix64 state *)
}

let create ?(alpha = 0.01) ?(n_buckets = 2048) ?(reservoir = 512)
    ?(min_value = 1e-6) ~seed () =
  if alpha <= 0. || alpha >= 1. then invalid_arg "Sketch.create: alpha in (0,1)";
  if n_buckets < 1 then invalid_arg "Sketch.create: n_buckets must be positive";
  if min_value <= 0. then invalid_arg "Sketch.create: min_value must be positive";
  let gamma = (1. +. alpha) /. (1. -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = log gamma;
    min_value;
    buckets = Array.make n_buckets 0;
    underflow = 0;
    n = 0;
    sum = 0.;
    sumsq = 0.;
    mn = infinity;
    mx = neg_infinity;
    reservoir = Array.make (Stdlib.max 1 reservoir) 0.;
    res_filled = 0;
    rng = Int64.of_int seed;
  }

(* splitmix64: the standard 64-bit finalizer over a Weyl sequence.
   Good enough for reservoir indices and entirely deterministic. *)
let next_u64 t =
  t.rng <- Int64.add t.rng 0x9E3779B97F4A7C15L;
  let z = t.rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform int in [0, bound): rejection-free modulo is fine here — the
   bias at reservoir sizes (<< 2^32) is far below sampling noise. *)
let next_int t bound =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 t) 1) (Int64.of_int bound))

let[@hot] bucket_index t v =
  (* log is C-stub math on an unboxed float: no per-call allocation *)
  let i = int_of_float (log (v /. t.min_value) /. t.log_gamma) in
  if i < 0 then 0
  else if i >= Array.length t.buckets then Array.length t.buckets - 1
  else i

let[@hot] add t v =
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  t.sumsq <- t.sumsq +. (v *. v);
  if v < t.mn then t.mn <- v;
  if v > t.mx then t.mx <- v;
  if v <= t.min_value then t.underflow <- t.underflow + 1
  else begin
    let i = bucket_index t v in
    Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + 1)
  end;
  (* Vitter's algorithm R *)
  let cap = Array.length t.reservoir in
  if t.res_filled < cap then begin
    Array.unsafe_set t.reservoir t.res_filled v;
    t.res_filled <- t.res_filled + 1
  end
  else begin
    let j = next_int t t.n in
    if j < cap then Array.unsafe_set t.reservoir j v
  end

let count t = t.n

let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

let stddev t =
  if t.n <= 1 then 0.
  else
    let n = float_of_int t.n in
    let var = (t.sumsq -. (t.sum *. t.sum /. n)) /. (n -. 1.) in
    sqrt (Float.max 0. var)

let min_value t = if t.n = 0 then 0. else t.mn

let max_value t = if t.n = 0 then 0. else t.mx

(* Same rank convention as {!Summary.percentile}: 1-based rank
   [ceil (q * n)], clamped into [1, n]. *)
let quantile t q =
  if t.n = 0 then 0.
  else begin
    let rank =
      int_of_float (ceil (q *. float_of_int t.n)) |> Stdlib.max 1 |> Stdlib.min t.n
    in
    if rank <= t.underflow then t.min_value
    else begin
      let rec walk i seen =
        if i >= Array.length t.buckets then t.mx
        else
          let seen = seen + t.buckets.(i) in
          if seen >= rank then
            (* geometric bucket midpoint: within alpha of any member *)
            t.min_value *. (t.gamma ** (float_of_int i +. 0.5))
          else walk (i + 1) seen
      in
      let v = walk 0 t.underflow in
      (* the sketch cannot place a quantile outside the observed range *)
      Float.min t.mx (Float.max t.mn v)
    end
  end

let p50 t = quantile t 0.50

let p95 t = quantile t 0.95

let p99 t = quantile t 0.99

let alpha t = t.alpha

let reservoir_sample t = Array.to_list (Array.sub t.reservoir 0 t.res_filled)

let to_summary t =
  {
    Summary.n = t.n;
    mean = mean t;
    stddev = stddev t;
    min = min_value t;
    max = max_value t;
    p50 = p50 t;
    p95 = p95 t;
  }
