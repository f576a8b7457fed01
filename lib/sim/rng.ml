type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = bits64 t }

let nonneg t = Int64.shift_right_logical (bits64 t) 1

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (nonneg t) (Int64.of_int bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let uniform t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1.0p-53

let float t bound = uniform t *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p = uniform t < p

let exponential t ~mean = -.mean *. log (1. -. uniform t)

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int t (Array.length a))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> pick_array t (Array.of_list xs)

let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let sample t k xs =
  let shuffled = shuffle t xs in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k shuffled
