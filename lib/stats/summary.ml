type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
      let m = mean xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
      sqrt (ss /. float_of_int (List.length xs - 1))

let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let rank =
        int_of_float (ceil (p /. 100. *. float_of_int n)) |> Int.max 1 |> Int.min n
      in
      List.nth sorted (rank - 1)

let of_list xs =
  match xs with
  | [] -> { n = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0. }
  | _ ->
      {
        n = List.length xs;
        mean = mean xs;
        stddev = stddev xs;
        min = List.fold_left Float.min infinity xs;
        max = List.fold_left Float.max neg_infinity xs;
        p50 = percentile xs 50.;
        p95 = percentile xs 95.;
      }

let ci95_halfwidth t =
  if t.n <= 1 then 0. else 1.96 *. t.stddev /. sqrt (float_of_int t.n)
