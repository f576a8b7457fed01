(* Closed intervals [(lo, hi)], highest first.  Invariant: [lo <= hi],
   and for neighbours [(lo1, hi1) :: (lo2, hi2) :: _], [hi2 + 1 < lo1]
   (disjoint and non-adjacent), which makes the representation
   canonical.  Highest first puts the growing end at the head: a fresh
   top seq is one comparison away. *)
type t = (int * int) list

let empty = []

let rec add x = function
  | [] -> [ (x, x) ]
  | ((lo, hi) :: rest) as s ->
      if x > hi + 1 then (x, x) :: s
      else if x = hi + 1 then (lo, x) :: rest
      else if x >= lo then s
      else if x = lo - 1 then
        match rest with
        | (lo', hi') :: rest' when hi' + 1 = x -> (lo', hi) :: rest'
        | _ -> (x, hi) :: rest
      else (lo, hi) :: add x rest

let rec mem x = function
  | [] -> false
  | (lo, hi) :: rest -> if x > hi then false else x >= lo || mem x rest

(* Fold one interval into [acc], a result built lowest-first whose head
   is the lowest interval so far.  Intervals arrive by descending [hi],
   so the only possible overlap or adjacency is with that head. *)
let push acc (lo, hi) =
  match acc with
  | (lo', hi') :: rest when hi + 1 >= lo' -> (Int.min lo lo', hi') :: rest
  | _ -> (lo, hi) :: acc

let union a b =
  let rec go acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | i :: a', [] -> go (push acc i) a' []
    | [], j :: b' -> go (push acc j) [] b'
    | ((_, ha) as i) :: a', ((_, hb) as j) :: b' ->
        if ha >= hb then go (push acc i) a' b else go (push acc j) a b'
  in
  match (a, b) with [], s | s, [] -> s | _ -> go [] a b

let diff a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | (la, ha) :: a', (lb, hb) :: b' ->
        if lb > ha then go acc a b'
        else if hb < la then go ((la, ha) :: acc) a' b
        else
          (* Overlap: what [a] holds above [hb] survives; below [lb] it
             still meets the rest of [b]. *)
          let acc = if ha > hb then (hb + 1, ha) :: acc else acc in
          if la < lb then go acc ((la, lb - 1) :: a') b' else go acc a' b
  in
  go [] a b

let max = function [] -> 0 | (_, hi) :: _ -> hi

let to_list s =
  let rec down lo acc x = if x < lo then acc else down lo (x :: acc) (x - 1) in
  List.fold_left (fun acc (lo, hi) -> down lo acc hi) [] s

let of_list l = List.fold_left (fun s x -> add x s) empty l
