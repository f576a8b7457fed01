module Rng = Haf_sim.Rng

type target =
  | View_id
  | Epoch
  | Clock
  | Record
  | Conn

type op =
  | Partition of int list list
  | Heal
  | Link of { src : int; dst : int; up : bool }
  | Delay of { src : int; dst : int; extra : float }
  | Crash of int
  | Restart of int
  | Wipe_unit of int
  | Disk_faults of { server : int; on : bool }
  | Corrupt of { server : int; target : target }

let target_to_string = function
  | View_id -> "view"
  | Epoch -> "epoch"
  | Clock -> "clock"
  | Record -> "record"
  | Conn -> "conn"

let target_of_string = function
  | "view" -> Some View_id
  | "epoch" -> Some Epoch
  | "clock" -> Some Clock
  | "record" -> Some Record
  | "conn" -> Some Conn
  | _ -> None

let all_targets = [ View_id; Epoch; Clock; Record; Conn ]

type schedule = (float * op) list

(* ---------------------------------------------------------------- *)
(* Rendering / parsing.  The schedule is a first-class artifact: a
   failing run is reported as this text, and feeding the text back
   replays the identical fault history. *)

let op_to_string = function
  | Partition comps ->
      "partition "
      ^ String.concat "|"
          (List.map (fun c -> String.concat "," (List.map string_of_int c)) comps)
  | Heal -> "heal"
  | Link { src; dst; up } ->
      Printf.sprintf "link %d %d %s" src dst (if up then "up" else "down")
  | Delay { src; dst; extra } -> Printf.sprintf "delay %d %d %.6f" src dst extra
  | Crash s -> Printf.sprintf "crash %d" s
  | Restart s -> Printf.sprintf "restart %d" s
  | Wipe_unit u -> Printf.sprintf "wipe %d" u
  | Disk_faults { server; on } ->
      Printf.sprintf "disk %d %s" server (if on then "on" else "off")
  | Corrupt { server; target } ->
      Printf.sprintf "corrupt-%s %d" (target_to_string target) server

let to_string (s : schedule) =
  String.concat "\n"
    (List.map (fun (t, op) -> Printf.sprintf "%.6f %s" t (op_to_string op)) s)

let parse_op = function
  | [ "partition"; comps ] ->
      let comp s =
        List.map int_of_string (List.filter (fun x -> x <> "") (String.split_on_char ',' s))
      in
      Some
        (Partition
           (List.filter
              (fun c -> c <> [])
              (List.map comp (String.split_on_char '|' comps))))
  | [ "heal" ] -> Some Heal
  | [ "link"; src; dst; updown ] ->
      Some
        (Link
           {
             src = int_of_string src;
             dst = int_of_string dst;
             up = String.equal updown "up";
           })
  | [ "delay"; src; dst; extra ] ->
      Some
        (Delay
           {
             src = int_of_string src;
             dst = int_of_string dst;
             extra = float_of_string extra;
           })
  | [ "crash"; s ] -> Some (Crash (int_of_string s))
  | [ "restart"; s ] -> Some (Restart (int_of_string s))
  | [ "wipe"; u ] -> Some (Wipe_unit (int_of_string u))
  | [ "disk"; s; onoff ] ->
      Some (Disk_faults { server = int_of_string s; on = String.equal onoff "on" })
  | [ word; s ] when String.length word > 8 && String.sub word 0 8 = "corrupt-" -> (
      match target_of_string (String.sub word 8 (String.length word - 8)) with
      | Some target -> Some (Corrupt { server = int_of_string s; target })
      | None -> None)
  | _ -> None

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let parse_line l =
    match String.split_on_char ' ' l |> List.filter (fun x -> x <> "") with
    | at :: rest -> (
        match (float_of_string_opt at, parse_op rest) with
        | Some t, Some op -> Ok (t, op)
        | _ -> Error (Printf.sprintf "unparsable schedule line: %S" l))
    | [] -> Error "empty line"
  in
  List.fold_left
    (fun acc l ->
      match (acc, parse_line l) with
      | Ok ops, Ok binding -> Ok (binding :: ops)
      | (Error _ as e), _ -> e
      | _, Error e -> Error e)
    (Ok []) lines
  |> Result.map List.rev

(* ---------------------------------------------------------------- *)
(* Generation.  A schedule is built from paired incidents (fault at t,
   repair at t + duration), then time-sorted; the interpreter treats
   every op as idempotent and state-tolerant, so arbitrary subsets —
   which is what the shrinker produces — remain valid schedules. *)

let sort_schedule s =
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) s

(* Cap on {!Delay} extras: below the default suspicion timeout, so a
   delay spike slows the fabric without forging failures. *)
let max_delay = 0.2

let generate ?(corruption = 0) ~seed ~intensity ~horizon
    ~n_servers ~n_units () =
  let rng = Rng.create seed in
  let n_incidents =
    Int.max 1 (int_of_float (intensity *. horizon /. 8.))
  in
  let servers = List.init n_servers (fun i -> i) in
  let pair rng =
    let s = Rng.int rng n_servers in
    let d = (s + 1 + Rng.int rng (n_servers - 1)) mod n_servers in
    (s, d)
  in
  let incident rng =
    let t0 = Rng.float rng (horizon *. 0.9) in
    let dur = Float.min (0.5 +. Rng.exponential rng ~mean:3.0) (horizon -. t0) in
    let weighted =
      [
        (3, `Partition);
        (2, `Oneway);
        (2, `Delay);
        (1, `Flap);
        (3, `Crash);
        (1, `Storm);
        (2, `Disk);
      ]
      @ (if n_units > 0 then [ (1, `Wipe) ] else [])
      (* Appended last only when enabled: the pick fallback below returns
         the final entry on an out-of-range roll, so a weight-0 entry
         here would change existing seeded schedules. *)
      @ (if corruption > 0 then [ (corruption, `Corrupt) ] else [])
    in
    let total = List.fold_left (fun a (w, _) -> a + w) 0 weighted in
    let roll = Rng.int rng total in
    let kind =
      let rec pick acc = function
        | [ (_, k) ] -> k
        | (w, k) :: rest -> if roll < acc + w then k else pick (acc + w) rest
        | [] -> `Crash
      in
      pick 0 weighted
    in
    match kind with
    | (`Partition | `Oneway | `Delay | `Flap) when n_servers < 2 -> []
    | `Partition ->
        let shuffled = Rng.shuffle rng servers in
        let k = 1 + Rng.int rng (n_servers - 1) in
        let left = List.filteri (fun i _ -> i < k) shuffled in
        let right = List.filteri (fun i _ -> i >= k) shuffled in
        [ (t0, Partition [ left; right ]); (t0 +. dur, Heal) ]
    | `Oneway ->
        let src, dst = pair rng in
        [
          (t0, Link { src; dst; up = false });
          (t0 +. dur, Link { src; dst; up = true });
        ]
    | `Delay ->
        let src, dst = pair rng in
        let extra = 0.05 +. Rng.float rng (Float.max 0.01 (max_delay -. 0.05)) in
        [ (t0, Delay { src; dst; extra }); (t0 +. dur, Delay { src; dst; extra = 0. }) ]
    | `Flap ->
        let src, dst = pair rng in
        let toggles = 2 + Rng.int rng 3 in
        let step = dur /. float_of_int (2 * toggles) in
        List.concat
          (List.init toggles (fun i ->
               let down_at = t0 +. (float_of_int (2 * i) *. step) in
               [
                 (down_at, Link { src; dst; up = false });
                 (down_at +. step, Link { src; dst; up = true });
               ]))
    | `Crash ->
        let s = Rng.int rng n_servers in
        [ (t0, Crash s); (t0 +. dur, Restart s) ]
    | `Storm ->
        let m = 1 + Rng.int rng (Int.max 1 (n_servers / 2)) in
        let victims = Rng.sample rng m servers in
        List.concat
          (List.map
             (fun s ->
               let jitter = Rng.float rng 0.5 in
               [ (t0 +. jitter, Crash s); (t0 +. dur +. jitter, Restart s) ])
             victims)
    | `Wipe ->
        let u = Rng.int rng (Int.max 1 n_units) in
        [ (t0, Wipe_unit u) ]
    | `Disk ->
        let s = Rng.int rng n_servers in
        [
          (t0, Disk_faults { server = s; on = true });
          (t0 +. dur, Disk_faults { server = s; on = false });
        ]
    | `Corrupt ->
        (* No paired repair: undoing the damage is the hardened
           protocol's job, and measuring how long that takes is the
           whole point of injecting it. *)
        let s = Rng.int rng n_servers in
        let target =
          List.nth all_targets (Rng.int rng (List.length all_targets))
        in
        [ (t0, Corrupt { server = s; target }) ]
  in
  List.concat (List.init n_incidents (fun _ -> incident rng)) |> sort_schedule

(* ---------------------------------------------------------------- *)
(* Shrinking: classic ddmin over the op list.  Subsets of a sorted
   schedule stay sorted, and the interpreter tolerates unpaired ops, so
   every candidate the algorithm proposes is a valid schedule. *)

let split_chunks xs n =
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec go i xs acc =
    if i >= n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let rec take k ys front =
        if k = 0 then (List.rev front, ys)
        else
          match ys with
          | [] -> (List.rev front, [])
          | y :: rest -> take (k - 1) rest (y :: front)
      in
      let chunk, rest = take size xs [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 xs []

let shrink ~failing (sched : schedule) =
  let iters = ref 0 in
  let test s =
    incr iters;
    failing s
  in
  let rec loop cur n =
    let len = List.length cur in
    if len <= 1 then cur
    else
      let chunks = split_chunks cur n in
      let rec try_without i =
        if i >= List.length chunks then None
        else
          let candidate =
            List.concat (List.filteri (fun j _ -> j <> i) chunks)
          in
          if candidate <> [] && test candidate then Some candidate
          else try_without (i + 1)
      in
      match try_without 0 with
      | Some smaller -> loop smaller (Int.max 2 (n - 1))
      | None -> if n >= len then cur else loop cur (Int.min len (2 * n))
  in
  let result = if test sched then loop sched 2 else sched in
  (result, !iters)
