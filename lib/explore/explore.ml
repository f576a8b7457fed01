module Engine = Haf_sim.Engine

(* ---------------------------------------------------------------- *)
(* Decisions.  A decision names one resolved choice point, with keys
   that are stable across re-executions of the same prefix: deliveries
   by per-channel index, crash choices by per-(site, proc) occurrence. *)

type decision =
  | Deliver of { src : int; dst : int; k : int }
  | Crash of { site : string; proc : int; occ : int }
  | No_crash of { site : string; proc : int; occ : int }

let equal_decision a b =
  match (a, b) with
  | Deliver a, Deliver b -> a.src = b.src && a.dst = b.dst && a.k = b.k
  | Crash a, Crash b ->
      String.equal a.site b.site && a.proc = b.proc && a.occ = b.occ
  | No_crash a, No_crash b ->
      String.equal a.site b.site && a.proc = b.proc && a.occ = b.occ
  | (Deliver _ | Crash _ | No_crash _), _ -> false

(* The DPOR independence relation.  Two deliveries commute when they run
   handlers on different destination processes: each touches only its
   own process state, and the sends either one triggers land on disjoint
   or later-explored channels.  Same-destination deliveries conflict
   (handler order at that process is observable), and same-channel
   deliveries are never simultaneously enabled (per-channel FIFO).
   Crash choices are conservatively dependent with everything. *)
let indep a b =
  match (a, b) with
  | Deliver a, Deliver b -> a.dst <> b.dst
  | (Deliver _ | Crash _ | No_crash _), _ -> false

let dep_all _ _ = false

let decision_to_string = function
  | Deliver { src; dst; k } -> Printf.sprintf "deliver %d %d %d" src dst k
  | Crash { site; proc; occ } -> Printf.sprintf "crash-at %s %d %d" site proc occ
  | No_crash { site; proc; occ } -> Printf.sprintf "skip %s %d %d" site proc occ

(* ---------------------------------------------------------------- *)
(* Schedules: the replay artifact.  Same line discipline as
   {!Haf_chaos.Chaos}: one "%.6f <op> <args>" line per decision, blank
   lines and #-comments ignored, so the text a failing run prints feeds
   straight back into a replay. *)

type schedule = (float * decision) list

let to_string (s : schedule) =
  String.concat "\n"
    (List.map (fun (t, d) -> Printf.sprintf "%.6f %s" t (decision_to_string d)) s)

let parse_decision = function
  | [ "deliver"; src; dst; k ] ->
      Some
        (Deliver
           {
             src = int_of_string src;
             dst = int_of_string dst;
             k = int_of_string k;
           })
  | [ "crash-at"; site; proc; occ ] ->
      Some (Crash { site; proc = int_of_string proc; occ = int_of_string occ })
  | [ "skip"; site; proc; occ ] ->
      Some (No_crash { site; proc = int_of_string proc; occ = int_of_string occ })
  | _ -> None

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l ->
           l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let parse_line l =
    match String.split_on_char ' ' l |> List.filter (fun x -> x <> "") with
    | at :: rest -> (
        match (float_of_string_opt at, parse_decision rest) with
        | Some t, Some d -> Ok (t, d)
        | _ -> Error (Printf.sprintf "unparsable schedule line: %S" l))
    | [] -> Error "empty line"
  in
  List.fold_left
    (fun acc l ->
      match (acc, parse_line l) with
      | Ok ds, Ok binding -> Ok (binding :: ds)
      | (Error _ as e), _ -> e
      | _, Error e -> Error e)
    (Ok []) lines
  |> Result.map List.rev

(* ---------------------------------------------------------------- *)
(* Executor control: installs the engine's picker and chooser so one
   execution replays a decision prefix and then continues under the
   default policy (first enabled candidate; take the crash while budget
   remains), recording every branch point it passes. *)

exception Replay_divergence of string

type outcome = {
  branches : decision list list;
  taken : schedule;
  violation : string option;
}

module Exec = struct
  type t = {
    eng : Engine.t;
    mutable plan : decision list;
    tolerant : bool;
    crash_budget : int;
    mutable crashes_done : int;
    crash_fn : (int -> unit) option;
    crashable : int -> bool;
    branch_after : float;
    max_branches : int;
    mutable n_branches : int;
    mutable branches_rev : decision list list;
    mutable taken_rev : (float * decision) list;
  }

  let branches t = List.rev t.branches_rev

  let taken t = List.rev t.taken_rev

  let in_window t =
    Engine.now t.eng >= t.branch_after && t.n_branches < t.max_branches

  let record t options (chosen : decision) =
    t.n_branches <- t.n_branches + 1;
    t.branches_rev <- options :: t.branches_rev;
    t.taken_rev <- (Engine.now t.eng, chosen) :: t.taken_rev

  let matches_deliver d (c : Engine.candidate) =
    match d with
    | Deliver { src; dst; k } -> src = c.src && dst = c.dst && k = c.k
    | Crash _ | No_crash _ -> false

  let pick t (cands : Engine.candidate list) =
    match cands with
    | [] -> invalid_arg "Exec.pick: empty candidate list"
    | [ only ] -> only (* no choice: not a branch point *)
    | _ when not (in_window t) -> List.hd cands
    | _ ->
        let options =
          List.map
            (fun (c : Engine.candidate) ->
              Deliver { src = c.src; dst = c.dst; k = c.k })
            cands
        in
        let chosen =
          match t.plan with
          | d :: rest -> (
              match List.find_opt (matches_deliver d) cands with
              | Some c ->
                  t.plan <- rest;
                  c
              | None ->
                  if t.tolerant then List.hd cands
                  else
                    raise
                      (Replay_divergence
                         (Printf.sprintf "planned %s not among %d candidates"
                            (decision_to_string d) (List.length cands))))
          | [] -> List.hd cands
        in
        record t options (Deliver { src = chosen.src; dst = chosen.dst; k = chosen.k });
        chosen

  let choose t ~site ~proc ~occ =
    let eligible =
      in_window t
      && t.crashes_done < t.crash_budget
      && t.crash_fn <> None && t.crashable proc
    in
    if not eligible then false
    else begin
      let c = Crash { site; proc; occ } and nc = No_crash { site; proc; occ } in
      (* Crash first: the default policy takes the fault, so bugs that
         need only one well-placed crash surface on the first paths. *)
      let options = [ c; nc ] in
      let matches d =
        match d with
        | Crash { site = s; proc = p; occ = o }
        | No_crash { site = s; proc = p; occ = o } ->
            String.equal s site && p = proc && (t.tolerant || o = occ)
        | Deliver _ -> false
      in
      let chosen =
        match t.plan with
        | d :: rest when matches d ->
            t.plan <- rest;
            (match d with Crash _ -> c | No_crash _ | Deliver _ -> nc)
        | d :: _ ->
            if t.tolerant then nc
            else
              raise
                (Replay_divergence
                   (Printf.sprintf "planned %s at choice point %s/%d/%d"
                      (decision_to_string d) site proc occ))
        | [] -> c
      in
      record t options chosen;
      match chosen with
      | Crash _ ->
          t.crashes_done <- t.crashes_done + 1;
          (match t.crash_fn with Some f -> f proc | None -> ());
          true
      | No_crash _ | Deliver _ -> false
    end

  let attach ?(plan = []) ?(tolerant = false) ?(crash_budget = 0) ?crash
      ?(crashable = fun _ -> true) ?(branch_after = 0.) ?(max_branches = max_int)
      eng =
    let t =
      {
        eng;
        plan;
        tolerant;
        crash_budget;
        crashes_done = 0;
        crash_fn = crash;
        crashable;
        branch_after;
        max_branches;
        n_branches = 0;
        branches_rev = [];
        taken_rev = [];
      }
    in
    Engine.set_picker eng (Some (pick t));
    Engine.set_chooser eng (Some (fun ~site ~proc ~occ -> choose t ~site ~proc ~occ));
    t

  let detach t =
    Engine.set_picker t.eng None;
    Engine.set_chooser t.eng None

  let outcome t ~violation =
    { branches = branches t; taken = taken t; violation }
end

(* ---------------------------------------------------------------- *)
(* The DFS driver: stateless model checking by re-execution.  Each call
   to [run] executes the scenario from scratch, forcing the decision
   prefix and recording the branch points met; the recursion enumerates
   the children of the first branch point past the prefix under a sleep
   set.  With [indep = dep_all] the sleep sets stay empty and the walk
   is the naive exhaustive DFS; with the commutativity relation it is
   sleep-set partial-order reduction: a child already explored at this
   node is skipped in later siblings until a dependent decision wakes
   it, so each Mazurkiewicz trace keeps (at least) one representative. *)

type stats = { executions : int; schedules : int; pruned : int }

type violation = { message : string; schedule : schedule }

exception Stop

let explore ~run ~max_depth ~indep ?(stop_on_violation = true) () =
  let executions = ref 0 and schedules = ref 0 and pruned = ref 0 in
  let viols : violation list ref = ref [] in
  let note (out : outcome) msg =
    let v = { message = msg; schedule = out.taken } in
    if not (List.exists (fun w -> String.equal w.message msg) !viols) then
      viols := v :: !viols
  in
  let rec go prefix sleep =
    let out = run prefix in
    incr executions;
    (match out.violation with
    | Some msg ->
        note out msg;
        if stop_on_violation then raise Stop
    | None -> ());
    let n = List.length prefix in
    match List.nth_opt out.branches n with
    | None -> incr schedules
    | Some _ when n >= max_depth -> incr schedules
    | Some options ->
        let sleep = ref sleep in
        List.iter
          (fun e ->
            if List.exists (equal_decision e) !sleep then incr pruned
            else begin
              go (prefix @ [ e ]) (List.filter (fun z -> indep z e) !sleep);
              sleep := e :: !sleep
            end)
          options
  in
  (try go [] [] with Stop -> ());
  ( { executions = !executions; schedules = !schedules; pruned = !pruned },
    List.rev !viols )

(* ---------------------------------------------------------------- *)
(* Counterexample minimization: ddmin over the decision list, same
   algorithm as {!Haf_chaos.Chaos.shrink}.  The tolerant replay mode
   keeps arbitrary subsets interpretable (an inapplicable decision
   falls back to the default policy), so every candidate the shrinker
   proposes is a valid schedule. *)

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

let shrink ~failing (sched : decision list) =
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
          let candidate = List.concat (List.filteri (fun j _ -> j <> i) chunks) in
          if candidate <> [] && test candidate then Some candidate
          else try_without (i + 1)
      in
      match try_without 0 with
      | Some smaller -> loop smaller (Int.max 2 (n - 1))
      | None -> if n >= len then cur else loop cur (Int.min len (2 * n))
  in
  let result = if test sched then loop sched 2 else sched in
  (result, !iters)
