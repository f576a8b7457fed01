type prev = {
  p_session_id : string;
  p_primary : int option;
  p_backups : int list;
}

type assignment = { a_session_id : string; a_primary : int; a_backups : int list }

let backup_weight = 0.5

(* Least-loaded member, ties broken by id: deterministic.  A
   first-order loop, so the [@hot] incremental placement below can use
   it: skips [primary] and [chosen], -1 means "none eligible".  Members
   are process ids, always >= 0. *)
let[@hot] rec least_loaded_member (tbl : (int, float) Hashtbl.t) ~primary ~chosen ~best
    members =
  match members with
  | [] -> best
  | c :: rest ->
      if c = primary || List.memq c chosen then
        least_loaded_member tbl ~primary ~chosen ~best rest
      else if best < 0 then least_loaded_member tbl ~primary ~chosen ~best:c rest
      else
        let lb = Hashtbl.find tbl best and lc = Hashtbl.find tbl c in
        let best = if lc < lb || (lc = lb && c < best) then c else best in
        least_loaded_member tbl ~primary ~chosen ~best rest

let least_loaded loads candidates =
  match least_loaded_member loads ~primary:(-1) ~chosen:[] ~best:(-1) candidates with
  | -1 -> None
  | m -> Some m

(* Adds [w] to member [m]'s load; roles on non-members are ignored. *)
let bump_member tbl m w =
  match Hashtbl.find_opt tbl m with
  | Some l -> Hashtbl.replace tbl m (l +. w)
  | None -> ()

(* Three phases, all deterministic in the inputs:
   1. sticky primaries keep their sessions and their load is counted,
      so that newly arriving sessions see the true load picture;
   2. orphaned/new sessions are placed on a surviving former backup if
      one exists (context freshness), else the least-loaded member;
   3. backups are chosen against the final primary loads. *)
let assign ~n_backups ~members ~rebalance prevs =
  if members = [] then invalid_arg "Selection.assign: no members";
  let members = List.sort_uniq Int.compare members in
  let loads = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace loads m 0.) members;
  let total = List.length prevs in
  let cap = ceil (float_of_int total /. float_of_int (List.length members)) in
  let prevs =
    List.sort (fun a b -> String.compare a.p_session_id b.p_session_id) prevs
  in
  let kept = Hashtbl.create 16 in
  List.iter
    (fun prev ->
      match prev.p_primary with
      | Some p when List.mem p members && ((not rebalance) || Hashtbl.find loads p < cap)
        ->
          Hashtbl.replace kept prev.p_session_id p;
          bump_member loads p 1.
      | Some _ | None -> ())
    prevs;
  let primaries =
    List.map
      (fun prev ->
        match Hashtbl.find_opt kept prev.p_session_id with
        | Some p -> (prev, p)
        | None ->
            (* If the former primary is gone, a surviving backup has the
               freshest context and takes over ("or one of the former
               backups, if the former primary has failed").  If the
               former primary is alive — the session is only being moved
               to even the load, and it will hand the exact context over
               — pure least-loaded placement spreads it to the joiner. *)
            let former_primary_crashed =
              match prev.p_primary with
              | Some p -> not (List.mem p members)
              | None -> false
            in
            let surviving_backups =
              List.filter (fun b -> List.mem b members) prev.p_backups
            in
            (* Under rebalancing, the freshness preference for a backup
               must not overfill it beyond the even share — otherwise the
               next rebalance pass would immediately move the session
               again (flapping). *)
            let surviving_backups =
              if rebalance then
                List.filter (fun b -> Hashtbl.find loads b < cap) surviving_backups
              else surviving_backups
            in
            let p =
              match
                if former_primary_crashed then least_loaded loads surviving_backups
                else None
              with
              | Some b -> b
              | None -> (
                  match least_loaded loads members with
                  | Some m -> m
                  | None -> assert false)
            in
            bump_member loads p 1.;
            (prev, p))
      prevs
  in
  List.map
    (fun (prev, primary) ->
      let surviving_backups = List.filter (fun b -> List.mem b members) prev.p_backups in
      let rec pick_backups chosen k =
        if k = 0 then List.rev chosen
        else
          let candidates =
            List.filter (fun m -> m <> primary && not (List.mem m chosen)) members
          in
          let preferred =
            List.filter (fun m -> List.mem m surviving_backups) candidates
          in
          match
            least_loaded loads (if preferred <> [] then preferred else candidates)
          with
          | None -> List.rev chosen
          | Some b ->
              bump_member loads b backup_weight;
              pick_backups (b :: chosen) (k - 1)
      in
      let backups = pick_backups [] n_backups in
      { a_session_id = prev.p_session_id; a_primary = primary; a_backups = backups })
    primaries

(* Incremental placement: a fresh session in a stable view gets exactly
   the primary {!assign} would give it — phase 1 keeps every live
   session's primary, so phase 2 picks the member with the fewest
   primaries — and backups picked against the weighted load of every
   live role, where {!assign}'s phase 3 counts only the backups of
   sessions before it in id order.  Both tables start at 0 for every
   member and ignore roles on non-members. *)
type loads = {
  l_members : int list;  (* sorted, distinct *)
  l_primaries : (int, float) Hashtbl.t;
  l_weighted : (int, float) Hashtbl.t;
}

let count_roles loads ~sign prev =
  (match prev.p_primary with
  | Some p ->
      bump_member loads.l_primaries p sign;
      bump_member loads.l_weighted p sign
  | None -> ());
  List.iter (fun b -> bump_member loads.l_weighted b (sign *. backup_weight)) prev.p_backups

let loads_of ~members prevs =
  let members = List.sort_uniq Int.compare members in
  let zeroed () =
    let tbl = Hashtbl.create 8 in
    List.iter (fun m -> Hashtbl.replace tbl m 0.) members;
    tbl
  in
  let loads = { l_members = members; l_primaries = zeroed (); l_weighted = zeroed () } in
  List.iter (count_roles loads ~sign:1.) prevs;
  loads

let unload loads prev = count_roles loads ~sign:(-1.) prev

let load_table loads =
  List.map
    (fun m -> (m, Hashtbl.find loads.l_primaries m, Hashtbl.find loads.l_weighted m))
    loads.l_members

let[@hot] rec place_backups loads ~primary chosen k =
  if k = 0 then List.rev chosen
  else
    match least_loaded_member loads.l_weighted ~primary ~chosen ~best:(-1) loads.l_members with
    | -1 -> List.rev chosen
    | b ->
        bump_member loads.l_weighted b backup_weight;
        place_backups loads ~primary (b :: chosen) (k - 1)

let[@hot] place loads ~n_backups session_id =
  match
    least_loaded_member loads.l_primaries ~primary:(-1) ~chosen:[] ~best:(-1) loads.l_members
  with
  | -1 -> None
  | primary ->
      bump_member loads.l_primaries primary 1.;
      bump_member loads.l_weighted primary 1.;
      let a_backups = place_backups loads ~primary [] n_backups in
      Some { a_session_id = session_id; a_primary = primary; a_backups }

let load_of assignments server =
  List.fold_left
    (fun acc a ->
      let acc = if a.a_primary = server then acc +. 1. else acc in
      if List.mem server a.a_backups then acc +. backup_weight else acc)
    0. assignments

let imbalance assignments ~members =
  match members with
  | [] -> 0.
  | _ ->
      let ls = List.map (load_of assignments) members in
      List.fold_left Float.max neg_infinity ls
      -. List.fold_left Float.min infinity ls
