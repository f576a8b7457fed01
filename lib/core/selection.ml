type prev = {
  p_session_id : string;
  p_primary : int option;
  p_backups : int list;
}

type assignment = { a_session_id : string; a_primary : int; a_backups : int list }

let backup_weight = 0.5

(* Least-loaded member, ties broken by id: deterministic.  A
   first-order loop, so the [@hot] placement below can use it: skips
   [primary] and [chosen], -1 means "none eligible".  Members are
   process ids, always >= 0. *)
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

(* Adds [w] to member [m]'s load; roles on non-members are ignored. *)
let bump_member tbl m w =
  match Hashtbl.find_opt tbl m with
  | Some l -> Hashtbl.replace tbl m (l +. w)
  | None -> ()

(* The load picture both {!assign} and {!place} decide on: per member,
   its primary count and its weighted load (primaries 1, backups 1/2).
   Both tables start at 0 for every member and ignore roles on
   non-members. *)
type loads = {
  l_members : int list;  (* sorted, distinct *)
  l_primaries : (int, float) Hashtbl.t;
  l_weighted : (int, float) Hashtbl.t;
}

let count_primary loads ~sign p =
  bump_member loads.l_primaries p sign;
  bump_member loads.l_weighted p sign

let count_roles loads ~sign prev =
  Option.iter (count_primary loads ~sign) prev.p_primary;
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

(* The one primary pick: the candidate with the fewest primaries,
   lowest id on ties; -1 if there is none. *)
let[@hot] pick_primary loads candidates =
  least_loaded_member loads.l_primaries ~primary:(-1) ~chosen:[] ~best:(-1) candidates

(* The one backup fill: [k] more backups besides [chosen] (newest
   first), each the least loaded member by weighted load, and counted
   before the next pick. *)
let[@hot] rec place_backups loads ~primary chosen k =
  if k = 0 then List.rev chosen
  else
    match least_loaded_member loads.l_weighted ~primary ~chosen ~best:(-1) loads.l_members with
    | -1 -> List.rev chosen
    | b ->
        bump_member loads.l_weighted b backup_weight;
        place_backups loads ~primary (b :: chosen) (k - 1)

let[@hot] place loads ~n_backups session_id =
  match pick_primary loads loads.l_members with
  | -1 -> None
  | primary ->
      count_primary loads ~sign:1. primary;
      let a_backups = place_backups loads ~primary [] n_backups in
      Some { a_session_id = session_id; a_primary = primary; a_backups }

(* A session's surviving backups other than [primary], in their current
   order, at most [k]: newest first, as {!place_backups} takes them. *)
let rec kept_backups ~members ~primary k chosen = function
  | b :: rest when k > 0 ->
      if b <> primary && List.mem b members && not (List.mem b chosen) then
        kept_backups ~members ~primary (k - 1) (b :: chosen) rest
      else kept_backups ~members ~primary k chosen rest
  | _ -> chosen

(* Three phases, all deterministic in the inputs:
   1. sticky primaries keep their sessions and their load is counted,
      so that newly arriving sessions see the true load picture;
   2. orphaned/new sessions are placed on a surviving former backup if
      one exists (context freshness), else the least-loaded member;
   3. each session keeps its surviving backups, all counted first, and
      {!place_backups} fills the missing slots in session-id order. *)
let assign ~n_backups ~members ~rebalance prevs =
  if members = [] then invalid_arg "Selection.assign: no members";
  let loads = loads_of ~members [] in
  let members = loads.l_members in
  let total = List.length prevs in
  let cap = ceil (float_of_int total /. float_of_int (List.length members)) in
  let primaries_held m = Hashtbl.find loads.l_primaries m in
  let prevs =
    List.sort (fun a b -> String.compare a.p_session_id b.p_session_id) prevs
  in
  let kept = Hashtbl.create 16 in
  List.iter
    (fun prev ->
      match prev.p_primary with
      | Some p when List.mem p members && ((not rebalance) || primaries_held p < cap) ->
          Hashtbl.replace kept prev.p_session_id p;
          count_primary loads ~sign:1. p
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
            (* Under rebalancing, the freshness preference for a backup
               must not overfill it beyond the even share — otherwise the
               next rebalance pass would immediately move the session
               again (flapping). *)
            let heirs =
              if former_primary_crashed then
                List.filter
                  (fun b -> List.mem b members && ((not rebalance) || primaries_held b < cap))
                  prev.p_backups
              else []
            in
            let p =
              match pick_primary loads heirs with
              | -1 -> pick_primary loads members
              | b -> b
            in
            count_primary loads ~sign:1. p;
            (prev, p))
      prevs
  in
  let placed =
    List.map
      (fun (prev, primary) ->
        let chosen = kept_backups ~members ~primary n_backups [] prev.p_backups in
        List.iter (fun b -> bump_member loads.l_weighted b backup_weight) chosen;
        (prev, primary, chosen))
      primaries
  in
  List.map
    (fun (prev, primary, chosen) ->
      let a_backups =
        place_backups loads ~primary chosen (n_backups - List.length chosen)
      in
      { a_session_id = prev.p_session_id; a_primary = primary; a_backups })
    placed
