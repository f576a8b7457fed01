type proc = int

module Id = struct
  type t = { epoch : int; coord : proc }

  let compare a b =
    match Int.compare a.epoch b.epoch with
    | 0 -> Int.compare a.coord b.coord
    | c -> c

  (* haf-lint: allow R2 — [compare] here is Id.compare above, not Stdlib's. *)
  let equal a b = compare a b = 0

  let initial proc = { epoch = 0; coord = proc }
end

type t = { id : Id.t; group : string; members : proc list; merged : bool }

let make ~id ~group ~members ~merged =
  let members = List.sort_uniq Int.compare members in
  if members = [] then invalid_arg "View.make: empty membership";
  { id; group; members; merged }

let singleton ~group proc =
  { id = Id.initial proc; group; members = [ proc ]; merged = false }

let is_member t proc = List.mem proc t.members

let size t = List.length t.members

let coordinator t =
  match t.members with
  | m :: _ -> m
  | [] -> invalid_arg "View.coordinator: empty view"
