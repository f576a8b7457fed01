module Det_tbl = Haf_sim.Det_tbl

type proc = int

type peer = { mutable last : float; mutable suspect : bool }

type t = {
  me : proc;
  timeout : float;
  peers : (proc, peer) Hashtbl.t;
}

let create ~me ~suspect_timeout = { me; timeout = suspect_timeout; peers = Hashtbl.create 16 }

let monitor t p ~now =
  if p <> t.me && not (Hashtbl.mem t.peers p) then
    Hashtbl.replace t.peers p { last = now; suspect = false }

let unmonitor t p = Hashtbl.remove t.peers p

let monitored t = Det_tbl.sorted_keys ~compare:Int.compare t.peers

let is_monitored t p = Hashtbl.mem t.peers p

let heard_from t p ~now =
  match Hashtbl.find_opt t.peers p with
  | Some peer ->
      peer.last <- now;
      peer.suspect <- false
  | None -> ()

let sweep t ~now =
  Det_tbl.fold_sorted ~compare:Int.compare
    (fun p peer acc ->
      if (not peer.suspect) && now -. peer.last > t.timeout then begin
        peer.suspect <- true;
        p :: acc
      end
      else acc)
    t.peers []
  |> List.rev

let suspected t p =
  match Hashtbl.find_opt t.peers p with
  | Some peer -> peer.suspect
  | None -> false

let reachable t p =
  match Hashtbl.find_opt t.peers p with
  | Some peer -> not peer.suspect
  | None -> false
