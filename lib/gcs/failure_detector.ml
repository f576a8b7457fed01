module Det_tbl = Haf_sim.Det_tbl

type proc = int

type peer = { mutable last : float; mutable suspect : bool }

type t = {
  me : proc;
  timeout : float;
  peers : (proc, peer) Hashtbl.t;
  mutable sorted : (proc * peer) list;
      (* [peers] in proc order, rebuilt when a peer is added or removed,
         so a heartbeat's Ping fan-out and sweep sort nothing. *)
  mutable procs : proc list;  (* the keys of [sorted] *)
}

let create ~me ~suspect_timeout =
  { me; timeout = suspect_timeout; peers = Hashtbl.create 16; sorted = []; procs = [] }

let reindex t =
  t.sorted <- Det_tbl.sorted_bindings ~compare:Int.compare t.peers;
  t.procs <- List.map fst t.sorted

let monitor t p ~now =
  if p <> t.me && not (Hashtbl.mem t.peers p) then begin
    Hashtbl.replace t.peers p { last = now; suspect = false };
    reindex t
  end

let monitored t = t.procs

let is_monitored t p = Hashtbl.mem t.peers p

let heard_from t p ~now =
  match Hashtbl.find_opt t.peers p with
  | Some peer ->
      peer.last <- now;
      peer.suspect <- false
  | None -> ()

let sweep t ~now =
  let suspects = ref [] and next = ref infinity in
  List.iter
    (fun (p, peer) ->
      if not peer.suspect then begin
        let deadline = peer.last +. t.timeout in
        if deadline <= now then begin
          peer.suspect <- true;
          suspects := p :: !suspects
        end
        else if deadline < !next then next := deadline
      end)
    t.sorted;
  (List.rev !suspects, !next)

let suspected t p =
  match Hashtbl.find_opt t.peers p with
  | Some peer -> peer.suspect
  | None -> false

let reachable t p =
  match Hashtbl.find_opt t.peers p with
  | Some peer -> not peer.suspect
  | None -> false
