module Engine = Haf_sim.Engine
module Network = Haf_net.Network
module Sub = Haf_net.Substrate
module Transport = Haf_net.Transport

type proc = int

type role = Server | Client

type slot = {
  role : role;
  mutable daemon : Daemon.t option;  (* None while crashed *)
  mutable callbacks : Daemon.callbacks;
  mutable retired_resets : int;
  mutable retired_view_changes : int;  (* from previous incarnations *)
  mutable last_incarnation : int option;
      (* The crashed daemon's incarnation — the one piece of GCS-level
         state that must survive a restart (cf. Raft's currentTerm): the
         successor gets a strictly larger value, so peers can always
         tell the two lives apart. *)
}

type t = {
  engine : Engine.t;
  net : Network.t option;  (* [Some] only on the simulated substrate *)
  sub : Sub.t;
  transport : Transport.t;
  gcs_config : Config.t;
  slots : (proc, slot) Hashtbl.t;
  mutable server_list : proc list;
}

let engine t = t.engine

let sim_net t =
  match t.net with
  | Some n -> n
  | None ->
      invalid_arg
        "Gcs: this operation needs the simulated network substrate \
         (fabric was built with create_on)"

let network t = sim_net t

let substrate t = t.sub

let transport t = t.transport

let config t = t.gcs_config

let servers t = List.rev t.server_list

let spawn_daemon ?incarnation t proc role =
  (* Clients probe at a third of the servers' heartbeat rate. *)
  let heartbeat_interval =
    match role with
    | Server -> None
    | Client -> Some (3. *. t.gcs_config.Config.heartbeat_interval)
  in
  let d =
    Daemon.create ~engine:t.engine ~transport:t.transport ~config:t.gcs_config
      ?heartbeat_interval ?incarnation ~contacts:(servers t) proc
  in
  Daemon.start d;
  d

let new_slot role daemon =
  {
    role;
    daemon;
    callbacks = Daemon.no_callbacks;
    retired_resets = 0;
    retired_view_changes = 0;
    last_incarnation = None;
  }

let add_process t role =
  let proc = t.sub.Sub.add_node () in
  if role = Server then t.server_list <- proc :: t.server_list;
  Hashtbl.replace t.slots proc (new_slot role (Some (spawn_daemon t proc role)));
  proc

let add_server t = add_process t Server

let add_client t = add_process t Client

(* The fabric with no process yet: both constructors go through here. *)
let make ?net ~gcs_config sub =
  (match Config.validate gcs_config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Gcs: " ^ msg));
  {
    engine = sub.Sub.engine;
    net;
    sub;
    transport = Transport.create sub;
    gcs_config;
    slots = Hashtbl.create 32;
    server_list = [];
  }

let create ?(net_config = Network.default_config) ?(gcs_config = Config.default)
    ~num_servers engine =
  let net = Network.create engine net_config in
  let t = make ~net ~gcs_config (Network.substrate net) in
  for _ = 1 to num_servers do
    ignore (add_server t)
  done;
  t

let create_on ?(gcs_config = Config.default) ~servers ~local sub =
  let t = make ~gcs_config sub in
  (* Register every server first (so each local daemon bootstraps with
     the full contact list), then start only the daemons this process
     hosts; the rest run in other OS processes over the same wire. *)
  List.iter
    (fun p ->
      let id = t.sub.Sub.add_node () in
      if id <> p then
        invalid_arg "Gcs.create_on: servers must be consecutive ids from 0";
      t.server_list <- p :: t.server_list;
      Hashtbl.replace t.slots p (new_slot Server None))
    servers;
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.slots p with
      | Some ({ role = Server; daemon = None; _ } as s) ->
          s.daemon <- Some (spawn_daemon t p Server)
      | Some _ -> invalid_arg "Gcs.create_on: duplicate local server"
      | None -> invalid_arg "Gcs.create_on: local id is not a listed server")
    local;
  t

let slot t p =
  match Hashtbl.find_opt t.slots p with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Gcs: unknown process %d" p)

let daemon t p =
  match (slot t p).daemon with Some d -> d | None -> raise Not_found

let set_app t p callbacks =
  let s = slot t p in
  s.callbacks <- callbacks;
  match s.daemon with
  | Some d -> Daemon.set_callbacks d callbacks
  | None -> ()

let join t p g = Daemon.join (daemon t p) g

let leave t p g = Daemon.leave (daemon t p) g

let multicast t p g payload = Daemon.multicast (daemon t p) g payload

let open_send t p g payload = Daemon.open_send (daemon t p) g payload

let p2p t p ~dst payload = Daemon.p2p (daemon t p) ~dst payload

let view_of t p g = Daemon.view_of (daemon t p) g

let believed_members t p g = Daemon.believed_members (daemon t p) g

let membership_stable t p g = Daemon.membership_stable (daemon t p) g

let alive t p = match (slot t p).daemon with Some d -> Daemon.alive d | None -> false

let crash t p =
  let s = slot t p in
  (match s.daemon with
  | Some d ->
      s.retired_view_changes <- s.retired_view_changes + Daemon.stats_view_changes d;
      s.retired_resets <- s.retired_resets + Daemon.stats_resets d;
      s.last_incarnation <- Some (Daemon.incarnation d);
      Daemon.stop d;
      s.daemon <- None
  | None -> ());
  Network.crash (sim_net t) p;
  Transport.reset_node t.transport p

let restart t p =
  let s = slot t p in
  if s.daemon = None then begin
    Network.recover (sim_net t) p;
    Transport.reset_node t.transport p;
    let incarnation = Option.map (fun i -> i + 1) s.last_incarnation in
    let d = spawn_daemon ?incarnation t p s.role in
    Daemon.set_callbacks d s.callbacks;
    s.daemon <- Some d
  end

let partition t components = Network.partition (sim_net t) components

let heal t = Network.heal_links (sim_net t)

let set_link t a b up = Network.set_link (sim_net t) a b up

let total_view_changes t =
  Haf_sim.Det_tbl.fold_sorted ~compare:Int.compare
    (fun _ s acc ->
      acc + s.retired_view_changes
      + (match s.daemon with Some d -> Daemon.stats_view_changes d | None -> 0))
    t.slots 0

let total_resets t =
  Haf_sim.Det_tbl.fold_sorted ~compare:Int.compare
    (fun _ s acc ->
      acc + s.retired_resets
      + (match s.daemon with Some d -> Daemon.stats_resets d | None -> 0))
    t.slots 0
