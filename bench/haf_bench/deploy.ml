(* The benchmark's one composition over [Haf_net.Substrate.t]: the same
   code deploys, drives and faults the service on the simulated network
   and on UDP loopback.

     substrate (Network.substrate | Udp.create_local)
       -> Shim (counting/timing closures)
       -> Gcs.create_on, 5 Fw.Servers (u0, u1 at replication 3), 2 Fw.Clients
       -> Probe (event taps) [+ Monitor on the sim]

   Only the substrate's creation, its kill primitive and its reactor
   differ between the two; everything is measured from outside, at the
   substrate, sink and public API boundaries. *)

module Engine = Haf_sim.Engine
module Network = Haf_net.Network
module Sub = Haf_net.Substrate
module Transport = Haf_net.Transport
module Udp = Haf_net_unix.Udp
module Clock = Haf_net_unix.Clock
module Gcs = Haf_gcs.Gcs
module Events = Haf_core.Events
module Policy = Haf_core.Policy
module Unit_db = Haf_core.Unit_db
module Store = Haf_store.Store
module Monitor = Haf_monitor.Monitor
module Fw = Haf_core.Framework.Make (Haf_services.Synthetic)

type substrate = Sim | Udp of { base_port : int }

let n_servers = 5

let n_clients = 2

(* Replacement servers one deployment may add (UDP address-table slots). *)
let spare_slots = 4

let placement = [ ("u0", [ 0; 1; 2 ]); ("u1", [ 2; 3; 4 ]) ]

let catalog = List.map fst placement

let units_of_original p =
  List.filter_map (fun (u, rs) -> if List.mem p rs then Some u else None) placement

let monitor_period = 0.25

exception Port_busy of string

(* [Udp.create] sets SO_REUSEADDR, so a port another process holds would
   be shared silently; bind each port plainly first to fail fast. *)
let check_ports ~base_port ~nodes =
  for id = 0 to nodes - 1 do
    let port = base_port + id in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        with Unix.Unix_error (e, _, _) ->
          raise
            (Port_busy
               (Printf.sprintf "cannot bind UDP 127.0.0.1:%d (%s); ports %d-%d must be free"
                  port (Unix.error_message e) base_port (base_port + nodes - 1))))
  done

type monitor_cost = {
  mutable mark : float;
  mutable event_us : float;
  mutable pump_us : float;
  mutable pumps : int;
}

type t = {
  engine : Engine.t;
  net : Network.t option;
  udp : Udp.t option;
  gcs : Gcs.t;
  events : Events.sink;
  shim : Shim.t;
  probe : Probe.t;
  monitor : Monitor.t option;
  cost : monitor_cost;
  store : bool;
  mutable servers : (int * Fw.Server.t) list;  (* live, ascending ids *)
  units_of : (int, string list) Hashtbl.t;
  mutable stores : Store.t list;
  clients : Fw.Client.t array;
}

let new_store t p =
  if t.store then begin
    let st = Store.create ~name:(Printf.sprintf "disk.s%d" p) Store.default_config t.engine in
    t.stores <- st :: t.stores;
    Some st
  end
  else None

let add_server t p units =
  let srv =
    Fw.Server.create ?store:(new_store t p) t.gcs ~proc:p ~policy:Policy.default ~units
      ~catalog ~events:t.events
  in
  Hashtbl.replace t.units_of p units;
  t.servers <- List.sort (fun (a, _) (b, _) -> Int.compare a b) ((p, srv) :: t.servers)

let create ~substrate ~seed ~store ~traced =
  let base, net, udp =
    match substrate with
    | Sim ->
        let engine = Engine.create ~seed () in
        let net = Network.create engine Network.default_config in
        (Network.substrate net, Some net, None)
    | Udp { base_port } ->
        let nodes = n_servers + n_clients + spare_slots in
        check_ports ~base_port ~nodes;
        let u = Udp.create_local ~seed ~base_port ~nodes () in
        (Udp.substrate u, None, Some u)
  in
  let shim = Shim.create ~traced in
  let servers = List.init n_servers Fun.id in
  let gcs = Gcs.create_on ~servers ~local:servers (Shim.wrap shim base) in
  let engine = Gcs.engine gcs in
  let events = Events.make_sink ~retain:false () in
  let probe = Probe.attach events in
  let cost = { mark = 0.; event_us = 0.; pump_us = 0.; pumps = 0 } in
  (* The monitor needs the simulated network as its partition oracle.
     In a traced run two taps bracket its own, timing it per event. *)
  let monitor =
    Option.map
      (fun network ->
        if traced then Events.subscribe events (fun ~now:_ _ -> cost.mark <- Clock.now ());
        let m =
          Monitor.create ~network ~servers ~policy:Policy.default
            ~gcs:Haf_gcs.Config.default ~events ()
        in
        if traced then
          Events.subscribe events (fun ~now:_ _ ->
              cost.event_us <- cost.event_us +. ((Clock.now () -. cost.mark) *. 1e6));
        ignore
          (Engine.every engine ~period:monitor_period (fun () ->
               let t0 = Clock.now () in
               Monitor.pump m ~now:(Engine.now engine);
               cost.pump_us <- cost.pump_us +. ((Clock.now () -. t0) *. 1e6);
               cost.pumps <- cost.pumps + 1));
        m)
      net
  in
  let clients =
    Array.init n_clients (fun _ ->
        let proc = Gcs.add_client gcs in
        Fw.Client.create ~retain_responses:false gcs ~proc ~policy:Policy.default ~events)
  in
  let t =
    {
      engine;
      net;
      udp;
      gcs;
      events;
      shim;
      probe;
      monitor;
      cost;
      store;
      servers = [];
      units_of = Hashtbl.create 8;
      stores = [];
      clients;
    }
  in
  List.iter (fun p -> add_server t p (units_of_original p)) servers;
  t

let now t = Engine.now t.engine

(* Advance the substrate clock to [time]. *)
let run_to t time =
  match t.udp with
  | Some u ->
      let d = time -. now t in
      if d > 0. then Udp.run_for u d
  | None -> Engine.run ~until:time t.engine

(* Run until [pred] holds, checked after every event on the sim and
   every reactor turn on UDP; false once [timeout] substrate-seconds
   pass.  Every harness wait goes through here, so none is unbounded. *)
let run_until t ~timeout pred =
  match t.udp with
  | Some u -> Udp.run_until u ~timeout pred
  | None ->
      let deadline = now t +. timeout in
      let rec go () =
        if pred () then true
        else
          match Engine.next_deadline t.engine with
          | Some at when at <= deadline ->
              ignore (Engine.step t.engine);
              go ()
          | Some _ | None ->
              Engine.run ~until:deadline t.engine;
              pred ()
      in
      go ()

let live t = List.map fst t.servers

(* Kill = stop the framework server, silence its node on the substrate,
   and tell the event stream. *)
let kill t p =
  match List.assoc_opt p t.servers with
  | None -> ()
  | Some srv ->
      Fw.Server.stop srv;
      (match (t.net, t.udp) with
      | Some net, _ -> Network.crash net p
      | None, Some u -> Udp.set_down u p true
      | None, None -> ());
      t.servers <- List.remove_assoc p t.servers;
      Events.emit t.events ~now:(now t) (Events.Server_crashed { server = p })

(* Replace = a new server on a spare address-table slot, with the given
   units and a fresh store. *)
let replace t ~units =
  let p = Gcs.add_server t.gcs in
  add_server t p units;
  p

let db_size srv u = Option.map Unit_db.size (Fw.Server.db srv u)

(* A server has rejoined once every unit it replicates is settled and
   holds as many records as a settled survivor's copy. *)
let rejoined t p =
  match List.assoc_opt p t.servers with
  | None -> false
  | Some srv ->
      List.for_all
        (fun u ->
          Fw.Server.unit_settled srv u
          && List.exists
               (fun (q, other) ->
                 q <> p
                 && List.mem u (Hashtbl.find t.units_of q)
                 && Fw.Server.unit_settled other u
                 && db_size other u = db_size srv u)
               t.servers)
        (Hashtbl.find t.units_of p)

(* End-of-trial replica agreement: every settled live replica of a unit
   holds the same sessions with the same assignments. *)
let disagreements t =
  List.concat_map
    (fun u ->
      let copies =
        List.filter_map
          (fun (p, srv) ->
            if List.mem u (Hashtbl.find t.units_of p) && Fw.Server.unit_settled srv u then
              Option.map (fun db -> (p, db)) (Fw.Server.db srv u)
            else None)
          t.servers
      in
      match copies with
      | [] | [ _ ] -> [ Printf.sprintf "%s: fewer than two settled replicas" u ]
      | (p0, db0) :: rest ->
          List.filter_map
            (fun (p, db) ->
              if Unit_db.size db <> Unit_db.size db0 then
                Some
                  (Printf.sprintf "%s: s%d holds %d sessions, s%d holds %d" u p0
                     (Unit_db.size db0) p (Unit_db.size db))
              else if not (Unit_db.equal_assignments db0 db) then
                Some (Printf.sprintf "%s: s%d and s%d disagree on assignments" u p0 p)
              else None)
            rest)
    catalog

let transport_stats t = Transport.stats (Gcs.transport t.gcs)

let dropped t =
  let sub = Gcs.substrate t.gcs in
  let n = ref 0 in
  for id = 0 to sub.Sub.node_count () - 1 do
    n := !n + (sub.Sub.counters id).Sub.datagrams_dropped
  done;
  !n

let store_stats t = List.map Store.stats t.stores

let close t = Option.iter Udp.close t.udp
