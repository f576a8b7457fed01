module Engine = Haf_sim.Engine
module Rng = Haf_sim.Rng
module Sub = Haf_net.Substrate

type t = {
  engine : Engine.t;
  base_port : int;
  nodes : int;
  local : bool array;
  sockets : (int * Unix.file_descr) list;  (* (node, bound socket) *)
  fds : Unix.file_descr list;
  addrs : Unix.sockaddr array;
  counters : Sub.counters array;
  receivers : (src:int -> string -> unit) array;
  down : bool array;
  rng : Rng.t;
  buf : Bytes.t;
  drop_probability : float;
  mutable allocated : int;
  mutable closed : bool;
}

let check_node t id what =
  if id < 0 || id >= t.nodes then
    invalid_arg (Printf.sprintf "Udp.%s: unknown node %d" what id)

let socket_of t id =
  match List.assoc_opt id t.sockets with
  | Some fd -> fd
  | None -> invalid_arg (Printf.sprintf "Udp: node %d is not hosted by this process" id)

let create ?(seed = 1) ?(base_port = 7600) ?(drop_probability = 0.) ~nodes
    ~local () =
  if nodes <= 0 then invalid_arg "Udp.create: nodes must be positive";
  let engine = Engine.create_external ~seed ~now:Clock.now () in
  let is_local = Array.make nodes false in
  List.iter
    (fun id ->
      if id < 0 || id >= nodes then invalid_arg "Udp.create: local id out of range";
      is_local.(id) <- true)
    local;
  let sockets =
    List.map
      (fun id ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (* Burst absorption: the benchmark workload can land many frames
           between two select wakeups. *)
        (try Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 20)
         with Unix.Unix_error _ -> ());
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + id));
        Unix.set_nonblock fd;
        (id, fd))
      (List.sort_uniq Int.compare local)
  in
  {
    engine;
    base_port;
    nodes;
    local = is_local;
    sockets;
    fds = List.map snd sockets;
    addrs =
      Array.init nodes (fun id ->
          Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + id));
    counters = Array.init nodes (fun _ -> Sub.fresh_counters ());
    receivers = Array.make nodes (fun ~src:_ _ -> ());
    down = Array.make nodes false;
    rng = Engine.fork_rng engine;
    buf = Bytes.create 65536;
    drop_probability;
    allocated = 0;
    closed = false;
  }

let create_local ?seed ?base_port ?drop_probability ~nodes () =
  create ?seed ?base_port ?drop_probability ~nodes
    ~local:(List.init nodes Fun.id) ()

let set_down t id down =
  check_node t id "set_down";
  t.down.(id) <- down

(* The wire format is the raw payload: the source node is recovered from
   the sender's UDP port (every node sends from its own bound socket),
   exactly mirroring the sim network where [src] rides on the delivery
   closure. *)
let send t ?label:_ ~src ~dst payload =
  check_node t src "send";
  check_node t dst "send";
  let fd = socket_of t src in
  if not t.down.(src) then begin
    let c = t.counters.(src) in
    let len = String.length payload in
    c.Sub.datagrams_sent <- c.Sub.datagrams_sent + 1;
    c.Sub.bytes_sent <- c.Sub.bytes_sent + len;
    if Rng.chance t.rng t.drop_probability then
      c.Sub.datagrams_dropped <- c.Sub.datagrams_dropped + 1
    else
      match Unix.sendto_substring fd payload 0 len [] t.addrs.(dst) with
      | _ -> ()
      | exception Unix.Unix_error _ ->
          (* ICMP unreachable, ENOBUFS, oversize: all just a lost
             datagram to the layers above. *)
          c.Sub.datagrams_dropped <- c.Sub.datagrams_dropped + 1
  end

let set_receiver t id f =
  check_node t id "set_receiver";
  ignore (socket_of t id);
  t.receivers.(id) <- f

let add_node t =
  if t.allocated >= t.nodes then
    invalid_arg "Udp.add_node: address table exhausted";
  let id = t.allocated in
  t.allocated <- id + 1;
  id

let node_count t = t.allocated

let counters t id =
  check_node t id "counters";
  t.counters.(id)

let reset_counters t = Array.iter Sub.zero_counters t.counters

let substrate t =
  {
    Sub.engine = t.engine;
    send = (fun ?label ~src ~dst payload -> send t ?label ~src ~dst payload);
    set_receiver = (fun id f -> set_receiver t id f);
    add_node = (fun () -> add_node t);
    node_count = (fun () -> node_count t);
    counters = (fun id -> counters t id);
    reset_counters = (fun () -> reset_counters t);
  }

let drain t (node, fd) =
  let continue = ref true in
  while !continue do
    match Unix.recvfrom fd t.buf 0 (Bytes.length t.buf) [] with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
    | len, Unix.ADDR_INET (_, sport) ->
        let src = sport - t.base_port in
        if src >= 0 && src < t.nodes && not t.down.(node) then begin
          let c = t.counters.(node) in
          c.Sub.datagrams_received <- c.Sub.datagrams_received + 1;
          c.Sub.bytes_received <- c.Sub.bytes_received + len;
          t.receivers.(node) ~src (Bytes.sub_string t.buf 0 len)
        end
    | _, Unix.ADDR_UNIX _ -> ()
  done

let ready_sockets t tmo =
  match Unix.select t.fds [] [] tmo with
  | ready, _, _ ->
      List.iter
        (fun (node, fd) -> if List.memq fd ready then drain t (node, fd))
        t.sockets
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* One reactor turn: fire every due timer, then block in select until the
   earliest pending deadline (capped by [cap]) or a datagram arrival. *)
let turn t ~cap =
  Engine.run_due t.engine;
  let now = Clock.now () in
  let tmo =
    match Engine.next_deadline t.engine with
    | Some d -> Float.min cap (Float.max 0. (d -. now))
    | None -> cap
  in
  ready_sockets t tmo;
  Engine.run_due t.engine

let run_for t seconds =
  let deadline = Clock.now () +. seconds in
  let rec loop () =
    let remaining = deadline -. Clock.now () in
    if remaining > 0. then begin
      turn t ~cap:remaining;
      loop ()
    end
  in
  loop ()

let run_until t ?(timeout = 30.) pred =
  let deadline = Clock.now () +. timeout in
  let rec loop () =
    if pred () then true
    else
      let remaining = deadline -. Clock.now () in
      if remaining <= 0. then false
      else begin
        turn t ~cap:(Float.min remaining 0.05);
        loop ()
      end
  in
  loop ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ()) t.sockets
  end
