module Engine = Haf_sim.Engine
module Rng = Haf_sim.Rng

type node_id = int

type config = { latency : Latency.t; drop_probability : float }

let default_config = { latency = Latency.lan; drop_probability = 0. }

type counters = Substrate.counters = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable datagrams_dropped : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

type node = {
  mutable up : bool;
  mutable receiver : src:node_id -> string -> unit;
  stats : counters;
}

type t = {
  engine : Engine.t;
  config : config;
  rng : Rng.t;
  mutable nodes : node array;
  mutable n : int;
  down_links : (node_id * node_id, unit) Hashtbl.t;
  delay_overrides : (node_id * node_id, float) Hashtbl.t;
}

let fresh_counters = Substrate.fresh_counters

let create engine config =
  {
    engine;
    config;
    rng = Engine.fork_rng engine;
    nodes = [||];
    n = 0;
    down_links = Hashtbl.create 64;
    delay_overrides = Hashtbl.create 16;
  }

let fresh_node () =
  { up = true; receiver = (fun ~src:_ _ -> ()); stats = fresh_counters () }

let add_node t =
  if t.n = Array.length t.nodes then begin
    let cap = Int.max 8 (2 * Array.length t.nodes) in
    let nodes = Array.init cap (fun i -> if i < t.n then t.nodes.(i) else fresh_node ()) in
    t.nodes <- nodes
  end;
  let id = t.n in
  t.nodes.(id) <- fresh_node ();
  t.n <- id + 1;
  id

let node_count t = t.n

let node t id =
  if id < 0 || id >= t.n then invalid_arg "Network: unknown node id";
  t.nodes.(id)

let set_receiver t id f = (node t id).receiver <- f

let alive t id = (node t id).up

let link_up t a b = not (Hashtbl.mem t.down_links (a, b))

let set_link t a b up =
  if up then Hashtbl.remove t.down_links (a, b)
  else Hashtbl.replace t.down_links (a, b) ()

let set_link_sym t a b up =
  set_link t a b up;
  set_link t b a up

let cut_oneway t ~src ~dst = set_link t src dst false

let set_link_delay t a b extra =
  match extra with
  | Some d when d > 0. -> Hashtbl.replace t.delay_overrides (a, b) d
  | Some _ | None -> Hashtbl.remove t.delay_overrides (a, b)

let link_delay t a b = Hashtbl.find_opt t.delay_overrides (a, b)

let heal_links t =
  Hashtbl.reset t.down_links;
  Hashtbl.reset t.delay_overrides

let partition t components =
  let comp_of = Hashtbl.create 16 in
  List.iteri
    (fun ci members -> List.iter (fun m -> Hashtbl.replace comp_of m ci) members)
    components;
  let implicit = List.length components in
  let comp id = Option.value (Hashtbl.find_opt comp_of id) ~default:implicit in
  heal_links t;
  for a = 0 to t.n - 1 do
    for b = 0 to t.n - 1 do
      if a <> b && comp a <> comp b then set_link t a b false
    done
  done

let connected t a b = alive t a && alive t b && link_up t a b

let crash t id = (node t id).up <- false

let recover t id = (node t id).up <- true

let send t ?(label = Engine.Internal) ~src ~dst payload =
  let source = node t src in
  ignore (node t dst);
  if source.up then begin
    source.stats.datagrams_sent <- source.stats.datagrams_sent + 1;
    source.stats.bytes_sent <- source.stats.bytes_sent + String.length payload;
    let deliverable =
      (src = dst || link_up t src dst)
      && not (Rng.chance t.rng t.config.drop_probability)
    in
    if not deliverable then
      source.stats.datagrams_dropped <- source.stats.datagrams_dropped + 1
    else begin
      let override =
        Option.value (Hashtbl.find_opt t.delay_overrides (src, dst)) ~default:0.
      in
      let delay = Latency.sample t.config.latency t.rng +. override in
      ignore
        (Engine.schedule t.engine ~label ~delay (fun () ->
             let sink = node t dst in
             if sink.up then begin
               sink.stats.datagrams_received <- sink.stats.datagrams_received + 1;
               sink.stats.bytes_received <-
                 sink.stats.bytes_received + String.length payload;
               sink.receiver ~src payload
             end
             else
               source.stats.datagrams_dropped <-
                 source.stats.datagrams_dropped + 1))
    end
  end

let counters t id = (node t id).stats

let reset_counters t =
  for i = 0 to t.n - 1 do
    Substrate.zero_counters t.nodes.(i).stats
  done

let substrate t =
  {
    Substrate.engine = t.engine;
    send = (fun ?label ~src ~dst payload -> send t ?label ~src ~dst payload);
    set_receiver = (fun id f -> set_receiver t id f);
    add_node = (fun () -> add_node t);
    node_count = (fun () -> node_count t);
    counters = (fun id -> counters t id);
    reset_counters = (fun () -> reset_counters t);
  }

let reachable t ?among a b =
  let allowed id =
    match among with None -> true | Some xs -> List.mem id xs
  in
  let ok id = id >= 0 && id < t.n && allowed id && alive t id in
  if not (ok a && ok b) then false
  else if a = b then true
  else begin
    (* BFS over bidirectional edges: a one-way cut breaks the edge, so
       two nodes that can only talk through an asymmetric path count as
       separated — matching the GCS's symmetric-connectivity view. *)
    let seen = Hashtbl.create 16 in
    let queue = Queue.create () in
    Hashtbl.replace seen a ();
    Queue.push a queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      for y = 0 to t.n - 1 do
        if
          (not (Hashtbl.mem seen y))
          && ok y && link_up t x y && link_up t y x
        then begin
          if y = b then found := true;
          Hashtbl.replace seen y ();
          Queue.push y queue
        end
      done
    done;
    !found
  end
