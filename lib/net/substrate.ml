type node_id = int

type counters = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable datagrams_dropped : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

let fresh_counters () =
  {
    datagrams_sent = 0;
    datagrams_received = 0;
    datagrams_dropped = 0;
    bytes_sent = 0;
    bytes_received = 0;
  }

let zero_counters c =
  c.datagrams_sent <- 0;
  c.datagrams_received <- 0;
  c.datagrams_dropped <- 0;
  c.bytes_sent <- 0;
  c.bytes_received <- 0

type t = {
  engine : Haf_sim.Engine.t;
  send :
    ?label:Haf_sim.Engine.label -> src:node_id -> dst:node_id -> string -> unit;
  set_receiver : node_id -> (src:node_id -> string -> unit) -> unit;
  add_node : unit -> node_id;
  node_count : unit -> int;
  counters : node_id -> counters;
  reset_counters : unit -> unit;
}
