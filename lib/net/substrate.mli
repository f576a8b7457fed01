(** The runtime substrate: what every layer above raw datagrams is
    allowed to assume about the world.

    A substrate bundles exactly four capabilities — a monotonic clock
    plus one-shot timers (the {!Haf_sim.Engine.t}, virtual or
    externally clocked), unreliable datagram send/receive, node
    identity allocation, and per-node traffic counters.  {!Transport},
    the GCS daemon and the whole framework are written against this
    record only, so the identical protocol code runs over

    - the deterministic simulated {!Network} (the default — every test,
      experiment and the explore/chaos/monitor layers drive this one),
      via {!Network.substrate}, and
    - real Unix UDP sockets with a select loop and a monotonic wall
      clock, via [Haf_net_unix.Udp.substrate].

    Keeping this boundary first-class (a record, not a functor) means a
    [Gcs.t] or a [Framework] instance never knows which world it is in;
    the composition roots ([Runner] for the sim, [bin/haf_cluster] for
    real deployments) pick the substrate. *)

type node_id = int

type counters = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable datagrams_dropped : int;
      (** Datagrams this node tried to send that the substrate decided
          could not be delivered: loss model, cut/partitioned link or
          dead destination in the sim; send errors, oversize payloads or
          injected loss on the UDP backend. *)
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

val fresh_counters : unit -> counters

val zero_counters : counters -> unit

type t = {
  engine : Haf_sim.Engine.t;
      (** Clock and timers.  Virtual for the sim, external-monotonic for
          the UDP backend; protocol code cannot tell the difference. *)
  send :
    ?label:Haf_sim.Engine.label -> src:node_id -> dst:node_id -> string -> unit;
      (** Fire-and-forget datagram.  [label] (default [Internal]) tags
          the delivery for a driven scheduler; backends without one
          ignore it. *)
  set_receiver : node_id -> (src:node_id -> string -> unit) -> unit;
      (** Install the upper-layer datagram handler for a node this
          substrate hosts. *)
  add_node : unit -> node_id;
      (** Claim the next node identity (consecutive from 0).  Backends
          with a preconfigured address table hand out the ids in that
          table's order. *)
  node_count : unit -> int;
  counters : node_id -> counters;
  reset_counters : unit -> unit;
}
