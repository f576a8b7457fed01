(** Simulated datagram network.

    Nodes exchange unreliable, unordered datagrams ([string] payloads)
    subject to latency, probabilistic loss, process crashes and link
    failures.  Links are {e directed}: taking down only one direction, or
    an arbitrary non-transitive subset of links, models the WAN scenarios
    of the paper's Section 4 ("servers which can't communicate with one
    another, but can both communicate with the client").

    Crash semantics follow the paper's model: a crashed process neither
    sends nor receives.  {!recover} brings the node back as a blank slate
    for the layers above (a "new server brought up"). *)

type node_id = int

type t

type config = {
  latency : Latency.t;  (** Applied to every link. *)
  drop_probability : float;  (** Independent per-datagram loss. *)
}

val default_config : config
(** LAN latency, no loss. *)

val create : Haf_sim.Engine.t -> config -> t

val add_node : t -> node_id
(** Nodes get consecutive ids starting from 0. *)

val node_count : t -> int

val set_receiver : t -> node_id -> (src:node_id -> string -> unit) -> unit
(** Install the upper-layer datagram handler for a node. *)

val send :
  t -> ?label:Haf_sim.Engine.label -> src:node_id -> dst:node_id -> string -> unit
(** Fire-and-forget.  Silently dropped if the source is crashed, the
    directed link [src -> dst] is down, the loss model says so, or the
    destination is crashed at delivery time.  Self-sends are delivered
    after the minimum latency.  [label] (default [Internal]) tags the
    delivery event for the engine's driven scheduler: the transport
    labels reliable data frames [Deliver] so a model checker can reorder
    them, while acks and raw datagrams stay internal. *)

(** {2 Fault injection} *)

val crash : t -> node_id -> unit

val recover : t -> node_id -> unit

val alive : t -> node_id -> bool

val set_link : t -> node_id -> node_id -> bool -> unit
(** Directed link control. *)

val set_link_sym : t -> node_id -> node_id -> bool -> unit

val cut_oneway : t -> src:node_id -> dst:node_id -> unit
(** Asymmetric (one-way) link cut: datagrams [src -> dst] are dropped
    while [dst -> src] keeps flowing.  This is the non-transitive WAN
    failure of the paper's Section 4 — and the chaos engine's favourite
    way to make failure detectors disagree.  Undo with
    [set_link t src dst true] or {!heal_links}. *)

val set_link_delay : t -> node_id -> node_id -> float option -> unit
(** Per-directed-link extra propagation delay, added on top of the
    configured latency model.  [Some extra] installs an override of
    [extra] seconds ([extra <= 0.] clears it); [None] clears it.  Models
    congestion or routing spikes on one link without touching the rest
    of the fabric; cleared by {!heal_links} and {!partition}. *)

val link_delay : t -> node_id -> node_id -> float option
(** The currently installed override for the directed link, if any. *)

val partition : t -> node_id list list -> unit
(** Install a symmetric partition: links inside each component are up,
    links across components are down.  Nodes not listed form an implicit
    extra component together. *)

val heal_links : t -> unit
(** All links back up (crashed nodes stay crashed). *)

val connected : t -> node_id -> node_id -> bool
(** Both endpoints alive and the directed link up. *)

val reachable : t -> ?among:node_id list -> node_id -> node_id -> bool
(** [reachable t ~among a b]: is there a path of {e bidirectionally} live
    links from [a] to [b] through alive nodes drawn from [among]
    (default: every node)?  An edge counts only when both directions are
    up, so one-way cuts separate; extra delay does not.  This is the
    partition-component oracle the invariant monitor uses to scope the
    unique-primary check: two primaries are only in conflict when their
    servers sit in the same component. *)

(** {2 Accounting (per-node, for the load experiments)} *)

type counters = Substrate.counters = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable datagrams_dropped : int;
      (** Counted on the {e sending} node: datagrams the fabric decided
          not to deliver (loss model, down link, or destination crashed
          at delivery time). *)
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

val counters : t -> node_id -> counters

val reset_counters : t -> unit

(** {2 Substrate} *)

val substrate : t -> Substrate.t
(** This network as a {!Substrate.t} — the deterministic default
    backend.  All closures delegate to the functions above, so driving
    the substrate and driving the network directly are
    indistinguishable (and byte-identical under a fixed seed). *)
