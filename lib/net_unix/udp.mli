(** Real UDP datagram substrate over localhost sockets.

    Implements the {!Haf_net.Substrate.t} contract — so the unmodified
    {!Haf_net.Transport}, GCS daemons and framework run over actual
    sockets, real packet loss and a monotonic wall clock — in two
    deployment shapes:

    - {e single process} ({!create_local}): every node of the group is
      hosted here, each bound to its own loopback port.  Used by the
      backend-conformance tests and [haf_bench]'s [udp-*] workloads.
    - {e one process per server} ({!create} with a partial [local]
      list): this OS process binds sockets only for its own node ids;
      the rest of the address table points at ports served by sibling
      processes.  Used by [bin/haf_cluster], where killing a server is a
      real [SIGKILL].

    Node [id] lives at [127.0.0.1:(base_port + id)], and the source of a
    datagram is recovered from the sender's port, so the wire carries
    payloads verbatim (no framing header).

    Timers run on an external-clock {!Haf_sim.Engine.t}
    ({!Haf_sim.Engine.create_external}) sampled from
    [clock_gettime(CLOCK_MONOTONIC)]; the reactor ({!run_for},
    {!run_until}) interleaves due timers with a [select] on the hosted
    sockets.  Single-threaded by construction, like the sim: handlers
    never race. *)

type t

val create :
  ?seed:int ->
  ?base_port:int ->
  ?drop_probability:float ->
  nodes:int ->
  local:int list ->
  unit ->
  t
(** An address table of [nodes] consecutive ids rooted at [base_port]
    (default 7600), with sockets bound for the [local] subset.  [seed]
    (default 1) seeds the engine RNG — give each OS process of a cluster
    a distinct seed so restarted daemons draw fresh incarnations.
    [drop_probability] injects seeded sender-side loss (loopback never
    drops on its own; the conformance suite needs real retransmissions). *)

val create_local :
  ?seed:int -> ?base_port:int -> ?drop_probability:float -> nodes:int -> unit -> t
(** {!create} hosting every node in this process. *)

val substrate : t -> Haf_net.Substrate.t

(** {2 Reactor} *)

val run_for : t -> float -> unit
(** Run timers and socket delivery for (at least) this many wall-clock
    seconds. *)

val run_until : t -> ?timeout:float -> (unit -> bool) -> bool
(** Run the reactor until the predicate holds — checked after every
    batch of deliveries/timer fires — or [timeout] (default 30 s)
    wall-clock seconds elapse.  Returns whether the predicate held. *)

(** {2 Fault and loss injection} *)

val set_down : t -> int -> bool -> unit
(** A down node neither sends nor receives (datagrams already in flight
    are discarded on arrival) — the in-process analogue of the sim's
    crash, for conformance tests that cannot kill their own process. *)

val close : t -> unit
(** Close all hosted sockets.  Idempotent. *)
