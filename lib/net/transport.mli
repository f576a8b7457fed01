(** Reliable FIFO point-to-point channels over an unreliable datagram
    {!Substrate} (the simulated {!Network} by default, real UDP via
    [Haf_net_unix]).

    The GCS assumes reliable FIFO links while two processes stay
    connected; this module provides them with per-channel sequence
    numbers, cumulative acknowledgements and retransmission with
    exponential backoff.  Channels carry a connection incarnation number
    so that a peer that crashed and came back as a fresh process (or a
    receiver that lost state) forces a clean channel reset rather than a
    silent sequence mismatch.

    Datagrams lost while a partition lasts are retransmitted and delivered
    once the partition heals, matching the "reliable delivery while
    connected" GCS transport assumption. *)

type t

type stats = {
  payloads_sent : int;  (** Payloads accepted by {!send}. *)
  payloads_delivered : int;  (** In-order payloads handed to handlers. *)
  retransmissions : int;
      (** Data frames re-sent by the backoff timer (first transmissions
          excluded). *)
  duplicates : int;
      (** Received data frames discarded as already-delivered or
          stale-incarnation. *)
  acks_sent : int;
  give_ups : int;  (** Channels declared dead (see {!set_give_up_after}). *)
  rejected : int;
      (** Inbound datagrams dropped as invalid: datagrams that are not
          frames (an unknown kind byte, or a length the kind does not
          allow), plus payload failures counted by receivers via
          {!note_rejected}. *)
  unacked : int;  (** Payloads queued now, awaiting acknowledgement. *)
}

val create : Substrate.t -> t
(** The initial retransmission timeout is 50 ms; it doubles per silent
    round up to 2 s. *)

val set_give_up_after : t -> float option -> unit
(** Set the give-up threshold ([None] disables): once a channel has had
    payloads outstanding for that many seconds with no ack at all, the
    channel is declared dead — its timer is cancelled, its queue
    dropped and [give_ups] in {!stats} incremented — instead of backing off
    forever.  A later {!send} to the same destination transparently
    opens a fresh connection incarnation.  Applies to the next
    retransmission round of every channel.  Default: never give up (the
    GCS transport assumption: reliable delivery once eventually
    reconnected). *)

val attach :
  t ->
  Substrate.node_id ->
  ?on_raw:(src:Substrate.node_id -> string -> int -> unit) ->
  (src:Substrate.node_id -> string -> unit) ->
  unit
(** Take over the node's network receiver and deliver reliable in-order
    payloads to the given handler.  Must be called once per node before
    sending or receiving.  [on_raw ~src dgram pos] receives a datagram
    sent with {!send_unreliable} (heartbeats etc.), which bypasses the
    reliable machinery: its payload is [dgram] from offset [pos] on,
    handed over in place rather than copied out.  Two datagrams carry
    the same payload exactly when they are byte-equal. *)

type raw
(** A payload framed for {!send_unreliable}. *)

val raw : string -> raw
(** Frame a payload once; the frame can be sent any number of times. *)

val send_unreliable : t -> src:Substrate.node_id -> dst:Substrate.node_id -> raw -> unit
(** One-shot datagram sharing the node's network receiver: no
    retransmission, no ordering.  Used for failure-detector heartbeats so
    that dead peers do not accumulate retransmission queues. *)

val send : t -> src:Substrate.node_id -> dst:Substrate.node_id -> string -> unit
(** Queue a payload on the [src -> dst] channel.  Delivered exactly once
    and in order to [dst]'s handler, provided the two nodes are eventually
    connected long enough and neither side is reset in between. *)

val reset_node : t -> Substrate.node_id -> unit
(** Drop all channel state from and to this node.  Call when the process
    on the node crashes or restarts. *)

val note_rejected : t -> unit
(** Count one invalid inbound message.  Datagrams that are not transport
    frames are counted automatically; layers above (GCS wire validation)
    call this when a payload fails to decode or validate. *)

val corrupt_conn : t -> Substrate.node_id -> bool
(** Chaos hook: roll every sender-channel connection id of [node] back
    to a stale incarnation, so peers silently discard its traffic as
    duplicates of a previous life.  Returns whether any channel existed
    to corrupt.  Recovery is the give-up threshold: once the stalled
    channels are declared dead, the next send opens a fresh (strictly
    newer) incarnation and delivery resumes. *)

val stats : t -> stats
(** Snapshot of the transport-level counters, identical in meaning on
    every substrate — the sim/UDP comparison surface for the cluster
    harness. *)
