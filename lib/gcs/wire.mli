(** GCS wire protocol.

    Heartbeats ([Ping]/[Pong]) travel as unreliable datagrams; everything
    else uses the reliable FIFO transport.  Application payloads are opaque
    strings so that the GCS stays independent of the layers above. *)

type proc = int

type uid = { origin : proc; incarnation : int; serial : int }
(** Globally unique application-message id: used to deduplicate
    resubmissions across view changes and fan-out copies of open-group
    sends.  [incarnation] is drawn at daemon start so that a restarted
    process never reuses a previous life's ids (survivors keep old uids
    in their dedup tables and would otherwise silence the new process). *)

val compare_uid : uid -> uid -> int
(** Explicit total order on uids ([origin], then [incarnation], then
    [serial]); protocol code must use this rather than the polymorphic
    [compare] (haf-lint rule R2). *)

type entry = { uid : uid; payload : string }
(** An application multicast as carried by the protocol.  Its sender is
    [uid.origin]: no field repeats it. *)

type advert = { adv_group : string; adv_vid : View.Id.t }
(** "I am a member of [adv_group], currently in view [adv_vid]" —
    piggybacked on heartbeats; the basis of discovery and merge. *)

type flush_info = {
  fi_member : bool;  (** [false]: not in this group (stale proposal). *)
  fi_prev_vid : View.Id.t;
  fi_log : (int * entry) list;  (** seq -> entry, the sender's view log. *)
}
(** One candidate's reply to a proposal.  The proposer attributes it to
    the transport source that delivered it. *)

type msg =
  | Ping of { adverts : advert list }
  | Pong of { adverts : advert list }
  | Propose of { group : string; epoch : int }
      (** "Flush for [epoch]": its receivers are the candidates, and the
          transport source is the proposer. *)
  | Flush_reply of { group : string; epoch : int; info : flush_info }
  | Nack of { group : string; epoch_hint : int }
      (** "Your proposal's epoch is stale; retry above [epoch_hint]." *)
  | Install of {
      group : string;
      view_id : View.Id.t;  (** Its [epoch] is the proposal's. *)
      members : proc list;
      sync : (View.Id.t * (int * entry) list) list;
          (** Per previous-view synchronization sets: the union of the
              surviving members' logs, the heart of virtual synchrony. *)
    }
  | Data of { group : string; vid : View.Id.t; seq : int; entry : entry }
      (** One sequencer slot, sent as soon as the entry is sequenced. *)
  | Open_send of { group : string; entry : entry; ttl : int }
      (** An entry on its way to the group's sequencer: from a
          non-member with [ttl] relay hops left, or forwarded by a member
          to its coordinator with [ttl = 0], which no non-member relays. *)
  | Leave of { group : string }  (** The transport source leaves [group]. *)
  | P2p of { payload : string }

val encode : msg -> string

val decode : ?pos:int -> string -> msg
(** Decode the message that starts at [pos] (default 0). *)

val validate : msg -> (unit, string) result
(** Structural validation of an inbound message: every invariant a
    well-formed sender establishes (non-empty group names, epochs and
    sequence numbers in range, non-empty memberships, well-formed uids)
    is re-checked at the decode boundary, so one corrupted replica
    cannot propagate garbage into healthy peers.  Receivers drop — and
    count, via {!Haf_net.Transport.note_rejected} — anything that
    fails. *)
