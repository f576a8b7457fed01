module Engine = Haf_sim.Engine
module Sub = Substrate

(* Frames.  The first byte names the kind; integers are fixed 8-byte
   little-endian (a [conn] is negative after [corrupt_conn]); a Data or
   Raw payload is the rest of the datagram:

     Data: 'D' conn seq lo payload     (25-byte header)
     Ack:  'A' conn cum                (exactly 17 bytes)
     Raw:  'R' payload                 (1-byte header)

   Each Data carries [lo], the sender's lowest unacknowledged sequence
   number: a receiver with no state for the connection (fresh process, or
   first contact arriving out of order) starts expecting [lo] rather than
   guessing.  Connection ids increase globally, so data from a stale
   incarnation can never clobber a newer channel. *)
let data_header = 25

let ack_length = 17

let set_int b pos n = Bytes.set_int64_le b pos (Int64.of_int n)

let get_int s pos = Int64.to_int (String.get_int64_le s pos)

let encode_data ~conn ~seq ~lo payload =
  let n = String.length payload in
  let b = Bytes.create (data_header + n) in
  Bytes.set b 0 'D';
  set_int b 1 conn;
  set_int b 9 seq;
  set_int b 17 lo;
  Bytes.blit_string payload 0 b data_header n;
  Bytes.unsafe_to_string b

let encode_ack ~conn ~cum =
  let b = Bytes.create ack_length in
  Bytes.set b 0 'A';
  set_int b 1 conn;
  set_int b 9 cum;
  Bytes.unsafe_to_string b

type raw = string

let raw payload = "R" ^ payload

type sender_channel = {
  mutable conn : int;
      (* Mutable only so chaos can roll it back to a stale incarnation
         ([corrupt_conn]); the protocol itself never reassigns it. *)
  mutable next_seq : int;
  unsent : (int, string) Hashtbl.t;  (* seq -> payload, awaiting ack *)
  mutable lowest_unacked : int;
  mutable timer : Engine.timer option;
  mutable backoff : float;
  mutable stalled_since : float option;
      (* Virtual time at which the current run of silence began: set when
         the queue goes non-empty with no acks arriving, cleared by any
         cumulative ack.  Drives the give-up threshold. *)
}

type receiver_channel = {
  rconn : int;
  mutable next_expected : int;
  pending : (int, string) Hashtbl.t;
}

type stats = {
  payloads_sent : int;
  payloads_delivered : int;
  retransmissions : int;
  duplicates : int;
  acks_sent : int;
  give_ups : int;
  rejected : int;
  unacked : int;
}

type t = {
  sub : Sub.t;
  engine : Engine.t;
  mutable give_up_after : float option;
  mutable give_ups : int;
  mutable payloads_sent : int;
  mutable payloads_delivered : int;
  mutable retransmissions : int;
  mutable duplicates : int;
  mutable acks_sent : int;
  mutable rejected : int;
  mutable next_conn : int;
  senders : (int * int, sender_channel) Hashtbl.t;  (* (src, dst) *)
  receivers : (int * int, receiver_channel) Hashtbl.t;  (* (dst, src) *)
  handlers : (int, src:int -> string -> unit) Hashtbl.t;
  raw_handlers : (int, src:int -> string -> int -> unit) Hashtbl.t;
}

(* Initial retransmission timeout; it doubles per silent round up to
   [max_backoff]. *)
let rto = 0.05

let max_backoff = 2.0

let create sub =
  {
    sub;
    engine = sub.Sub.engine;
    give_up_after = None;
    give_ups = 0;
    payloads_sent = 0;
    payloads_delivered = 0;
    retransmissions = 0;
    duplicates = 0;
    acks_sent = 0;
    rejected = 0;
    (* Base connection ids on the clock: on the sim substrate time is 0
       at creation so ids start at 1 exactly as before, while on the
       real substrate CLOCK_MONOTONIC is system-wide — a restarted OS
       process (fresh Transport) allocates strictly larger ids than its
       previous life, so peers' receivers treat its frames as the new
       incarnation rather than stale duplicates of the old one. *)
    next_conn = 1 + int_of_float (1000. *. Engine.now sub.Sub.engine);
    senders = Hashtbl.create 64;
    receivers = Hashtbl.create 64;
    handlers = Hashtbl.create 16;
    raw_handlers = Hashtbl.create 16;
  }

let set_give_up_after t v = t.give_up_after <- v

let fresh_conn t =
  let c = t.next_conn in
  t.next_conn <- c + 1;
  c

let sender_channel t ~src ~dst =
  match Hashtbl.find_opt t.senders (src, dst) with
  | Some ch -> ch
  | None ->
      let ch =
        {
          conn = fresh_conn t;
          next_seq = 1;
          unsent = Hashtbl.create 8;
          lowest_unacked = 1;
          timer = None;
          backoff = rto;
          stalled_since = None;
        }
      in
      Hashtbl.replace t.senders (src, dst) ch;
      ch

(* Data frames are the protocol-visible deliveries: labelled so a driven
   scheduler can explore their interleavings.  Acks and raw datagrams
   (heartbeats) stay [Internal] — they carry no protocol payload, and
   leaving them out of the choice-point set keeps the explored branching
   factor tractable. *)
let[@hot] transmit t ~src ~dst ch seq payload =
  t.sub.Sub.send
    ~label:(Engine.Deliver { src; dst })
    ~src ~dst
    (encode_data ~conn:ch.conn ~seq ~lo:ch.lowest_unacked payload)

let retransmit_all t ~src ~dst ch =
  let seqs = Hashtbl.fold (fun seq _ acc -> seq :: acc) ch.unsent [] in
  t.retransmissions <- t.retransmissions + List.length seqs;
  List.iter
    (fun seq -> transmit t ~src ~dst ch seq (Hashtbl.find ch.unsent seq))
    (List.sort Int.compare seqs)

(* A channel that has been silent past the give-up threshold is dead:
   cancel its timer, drop the queue and forget the channel entirely, so
   crash-restart storms do not leak retransmission timers for peers that
   will never ack.  A later send to the same peer opens a fresh
   connection incarnation, which forces a clean receiver reset — the
   same path a peer crash takes. *)
let give_up t ~src ~dst ch =
  (match ch.timer with Some tm -> Engine.cancel tm | None -> ());
  ch.timer <- None;
  Hashtbl.reset ch.unsent;
  Hashtbl.remove t.senders (src, dst);
  t.give_ups <- t.give_ups + 1

let rec arm_timer t ~src ~dst ch =
  ch.timer <-
    Some
      (Engine.schedule t.engine ~delay:ch.backoff (fun () ->
           ch.timer <- None;
           if Hashtbl.length ch.unsent > 0 then begin
             let stalled_for =
               match ch.stalled_since with
               | Some since -> Engine.now t.engine -. since
               | None -> 0.
             in
             match t.give_up_after with
             | Some limit when stalled_for >= limit -> give_up t ~src ~dst ch
             | Some _ | None ->
                 ch.backoff <- Float.min (ch.backoff *. 2.) max_backoff;
                 retransmit_all t ~src ~dst ch;
                 arm_timer t ~src ~dst ch
           end
           else ch.backoff <- rto))

let[@hot] send t ~src ~dst payload =
  let ch = sender_channel t ~src ~dst in
  t.payloads_sent <- t.payloads_sent + 1;
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  Hashtbl.replace ch.unsent seq payload;
  (match ch.stalled_since with
  | None -> ch.stalled_since <- Some (Engine.now t.engine)
  | Some _ -> ());
  transmit t ~src ~dst ch seq payload;
  match ch.timer with None -> arm_timer t ~src ~dst ch | Some _ -> ()

let[@hot] handle_ack t ~src:dst ~me:src conn cum =
  match Hashtbl.find_opt t.senders (src, dst) with
  | Some ch when ch.conn = conn ->
      (* Every queued seq is >= lowest_unacked, so a bounded removal scan
         covers exactly the acked prefix without allocating a closure or
         an intermediate list on this per-ack path (deep-lint R9). *)
      for seq = ch.lowest_unacked to Int.min cum (ch.next_seq - 1) do
        Hashtbl.remove ch.unsent seq
      done;
      if cum + 1 > ch.lowest_unacked then ch.lowest_unacked <- cum + 1;
      (* Any ack proves the peer is alive: restart the silence clock. *)
      ch.stalled_since <-
        (if Hashtbl.length ch.unsent = 0 then None
         else Some (Engine.now t.engine));
      if Hashtbl.length ch.unsent = 0 then begin
        (match ch.timer with Some tm -> Engine.cancel tm | None -> ());
        ch.timer <- None;
        ch.backoff <- rto
      end
  | Some _ | None -> ()

let[@hot] handle_data t ~me ~src conn seq lo payload =
  let key = (me, src) in
  let rc =
    match Hashtbl.find_opt t.receivers key with
    | Some rc when rc.rconn = conn -> Some rc
    | Some rc when conn < rc.rconn -> None  (* stale incarnation: ignore *)
    | Some _ | None ->
        (* newer incarnation, or first contact: fresh reassembly state *)
        let rc =
          { rconn = conn; next_expected = lo; pending = Hashtbl.create 8 }
        in
        Hashtbl.replace t.receivers key rc;
        Some rc
  in
  match rc with
  | None -> t.duplicates <- t.duplicates + 1  (* stale incarnation *)
  | Some rc ->
      if seq >= rc.next_expected then Hashtbl.replace rc.pending seq payload
      else t.duplicates <- t.duplicates + 1;
      let handler = Hashtbl.find_opt t.handlers me in
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt rc.pending rc.next_expected with
        | Some p ->
            Hashtbl.remove rc.pending rc.next_expected;
            rc.next_expected <- rc.next_expected + 1;
            t.payloads_delivered <- t.payloads_delivered + 1;
            (match handler with Some h -> h ~src p | None -> ())
        | None -> continue := false
      done;
      t.acks_sent <- t.acks_sent + 1;
      t.sub.Sub.send ~src:me ~dst:src
        (encode_ack ~conn ~cum:(rc.next_expected - 1))

let note_rejected t = t.rejected <- t.rejected + 1

(* Route a datagram on its kind byte.  Anything that is not a frame (a
   corrupted replica, a stray sender on the UDP port, bit rot on the
   wire) must not crash the receiver: drop it and count it, like any
   other invalid input.  A raw payload is handed on in place, at offset
   1 of the datagram, so a heartbeat is never copied. *)
let[@hot] dispatch t me ~src dgram =
  let len = String.length dgram in
  if len = 0 then note_rejected t
  else
    match dgram.[0] with
    | 'D' when len >= data_header ->
        handle_data t ~me ~src (get_int dgram 1) (get_int dgram 9) (get_int dgram 17)
          (String.sub dgram data_header (len - data_header))
    | 'A' when len = ack_length ->
        handle_ack t ~src ~me (get_int dgram 1) (get_int dgram 9)
    | 'R' -> (
        match Hashtbl.find_opt t.raw_handlers me with
        | Some h -> h ~src dgram 1
        | None -> ())
    | _ -> note_rejected t

let attach t node ?on_raw handler =
  Hashtbl.replace t.handlers node handler;
  (match on_raw with
  | Some h -> Hashtbl.replace t.raw_handlers node h
  | None -> Hashtbl.remove t.raw_handlers node);
  t.sub.Sub.set_receiver node (fun ~src dgram -> dispatch t node ~src dgram)

let send_unreliable t ~src ~dst (r : raw) = t.sub.Sub.send ~src ~dst r

let reset_node t node =
  let sender_keys =
    Hashtbl.fold
      (fun ((a, b) as k) _ acc -> if a = node || b = node then k :: acc else acc)
      t.senders []
  in
  List.iter
    (fun k ->
      (match (Hashtbl.find t.senders k).timer with
      | Some tm -> Engine.cancel tm
      | None -> ());
      Hashtbl.remove t.senders k)
    sender_keys;
  let receiver_keys =
    Hashtbl.fold
      (fun ((a, b) as k) _ acc -> if a = node || b = node then k :: acc else acc)
      t.receivers []
  in
  List.iter (Hashtbl.remove t.receivers) receiver_keys

(* Chaos hook: roll every sender-channel connection id of [node] back
   to a stale incarnation.  Peers' receivers then discard its frames as
   duplicates of the old life, and no ack ever arrives — a silent stall
   only the give-up threshold can break, whereupon a fresh send opens a
   clean (strictly newer) incarnation. *)
let corrupt_conn t node =
  let rollback = 1_000_000 in
  let keys =
    Hashtbl.fold
      (fun ((src, _) as k) _ acc -> if src = node then k :: acc else acc)
      t.senders []
  in
  List.iter
    (fun k ->
      let ch = Hashtbl.find t.senders k in
      ch.conn <- ch.conn - rollback)
    keys;
  keys <> []

let stats t =
  {
    payloads_sent = t.payloads_sent;
    payloads_delivered = t.payloads_delivered;
    retransmissions = t.retransmissions;
    duplicates = t.duplicates;
    acks_sent = t.acks_sent;
    give_ups = t.give_ups;
    rejected = t.rejected;
    unacked = Hashtbl.fold (fun _ ch acc -> acc + Hashtbl.length ch.unsent) t.senders 0;
  }
