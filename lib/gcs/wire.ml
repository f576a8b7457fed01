type proc = int

type uid = { origin : proc; incarnation : int; serial : int }

let compare_uid a b =
  match Int.compare a.origin b.origin with
  | 0 -> (
      match Int.compare a.incarnation b.incarnation with
      | 0 -> Int.compare a.serial b.serial
      | c -> c)
  | c -> c

type entry = { uid : uid; payload : string }

type advert = { adv_group : string; adv_vid : View.Id.t }

type flush_info = {
  fi_member : bool;
  fi_prev_vid : View.Id.t;
  fi_log : (int * entry) list;
}

type msg =
  | Ping of { adverts : advert list }
  | Pong of { adverts : advert list }
  | Propose of { group : string; epoch : int }
  | Flush_reply of { group : string; epoch : int; info : flush_info }
  | Nack of { group : string; epoch_hint : int }
  | Install of {
      group : string;
      view_id : View.Id.t;
      members : proc list;
      sync : (View.Id.t * (int * entry) list) list;
    }
  | Data of { group : string; vid : View.Id.t; seq : int; entry : entry }
      (* One sequencer slot. *)
  | Open_send of { group : string; entry : entry; ttl : int }
  | Leave of { group : string }
  | P2p of { payload : string }
[@@haf.protocol]
(* Deep-lint R6 (handler totality): every [match] over [msg] in protocol
   code must name each constructor; adding one fails lint until every
   daemon dispatch handles it. *)

(* haf-lint: allow R2 — Marshal wire format.  On the UDP substrate these
   bytes do cross process boundaries, between runs of the same binary;
   they never feed a comparison.  [decode] is not safe on arbitrary
   input: callers catch its exceptions and run {!validate}, which stops
   structurally malformed frames but not memory-unsafe ones. *)
let encode (m : msg) = Marshal.to_string m []

(* haf-lint: allow R2 — see [encode]. *)
let decode ?(pos = 0) (s : string) : msg = Marshal.from_string s pos

(* Structural validation of inbound messages: one corrupted replica must
   not be able to push garbage (negative counters, empty groups, ghost
   members) into a healthy peer's state.  Checks mirror the invariants
   the senders establish; anything a well-formed sender cannot produce
   is rejected at the decode boundary and counted by the transport. *)

let valid_uid (u : uid) = u.origin >= 0 && u.incarnation >= 0 && u.serial >= 0

let valid_entry (e : entry) = valid_uid e.uid

let valid_vid (v : View.Id.t) = v.View.Id.epoch >= 0 && v.View.Id.coord >= 0

let valid_advert (a : advert) =
  String.length a.adv_group > 0 && valid_vid a.adv_vid

let valid_log log =
  List.for_all (fun (seq, e) -> seq >= 1 && valid_entry e) log

let check cond msg = if cond then Ok () else Error msg

let validate = function
  | Ping { adverts } | Pong { adverts } ->
      check (List.for_all valid_advert adverts) "malformed advert"
  | Propose { group; epoch } ->
      check (String.length group > 0 && epoch >= 1) "malformed propose"
  | Flush_reply { group; epoch; info } ->
      check
        (String.length group > 0 && epoch >= 1
        && valid_vid info.fi_prev_vid && valid_log info.fi_log)
        "malformed flush_reply"
  | Nack { group; epoch_hint } ->
      check (String.length group > 0 && epoch_hint >= 0) "malformed nack"
  | Install { group; view_id; members; sync } ->
      check
        (String.length group > 0 && view_id.View.Id.epoch >= 1 && valid_vid view_id
        && members <> []
        && List.for_all (fun p -> p >= 0) members
        && List.for_all
             (fun (vid, log) -> valid_vid vid && valid_log log)
             sync)
        "malformed install"
  | Data { group; vid; seq; entry } ->
      check
        (String.length group > 0 && valid_vid vid && seq >= 1 && valid_entry entry)
        "malformed data"
  | Open_send { group; entry; ttl } ->
      check
        (String.length group > 0 && valid_entry entry && ttl >= 0)
        "malformed open_send"
  | Leave { group } -> check (String.length group > 0) "malformed leave"
  | P2p _ -> Ok ()
