type role = Primary | Backup

type takeover_kind = Initial | Crash | Rebalance

type t =
  | Session_requested of { client : int; session_id : string; unit_id : string }
  | Session_granted of { client : int; session_id : string; primary : int }
  | Session_ended of { session_id : string }
  | Request_sent of { client : int; session_id : string; seq : int }
  | Request_applied of { server : int; session_id : string; seq : int; role : role }
  | Response_sent of { server : int; session_id : string; id : int; critical : bool }
  | Response_received of {
      client : int;
      session_id : string;
      id : int;
      critical : bool;
      from_server : int;
    }
  | Role_assumed of { server : int; session_id : string; role : role }
  | Role_dropped of { server : int; session_id : string; role : role }
  | Takeover of {
      server : int;
      session_id : string;
      kind : takeover_kind;
      from_primary : int option;
      had_live_context : bool;
    }
  | Propagated of {
      server : int;
      session_id : string;
      applied : Seqset.t;
    }
  | View_noted of { server : int; group : string; members : int list }
  | Server_crashed of { server : int }
  | Server_restarted of { server : int }
  | Exchange_sent of { server : int; group : string; digest : bool; records : int; bytes : int }
  | Store_recovered of {
      server : int;
      sessions : int;
      wal_records : int;
      torn_tail : bool;
      crc_mismatch : bool;
      snapshot_lost : bool;
    }
  | Audit_failed of { server : int; subsystem : string; detail : string }
  | Server_reset of { server : int; subsystem : string }
[@@haf.protocol]
(* Deep-lint R6: dispatches over the event timeline in protocol code
   (monitor, explore oracle) must enumerate every constructor, so a new
   event cannot silently bypass an invariant checker. *)

type sink = {
  mutable items : (float * t) list;  (* newest first *)
  mutable taps : (now:float -> t -> unit) array;
      (* Preallocated dispatch table in subscription order: [emit] runs
         on every simulated event, and indexing a flat array keeps the
         dispatch free of per-event list-spine traffic.  Subscription is
         rare (a handful per run), so rebuilding the array there is
         cheap. *)
  retain : bool;  (* false: taps only, no timeline accumulation *)
}

let make_sink ?(retain = true) () = { items = []; taps = [||]; retain }

let subscribe sink f = sink.taps <- Array.append sink.taps [| f |]

let[@hot] emit sink ~now ev =
  if sink.retain then sink.items <- (now, ev) :: sink.items;
  let taps = sink.taps in
  for i = 0 to Array.length taps - 1 do
    (Array.unsafe_get taps i) ~now ev
  done

let events sink = List.rev sink.items

let role_to_string = function Primary -> "primary" | Backup -> "backup"

let kind_to_string = function
  | Initial -> "initial"
  | Crash -> "crash"
  | Rebalance -> "rebalance"

let pp ppf = function
  | Session_requested { client; session_id; unit_id } ->
      Format.fprintf ppf "session_requested c%d %s (%s)" client session_id unit_id
  | Session_granted { client; session_id; primary } ->
      Format.fprintf ppf "session_granted c%d %s by s%d" client session_id primary
  | Session_ended { session_id } -> Format.fprintf ppf "session_ended %s" session_id
  | Request_sent { client; session_id; seq } ->
      Format.fprintf ppf "request_sent c%d %s #%d" client session_id seq
  | Request_applied { server; session_id; seq; role } ->
      Format.fprintf ppf "request_applied s%d %s #%d as %s" server session_id seq
        (role_to_string role)
  | Response_sent { server; session_id; id; critical } ->
      Format.fprintf ppf "response_sent s%d %s #%d%s" server session_id id
        (if critical then "!" else "")
  | Response_received { client; session_id; id; critical; from_server } ->
      Format.fprintf ppf "response_received c%d %s #%d%s from s%d" client session_id id
        (if critical then "!" else "")
        from_server
  | Role_assumed { server; session_id; role } ->
      Format.fprintf ppf "role_assumed s%d %s %s" server session_id (role_to_string role)
  | Role_dropped { server; session_id; role } ->
      Format.fprintf ppf "role_dropped s%d %s %s" server session_id (role_to_string role)
  | Takeover { server; session_id; kind; from_primary; had_live_context } ->
      Format.fprintf ppf "takeover s%d %s %s from=%s live_ctx=%b" server session_id
        (kind_to_string kind)
        (match from_primary with Some p -> string_of_int p | None -> "-")
        had_live_context
  | Propagated { server; session_id; applied } ->
      Format.fprintf ppf "propagated s%d %s up-to-req %d" server session_id
        (Seqset.max applied)
  | View_noted { server; group; members } ->
      Format.fprintf ppf "view s%d %s [%s]" server group
        (String.concat "," (List.map string_of_int members))
  | Server_crashed { server } -> Format.fprintf ppf "server_crashed s%d" server
  | Server_restarted { server } -> Format.fprintf ppf "server_restarted s%d" server
  | Exchange_sent { server; group; digest; records; bytes } ->
      Format.fprintf ppf "exchange_sent s%d %s %s records=%d bytes=%d" server group
        (if digest then "digest" else "delta")
        records bytes
  | Store_recovered { server; sessions; wal_records; torn_tail; crc_mismatch; snapshot_lost }
    ->
      Format.fprintf ppf
        "store_recovered s%d sessions=%d wal=%d torn=%b crc=%b snap_lost=%b" server
        sessions wal_records torn_tail crc_mismatch snapshot_lost
  | Audit_failed { server; subsystem; detail } ->
      Format.fprintf ppf "audit_failed s%d %s: %s" server subsystem detail
  | Server_reset { server; subsystem } ->
      Format.fprintf ppf "server_reset s%d %s" server subsystem
