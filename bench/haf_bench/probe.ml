(* The events probe: sink taps that reconstruct what clients observe.
   Every end-to-end number is derived here from the framework's public
   event stream — session requests and grants, update sends and
   applications, responses and the servers they came from, takeovers
   and views — on either substrate alike. *)

module Events = Haf_core.Events
module Naming = Haf_core.Naming

(* A session whose latest response came from a killed server, waiting
   for the first response from anyone else. *)
type failover = {
  victim : int;
  killed_at : float;
  mutable view_at : float;  (* nan until the new primary notes a view *)
  mutable takeover_at : float;  (* nan until a Takeover for the session *)
}

(* A failover that ended; its phases partition [resumed_at - killed_at]. *)
type resumed = {
  r_session : int;
  r_killed_at : float;
  r_view_at : float;
  r_takeover_at : float;
  r_resumed_at : float;
}

type session = {
  index : int;
  unit_id : string;
  requested_at : float;
  mutable granted_at : float;  (* nan until the first Session_granted *)
  mutable sent : float array;  (* seq - 1 -> send time, nan = unsent *)
  mutable applied : float array;  (* seq - 1 -> first application *)
  mutable last_from : int;
  seen : (int, unit) Hashtbl.t;  (* response ids received *)
  mutable pending : failover option;
}

type t = {
  sessions : (string, session) Hashtbl.t;
  mutable in_order : session list;  (* newest first *)
  views : (int * string, float * int list) Hashtbl.t;
      (* latest View_noted per (server, group) *)
  primaries : (int, int) Hashtbl.t;  (* server -> sessions it is primary of *)
  mutable resumed : resumed list;
  mutable affected : int;
  mutable granted : int;
  mutable applied_n : int;
  mutable received : int;
  mutable duplicates : int;
  mutable responses_sent : int;
  mutable propagations : int;
  mutable exchange_bytes : int;
}

let set_at arr i x =
  let arr =
    if i < Array.length arr then arr
    else begin
      let bigger = Array.make (Int.max (i + 1) (2 * Array.length arr)) Float.nan in
      Array.blit arr 0 bigger 0 (Array.length arr);
      bigger
    end
  in
  arr.(i) <- x;
  arr

let bump tbl k d =
  Hashtbl.replace tbl k (d + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let on_response t ~now s ~id ~from_server =
  t.received <- t.received + 1;
  if Hashtbl.mem s.seen id then t.duplicates <- t.duplicates + 1
  else Hashtbl.replace s.seen id ();
  s.last_from <- from_server;
  match s.pending with
  | Some f when from_server <> f.victim ->
      (* Anchors missing (the successor was already primary, or noted
         its view earlier) collapse onto the next one, so the phases
         always partition the gap. *)
      let takeover_at = if Float.is_nan f.takeover_at then now else f.takeover_at in
      let view_at = if Float.is_nan f.view_at then takeover_at else f.view_at in
      t.resumed <-
        {
          r_session = s.index;
          r_killed_at = f.killed_at;
          r_view_at = view_at;
          r_takeover_at = takeover_at;
          r_resumed_at = now;
        }
        :: t.resumed;
      s.pending <- None
  | Some _ | None -> ()

let on_kill t ~now victim =
  Hashtbl.replace t.primaries victim 0;
  List.iter
    (fun s ->
      if s.last_from = victim && s.pending = None then begin
        s.pending <-
          Some { victim; killed_at = now; view_at = Float.nan; takeover_at = Float.nan };
        t.affected <- t.affected + 1
      end)
    t.in_order

let on_takeover t ~now s ~server =
  match s.pending with
  | Some f when server <> f.victim && Float.is_nan f.takeover_at ->
      f.takeover_at <- now;
      (* Detection ends when the successor installed a view of the
         session's content group that excludes the victim. *)
      (match Hashtbl.find_opt t.views (server, Naming.content_group s.unit_id) with
      | Some (at, members) when at >= f.killed_at && not (List.mem f.victim members) ->
          f.view_at <- at
      | Some _ | None -> f.view_at <- now)
  | Some _ | None -> ()

let on_event t ~now (ev : Events.t) =
  let find sid = Hashtbl.find_opt t.sessions sid in
  match ev with
  | Session_requested { session_id; unit_id; _ } ->
      if not (Hashtbl.mem t.sessions session_id) then begin
        let s =
          {
            index = Hashtbl.length t.sessions;
            unit_id;
            requested_at = now;
            granted_at = Float.nan;
            sent = [||];
            applied = [||];
            last_from = -1;
            seen = Hashtbl.create 64;
            pending = None;
          }
        in
        Hashtbl.replace t.sessions session_id s;
        t.in_order <- s :: t.in_order
      end
  | Session_granted { session_id; _ } -> (
      match find session_id with
      | Some s when Float.is_nan s.granted_at ->
          s.granted_at <- now;
          t.granted <- t.granted + 1
      | Some _ | None -> ())
  | Request_sent { session_id; seq; _ } -> (
      match find session_id with
      | Some s when seq >= 1 -> s.sent <- set_at s.sent (seq - 1) now
      | Some _ | None -> ())
  | Request_applied { session_id; seq; _ } -> (
      match find session_id with
      | Some s
        when seq >= 1
             && (seq > Array.length s.applied || Float.is_nan s.applied.(seq - 1)) ->
          s.applied <- set_at s.applied (seq - 1) now;
          t.applied_n <- t.applied_n + 1
      | Some _ | None -> ())
  | Response_sent _ -> t.responses_sent <- t.responses_sent + 1
  | Response_received { session_id; id; from_server; _ } -> (
      match find session_id with
      | Some s -> on_response t ~now s ~id ~from_server
      | None -> ())
  | Role_assumed { server; role = Primary; _ } -> bump t.primaries server 1
  | Role_dropped { server; role = Primary; _ } -> bump t.primaries server (-1)
  | Takeover { server; session_id; _ } -> (
      match find session_id with
      | Some s -> on_takeover t ~now s ~server
      | None -> ())
  | View_noted { server; group; members } ->
      Hashtbl.replace t.views (server, group) (now, members)
  | Server_crashed { server } -> on_kill t ~now server
  | Propagated _ -> t.propagations <- t.propagations + 1
  | Exchange_sent { bytes; _ } -> t.exchange_bytes <- t.exchange_bytes + bytes
  | Role_assumed _ | Role_dropped _ | Session_ended _ | Server_restarted _
  | Store_recovered _ | Audit_failed _ | Server_reset _ ->
      ()

let attach events =
  let t =
    {
      sessions = Hashtbl.create 1024;
      in_order = [];
      views = Hashtbl.create 64;
      primaries = Hashtbl.create 16;
      resumed = [];
      affected = 0;
      granted = 0;
      applied_n = 0;
      received = 0;
      duplicates = 0;
      responses_sent = 0;
      propagations = 0;
      exchange_bytes = 0;
    }
  in
  Events.subscribe events (fun ~now ev -> on_event t ~now ev);
  t

(* Client operations so far: sessions granted, updates applied,
   responses received. *)
let ops t = t.granted + t.applied_n + t.received

let sessions t = List.rev t.in_order

let pending t = List.filter (fun s -> s.pending <> None) t.in_order

(* Every replica of every unit holds a view containing all replicas. *)
let views_complete t placement =
  List.for_all
    (fun (u, replicas) ->
      let g = Naming.content_group u in
      List.for_all
        (fun p ->
          match Hashtbl.find_opt t.views (p, g) with
          | Some (_, members) -> List.for_all (fun r -> List.mem r members) replicas
          | None -> false)
        replicas)
    placement

(* The live server holding the most primaries (lowest id on ties). *)
let busiest t candidates =
  List.fold_left
    (fun best p ->
      let load p = Option.value (Hashtbl.find_opt t.primaries p) ~default:0 in
      match best with
      | Some b when load b >= load p -> best
      | Some _ | None -> Some p)
    None candidates
