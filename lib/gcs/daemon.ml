module Engine = Haf_sim.Engine
module Det_tbl = Haf_sim.Det_tbl
module Transport = Haf_net.Transport
module Fd = Failure_detector

type proc = int

type callbacks = {
  on_view : View.t -> unit;
  on_message : group:string -> sender:proc -> string -> unit;
  on_p2p : sender:proc -> string -> unit;
  on_reset : group:string -> Audit.verdict -> unit;
}

let no_callbacks =
  {
    on_view = (fun _ -> ());
    on_message = (fun ~group:_ ~sender:_ _ -> ());
    on_p2p = (fun ~sender:_ _ -> ());
    on_reset = (fun ~group:_ _ -> ());
  }

type mstate =
  | Stable
  | Proposing of {
      epoch : int;
      candidates : proc list;
      replies : (proc, Wire.flush_info) Hashtbl.t;
      started : float;
    }
  | Flushed of { epoch : int; coord : proc; since : float }

type gstate = {
  group : string;
  mutable view : View.t;
  log : (int, Wire.entry) Hashtbl.t;  (* seq -> entry, current view only *)
  mutable delivered_up_to : int;
  mutable next_seq : int;  (* sequencer-side counter *)
  mutable mstate : mstate;
  mutable max_epoch : int;
  seen_uids : (Wire.uid, unit) Hashtbl.t;
  delivered_uids : (Wire.uid, unit) Hashtbl.t;
      (* Application-level exactly-once guard: a stale copy of a message
         can be re-sequenced after a merge (e.g. a forward parked in a
         transport retransmission queue across a partition reaches a new
         sequencer that never saw the uid); the duplicate is dropped at
         the delivery boundary. *)
  held : (Wire.uid, Wire.entry) Hashtbl.t;
      (* Entries submitted and not yet seen in a log: this member's own
         multicasts and the open sends it relays.  See [hold]. *)
  mutable left : proc list;
  mutable clean_at : int;
  mutable clean_view : View.t;
      (* The daemon's [changes] count and the physical view at which the
         sweep last found this group needing no membership change; -1
         until then.  See [sweep_group]. *)
}

(* This daemon's advert set, built and encoded once per change.  Valid
   while [sorted_gstates] is physically [ac_groups] and every group's
   view id is physically the one recorded here: O(groups) pointer
   comparisons, nothing allocated.  Every way the advert bytes can
   change — join, leave (a new group list), install, reset or a
   corrupted view id (a new id value) — fails that test, so no mutation
   site needs an invalidation hook. *)
type advert_cache = {
  ac_groups : (string * gstate) list;
  ac_adverts : Wire.advert list;  (* one per group of [ac_groups], same order *)
  ac_ping : Transport.raw Lazy.t;  (* the framed Wire payloads, each built on first use *)
  ac_pong : Transport.raw Lazy.t;
}

(* What this daemon knows from one peer's Pings and Pongs. *)
type peer = {
  index : (string, View.Id.t) Hashtbl.t;
      (* group -> view id, from the peer's latest Ping/Pong (first
         occurrence of a group wins); cleared and refilled in place. *)
  mutable last_ping : (string * Wire.advert list) option;
      (* The peer's last Ping datagram, with its decoded, valid adverts. *)
  mutable last_pong : (string * Wire.advert list) option;
  mutable applied : (Wire.advert list * advert_cache) option;
      (* The advert list last recorded into [index], and the advert cache
         of this daemon it was recorded against.  [None] once something
         else edited the peer's index or [gs.left] (a Leave). *)
}

type t = {
  me : proc;
  engine : Engine.t;
  transport : Transport.t;
  config : Config.t;
  hb_interval : float;
  rng : Haf_sim.Rng.t;
  mutable is_alive : bool;
  mutable callbacks : callbacks;
  fd : Fd.t;
  gstates : (string, gstate) Hashtbl.t;
  mutable sorted_gstates : (string * gstate) list option;
      (* [gstates] in group-name order; dropped by [join]/[leave] and
         rebuilt on next use.  An immutable list, so a loop over it is a
         snapshot that a join or leave called back mid-loop cannot
         disturb. *)
  mutable advert_cache : advert_cache;
  adverts : (proc, peer) Hashtbl.t;
  mutable sorted_advertisers : (proc * peer) list option;
      (* [adverts] in proc order; dropped when a new peer is first heard. *)
  vid_mismatch : (string, (proc, float) Hashtbl.t) Hashtbl.t;
      (* group -> peer -> since: the peer advertises a different view id
         for a group we are in.  Persistent mismatch (it survives a few
         heartbeats) means a missed merge — e.g. the peer restarted
         faster than the suspicion timeout — and forces reconciliation. *)
  mutable changes : int;
      (* Bumped whenever an input of [membership_needed] other than a
         group's own view and mismatch entries may have moved: a
         suspicion raised or cleared, a peer newly monitored, a peer's
         adverts re-indexed, a Leave. *)
  contacts : proc list;
  incarnation : int;
  mutable next_serial : int;
  mutable hb_timer : Engine.timer option;
  mutable deadline_timer : (float * Engine.timer) option;
      (* The one-shot suspicion timer and the deadline it fires at.  See
         [arm_deadline]. *)
  mutable view_changes : int;
  mutable resets : int;
}

let alive t = t.is_alive

let set_callbacks t cb = t.callbacks <- cb

let now t = Engine.now t.engine

let advert_cache groups =
  let adverts =
    List.map (fun (g, gs) -> { Wire.adv_group = g; adv_vid = gs.view.View.id }) groups
  in
  (* In descending group order: the order is part of the Ping/Pong bytes. *)
  let descending = List.rev adverts in
  {
    ac_groups = groups;
    ac_adverts = adverts;
    ac_ping = lazy (Transport.raw (Wire.encode (Wire.Ping { adverts = descending })));
    ac_pong = lazy (Transport.raw (Wire.encode (Wire.Pong { adverts = descending })));
  }

let create ~engine ~transport ~config ?heartbeat_interval ?incarnation ~contacts me =
  let hb = Option.value heartbeat_interval ~default:config.Config.heartbeat_interval in
  let incarnation =
    match incarnation with
    | Some i -> i
    | None ->
        Int64.to_int (Int64.shift_right_logical (Haf_sim.Rng.bits64 (Engine.rng engine)) 2)
  in
  {
    me;
    engine;
    transport;
    config;
    hb_interval = hb;
    rng = Engine.fork_rng engine;
    is_alive = false;
    callbacks = no_callbacks;
    fd = Fd.create ~me ~suspect_timeout:config.Config.suspect_timeout;
    gstates = Hashtbl.create 8;
    sorted_gstates = None;
    advert_cache = advert_cache [];
    adverts = Hashtbl.create 16;
    sorted_advertisers = None;
    vid_mismatch = Hashtbl.create 16;
    changes = 0;
    contacts = List.filter (fun p -> p <> me) contacts;
    incarnation;
    next_serial = 0;
    hb_timer = None;
    deadline_timer = None;
    view_changes = 0;
    resets = 0;
  }

(* ------------------------------------------------------------------ *)
(* Low-level sends                                                     *)

(* A send to [t.me] still goes through the transport, so that timing
   stays uniform; the dispatcher handles it like any other. *)
let send_reliable t dst msg =
  Transport.send t.transport ~src:t.me ~dst (Wire.encode msg)

(* Fan one frame out to every process in [dsts] but this one, encoding
   it once: every destination gets the same bytes. *)
let send_others t dsts msg =
  if List.exists (fun p -> p <> t.me) dsts then begin
    let payload = Wire.encode msg in
    List.iter
      (fun p -> if p <> t.me then Transport.send t.transport ~src:t.me ~dst:p payload)
      dsts
  end

let sorted_gstates t =
  match t.sorted_gstates with
  | Some l -> l
  | None ->
      let l = Det_tbl.sorted_bindings ~compare:String.compare t.gstates in
      t.sorted_gstates <- Some l;
      l

let sorted_advertisers t =
  match t.sorted_advertisers with
  | Some l -> l
  | None ->
      let l = Det_tbl.sorted_bindings ~compare:Int.compare t.adverts in
      t.sorted_advertisers <- Some l;
      l

let rec vids_unchanged groups adverts =
  match (groups, adverts) with
  | (_, gs) :: groups, a :: adverts ->
      gs.view.View.id == a.Wire.adv_vid && vids_unchanged groups adverts
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

let current_adverts t =
  let groups = sorted_gstates t in
  let c = t.advert_cache in
  if c.ac_groups == groups && vids_unchanged groups c.ac_adverts then c
  else begin
    let c = advert_cache groups in
    t.advert_cache <- c;
    c
  end

let fresh_uid t =
  let serial = t.next_serial in
  t.next_serial <- serial + 1;
  { Wire.origin = t.me; incarnation = t.incarnation; serial }

(* ------------------------------------------------------------------ *)
(* Beliefs                                                             *)

let advertisers t group =
  List.filter_map
    (fun (p, peer) -> if Hashtbl.mem peer.index group then Some p else None)
    (sorted_advertisers t)

let believed_members t group =
  match Hashtbl.find_opt t.gstates group with
  | Some gs -> gs.view.View.members
  | None -> advertisers t group

let reachable t p = p = t.me || Fd.reachable t.fd p

let note_change t = t.changes <- t.changes + 1

let monitor_peer t p =
  if p <> t.me && not (Fd.is_monitored t.fd p) then begin
    note_change t;
    Fd.monitor t.fd p ~now:(now t)
  end

let heard_from t p =
  if Fd.suspected t.fd p then note_change t;
  Fd.heard_from t.fd p ~now:(now t)

let groups t = List.map fst (sorted_gstates t)

let view_of t group =
  Option.map (fun gs -> gs.view) (Hashtbl.find_opt t.gstates group)

let stats_view_changes t = t.view_changes

let incarnation t = t.incarnation

let stats_resets t = t.resets

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)

let note_logged gs (entry : Wire.entry) =
  Hashtbl.replace gs.seen_uids entry.uid ();
  Hashtbl.remove gs.held entry.uid

let deliver t gs (entry : Wire.entry) =
  if not (Hashtbl.mem gs.delivered_uids entry.uid) then begin
    Hashtbl.replace gs.delivered_uids entry.uid ();
    t.callbacks.on_message ~group:gs.group ~sender:entry.uid.origin entry.payload
  end

let deliver_contiguous t gs =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt gs.log (gs.delivered_up_to + 1) with
    | Some entry ->
        gs.delivered_up_to <- gs.delivered_up_to + 1;
        deliver t gs entry
    | None -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* Sequencing (this daemon is the coordinator of the current view)     *)

(* Give an unseen entry the next slot, log it, ship it to every member
   in one [Data] frame and deliver what became contiguous.  Only called
   while [Stable] with this daemon as coordinator: the one place
   sequence numbers are minted. *)
let sequence t gs (entry : Wire.entry) =
  if not (Hashtbl.mem gs.seen_uids entry.uid) then begin
    let seq = gs.next_seq in
    gs.next_seq <- seq + 1;
    Hashtbl.replace gs.log seq entry;
    note_logged gs entry;
    send_others t gs.view.View.members
      (Wire.Data { group = gs.group; vid = gs.view.View.id; seq; entry });
    deliver_contiguous t gs
  end

let submit t gs (entry : Wire.entry) =
  match gs.mstate with
  | Stable ->
      let coord = View.coordinator gs.view in
      if coord = t.me then sequence t gs entry
      else send_reliable t coord (Wire.Open_send { group = gs.group; entry; ttl = 0 })
  | Proposing _ | Flushed _ ->
      (* Held; the install path resubmits [gs.held]. *)
      ()

(* Keep an unseen entry in [gs.held] until it is seen in a log, and
   submit it.  A coordinator sequences it at once, which drops it again;
   any other member keeps it, and resubmits it at every install, so a
   sequencer that crashes before sequencing it cannot lose it. *)
let hold t gs (entry : Wire.entry) =
  if not (Hashtbl.mem gs.seen_uids entry.Wire.uid) then begin
    Hashtbl.replace gs.held entry.Wire.uid entry;
    submit t gs entry
  end

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

let eligible t gs p =
  p = t.me
  || ((not (Fd.suspected t.fd p)) && Fd.is_monitored t.fd p && not (List.mem p gs.left))

let candidates_for t gs =
  let base = gs.view.View.members @ advertisers t gs.group @ [ t.me ] in
  base |> List.sort_uniq Int.compare |> List.filter (eligible t gs)

let rec all_eligible t gs = function
  | [] -> true
  | p :: rest -> eligible t gs p && all_eligible t gs rest

let rec eligible_advertisers_in t gs members = function
  | [] -> true
  | (p, peer) :: rest ->
      ((not (Hashtbl.mem peer.index gs.group)) || List.mem p members || not (eligible t gs p))
      && eligible_advertisers_in t gs members rest

(* [candidates_for t gs = gs.view.members] without building the
   candidate list: the nothing-changed case of every sweep.  Both lists
   are sorted and duplicate-free, so they are equal iff this daemon is a
   member, every member is eligible, and every eligible advertiser is a
   member. *)
let candidates_are_members t gs =
  let members = gs.view.View.members in
  List.mem t.me members && all_eligible t gs members
  && eligible_advertisers_in t gs members (sorted_advertisers t)

let flush_info_of gs =
  {
    Wire.fi_member = true;
    fi_prev_vid = gs.view.View.id;
    fi_log = Det_tbl.sorted_bindings ~compare:Int.compare gs.log;
  }

let merge_sync_sets replies =
  (* Group the repliers' logs by previous view id and take unions. *)
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (info : Wire.flush_info) ->
      if info.fi_member then begin
        let key = info.fi_prev_vid in
        let log =
          match Hashtbl.find_opt tbl key with
          | Some l -> l
          | None ->
              let l = Hashtbl.create 16 in
              Hashtbl.replace tbl key l;
              l
        in
        List.iter (fun (seq, entry) -> Hashtbl.replace log seq entry) info.fi_log
      end)
    replies;
  Det_tbl.fold_sorted ~compare:View.Id.compare
    (fun vid log acc ->
      (vid, Det_tbl.sorted_bindings ~compare:Int.compare log) :: acc)
    tbl []

let rec apply_install t gs ~view_id ~members ~sync =
  (* Risky-pattern choice point (paper §4): a member may crash at the
     instant it would install a new view — after flushing, before the
     installation takes effect locally. *)
  if Engine.choice t.engine ~site:"install" ~proc:t.me then ()
  else begin
  (* Virtual synchrony: deliver the synchronization set of our previous
     view (messages some surviving member had that we may not have
     delivered) before switching views. *)
  (match List.assoc_opt gs.view.View.id sync with
  | Some entries ->
      List.iter
        (fun (seq, entry) ->
          note_logged gs entry;
          if seq > gs.delivered_up_to then begin
            gs.delivered_up_to <- seq;
            deliver t gs entry
          end)
        entries
  | None -> ());
  (* Entries other previous views logged were delivered there, not
     here: note them seen, undelivered, so that neither this daemon as
     the new sequencer nor a resubmission re-sequences them into the new
     view — their deliverers would drop the copy as a duplicate and the
     new view's delivery sets would differ. *)
  List.iter
    (fun (vid, entries) ->
      if not (View.Id.equal vid gs.view.View.id) then
        List.iter (fun (_, entry) -> note_logged gs entry) entries)
    sync;
  (* [sync] has one key per previous view of the members, so more than
     one key means they did not all move together. *)
  let view =
    View.make ~id:view_id ~group:gs.group ~members ~merged:(List.length sync > 1)
  in
  gs.view <- view;
  Hashtbl.reset gs.log;
  gs.delivered_up_to <- 0;
  gs.next_seq <- 1;
  gs.mstate <- Stable;
  gs.max_epoch <- Int.max gs.max_epoch view_id.View.Id.epoch;
  gs.left <- [];
  Hashtbl.remove t.vid_mismatch gs.group;
  t.view_changes <- t.view_changes + 1;
  List.iter (fun m -> monitor_peer t m) members;
  t.callbacks.on_view view;
  (* Resubmit every held entry in uid order: each origin's entries in
     the order it sent them. *)
  List.iter (submit t gs) (Det_tbl.sorted_values ~compare:Wire.compare_uid gs.held)
  end

and finalize_proposal t gs ~epoch ~candidates ~replies =
  let infos = Det_tbl.sorted_values ~compare:Int.compare replies in
  let members =
    List.filter
      (fun c ->
        match Hashtbl.find_opt replies c with
        | Some info -> info.Wire.fi_member
        | None -> false)
      candidates
  in
  let view_id = { View.Id.epoch; coord = t.me } in
  let sync = merge_sync_sets infos in
  send_others t members (Wire.Install { group = gs.group; view_id; members; sync });
  apply_install t gs ~view_id ~members ~sync

and check_finalize t gs =
  match gs.mstate with
  | Proposing { epoch; candidates; replies; _ } ->
      if List.for_all (fun c -> Hashtbl.mem replies c) candidates then
        finalize_proposal t gs ~epoch ~candidates ~replies
  | Stable | Flushed _ -> ()

and propose t gs =
  let candidates = candidates_for t gs in
  let epoch = Int.max gs.max_epoch gs.view.View.id.View.Id.epoch + 1 in
  gs.max_epoch <- epoch;
  let replies = Hashtbl.create 8 in
  Hashtbl.replace replies t.me (flush_info_of gs);
  gs.mstate <- Proposing { epoch; candidates; replies; started = now t };
  send_others t candidates (Wire.Propose { group = gs.group; epoch });
  check_finalize t gs

(* A co-member has been advertising a different view id for longer
   than the advert-refresh lag: a merge was missed. *)
let stale_vid_mismatch t gs =
  match Hashtbl.find_opt t.vid_mismatch gs.group with
  | Some peers when Hashtbl.length peers > 0 ->
      let threshold = 2.5 *. t.hb_interval in
      let cands = candidates_for t gs in
      Det_tbl.exists_sorted ~compare:Int.compare
        (fun q since -> List.mem q cands && now t -. since > threshold)
        peers
  | Some _ | None -> false

let membership_needed t gs =
  (not (candidates_are_members t gs)) || stale_vid_mismatch t gs

(* Who should coordinate the next view change: the lowest candidate that
   is actually advertising membership (a candidate that is only a stale
   entry in our view has no daemon state for the group and will never
   propose).  Two components merging after a heal both have a coordinator;
   without a single agreed proposer they duel with ever-increasing epochs
   — the higher-ranked one must yield. *)
let should_coordinate t gs =
  let advertising = advertisers t gs.group in
  let eligible =
    List.filter (fun p -> p = t.me || List.mem p advertising) (candidates_for t gs)
  in
  match eligible with leader :: _ -> leader = t.me | [] -> true

let membership_stable t group =
  match Hashtbl.find_opt t.gstates group with
  | None -> true
  | Some gs -> ( match gs.mstate with Stable -> not (membership_needed t gs) | _ -> false)

(* A stable group found clean stays clean while nothing
   [membership_needed] reads has moved: its view is physically the same,
   the daemon has noted no change, and no vid mismatch is pending (a
   pending one turns stale with time alone). *)
let still_clean t gs =
  gs.clean_at = t.changes && gs.clean_view == gs.view
  &&
  match Hashtbl.find_opt t.vid_mismatch gs.group with
  | Some peers -> Hashtbl.length peers = 0
  | None -> true

let sweep_group t gs =
  match gs.mstate with
  | Stable ->
      if still_clean t gs then ()
      else if membership_needed t gs then begin
        if should_coordinate t gs then propose t gs
        (* otherwise wait for the legitimate coordinator's proposal *)
      end
      else begin
        gs.clean_at <- t.changes;
        gs.clean_view <- gs.view
      end
  | Proposing { started; candidates; _ } ->
      let current = candidates_for t gs in
      let timed_out = now t -. started > t.config.Config.flush_timeout in
      if
        timed_out
        || List.exists (fun c -> Fd.suspected t.fd c) candidates
        || List.exists (fun c -> not (List.mem c candidates)) current
      then
        if should_coordinate t gs then
          (* Re-propose with a fresh epoch and the current perception. *)
          propose t gs
        else
          (* A lower-ranked coordinator exists (e.g. discovered during a
             merge): yield to it rather than duelling epochs. *)
          gs.mstate <- Stable
  | Flushed { coord; since; _ } ->
      if Fd.suspected t.fd coord || now t -. since > 2. *. t.config.Config.flush_timeout
      then begin
        gs.mstate <- Stable;
        (* Next sweep will re-run the protocol with a fresh perception. *)
        if membership_needed t gs then
          match candidates_for t gs with
          | leader :: _ when leader = t.me -> propose t gs
          | _ -> ()
      end

(* ------------------------------------------------------------------ *)
(* Self-stabilization: audit, reset, corruption injection              *)

(* One group's verdict: first failing check wins, and the later checks
   do not run.  Pure, and allocation-free when sound — shared by the
   periodic audit, the on-receive audit and the external oracle. *)
let group_verdict t gs =
  let v = Audit.check_view ~me:t.me gs.view in
  if not (Audit.is_sound v) then v
  else
    let v =
      Audit.check_counters ~view:gs.view ~max_epoch:gs.max_epoch ~next_seq:gs.next_seq
    in
    if not (Audit.is_sound v) then v
    else
      Audit.check_clock ~group:gs.group ~delivered_up_to:gs.delivered_up_to
        ~log_holds_horizon:(gs.delivered_up_to = 0 || Hashtbl.mem gs.log gs.delivered_up_to)

let audit_ok t =
  List.for_all (fun (_, gs) -> Audit.is_sound (group_verdict t gs)) (sorted_gstates t)

(* Local reset-and-rejoin: throw away the group's poisoned view state
   and fall back to a fresh singleton, exactly as a joining process
   does.  Peers see the advert's view id diverge, the vid-mismatch
   machinery forces a merge, and the install path resubmits the held
   entries — so recovery rides the ordinary membership protocol rather
   than a parallel one.  The epoch high-water mark is kept (clamped
   non-negative) so the merge's proposal outbids both lives. *)
let reset_group t gs =
  gs.view <- View.singleton ~group:gs.group t.me;
  Hashtbl.reset gs.log;
  gs.delivered_up_to <- 0;
  gs.next_seq <- 1;
  gs.mstate <- Stable;
  gs.max_epoch <- Int.max 0 gs.max_epoch;
  gs.left <- [];
  Hashtbl.remove t.vid_mismatch gs.group;
  t.view_changes <- t.view_changes + 1;
  t.resets <- t.resets + 1
  (* No [on_view] callback: the transient singleton is not a membership
     fact the application should act on (it would look like a
     partition); the app hears about the merged view that follows. *)

let audit_group t gs =
  if not !Audit.enabled then true
  else
    match group_verdict t gs with
    | Audit.Sound -> true
    | (Audit.Bad_view _ | Audit.Bad_counter _ | Audit.Bad_clock _) as v ->
        t.callbacks.on_reset ~group:gs.group v;
        reset_group t gs;
        false

let audit_all t = List.iter (fun (_, gs) -> ignore (audit_group t gs)) (sorted_gstates t)

(* Chaos delivery point: each heartbeat tick asks the engine's corruptor
   whether an armed corruption should land here.  Always consulted in
   the same order, so a replayed schedule corrupts the same state at the
   same tick.  The damage deliberately bypasses the smart constructors
   and mutates records directly — that is what "arbitrary transient
   state corruption" means. *)
let corruption_tick t =
  let first_gstate () =
    match sorted_gstates t with (_, gs) :: _ -> Some gs | [] -> None
  in
  if Engine.corruption t.engine ~site:"corrupt.view" ~proc:t.me then
    (match first_gstate () with
    | Some gs ->
        let v = gs.view in
        let others = List.filter (fun p -> p <> t.me) v.View.members in
        if others <> [] then gs.view <- { v with View.members = others }
        else
          gs.view <-
            {
              v with
              View.id = { v.View.id with View.Id.epoch = v.View.id.View.Id.epoch + 3 };
            }
    | None -> ());
  if Engine.corruption t.engine ~site:"corrupt.epoch" ~proc:t.me then
    (match first_gstate () with
    | Some gs -> gs.max_epoch <- -1
    | None -> ());
  if Engine.corruption t.engine ~site:"corrupt.clock" ~proc:t.me then
    (match first_gstate () with
    | Some gs -> gs.delivered_up_to <- gs.delivered_up_to + 7
    | None -> ());
  if Engine.corruption t.engine ~site:"corrupt.conn" ~proc:t.me then
    ignore (Transport.corrupt_conn t.transport t.me)

(* ------------------------------------------------------------------ *)
(* Heartbeats                                                          *)

(* Attribution slot for the per-server heartbeat sweep — together with
   the framework's service tick it makes up nearly all of the engine's
   [Internal] firings at bench scale. *)
let prof_heartbeat = Haf_sim.Profile.slot "gcs.heartbeat"

let prof_adverts = Haf_sim.Profile.slot "gcs.adverts"

let prof_sweep = Haf_sim.Profile.slot "gcs.sweep"

let clear_mismatch t group sender =
  match Hashtbl.find_opt t.vid_mismatch group with
  | Some peers -> Hashtbl.remove peers sender
  | None -> ()

let note_mismatch t group sender =
  let peers =
    match Hashtbl.find_opt t.vid_mismatch group with
    | Some peers -> peers
    | None ->
        let peers = Hashtbl.create 4 in
        Hashtbl.replace t.vid_mismatch group peers;
        peers
  in
  if not (Hashtbl.mem peers sender) then Hashtbl.replace peers sender (now t)

let peer_of t sender =
  match Hashtbl.find_opt t.adverts sender with
  | Some peer -> peer
  | None ->
      let peer =
        {
          index = Hashtbl.create 16;
          last_ping = None;
          last_pong = None;
          applied = None;
        }
      in
      Hashtbl.replace t.adverts sender peer;
      t.sorted_advertisers <- None;
      peer

(* O(1) when neither the peer's advert list nor this daemon's advert
   set changed since the last call; otherwise O(my groups + adverts):
   index the adverts, then one lookup per group.  The skip is sound
   because the indexing and the loop are idempotent: their result
   depends only on the peer's index, this daemon's groups and view ids,
   [gs.left] and the group's [vid_mismatch] entries, and apart from a
   Leave (which drops [applied]) each of those changes only together
   with a view id or the group list. *)
let record_adverts_body t sender peer advs cache =
  (* Hearing adverts implies direct reachability: monitor the peer so the
     failure detector can vouch for it as a membership candidate. *)
  monitor_peer t sender;
  heard_from t sender;
  match peer.applied with
  | Some (applied, against) when applied == advs && against == cache -> ()
  | Some _ | None ->
      note_change t;
      peer.applied <- Some (advs, cache);
      let index = peer.index in
      Hashtbl.clear index;
      List.iter
        (fun a ->
          if not (Hashtbl.mem index a.Wire.adv_group) then
            Hashtbl.replace index a.Wire.adv_group a.Wire.adv_vid)
        advs;
      if sender <> t.me then
        List.iter
          (fun (g, gs) ->
            match Hashtbl.find_opt index g with
            | Some vid ->
                (* A peer we saw leave is advertising membership again: it
                   rejoined; stop excluding it from candidate sets. *)
                if List.mem sender gs.left then
                  gs.left <- List.filter (fun p -> p <> sender) gs.left;
                if View.Id.equal vid gs.view.View.id then clear_mismatch t g sender
                else note_mismatch t g sender
            | None -> clear_mismatch t g sender)
          cache.ac_groups

let record_adverts t sender peer advs cache =
  if Haf_sim.Profile.hit prof_adverts then begin
    let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
    record_adverts_body t sender peer advs cache;
    Haf_sim.Profile.leave prof_adverts ~w0 ~c0
  end
  else record_adverts_body t sender peer advs cache

let sweep_groups_body t = List.iter (fun (_, gs) -> sweep_group t gs) (sorted_gstates t)

let sweep_groups t =
  if Haf_sim.Profile.hit prof_sweep then begin
    let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
    sweep_groups_body t;
    Haf_sim.Profile.leave prof_sweep ~w0 ~c0
  end
  else sweep_groups_body t

let disarm_deadline t =
  Option.iter (fun (_, timer) -> Engine.cancel timer) t.deadline_timer;
  t.deadline_timer <- None

(* Suspect every peer whose silence reached the timeout, run the
   membership sweep, and re-arm the suspicion timer: the one routine of
   the heartbeat tick and of the suspicion timer, so a view change starts
   at the deadline rather than at the next tick. *)
let rec suspect_overdue t =
  let suspects, next = Fd.sweep t.fd ~now:(now t) in
  if suspects <> [] then note_change t;
  sweep_groups t;
  if t.is_alive then arm_deadline t next

(* The timer is armed only for a peer already silent for longer than one
   of this daemon's heartbeat intervals.  A live server peer never is (it
   answers every Ping), and a client's slower probes would otherwise arm
   a timer that its next Pong makes moot on almost every tick.  A timer
   whose deadline has since moved (the peer was heard) is cancelled at
   the next tick, if that tick comes first. *)
and arm_deadline t next =
  let wanted = next -. t.config.Config.suspect_timeout < now t -. t.hb_interval in
  match t.deadline_timer with
  | Some (at, _) when wanted && Float.equal at next -> ()
  | Some _ | None ->
      disarm_deadline t;
      if wanted then
        t.deadline_timer <-
          Some
            ( next,
              Engine.schedule_at t.engine ~time:next (fun () ->
                  t.deadline_timer <- None;
                  if t.is_alive then suspect_overdue t) )

let heartbeat_tick_body t =
  if t.is_alive then begin
    (* Audit before consulting the corruptor: damage injected this tick
       is detected no earlier than the next one, so reconvergence time
       is bounded below by a heartbeat period — never zero. *)
    audit_all t;
    corruption_tick t;
    (match Fd.monitored t.fd with
    | [] -> ()
    | peers ->
        let ping = Lazy.force (current_adverts t).ac_ping in
        List.iter
          (fun p -> Transport.send_unreliable t.transport ~src:t.me ~dst:p ping)
          peers);
    suspect_overdue t
  end

let heartbeat_tick t =
  if Haf_sim.Profile.hit prof_heartbeat then begin
    let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
    heartbeat_tick_body t;
    Haf_sim.Profile.leave prof_heartbeat ~w0 ~c0
  end
  else heartbeat_tick_body t

(* ------------------------------------------------------------------ *)
(* Incoming protocol messages                                          *)

let handle_propose t ~src ~group ~epoch =
  match Hashtbl.find_opt t.gstates group with
  | None ->
      (* Not a member (stale advert or restart): tell the proposer so it
         can exclude us from the view. *)
      send_reliable t src
        (Wire.Flush_reply
           {
             group;
             epoch;
             info = { fi_member = false; fi_prev_vid = View.Id.initial t.me; fi_log = [] };
           })
  | Some gs ->
      if epoch <= gs.max_epoch then
        send_reliable t src (Wire.Nack { group; epoch_hint = gs.max_epoch })
      else if Fd.suspected t.fd src then ()
      else begin
        gs.max_epoch <- epoch;
        gs.mstate <- Flushed { epoch; coord = src; since = now t };
        send_reliable t src
          (Wire.Flush_reply { group; epoch; info = flush_info_of gs })
      end

let handle_flush_reply t ~src ~group ~epoch ~info =
  match Hashtbl.find_opt t.gstates group with
  | None -> ()
  | Some gs -> (
      match gs.mstate with
      | Proposing { epoch = e; candidates; replies; _ }
        when e = epoch && List.mem src candidates ->
          Hashtbl.replace replies src info;
          check_finalize t gs
      | Proposing _ | Stable | Flushed _ -> ())

let handle_nack t ~group ~epoch_hint =
  match Hashtbl.find_opt t.gstates group with
  | None -> ()
  | Some gs -> (
      match gs.mstate with
      | Proposing { epoch; _ } when epoch_hint >= epoch ->
          gs.max_epoch <- Int.max gs.max_epoch epoch_hint;
          if should_coordinate t gs then propose t gs
          else
            (* Yield: the peer that outbid us outranks us too; it will
               drive the view change. *)
            gs.mstate <- Stable
      | Proposing _ | Stable | Flushed _ ->
          gs.max_epoch <- Int.max gs.max_epoch epoch_hint)

let handle_install t ~group ~view_id ~members ~sync =
  match Hashtbl.find_opt t.gstates group with
  | None -> ()
  | Some gs -> (
      match gs.mstate with
      | Flushed { epoch; _ } when epoch = view_id.View.Id.epoch && List.mem t.me members ->
          apply_install t gs ~view_id ~members ~sync
      | Flushed _ | Stable | Proposing _ -> ())

let handle_data t ~group ~vid ~seq ~entry =
  match Hashtbl.find_opt t.gstates group with
  | None -> ()
  | Some gs ->
      (* On-receive audit: catch a corrupted delivery clock before it
         can stall or skip this view's total order.  [audit_group]
         resets the group on failure, after which [vid] no longer
         matches and the data is ignored like any other stale frame. *)
      if audit_group t gs && View.Id.equal vid gs.view.View.id then begin
        if not (Hashtbl.mem gs.log seq) then Hashtbl.replace gs.log seq entry;
        note_logged gs entry;
        match gs.mstate with Stable -> deliver_contiguous t gs | _ -> ()
      end

(* A member holds the entry; a non-member with hops left passes it on to
   the members it believes in. *)
let handle_open_send t ~group ~entry ~ttl =
  match Hashtbl.find_opt t.gstates group with
  | Some gs -> hold t gs entry
  | None ->
      if ttl > 0 then begin
        let targets = advertisers t group in
        let targets = List.filter (fun p -> p <> t.me && reachable t p) targets in
        List.iter
          (fun p -> send_reliable t p (Wire.Open_send { group; entry; ttl = ttl - 1 }))
          targets
      end

let handle_leave t ~src:who ~group =
  match Hashtbl.find_opt t.gstates group with
  | None -> ()
  | Some gs ->
      note_change t;
      if not (List.mem who gs.left) then gs.left <- who :: gs.left;
      (match Hashtbl.find_opt t.adverts who with
      | Some peer ->
          Hashtbl.remove peer.index group;
          (* The index and [gs.left] changed behind [record_adverts]'s
             back: the leaver's next advert must be recorded in full,
             even a byte-identical stale copy delivered late. *)
          peer.applied <- None
      | None -> ());
      sweep_group t gs

(* Decode + validate an inbound payload.  A payload that does not decode
   (corrupted bytes) or decodes to a structurally invalid message (a
   corrupted peer marshalled its poisoned state) is dropped and counted
   — it must never reach a handler. *)
let checked_decode t ?pos payload =
  let decoded = try Some (Wire.decode ?pos payload) with _ -> None in
  match decoded with
  | None ->
      Transport.note_rejected t.transport;
      None
  | Some msg -> (
      match Wire.validate msg with
      | Ok () -> Some msg
      | Error _ ->
          Transport.note_rejected t.transport;
          None)

let on_reliable t ~src payload =
  if t.is_alive then begin
    heard_from t src;
    match checked_decode t payload with
    | None -> ()
    | Some (Wire.Propose { group; epoch }) -> handle_propose t ~src ~group ~epoch
    | Some (Wire.Flush_reply { group; epoch; info }) ->
        handle_flush_reply t ~src ~group ~epoch ~info
    | Some (Wire.Nack { group; epoch_hint }) -> handle_nack t ~group ~epoch_hint
    | Some (Wire.Install { group; view_id; members; sync }) ->
        handle_install t ~group ~view_id ~members ~sync
    | Some (Wire.Data { group; vid; seq; entry }) -> handle_data t ~group ~vid ~seq ~entry
    | Some (Wire.Open_send { group; entry; ttl }) ->
        handle_open_send t ~group ~entry ~ttl
    | Some (Wire.Leave { group }) -> handle_leave t ~src ~group
    | Some (Wire.P2p { payload }) -> t.callbacks.on_p2p ~sender:src payload
    | Some (Wire.Ping _ | Wire.Pong _) -> ()
  end

let rec adverts_equal a b =
  match (a, b) with
  | x :: a, y :: b ->
      String.equal x.Wire.adv_group y.Wire.adv_group
      && View.Id.equal x.Wire.adv_vid y.Wire.adv_vid
      && adverts_equal a b
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

(* A freshly decoded list equal to the peer's other kind of advert is
   replaced by that list, so the peer's Pings and Pongs share one list
   and [record_adverts] sees no change between them. *)
let shared fresh other =
  match other with
  | Some (_, advs) when adverts_equal fresh advs -> advs
  | Some _ | None -> fresh

let on_ping t src peer adverts =
  let cache = current_adverts t in
  record_adverts t src peer adverts cache;
  Transport.send_unreliable t.transport ~src:t.me ~dst:src (Lazy.force cache.ac_pong)

let on_pong t src peer adverts = record_adverts t src peer adverts (current_adverts t)

(* A datagram byte-equal to the peer's last Ping or Pong carries the
   same, already validated adverts, so it skips [checked_decode].  This
   is the only memo on the heartbeat path: the transport hands the
   datagram over whole, its payload starting at [pos]. *)
let on_raw t ~src dgram pos =
  if t.is_alive then
    match Hashtbl.find_opt t.adverts src with
    | Some ({ last_ping = Some (bytes, adverts); _ } as p) when String.equal dgram bytes ->
        on_ping t src p adverts
    | Some ({ last_pong = Some (bytes, adverts); _ } as p) when String.equal dgram bytes ->
        on_pong t src p adverts
    | Some _ | None -> (
        match checked_decode t ~pos dgram with
        | None -> ()
        | Some (Wire.Ping { adverts }) ->
            let p = peer_of t src in
            let adverts = shared adverts p.last_pong in
            p.last_ping <- Some (dgram, adverts);
            on_ping t src p adverts
        | Some (Wire.Pong { adverts }) ->
            let p = peer_of t src in
            let adverts = shared adverts p.last_ping in
            p.last_pong <- Some (dgram, adverts);
            on_pong t src p adverts
        (* Reliable-only traffic never legitimately arrives on the raw
           datagram path; name every constructor (deep-lint R6) so a new
           message kind must decide its transport explicitly. *)
        | Some
            (Wire.Propose _ | Wire.Flush_reply _ | Wire.Nack _ | Wire.Install _
            | Wire.Data _ | Wire.Open_send _ | Wire.Leave _ | Wire.P2p _) -> ())

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)

let start t =
  t.is_alive <- true;
  Transport.attach t.transport t.me
    ~on_raw:(fun ~src dgram pos -> on_raw t ~src dgram pos)
    (fun ~src payload -> on_reliable t ~src payload);
  List.iter (fun c -> monitor_peer t c) t.contacts;
  let first = Haf_sim.Rng.float t.rng t.hb_interval in
  t.hb_timer <-
    Some (Engine.every t.engine ~first ~period:t.hb_interval (fun () -> heartbeat_tick t))

let stop t =
  t.is_alive <- false;
  Option.iter Engine.cancel t.hb_timer;
  t.hb_timer <- None;
  disarm_deadline t

let join t group =
  if not (Hashtbl.mem t.gstates group) then begin
    let view = View.singleton ~group t.me in
    let gs =
      {
        group;
        view;
        log = Hashtbl.create 32;
        delivered_up_to = 0;
        next_seq = 1;
        mstate = Stable;
        max_epoch = 0;
        seen_uids = Hashtbl.create 64;
        delivered_uids = Hashtbl.create 64;
        held = Hashtbl.create 16;
        left = [];
        clean_at = -1;
        clean_view = view;
      }
    in
    Hashtbl.replace t.gstates group gs;
    t.sorted_gstates <- None;
    t.view_changes <- t.view_changes + 1;
    t.callbacks.on_view gs.view;
    (* Announce immediately rather than waiting a heartbeat period. *)
    heartbeat_tick t
  end

let leave t group =
  match Hashtbl.find_opt t.gstates group with
  | None -> ()
  | Some gs ->
      send_others t gs.view.View.members (Wire.Leave { group });
      Hashtbl.remove t.gstates group;
      t.sorted_gstates <- None

let multicast t group payload =
  match Hashtbl.find_opt t.gstates group with
  | None -> invalid_arg (Printf.sprintf "Daemon.multicast: %d not in %s" t.me group)
  | Some gs ->
      hold t gs { Wire.uid = fresh_uid t; payload }

(* Relay hops allowed for an open-group send routed through non-member
   daemons. *)
let open_send_ttl = 2

let open_send t group payload =
  match Hashtbl.find_opt t.gstates group with
  | Some _ -> multicast t group payload
  | None ->
      let entry = { Wire.uid = fresh_uid t; payload } in
      let believed = believed_members t group in
      let targets = List.filter (fun p -> reachable t p && p <> t.me) believed in
      let targets = if targets = [] then List.filter (reachable t) t.contacts else targets in
      List.iter
        (fun p ->
          send_reliable t p
            (Wire.Open_send { group; entry; ttl = open_send_ttl }))
        targets

let p2p t ~dst payload = send_reliable t dst (Wire.P2p { payload })
