module Events = Haf_core.Events
module Seqset = Haf_core.Seqset
module Metrics = Haf_stats.Metrics
module Det_tbl = Haf_sim.Det_tbl
module Heap = Haf_sim.Heap
module Network = Haf_net.Network

type config = {
  dual_primary_grace : float;
  staleness_bound : float;
  ack_confirm_delay : float;
}

(* Derive the bounds the policy and GCS timing actually promise. *)
let make_config ~(policy : Haf_core.Policy.t) ~(gcs : Haf_gcs.Config.t) =
  (* The slack term covers one suspicion plus two view-change rounds:
     the longest a correct run keeps a stale belief alive.  The merge
     grace is wider: after connectivity is restored the daemons must
     first notice the divergence through heartbeat vid adverts
     (2.5 heartbeats), may burn one proposal round on a stale
     perception (one flush timeout) and recover from a flushed-out
     coordinator (two flush timeouts) before the merged view lands. *)
  let slack = gcs.suspect_timeout +. (2. *. gcs.flush_timeout) in
  let merge_grace =
    gcs.suspect_timeout +. (4. *. gcs.flush_timeout) +. (3. *. gcs.heartbeat_interval)
  in
  {
    dual_primary_grace = merge_grace;
    staleness_bound = (3. *. policy.propagation_period) +. slack;
    ack_confirm_delay = slack;
  }

type session_state = {
  ss_id : string;
  mutable ss_unit : string option;
  mutable ss_granted : float option;
  mutable ss_ended : bool;
  ss_primaries : (int, float) Hashtbl.t;  (* server -> believed-since *)
  mutable ss_dual_since : float option;
  mutable ss_dual_flagged : bool;
  mutable ss_acked : (float * Seqset.t) option;
      (* Baseline propagation for the acked-loss check: (time, exact
         applied seqs).  [None] while the baseline is invalid — before
         the first propagation, or across a dual-primary episode whose
         reconciliation legitimately discards one side's updates. *)
  mutable ss_holders : int list;
      (* Content-group members at baseline time: the candidate
         witnesses of the acked state. *)
  mutable ss_candidates : (float * Seqset.t * int list) list;
      (* Unconfirmed baselines, newest first: (time, applied seqs,
         holders).  [Propagated] fires at multicast send time, so a
         content-group view change within [ack_confirm_delay] may have
         dropped the delivery — such candidates are discarded, the rest
         promote to [ss_acked] once the window passes. *)
  mutable ss_last_activity : float;  (* staleness clock *)
  mutable ss_stale_flagged : bool;
  mutable ss_stale_armed : bool;
      (* An entry for this session sits in the staleness deadline queue;
         at most one live entry per session. *)
}

(* Staleness deadline queue entry.  [sd_la] is the activity timestamp
   the deadline was armed against: a mismatch with the session's current
   clock means newer activity superseded this entry, and the pop re-arms
   it at the live deadline instead of evaluating a stale one. *)
type stale_entry = {
  sd_deadline : float;
  sd_la : float;
  sd_ss : session_state;
}

type t = {
  net : Network.t;
  servers : int list;
  cfg : config;
  sessions : (string, session_state) Hashtbl.t;
  views : (string, int list) Hashtbl.t;
      (* "<server>/<group>" -> members, per the server's latest view *)
  by_primary : (int, (string, session_state) Hashtbl.t) Hashtbl.t;
      (* server -> sessions that currently believe it primary.  Lets a
         [Server_crashed] event touch exactly the crashed server's
         sessions instead of scanning the whole population. *)
  by_unit : (string, (string, session_state) Hashtbl.t) Hashtbl.t;
      (* content unit -> its sessions, for [View_noted] fan-out. *)
  dual_watch : (string, session_state) Hashtbl.t;
      (* Sessions invariant (a) must re-examine every pump: >= 2
         believed primaries now, or a dual episode still open.  Dual
         primaries are anomalies, so this stays near-empty at scale. *)
  stale_q : stale_entry Heap.t;
      (* Min-heap on [sd_deadline]: the pump pops exactly the sessions
         whose staleness bound may have expired, instead of asking every
         session "are you stale yet?" on every tick. *)
  mutable crash_log : (float * int) list;  (* newest first *)
  mutable violations : Metrics.violation list;  (* newest first *)
  mutable events_seen : int;
}

let record t ~now ~invariant ?session ~detail () =
  t.violations <-
    { Metrics.v_time = now; v_invariant = invariant; v_session = session; v_detail = detail }
    :: t.violations

let report = record

let violations t = List.rev t.violations

let violation_count t = List.length t.violations

let events_seen t = t.events_seen

let session t sid =
  match Hashtbl.find_opt t.sessions sid with
  | Some ss -> ss
  | None ->
      let ss =
        {
          ss_id = sid;
          ss_unit = None;
          ss_granted = None;
          ss_ended = false;
          ss_primaries = Hashtbl.create 4;
          ss_dual_since = None;
          ss_dual_flagged = false;
          ss_acked = None;
          ss_holders = [];
          ss_candidates = [];
          ss_last_activity = 0.;
          ss_stale_flagged = false;
          ss_stale_armed = false;
        }
      in
      Hashtbl.replace t.sessions sid ss;
      ss

let view_key server group = string_of_int server ^ "/" ^ group

let sub_table tbl key =
  match Hashtbl.find_opt tbl key with
  | Some sub -> sub
  | None ->
      let sub = Hashtbl.create 16 in
      Hashtbl.replace tbl key sub;
      sub

let[@hot] arm_staleness t ss =
  if not ss.ss_stale_armed then begin
    ss.ss_stale_armed <- true;
    Heap.push t.stale_q
      {
        sd_deadline = ss.ss_last_activity +. t.cfg.staleness_bound;
        sd_la = ss.ss_last_activity;
        sd_ss = ss;
      }
  end

let[@hot] activity t ss now =
  ss.ss_last_activity <- now;
  ss.ss_stale_flagged <- false;
  (* An already-armed entry re-keys itself lazily when popped (its
     [sd_la] no longer matches), so activity stays O(1) amortized and
     the queue holds at most one live entry per session. *)
  arm_staleness t ss

let crashed_within t server ~since ~until =
  List.exists (fun (at, s) -> s = server && at >= since && at <= until) t.crash_log

let live_primaries t ss =
  Det_tbl.fold_sorted ~compare:Int.compare
    (fun server since acc -> if Network.alive t.net server then (server, since) :: acc else acc)
    ss.ss_primaries []
  |> List.rev

(* Promote candidates that survived a view-change-free confirmation
   window: only then is the snapshot known to have been delivered into
   the members' unit databases (an interrupted delivery always surfaces
   as a content-group view change well inside the window). *)
let promote_candidates t ss ~now =
  let due, pending =
    List.partition
      (fun (t0, _, _) -> now -. t0 >= t.cfg.ack_confirm_delay)
      ss.ss_candidates
  in
  (match due with
  | (t0, applied, holders) :: _ ->
      (* newest confirmed candidate wins; older ones are subsumed *)
      ss.ss_acked <- Some (t0, applied);
      ss.ss_holders <- holders
  | [] -> ());
  ss.ss_candidates <- pending

(* Invariant (b): a sole primary's propagation must never lose request
   seqs that an earlier propagation already incorporated — unless every
   member that held the earlier state has crashed since (then the loss
   is the paper's permitted whole-group amnesia, measured by E14, not a
   protocol bug). *)
let check_acked_loss t ss ~now ~emitter ~applied =
  promote_candidates t ss ~now;
  (match (live_primaries t ss, ss.ss_acked) with
  | [ (sole, _) ], Some (t0, prev) when sole = emitter -> (
      match Seqset.to_list (Seqset.diff prev applied) with
      | [] -> ()
      | missing ->
          let witnesses =
            List.filter
              (fun h -> not (crashed_within t h ~since:t0 ~until:now))
              ss.ss_holders
          in
          if witnesses <> [] then
            record t ~now ~invariant:Metrics.No_acked_loss ~session:ss.ss_id
              ~detail:
                (Printf.sprintf
                   "propagation by s%d dropped acked seqs [%s] although [%s] survived \
                    since %.3f"
                   emitter
                   (String.concat "," (List.map string_of_int missing))
                   (String.concat ","
                      (List.map (fun s -> "s" ^ string_of_int s) witnesses))
                   t0)
              ())
  | _ -> ());
  match live_primaries t ss with
  | [ (sole, _) ] when sole = emitter ->
      let holders =
        Option.value
          (Hashtbl.find_opt t.views
             (view_key emitter
                (Haf_core.Naming.content_group (Option.value ss.ss_unit ~default:""))))
          ~default:[ emitter ]
      in
      ss.ss_candidates <- (now, applied, holders) :: ss.ss_candidates
  | _ ->
      (* Concurrent primaries: reconciliation may legitimately pick one
         side's snapshot; suspend the baseline until a sole primary
         re-establishes it. *)
      ss.ss_acked <- None;
      ss.ss_candidates <- []

(* Profiling slot for the per-event tap: one branch per event while the
   profiler is off. *)
let prof_event = Haf_sim.Profile.slot "monitor.event"

let prof_pump = Haf_sim.Profile.slot "monitor.pump"

let on_event t ~now (ev : Events.t) =
  t.events_seen <- t.events_seen + 1;
  match ev with
  | Session_requested { session_id; unit_id; _ } ->
      let ss = session t session_id in
      if ss.ss_unit = None then begin
        ss.ss_unit <- Some unit_id;
        Hashtbl.replace (sub_table t.by_unit unit_id) session_id ss
      end
  | Session_granted { session_id; _ } ->
      let ss = session t session_id in
      if ss.ss_granted = None then ss.ss_granted <- Some now;
      activity t ss now
  | Session_ended { session_id } ->
      let ss = session t session_id in
      ss.ss_ended <- true;
      (* A recovering server's stale store may resurrect an ended
         session through the state exchange; whatever gets propagated
         then is past the session's lifetime, so the acked-loss
         baseline is retired with the session. *)
      ss.ss_acked <- None;
      ss.ss_candidates <- []
  | Role_assumed { server; session_id; role = Primary } ->
      let ss = session t session_id in
      if not (Hashtbl.mem ss.ss_primaries server) then begin
        Hashtbl.replace ss.ss_primaries server now;
        Hashtbl.replace (sub_table t.by_primary server) session_id ss
      end;
      if Hashtbl.length ss.ss_primaries >= 2 then begin
        ss.ss_acked <- None;
        ss.ss_candidates <- [];
        (* invariant (a) must now track this session every pump until
           the dual episode resolves *)
        Hashtbl.replace t.dual_watch session_id ss
      end;
      activity t ss now
  | Role_dropped { server; session_id; role = Primary } ->
      let ss = session t session_id in
      Hashtbl.remove ss.ss_primaries server;
      (match Hashtbl.find_opt t.by_primary server with
      | Some sub -> Hashtbl.remove sub session_id
      | None -> ());
      activity t ss now
  | Server_crashed { server } ->
      t.crash_log <- (now, server) :: t.crash_log;
      (* Touch exactly the sessions that believed the crashed server
         primary — the [by_primary] index replaces the full-population
         scan this handler used to do. *)
      (match Hashtbl.find_opt t.by_primary server with
      | Some sub ->
          Det_tbl.iter_sorted ~compare:String.compare
            (fun _ ss ->
              if Hashtbl.mem ss.ss_primaries server then begin
                Hashtbl.remove ss.ss_primaries server;
                activity t ss now
              end)
            sub;
          Hashtbl.remove t.by_primary server
      | None -> ())
  | Takeover { session_id; _ } -> activity t (session t session_id) now
  | View_noted { server; group; members } ->
      Hashtbl.replace t.views (view_key server group) members;
      (* A view change excuses a propagation gap and restarts the
         staleness clock for every session on that content unit; it also
         voids unconfirmed acked-loss candidates, since the in-flight
         propagation they came from may have been dropped.  The
         [by_unit] index bounds the fan-out to the unit's own sessions. *)
      (match Haf_core.Naming.content_unit_of group with
      | Some u -> (
          match Hashtbl.find_opt t.by_unit u with
          | Some sub ->
              Det_tbl.iter_sorted ~compare:String.compare
                (fun _ ss ->
                  activity t ss now;
                  ss.ss_candidates <- [])
                sub
          | None -> ())
      | None -> ())
  | Propagated { server; session_id; applied; _ } ->
      let ss = session t session_id in
      activity t ss now;
      if not ss.ss_ended then check_acked_loss t ss ~now ~emitter:server ~applied
  | Role_assumed _ | Role_dropped _ | Server_restarted _ | Request_sent _
  | Request_applied _ | Response_sent _ | Response_received _ | Exchange_sent _
  | Store_recovered _ | Audit_failed _ | Server_reset _ ->
      ()

let create ?config ~network ~servers ~policy ~gcs ~events () =
  let cfg = match config with Some c -> c | None -> make_config ~policy ~gcs in
  let t =
    {
      net = network;
      servers = List.sort_uniq Int.compare servers;
      cfg;
      sessions = Hashtbl.create 32;
      views = Hashtbl.create 64;
      by_primary = Hashtbl.create 16;
      by_unit = Hashtbl.create 8;
      dual_watch = Hashtbl.create 8;
      stale_q =
        Heap.create ~leq:(fun a b -> a.sd_deadline <= b.sd_deadline);
      crash_log = [];
      violations = [];
      events_seen = 0;
    }
  in
  Events.subscribe events (fun ~now ev ->
      if Haf_sim.Profile.hit prof_event then begin
        let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
        on_event t ~now ev;
        Haf_sim.Profile.leave prof_event ~w0 ~c0
      end
      else on_event t ~now ev);
  t

(* Invariant (a): two live self-believed primaries violate uniqueness
   only when the GCS is {e obliged} to merge them into one view — their
   servers lie in the same partition component {e and} that component is
   a clique (all pairwise bidirectional links healthy).  Partitioned
   duals are the paper's intended behaviour, and under non-transitive
   connectivity (say 0-1 cut, both talking to 2) precise membership may
   legitimately park the two primaries in disjoint views indefinitely,
   so neither counts as a conflict. *)
let component t p =
  List.filter
    (fun s -> Network.alive t.net s && (s = p || Network.reachable t.net ~among:t.servers p s))
    t.servers

let is_clique t members =
  List.for_all
    (fun a ->
      List.for_all
        (fun b -> a = b || (Network.connected t.net a b && Network.connected t.net b a))
        members)
    members

let rec conflicting_pair t = function
  | [] -> None
  | p :: rest -> (
      match
        List.find_opt
          (fun q ->
            Network.reachable t.net ~among:t.servers p q && is_clique t (component t p))
          rest
      with
      | Some q -> Some (p, q)
      | None -> conflicting_pair t rest)

(* One session's share of a pump: [pump] proves (see below) that running
   this on its candidate set records exactly the violations the full
   scan [pump_reference] records over everyone, because on every
   non-candidate this body is a verdict-level no-op. *)
let check_session t ~now ss =
  if not ss.ss_ended then begin
    let prims = List.map fst (live_primaries t ss) in
    (* (a) unique primary per partition component *)
    (match (if List.length prims >= 2 then conflicting_pair t prims else None) with
    | Some (p, q) ->
        (match ss.ss_dual_since with
        | None -> ss.ss_dual_since <- Some now
        | Some since ->
            if (not ss.ss_dual_flagged) && now -. since >= t.cfg.dual_primary_grace
            then begin
              ss.ss_dual_flagged <- true;
              record t ~now ~invariant:Metrics.Unique_primary ~session:ss.ss_id
                ~detail:
                  (Printf.sprintf
                     "s%d and s%d both primary in one component for %.3fs" p q
                     (now -. since))
                ()
            end)
    | None ->
        ss.ss_dual_since <- None;
        ss.ss_dual_flagged <- false);
    (* (c) context staleness, suspended while no primary is up *)
    match (prims, ss.ss_granted) with
    | [], _ | _, None -> ss.ss_last_activity <- now
    | _ :: _, Some _ ->
        if
          (not ss.ss_stale_flagged)
          && now -. ss.ss_last_activity > t.cfg.staleness_bound
        then begin
          ss.ss_stale_flagged <- true;
          record t ~now ~invariant:Metrics.Staleness_bound ~session:ss.ss_id
            ~detail:
              (Printf.sprintf "no propagation for %.3fs (bound %.3fs)"
                 (now -. ss.ss_last_activity) t.cfg.staleness_bound)
            ()
        end
  end

let pump_reference t ~now =
  Det_tbl.iter_sorted ~compare:String.compare
    (fun _ ss -> check_session t ~now ss)
    t.sessions

(* The pump.  Equivalence with [pump_reference] rests on two facts:

   (1) For a session outside both indices, [check_session] is a
       verdict-level no-op at every pump.  Staleness cannot fire: a
       session enters the "primary up + granted" state only through an
       event that calls [activity] (grant, role change, takeover,
       propagation, crash fan-out), which arms a queue entry at
       [last_activity + bound]; the full scan's strict
       [now - la > bound] test is exactly the queue entry's
       [deadline < now] pop condition.  Dual-primary cannot fire: the
       conflict test needs >= 2 believed primaries, and the event that
       created the second one put the session in [dual_watch], which
       only [pump] itself vacates once the episode is fully reset.
       The remaining full-scan effect on such sessions — resetting the
       staleness clock while no primary is up — is invisible: the next
       transition into a checkable state overwrites the clock via
       [activity] before anything reads it.

       The "only through an event" premise is the stream's
       well-formedness contract (see the mli): beliefs are asserted by
       live servers and crashes always emit [Server_crashed], so a
       believed primary is alive by construction and liveness read at
       pump time cannot flip a silent session checkable on its own.

   (2) Candidates are visited in ascending session id, the same order
       the full scan uses, so coincident violations land in the ledger
       in the same order with identical timestamps and details.

   The qcheck suite (test_monitor_incr) drives both pumps over random
   event streams and asserts the ledgers are equal element-wise. *)
let pump_incremental t ~now =
  (* Pop every deadline that has expired; entries superseded by newer
     activity re-key themselves at the live deadline. *)
  let due = ref [] in
  let continue = ref true in
  while !continue do
    match Heap.peek t.stale_q with
    (* The expiry test MUST be [now -. la > bound] — the exact
       arithmetic [check_session] uses — not [la +. bound < now]: the
       two can disagree by one ulp at the boundary (float addition and
       subtraction round differently), which would defer a flag by one
       pump relative to the full scan.  [sd_deadline] only orders the
       heap, and with one shared bound that order equals la-order, so
       the drain below still stops at the first non-expired entry. *)
    | Some e when now -. e.sd_la > t.cfg.staleness_bound ->
        ignore (Heap.pop t.stale_q);
        let ss = e.sd_ss in
        if ss.ss_last_activity <> e.sd_la then
          Heap.push t.stale_q
            {
              sd_deadline = ss.ss_last_activity +. t.cfg.staleness_bound;
              sd_la = ss.ss_last_activity;
              sd_ss = ss;
            }
        else begin
          ss.ss_stale_armed <- false;
          due := ss :: !due
        end
    | Some _ | None -> continue := false
  done;
  (* Candidates = dual watch ∪ due staleness, in ascending session id. *)
  let cands = Hashtbl.create 16 in
  Det_tbl.iter_sorted ~compare:String.compare
    (fun sid ss -> Hashtbl.replace cands sid ss)
    t.dual_watch;
  List.iter (fun ss -> Hashtbl.replace cands ss.ss_id ss) !due;
  Det_tbl.iter_sorted ~compare:String.compare
    (fun _ ss -> check_session t ~now ss)
    cands;
  (* Retire dual watches whose episode fully reset (the same state the
     full scan leaves untouched sessions in). *)
  let retire =
    Det_tbl.fold_sorted ~compare:String.compare
      (fun sid ss acc ->
        match ss.ss_dual_since with
        | None when Hashtbl.length ss.ss_primaries < 2 -> sid :: acc
        | _ -> acc)
      t.dual_watch []
  in
  List.iter (Hashtbl.remove t.dual_watch) retire;
  (* Re-arm consumed entries still worth watching: a session that kept
     its primary re-enters the queue after [check_session] above (no
     activity happened, so the deadline advances only if the clock
     reset), one whose clock the []-branch reset re-enters at
     [now + bound], and a flagged or ended one stays out until a fresh
     [activity] re-arms it. *)
  List.iter
    (fun ss ->
      if (not ss.ss_stale_armed) && (not ss.ss_ended) && not ss.ss_stale_flagged
      then arm_staleness t ss)
    !due

let pump t ~now =
  if Haf_sim.Profile.hit prof_pump then begin
    let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
    pump_incremental t ~now;
    Haf_sim.Profile.leave prof_pump ~w0 ~c0
  end
  else pump_incremental t ~now

(* Sessions with two or more believed primaries, in ascending id.  Every
   such session sits in [dual_watch] (the event that added the second
   primary put it there, and only a pump with < 2 believed primaries
   retires it), so this never scans the population. *)
let multi_primary_sessions t =
  Det_tbl.fold_sorted ~compare:String.compare
    (fun sid ss acc -> if Hashtbl.length ss.ss_primaries >= 2 then sid :: acc else acc)
    t.dual_watch []
  |> List.rev
