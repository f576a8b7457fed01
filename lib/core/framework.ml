(** The highly-available service framework (the paper's contribution),
    instantiated over a concrete {!Service_intf.SERVICE}.

    See DESIGN.md for the architecture.  In brief: servers join the
    service group and one content group per unit they replicate.  Client
    start-session requests arrive totally ordered in the content group;
    every member applies the same deterministic selection over the same
    replicated unit database, so primary and backups elect themselves
    consistently with no extra messages.  The primary streams responses
    point-to-point and periodically propagates session context to the
    content group; backups additionally see every client request in the
    session group.  When every member of a new view moved together from
    one previous view, they reassign immediately (virtual synchrony
    guarantees identical databases); when the view is [merged] (a join,
    heal, restart or GCS reset), members first run a state exchange,
    then rebalance. *)

module Engine = Haf_sim.Engine
module Rng = Haf_sim.Rng
module Det_tbl = Haf_sim.Det_tbl
module Gcs = Haf_gcs.Gcs
module View = Haf_gcs.View
module Daemon = Haf_gcs.Daemon

(* Test-only fault reintroduction (PR 3's bug 6): when set, End_session
   physically deletes the unit-db record instead of tombstoning it, so a
   replica that crashed holding the session and recovers from stable
   storage can resurrect it through the state exchange.  Module-level so
   every functor instantiation shares the switch; the model-checker tests
   flip it to prove the explorer finds the resulting zombie session. *)
let test_end_session_deletes = ref false

module Make (S : Service_intf.SERVICE) = struct
  (* No message names its sender, unit or group: the GCS delivery
     already says who sent it and in which group. *)
  type group_msg =
    | List_units
    | Start_session of { session_id : string }
    | Propagate of { snaps : (string * S.context Unit_db.snapshot) list }
    | End_session of { session_id : string }
    | State_digest of { vid : View.Id.t; digest : Unit_db.digest list }
    | State_delta of { vid : View.Id.t; records : S.context Unit_db.session list }
    | Request of { session_id : string; seq : int; body : S.request }
  [@@haf.protocol]

  type p2p_msg =
    | Unit_list of string list
    | Granted of { session_id : string } [@haf.ack]
        (* The session-establishment ack: deep-lint R7 proves every
           emission is dominated by a stable-store sync (or the no-store
           arm), so a crash after the client hears Granted cannot forget
           the session. *)
    | Responses of { items : (string * S.response) list }
    | Handoff of {
        session_id : string;
        ctx : S.context;
        applied : Seqset.t;
        at : float;
      }
  [@@haf.protocol]

  (* Group/p2p messages carry the service functor's abstract types, so a
     hand-written codec is impossible here; the bytes stay inside the
     simulated network and never feed a comparison, hence the Marshal
     allowances below. *)
  let encode_group (m : group_msg) = Marshal.to_string m [] (* haf-lint: allow R2 — simulated wire *)
  let decode_group (s : string) : group_msg = Marshal.from_string s 0 (* haf-lint: allow R2 — simulated wire *)
  let encode_p2p (m : p2p_msg) = Marshal.to_string m [] (* haf-lint: allow R2 — simulated wire *)
  let decode_p2p (s : string) : p2p_msg = Marshal.from_string s 0 (* haf-lint: allow R2 — simulated wire *)

  (* What goes to stable storage (lib/store): one WAL record per
     unit-database op that changed the database, and a snapshot blob
     holding every unit's export.  Same Marshal rationale as the wire
     codecs: the bytes stay inside the simulated disk and never feed a
     comparison. *)
  let encode_op (op : S.context Unit_db.op) = Marshal.to_string op [] (* haf-lint: allow R2 — simulated disk *)
  let decode_op (s : string) : S.context Unit_db.op = Marshal.from_string s 0 (* haf-lint: allow R2 — simulated disk *)
  type snapshot_blob = (string * S.context Unit_db.session list) list

  let encode_snapshot (s : snapshot_blob) = Marshal.to_string s [] (* haf-lint: allow R2 — simulated disk *)
  let decode_snapshot (s : string) : snapshot_blob = Marshal.from_string s 0 (* haf-lint: allow R2 — simulated disk *)

  (* ================================================================ *)

  module Server = struct
    module String_map = Map.Make (String)

    type role = Events.role = Primary | Backup

    type slocal = {
      sl_session : string;
      sl_unit : string;
      sl_client : int;
      mutable sl_role : role option;
      mutable sl_ctx : S.context;
      mutable sl_base_at : float;  (* when sl_ctx's progress was last authoritative *)
      mutable sl_applied : Seqset.t;  (* request seqs [sl_ctx] incorporates *)
      mutable sl_reqs : (int * S.request) list;
          (* Retained for replay, newest first: only seqs above the
             newest snapshot or handoff this server has folded
             ([rebase]). *)
      mutable sl_ending : bool;
    }

    (* The state exchange runs in two totally ordered rounds.  Round 1:
       every member multicasts a digest of its records (tiny).  Round 2:
       once a member holds all digests it deterministically computes, for
       every session any member is missing or holds stale, which single
       member owns the freshest copy — and only that member ships the
       record.  Everyone multicasts a delta (possibly empty) so
       completion is detectable; total order guarantees every digest
       precedes every delta.  A recovered member that replayed its
       stable store therefore receives only what it actually lost since
       its last durable write, not the whole database. *)
    type exchange = {
      ex_vid : View.Id.t;
      ex_expected : int list;
      mutable ex_digests : (int * Unit_db.digest list) list;
      mutable ex_plan : Unit_db.plan_entry list option;
          (* [None] until every expected digest is in; then the plan our
             delta was cut from, which completion also reads. *)
      mutable ex_deltas : (int * S.context Unit_db.session list) list;
      mutable ex_deferred : (int * group_msg) list;  (* newest first *)
    }

    type ustate = {
      u_id : string;
      mutable u_db : S.context Unit_db.t;
          (* Replaced wholesale only by the audit reset-and-rejoin path;
             every protocol change is one op through [mutate]. *)
      mutable u_view : View.t option;
      mutable u_exchange : exchange option;
      mutable u_recovering : bool;
          (* Rebuilt from stable storage but not yet reconciled with the
             group: suppress self-assignment until the first exchange
             completes (or a grace period proves us alone), else a
             restarted node would duel the live primary. *)
      mutable u_loads : Selection.loads option;
          (* Member load table for placing new sessions: valid only
             between full selections — any path that runs {!reassign}
             or replaces the database drops it, and the next start
             rebuilds it from the live sessions. *)
    }

    type t = {
      proc : int;
      gcs : Gcs.t;
      engine : Engine.t;
      policy : Policy.t;
      events : Events.sink;
      catalog : string list;
      units : (string, ustate) Hashtbl.t;
      sessions : (string, slocal) Hashtbl.t;
      mutable primaries : slocal String_map.t;
          (* The local primaries by session id, walked in that order by
             the service and propagation ticks.  Only [become_primary]
             adds and [drop_primary] removes. *)
      mutable taken_over : slocal String_map.t;
          (* Crash takeovers not yet served, by session id: one
             zero-delay event serves them all ([serve_taken_over]). *)
      outbox : (int, (string * S.response) list) Hashtbl.t;
          (* Per client, the responses not yet sent, newest first:
             filled by a tick or a Hybrid re-send, emptied by
             [flush_outbox]. *)
      group_refs : (string, int) Hashtbl.t;
          (* How many local sessions hold a role in each session group
             (always 0 or 1 for per-session groups).  The daemon joins a
             group on 0 -> 1 and leaves on 1 -> 0; only [sl_role]
             None<->Some edges move the count. *)
      store : Haf_store.Store.t option;
      mutable timers : Engine.timer list;
          (* Every periodic timer, which [stop] cancels: the store's sync
             and snapshot, the audit, the service tick (each tick, one
             frame per client holding all its sessions' responses) and
             the propagation tick (each period, one frame per content
             unit holding every local primary's snapshot). *)
      mutable svc_view : View.t option;
      mutable running : bool;
    }

    let proc t = t.proc

    let now t = Engine.now t.engine

    let emit t ev = Events.emit t.events ~now:(now t) ev

    let multicast_content t unit_id msg =
      Gcs.multicast t.gcs t.proc (Naming.content_group unit_id) (encode_group msg)

    let send_p2p t dst msg = Gcs.p2p t.gcs t.proc ~dst (encode_p2p msg)

    (* The one path by which the protocol changes a unit database: apply
       [op], and log it iff it changed the database, so the WAL replays
       to the same state.  Returns whether it changed. *)
    let mutate t us op =
      let changed = Unit_db.apply us.u_db op in
      (match t.store with
      | Some st when changed -> Haf_store.Store.log st (encode_op op)
      | Some _ | None -> ());
      changed

    (* -------------------------------------------------------------- *)
    (* Session-group membership                                        *)

    (* Refcounted session-group membership.  A per-session group holds
       one session, so its count is 0 or 1; a shard group carries a
       whole shard, so the daemon joins when the first local role in it
       appears and leaves when the last one goes.  Callers invoke these
       only on [sl_role] None<->Some edges — a Backup<->Primary
       transition keeps the ref it holds — so the daemon is a member of
       exactly the groups of the sessions this server holds a role in. *)
    let[@hot] acquire_group t session_id =
      let g = Naming.session_group ~shards:t.policy.Policy.session_shards session_id in
      let n = Option.value (Hashtbl.find_opt t.group_refs g) ~default:0 in
      Hashtbl.replace t.group_refs g (n + 1);
      if n = 0 then Gcs.join t.gcs t.proc g

    let[@hot] release_group t session_id =
      let g = Naming.session_group ~shards:t.policy.Policy.session_shards session_id in
      match Hashtbl.find_opt t.group_refs g with
      | Some n when n > 1 -> Hashtbl.replace t.group_refs g (n - 1)
      | Some _ ->
          Hashtbl.remove t.group_refs g;
          Gcs.leave t.gcs t.proc g
      | None -> ()

    (* -------------------------------------------------------------- *)
    (* Session-local state                                             *)

    (* Rebase on a fresh context (a propagated snapshot or a handoff)
       that incorporates [applied] as of [at]: replay the retained client
       requests newer than it, oldest first, and drop the rest.  No later
       rebase replays a seq at or below [applied]: the primary propagates
       only context it has already delivered, so every later snapshot or
       handoff reaches at least as high. *)
    let rebase sl ~ctx ~applied ~at =
      let upto = Seqset.max applied in
      let newer = List.filter (fun (seq, _) -> seq > upto) sl.sl_reqs in
      sl.sl_reqs <- newer;
      sl.sl_ctx <-
        List.fold_left
          (fun ctx (_, body) -> S.apply_request ctx body)
          ctx
          (List.sort (fun (a, _) (b, _) -> Int.compare a b) newer);
      sl.sl_base_at <- at;
      sl.sl_applied <- Seqset.union applied sl.sl_applied

    let fresh_local (sess : S.context Unit_db.session) =
      let ctx, base_at, applied =
        match sess.Unit_db.propagated with
        | Some snap -> (snap.Unit_db.snap_ctx, snap.Unit_db.snap_at, snap.Unit_db.snap_applied)
        | None ->
            ( S.initial_context ~unit_id:sess.Unit_db.unit_id,
              sess.Unit_db.started_at,
              Seqset.empty )
      in
      {
        sl_session = sess.Unit_db.session_id;
        sl_unit = sess.Unit_db.unit_id;
        sl_client = sess.Unit_db.client;
        sl_role = None;
        sl_ctx = ctx;
        sl_base_at = base_at;
        sl_applied = applied;
        sl_reqs = [];
        sl_ending = false;
      }

    let local_of t sess =
      match Hashtbl.find_opt t.sessions sess.Unit_db.session_id with
      | Some sl -> sl
      | None ->
          let sl = fresh_local sess in
          Hashtbl.replace t.sessions sess.Unit_db.session_id sl;
          sl

    (* -------------------------------------------------------------- *)
    (* Primary duties                                                  *)

    (* Finer attribution inside the engine's [Internal] blob: the
       service tick is the highest-frequency timer in the system (one
       firing per server and tick period, each walking every local
       primary), so it gets its own inclusive profile slot. *)
    let prof_tick = Haf_sim.Profile.slot "framework.tick"

    let response_sent t sl r =
      emit t
        (Events.Response_sent
           {
             server = t.proc;
             session_id = sl.sl_session;
             id = S.response_id r;
             critical = S.response_critical r;
           })

    (* [responses] of [sl] join its client's next frame. *)
    let queue_responses t sl responses =
      if responses <> [] then begin
        let items = Option.value (Hashtbl.find_opt t.outbox sl.sl_client) ~default:[] in
        Hashtbl.replace t.outbox sl.sl_client
          (List.fold_left
             (fun items r ->
               response_sent t sl r;
               (sl.sl_session, r) :: items)
             items responses)
      end

    (* One session's share of a service tick: its next responses join
       its client's frame, and a finished session asks to be ended. *)
    let tick_session t sl =
      let responses, ctx = S.tick sl.sl_ctx in
      sl.sl_ctx <- ctx;
      queue_responses t sl responses;
      if S.session_finished ctx && not sl.sl_ending then begin
        sl.sl_ending <- true;
        multicast_content t sl.sl_unit (End_session { session_id = sl.sl_session })
      end

    (* One [Responses] frame per client, clients ascending. *)
    let flush_outbox t =
      Det_tbl.iter_sorted ~compare:Int.compare
        (fun client items -> send_p2p t client (Responses { items = List.rev items }))
        t.outbox;
      Hashtbl.clear t.outbox

    (* The server's service tick: every local primary in session-id
       order, then one frame per client — O(clients) frames per server
       and tick, whatever the session count. *)
    let service_tick_body t =
      if t.running then begin
        String_map.iter (fun _ sl -> tick_session t sl) t.primaries;
        flush_outbox t
      end

    let service_tick t =
      if Haf_sim.Profile.hit prof_tick then begin
        let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
        service_tick_body t;
        Haf_sim.Profile.leave prof_tick ~w0 ~c0
      end
      else service_tick_body t

    let snapshot_of t sl =
      emit t
        (Events.Propagated
           { server = t.proc; session_id = sl.sl_session; applied = sl.sl_applied });
      { Unit_db.snap_ctx = sl.sl_ctx; snap_applied = sl.sl_applied; snap_at = now t }

    (* One propagation frame: the snapshots of [sls], local primaries of
       [unit_id] in session-id order, travel in a single [Propagate]
       multicast to the content group — O(units) messages per server and
       period, whatever the session count. *)
    let do_propagate t unit_id sls =
      if
        t.running
        (* Risky-pattern choice point (paper §4): the explorer may crash
           the primary at the instant it would propagate session context. *)
        && not (Engine.choice t.engine ~site:"propagate" ~proc:t.proc)
      then
        multicast_content t unit_id
          (Propagate
             { snaps = List.map (fun sl -> (sl.sl_session, snapshot_of t sl)) sls })

    (* The server's propagation tick: one frame per content unit holding
       every local primary's snapshot.  (Deliberately not [@hot]: this is
       the once-per-period sweep whose cost is already amortized; the
       per-snapshot receive path [apply_propagate] is the hot one.) *)
    let propagate_units t =
      let by_unit =
        String_map.fold
          (fun _ sl by_unit ->
            String_map.update sl.sl_unit
              (fun sls -> Some (sl :: Option.value sls ~default:[]))
              by_unit)
          t.primaries String_map.empty
      in
      (* [sls] was consed in session-id order, so [List.rev] restores
         it — receivers apply deterministically. *)
      String_map.iter (fun u sls -> do_propagate t u (List.rev sls)) by_unit

    (* Takeover position adjustment: the new primary only knows the
       position as of [sl_base_at].  Under [Resume] it simply continues
       from there, re-sending anything the dead primary may already have
       delivered.  Under [Skip_ahead]/[Hybrid] it fast-forwards through
       the uncertainty window; [Hybrid] re-sends the critical responses
       from that window. *)
    let adjust_position_for_takeover t sl =
      match t.policy.Policy.takeover with
      | Policy.Resume -> ()
      | Policy.Skip_ahead | Policy.Hybrid ->
          let elapsed = now t -. sl.sl_base_at in
          let ticks = int_of_float (elapsed /. S.tick_period) in
          let ticks = Int.min ticks 100_000 in
          let skipped = ref [] in
          for _ = 1 to ticks do
            let responses, ctx = S.tick sl.sl_ctx in
            sl.sl_ctx <- ctx;
            skipped := List.rev_append responses !skipped
          done;
          sl.sl_base_at <- now t;
          if t.policy.Policy.takeover = Policy.Hybrid then
            queue_responses t sl (List.filter S.response_critical (List.rev !skipped))

    (* A crash successor serves what it took over at once, not at its
       next service tick: one tick of every such session still primary,
       in session-id order, and one frame per client, after the view
       change that handed them over has returned — so the updates its
       install resubmitted are applied first. *)
    let serve_taken_over t =
      let taken = t.taken_over in
      t.taken_over <- String_map.empty;
      if t.running then begin
        String_map.iter (fun _ sl -> if sl.sl_role = Some Primary then tick_session t sl) taken;
        flush_outbox t
      end

    let serve_soon t sl =
      if String_map.is_empty t.taken_over then
        ignore (Engine.schedule t.engine ~delay:0. (fun () -> serve_taken_over t));
      t.taken_over <- String_map.add sl.sl_session sl t.taken_over

    (* -------------------------------------------------------------- *)
    (* Role transitions                                                *)

    let become_primary t us (sess : S.context Unit_db.session) ~prev_primary =
      let sl = local_of t sess in
      let had_live = sl.sl_role <> None in
      let kind =
        match prev_primary with
        | None -> Events.Initial
        | Some p when p = t.proc -> Events.Initial  (* already primary: no-op *)
        | Some p ->
            let members =
              match us.u_view with Some v -> v.View.members | None -> [ t.proc ]
            in
            if List.mem p members then Events.Rebalance else Events.Crash
      in
      if sl.sl_role <> Some Primary then begin
        if kind <> Events.Initial then begin
          adjust_position_for_takeover t sl;
          emit t
            (Events.Takeover
               {
                 server = t.proc;
                 session_id = sl.sl_session;
                 kind;
                 from_primary = prev_primary;
                 had_live_context = had_live;
               })
        end;
        sl.sl_role <- Some Primary;
        t.primaries <- String_map.add sl.sl_session sl t.primaries;
        if not had_live then acquire_group t sl.sl_session;
        emit t
          (Events.Role_assumed { server = t.proc; session_id = sl.sl_session; role = Primary });
        (* A rebalance successor waits for its tick: the old primary's
           [Handoff] with the exact context is on its way. *)
        if kind = Events.Crash then serve_soon t sl
      end

    (* Stepping down from primary.  When another server takes over
       (load-balancing migration), hand it the exact context so the
       client sees no duplicates or gaps — whether this server stays on
       as a backup or leaves the session group. *)
    let drop_primary t sl ~new_primary =
      t.primaries <- String_map.remove sl.sl_session t.primaries;
      emit t
        (Events.Role_dropped { server = t.proc; session_id = sl.sl_session; role = Primary });
      match new_primary with
      | Some p when p <> t.proc ->
          send_p2p t p
            (Handoff
               {
                 session_id = sl.sl_session;
                 ctx = sl.sl_ctx;
                 applied = sl.sl_applied;
                 at = now t;
               })
      | Some _ | None -> ()

    let become_backup t (sess : S.context Unit_db.session) =
      let sl = local_of t sess in
      if sl.sl_role <> Some Backup then begin
        let had_role = sl.sl_role <> None in
        (match sl.sl_role with
        | Some Primary -> drop_primary t sl ~new_primary:sess.Unit_db.primary
        | Some Backup | None -> ());
        sl.sl_role <- Some Backup;
        if not had_role then acquire_group t sl.sl_session;
        emit t
          (Events.Role_assumed { server = t.proc; session_id = sl.sl_session; role = Backup })
      end

    let relinquish t sl ~new_primary =
      let held = sl.sl_role <> None in
      (match sl.sl_role with
      | Some Primary -> drop_primary t sl ~new_primary
      | Some Backup ->
          emit t
            (Events.Role_dropped
               { server = t.proc; session_id = sl.sl_session; role = Backup })
      | None -> ());
      sl.sl_role <- None;
      if held then release_group t sl.sl_session;
      Hashtbl.remove t.sessions sl.sl_session

    let apply_assignment t us (a : Selection.assignment) =
      match Unit_db.find us.u_db a.Selection.a_session_id with
      | None -> ()
      | Some sess ->
          let prev_primary = sess.Unit_db.primary in
          ignore
            (mutate t us
               (Assign
                  {
                    unit_id = us.u_id;
                    session_id = a.Selection.a_session_id;
                    primary = a.Selection.a_primary;
                    backups = a.Selection.a_backups;
                  }));
          let target =
            if a.Selection.a_primary = t.proc then Some Primary
            else if List.mem t.proc a.Selection.a_backups then Some Backup
            else None
          in
          let current =
            Option.bind (Hashtbl.find_opt t.sessions a.Selection.a_session_id)
              (fun sl -> sl.sl_role)
          in
          (match (current, target) with
          | _, Some Primary -> become_primary t us sess ~prev_primary
          | _, Some Backup -> become_backup t sess
          | Some _, None -> (
              match Hashtbl.find_opt t.sessions a.Selection.a_session_id with
              | Some sl -> relinquish t sl ~new_primary:(Some a.Selection.a_primary)
              | None -> ())
          | None, None -> ())

    let prev_of (s : S.context Unit_db.session) =
      {
        Selection.p_session_id = s.Unit_db.session_id;
        p_primary = s.Unit_db.primary;
        p_backups = s.Unit_db.backups;
      }

    let reassign t us ~rebalance =
      match us.u_view with
      | _ when us.u_recovering -> ()
      | None -> ()
      | Some view ->
          (* Full selection supersedes the load table; the next start
             rebuilds it from the result. *)
          us.u_loads <- None;
          let assignments =
            Selection.assign ~n_backups:t.policy.Policy.n_backups
              ~members:view.View.members ~rebalance
              (List.map prev_of (Unit_db.live_sessions us.u_db))
          in
          List.iter (apply_assignment t us) assignments

    (* Every [Start_session] places its brand-new session here, against
       a {!Selection.loads} table kept across starts instead of
       re-running the full selection — the same primary and backups
       {!Selection.assign} would pick, in O(members) instead of
       O(sessions), and no settled session's roles move.  The table, the
       tie-break and the view are identical at every member, so the
       paper's no-extra-round agreement is preserved; any view change
       falls back to the full selection, which drops the table, and the
       next start rebuilds it. *)
    let[@hot] assign_new_session t us session_id =
      match us.u_view with
      | _ when us.u_recovering -> ()
      | None -> ()
      | Some view -> (
          let loads =
            match us.u_loads with
            | Some l -> l
            | None ->
                let l =
                  Selection.loads_of ~members:view.View.members
                    (List.map prev_of (Unit_db.live_sessions us.u_db))
                in
                us.u_loads <- Some l;
                l
          in
          match Selection.place loads ~n_backups:t.policy.Policy.n_backups session_id with
          | Some a -> apply_assignment t us a
          | None -> ())

    (* -------------------------------------------------------------- *)
    (* Self-stabilization: unit-db audit and reset-and-rejoin          *)

    (* Pure per-unit self-check: structural invariants plus the
       incrementally kept checksum, which only [Unit_db.apply] moves, so
       a full recompute that disagrees convicts out-of-band damage (bit
       flip, stray write) without consulting any peer.  Consulted by the
       convergence oracle on hardened and unhardened builds alike, so it
       must not depend on [Audit.enabled]. *)
    let unit_verdict us =
      match Unit_db.sound us.u_db with
      | Error detail -> Some detail
      | Ok () ->
          if Unit_db.checksum us.u_db <> Unit_db.cached_checksum us.u_db then
            Some "unit-db checksum diverged from last sanctioned mutation"
          else None

    let units_sound t =
      Det_tbl.fold_sorted ~compare:String.compare
        (fun _ us acc -> acc && unit_verdict us = None)
        t.units true

    (* A unit rebuilt from stable storage or reset by the audit holds
       back from self-assignment ([u_recovering]) until a state exchange
       reconciles it with surviving members.  If after a couple of
       suspicion timeouts no exchange has completed or is under way, we
       are genuinely alone (whole-group crash): proceed with what we
       have. *)
    let recover_alone_after_grace t units =
      let grace = 2. *. (Gcs.config t.gcs).Haf_gcs.Config.suspect_timeout in
      ignore
        (Engine.schedule t.engine ~delay:grace (fun () ->
             if t.running then
               List.iter
                 (fun us ->
                   if us.u_recovering && us.u_exchange = None then begin
                     us.u_recovering <- false;
                     reassign t us ~rebalance:false
                   end)
                 units))

    (* Reset-and-rejoin for a convicted unit database: relinquish every
       local role, fall back to an empty replica, and leave+rejoin the
       content group — the resulting view change triggers the ordinary
       digest/delta state exchange, which restores our copy from the
       surviving members exactly like a store-less restart would.
       [u_recovering] suppresses self-assignment meanwhile, with the
       same alone-after-a-grace fallback as store recovery. *)
    let reset_unit t us =
      emit t (Events.Server_reset { server = t.proc; subsystem = "unit-db:" ^ us.u_id });
      let locals =
        Det_tbl.fold_sorted ~compare:String.compare
          (fun _ sl acc -> if sl.sl_unit = us.u_id then sl :: acc else acc)
          t.sessions []
      in
      List.iter (fun sl -> relinquish t sl ~new_primary:None) locals;
      us.u_db <- Unit_db.create ~unit_id:us.u_id ();
      us.u_view <- None;
      us.u_exchange <- None;
      us.u_recovering <- true;
      us.u_loads <- None;
      Gcs.leave t.gcs t.proc (Naming.content_group us.u_id);
      Gcs.join t.gcs t.proc (Naming.content_group us.u_id);
      recover_alone_after_grace t [ us ]

    let audit_units t =
      if !Haf_gcs.Audit.enabled then
        Det_tbl.iter_sorted ~compare:String.compare
          (fun _ us ->
            match unit_verdict us with
            | None -> ()
            | Some detail ->
                emit t
                  (Events.Audit_failed
                     { server = t.proc; subsystem = "unit-db:" ^ us.u_id; detail });
                reset_unit t us)
          t.units

    (* Instrumented corruption point for the unit database (chaos target
       [Record]): resurrect the first tombstone, or strip the first live
       session's assignment — either way an out-of-band flip no
       sanctioned path produces.  Consulted after the audit in the same
       tick, so detection lands one period later, never instantly. *)
    let corrupt_record_tick t =
      if Engine.corruption t.engine ~site:"corrupt.record" ~proc:t.proc then
        match Det_tbl.sorted_keys ~compare:String.compare t.units with
        | [] -> ()
        | u :: _ -> (
            let us = Hashtbl.find t.units u in
            match Unit_db.sessions us.u_db with
            | [] -> ()
            | s :: _ ->
                if s.Unit_db.ended then s.Unit_db.ended <- false
                else begin
                  s.Unit_db.primary <- None;
                  s.Unit_db.backups <- []
                end)

    let audit_tick t =
      if t.running then begin
        audit_units t;
        corrupt_record_tick t
      end

    (* -------------------------------------------------------------- *)
    (* Content-group message processing                                *)

    let grant_if_primary t us session_id =
      match Unit_db.find us.u_db session_id with
      | Some sess when sess.Unit_db.primary = Some t.proc && not us.u_recovering ->
          let client = sess.Unit_db.client in
          let grant () =
            emit t (Events.Session_granted { client; session_id; primary = t.proc });
            send_p2p t client (Granted { session_id })
          in
          (* Durable-before-ack: with a store attached, the session (and
             our claim to primaryship) must hit the platter before the
             client hears Granted — else a crash right after the ack
             could forget a session the client believes exists.  A failed
             fsync simply drops the grant; the client's grant timer
             re-asks and we retry. *)
          (match t.store with
          | Some st ->
              Haf_store.Store.sync st (fun ~ok -> if ok && t.running then grant ())
          | None -> grant ())
      | Some _ | None -> ()

    (* One propagated snapshot landing in the unit database — applied
       for each element of a [Propagate] frame. *)
    let[@hot] apply_propagate t us ~sender session_id snap =
      ignore (mutate t us (Ctx { unit_id = us.u_id; session_id; snap }));
      (* A backup folds the propagation into its live context: take
         the primary's context and replay the requests it has seen
         that the snapshot predates. *)
      match Hashtbl.find_opt t.sessions session_id with
      | Some { sl_role = Some Backup; _ } when sender = t.proc -> ()
      | Some ({ sl_role = Some Backup; _ } as sl) ->
          rebase sl ~ctx:snap.Unit_db.snap_ctx ~applied:snap.Unit_db.snap_applied
            ~at:snap.Unit_db.snap_at
      | Some _ | None -> ()

    let process_content_msg t us ~sender msg =
      match msg with
      | Start_session { session_id } ->
          if
            mutate t us
              (Add { unit_id = us.u_id; session_id; client = sender; started_at = now t })
          then assign_new_session t us session_id;
          grant_if_primary t us session_id
      | Propagate { snaps } ->
          List.iter
            (fun (session_id, snap) -> apply_propagate t us ~sender session_id snap)
            snaps
      | End_session { session_id } ->
          (match Hashtbl.find_opt t.sessions session_id with
          | Some sl ->
              if sl.sl_role = Some Primary then
                emit t (Events.Session_ended { session_id });
              relinquish t sl ~new_primary:None
          | None -> ());
          (* Keep the incremental load table truthful: the ended
             session's roles stop counting before the tombstone strips
             the assignment. *)
          (match us.u_loads with
          | Some loads when Unit_db.live us.u_db session_id -> (
              match Unit_db.find us.u_db session_id with
              | Some sess -> Selection.unload loads (prev_of sess)
              | None -> ())
          | Some _ | None -> ());
          ignore (mutate t us (End { unit_id = us.u_id; session_id }));
          if !test_end_session_deletes then Unit_db.remove_session us.u_db session_id
      | State_digest _ | State_delta _ -> ()  (* handled by the exchange machinery *)
      | List_units | Request _ -> ()

    (* Assignment fields travel in the digests, not in the deltas: once
       every digest is in, each member installs the winning digest's
       primary/backups locally, so records that differ only in
       assignment never need to ship.  This keeps the [prevs] that
       {!reassign} feeds to the deterministic selection identical at
       every member. *)
    let reconcile_assignments t us plan =
      List.iter
        (fun { Unit_db.pl_session_id = session_id; pl_best = d; _ } ->
          if d.Unit_db.d_primary >= 0 then
            ignore
              (mutate t us
                 (Assign
                    {
                      unit_id = us.u_id;
                      session_id;
                      primary = d.Unit_db.d_primary;
                      backups = d.Unit_db.d_backups;
                    })))
        plan

    let exchange_complete t us ex plan =
      (* Our own delta holds copies of records we still have. *)
      let deltas =
        List.filter (fun (sender, _) -> sender <> t.proc) ex.ex_deltas
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.concat_map snd
      in
      ignore (mutate t us (Merge { unit_id = us.u_id; records = deltas }));
      reconcile_assignments t us plan;
      us.u_exchange <- None;
      us.u_recovering <- false;
      (* A merged-in tombstone ends the session here too: a
         partition-side primary that never saw the End multicast must
         not keep serving a session the other side already closed. *)
      List.iter
        (fun (sess : S.context Unit_db.session) ->
          if sess.Unit_db.ended then
            match Hashtbl.find_opt t.sessions sess.Unit_db.session_id with
            | Some sl -> relinquish t sl ~new_primary:None
            | None -> ())
        (Unit_db.sessions us.u_db);
      reassign t us ~rebalance:true;
      (* Replay messages that arrived during the exchange, in their
         totally ordered delivery order. *)
      List.iter
        (fun (sender, msg) -> process_content_msg t us ~sender msg)
        (List.rev ex.ex_deferred)

    (* Which of my records must I ship?  {!Unit_db.exchange_plan} names,
       for every session in any digest, the preferred copy, the lowest
       member holding content as fresh (assignment fields are reconciled
       from the digests, so they don't force a ship) and whether some
       member is missing the session or holds strictly older content.
       Every member computes it from the same digest set, so exactly one
       member ships each needed record and nothing else moves. *)
    let send_delta t us ex =
      if ex.ex_plan = None then begin
        let plan = Unit_db.exchange_plan ~members:ex.ex_expected ex.ex_digests in
        ex.ex_plan <- Some plan;
        let records = Unit_db.delta us.u_db ~me:t.proc plan in
        let msg = State_delta { vid = ex.ex_vid; records } in
        emit t
          (Events.Exchange_sent
             {
               server = t.proc;
               group = us.u_id;
               digest = false;
               records = List.length records;
               bytes = String.length (encode_group msg);
             });
        multicast_content t us.u_id msg
      end

    let start_exchange t us view ~carried =
      (* Risky-pattern choice point (paper §4): a member may crash right
         as the state exchange for a new view begins, before its digest
         reaches anyone. *)
      if Engine.choice t.engine ~site:"exchange" ~proc:t.proc then ()
      else
      let ex =
        {
          ex_vid = view.View.id;
          ex_expected = view.View.members;
          ex_digests = [];
          ex_plan = None;
          ex_deltas = [];
          ex_deferred = carried;
        }
      in
      us.u_exchange <- Some ex;
      let digest = List.map Unit_db.digest_of_session (Unit_db.sessions us.u_db) in
      let msg = State_digest { vid = view.View.id; digest } in
      emit t
        (Events.Exchange_sent
           {
             server = t.proc;
             group = us.u_id;
             digest = true;
             records = List.length digest;
             bytes = String.length (encode_group msg);
           });
      multicast_content t us.u_id msg

    let on_content_view t us view =
      us.u_view <- Some view;
      emit t
        (Events.View_noted
           { server = t.proc; group = view.View.group; members = view.View.members });
      let carried = match us.u_exchange with Some ex -> ex.ex_deferred | None -> [] in
      if (not view.View.merged) && us.u_exchange = None then
        (* Virtual synchrony: every member moved together from one view,
           so all hold the same database and recompute the same
           assignment with no extra round.  [merged] is the GCS's fact,
           the same at every member, so they all take the same branch. *)
        reassign t us ~rebalance:false
      else start_exchange t us view ~carried

    let on_content_msg t us ~sender msg =
      match us.u_exchange with
      | Some ex -> (
          match msg with
          | State_digest { vid; digest } when View.Id.equal vid ex.ex_vid ->
              if not (List.mem_assoc sender ex.ex_digests) then begin
                ex.ex_digests <- (sender, digest) :: ex.ex_digests;
                if
                  List.for_all
                    (fun m -> List.mem_assoc m ex.ex_digests)
                    ex.ex_expected
                then
                  (* Total order: our delta will be delivered after every
                     digest at every member, so it is safe to send now. *)
                  send_delta t us ex
              end
          | State_delta { vid; records } when View.Id.equal vid ex.ex_vid ->
              if not (List.mem_assoc sender ex.ex_deltas) then begin
                ex.ex_deltas <- (sender, records) :: ex.ex_deltas;
                match ex.ex_plan with
                | Some plan
                  when List.for_all
                         (fun m -> List.mem_assoc m ex.ex_deltas)
                         ex.ex_expected ->
                    exchange_complete t us ex plan
                | Some _ | None -> ()
              end
          | State_digest _ | State_delta _ ->
              (* From an exchange of an earlier view: dropped. *)
              ()
          | ( List_units | Start_session _ | Propagate _ | End_session _
            | Request _ ) as other ->
              ex.ex_deferred <- (sender, other) :: ex.ex_deferred)
      | None -> process_content_msg t us ~sender msg

    (* -------------------------------------------------------------- *)
    (* Session-group and service-group messages                        *)

    let on_request t ~session_id ~seq ~body =
      match Hashtbl.find_opt t.sessions session_id with
      | Some sl when sl.sl_role <> None ->
          if not (Seqset.mem seq sl.sl_applied) then begin
            sl.sl_applied <- Seqset.add seq sl.sl_applied;
            sl.sl_reqs <- (seq, body) :: sl.sl_reqs;
            sl.sl_ctx <- S.apply_request sl.sl_ctx body;
            let role = match sl.sl_role with Some r -> r | None -> assert false in
            emit t (Events.Request_applied { server = t.proc; session_id; seq; role })
          end
      | Some _ | None -> ()

    let on_service_msg t ~sender msg =
      match msg with
      | List_units -> (
          (* One designated member answers: the service-view coordinator. *)
          match t.svc_view with
          | Some v when View.coordinator v = t.proc ->
              send_p2p t sender (Unit_list t.catalog)
          | Some _ | None -> ())
      | Start_session _ | Propagate _ | End_session _ | State_digest _
      | State_delta _ | Request _ ->
          ()

    (* -------------------------------------------------------------- *)
    (* GCS callbacks                                                   *)

    let on_view t view =
      if t.running then begin
        let g = view.View.group in
        if Naming.is_service_group g then t.svc_view <- Some view
        else
          match Naming.content_unit_of g with
          | Some u -> (
              match Hashtbl.find_opt t.units u with
              | Some us -> on_content_view t us view
              | None -> ())
          | None -> ()  (* session groups need no view handling *)
      end

    let on_message t ~group ~sender payload =
      if t.running then
        let msg = decode_group payload in
        if Naming.is_service_group group then on_service_msg t ~sender msg
        else
          match Naming.content_unit_of group with
          | Some u -> (
              match Hashtbl.find_opt t.units u with
              | Some us -> on_content_msg t us ~sender msg
              | None -> ())
          | None -> (
              (* Any other group is a session group.  A shard group
                 delivers every request of the shard to all its members;
                 [on_request]'s local-role filter keeps only the
                 session's primary and backups. *)
              match msg with
              | Request { session_id; seq; body } -> on_request t ~session_id ~seq ~body
              | List_units | Start_session _ | Propagate _ | End_session _
              | State_digest _ | State_delta _ ->
                  ())

    let on_p2p t ~sender:_ payload =
      if t.running then
        match decode_p2p payload with
        | Handoff { session_id; ctx; applied; at } -> (
            match Hashtbl.find_opt t.sessions session_id with
            | Some sl when sl.sl_role = Some Primary -> rebase sl ~ctx ~applied ~at
            | Some _ | None -> ())
        | Unit_list _ | Granted _ | Responses _ -> ()

    (* -------------------------------------------------------------- *)

    (* Rebuild the unit databases from a recovered snapshot + WAL: the
       snapshot is one [Merge] per unit, and the WAL is the ops that
       changed the database, in their totally ordered sequence, so
       applying them in order reproduces the database as of the last
       durable write.  Applied directly: they are already logged. *)
    let replay_recovery t (r : Haf_store.Store.recovery) =
      let replay unit_id op =
        match Hashtbl.find_opt t.units unit_id with
        | Some us -> ignore (Unit_db.apply us.u_db op)
        | None -> ()
      in
      (match r.Haf_store.Store.rec_snapshot with
      | Some blob ->
          List.iter
            (fun (unit_id, records) -> replay unit_id (Merge { unit_id; records }))
            (decode_snapshot blob)
      | None -> ());
      List.iter
        (fun payload ->
          match decode_op payload with
          | ( Add { unit_id; _ }
            | End { unit_id; _ }
            | Assign { unit_id; _ }
            | Ctx { unit_id; _ }
            | Merge { unit_id; _ } ) as op ->
              replay unit_id op)
        r.Haf_store.Store.rec_wal

    let start_store_timers t st =
      let cfg = Haf_store.Store.config st in
      let sync_tm =
        Engine.every t.engine ~period:cfg.Haf_store.Store.sync_period (fun () ->
            if
              t.running
              && Haf_store.Disk.pending_size (Haf_store.Store.wal_disk st) > 0
            then Haf_store.Store.sync st (fun ~ok:_ -> ()))
      in
      let snap_tm =
        Engine.every t.engine ~period:cfg.Haf_store.Store.snapshot_period (fun () ->
            if t.running then begin
              let blob =
                encode_snapshot
                  (Det_tbl.fold_sorted ~compare:String.compare
                     (fun u us acc -> (u, Unit_db.export us.u_db) :: acc)
                     t.units []
                  |> List.rev)
              in
              Haf_store.Store.snapshot st blob (fun ~ok:_ -> ())
            end)
      in
      t.timers <- sync_tm :: snap_tm :: t.timers

    let create ?store gcs ~proc ~policy ~units ~catalog ~events =
      (match Policy.validate policy with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("Server.create: " ^ msg));
      let t =
        {
          proc;
          gcs;
          engine = Gcs.engine gcs;
          policy;
          events;
          catalog;
          units = Hashtbl.create 4;
          sessions = Hashtbl.create 16;
          primaries = String_map.empty;
          taken_over = String_map.empty;
          outbox = Hashtbl.create 4;
          group_refs = Hashtbl.create 8;
          store;
          timers = [];
          svc_view = None;
          running = true;
        }
      in
      List.iter
        (fun u ->
          Hashtbl.replace t.units u
            {
              u_id = u;
              u_db = Unit_db.create ~unit_id:u ();
              u_view = None;
              u_exchange = None;
              u_recovering = false;
              u_loads = None;
            })
        units;
      (match store with
      | None -> ()
      | Some st ->
          let r = Haf_store.Store.recover st in
          replay_recovery t r;
          let sessions =
            Det_tbl.fold_sorted ~compare:String.compare
              (fun _ us acc -> acc + Unit_db.size us.u_db)
              t.units 0
          in
          let nontrivial =
            sessions > 0 || r.rec_wal <> [] || r.rec_torn_tail || r.rec_crc_mismatch
            || r.rec_snapshot_lost
          in
          if nontrivial then
            emit t
              (Events.Store_recovered
                 {
                   server = proc;
                   sessions;
                   wal_records = List.length r.rec_wal;
                   torn_tail = r.rec_torn_tail;
                   crc_mismatch = r.rec_crc_mismatch;
                   snapshot_lost = r.rec_snapshot_lost;
                 });
          if sessions > 0 then begin
            let units = Det_tbl.sorted_values ~compare:String.compare t.units in
            List.iter
              (fun us -> if Unit_db.size us.u_db > 0 then us.u_recovering <- true)
              units;
            recover_alone_after_grace t units
          end;
          start_store_timers t st);
      Gcs.set_app gcs proc
        {
          Daemon.on_view = (fun v -> on_view t v);
          on_message = (fun ~group ~sender payload -> on_message t ~group ~sender payload);
          on_p2p = (fun ~sender payload -> on_p2p t ~sender payload);
          (* Surface the daemon's own audit failures as events: this
             fires just before the GCS-level reset-and-rejoin, so the
             monitor and the explore spec see the conviction/reset pair. *)
          on_reset =
            (fun ~group v ->
              if t.running then begin
                emit t
                  (Events.Audit_failed
                     {
                       server = proc;
                       subsystem = "gcs:" ^ group;
                       detail = Haf_gcs.Audit.describe v;
                     });
                emit t (Events.Server_reset { server = proc; subsystem = "gcs:" ^ group })
              end);
        };
      (* Periodic unit-db self-audit, scaled to the fabric's heartbeat so
         hair-trigger experiment configs audit proportionally faster.
         The corruption point is consulted after the audit, in the same
         tick — so injected damage is always detected one period later. *)
      let audit_period = 2. *. (Gcs.config gcs).Haf_gcs.Config.heartbeat_interval in
      let audit =
        Engine.every t.engine ~first:audit_period ~period:audit_period (fun () -> audit_tick t)
      in
      (* Each server's service and propagation ticks run at its own
         phase in [0, period), taken from the daemon's already-drawn
         incarnation.  Were every server to tick on multiples of the
         period, a crash injected at a round time would always land on a
         tick; a fresh draw from the engine would instead shift every
         random stream split off after it. *)
      let every period f =
        let phase =
          period *. float_of_int (Daemon.incarnation (Gcs.daemon gcs proc) land 0xffff) /. 65536.
        in
        Engine.every t.engine ~first:phase ~period f
      in
      let service = every S.tick_period (fun () -> service_tick t) in
      let propagation = every policy.Policy.propagation_period (fun () -> propagate_units t) in
      t.timers <- audit :: service :: propagation :: t.timers;
      Gcs.join gcs proc Naming.service_group;
      List.iter (fun u -> Gcs.join gcs proc (Naming.content_group u)) units;
      t

    let stop t =
      t.running <- false;
      List.iter Engine.cancel t.timers;
      t.timers <- []

    let units t = Det_tbl.sorted_keys ~compare:String.compare t.units

    let db t u = Option.map (fun us -> us.u_db) (Hashtbl.find_opt t.units u)

    let sessions_served t =
      Det_tbl.fold_sorted ~compare:String.compare
        (fun sid sl acc ->
          match sl.sl_role with Some r -> (sid, r) :: acc | None -> acc)
        t.sessions []
      |> List.rev

    let is_primary_of t sid =
      match Hashtbl.find_opt t.sessions sid with
      | Some sl -> sl.sl_role = Some Primary
      | None -> false

    let unit_view t u =
      match Hashtbl.find_opt t.units u with
      | Some us -> Option.map (fun v -> v.View.id) us.u_view
      | None -> None

    let unit_settled t u =
      match Hashtbl.find_opt t.units u with
      | Some us -> us.u_exchange = None && not us.u_recovering
      | None -> false
  end

  (* ================================================================ *)

  module Client = struct
    type csession = {
      c_session : string;
      c_unit : string;
      mutable c_granted : bool;
      mutable c_next_seq : int;
      mutable c_received : (int * float) list;  (* response id, time; newest first *)
      mutable c_ask_timer : Engine.timer option;
      mutable c_req_timer : Engine.timer option;
      mutable c_end_timer : Engine.timer option;
      mutable c_last_response : float;
      mutable c_done : bool;
    }

    type t = {
      proc : int;
      gcs : Gcs.t;
      engine : Engine.t;
      events : Events.sink;
      rng : Rng.t;
      policy : Policy.t;
      retain_responses : bool;
          (* false: drop the per-session response list (the watchdog and
             counters still see every delivery) — at 10^5 sessions, the
             largest measured rung, the retained (id, time) cells grow by
             one per delivery, and nothing on the bench path reads them. *)
      sessions : (string, csession) Hashtbl.t;
      mutable serial : int;
      mutable on_units : (string list -> unit) option;
      mutable running : bool;
    }

    let create ?(retain_responses = true) gcs ~proc ~policy ~events =
      let engine = Gcs.engine gcs in
      let t =
        {
          proc;
          gcs;
          engine;
          events;
          rng = Engine.fork_rng engine;
          policy;
          retain_responses;
          sessions = Hashtbl.create 4;
          serial = 0;
          on_units = None;
          running = true;
        }
      in
      let on_p2p ~sender payload =
        if t.running then
          match decode_p2p payload with
          | Unit_list units -> (
              match t.on_units with
              | Some k ->
                  t.on_units <- None;
                  k units
              | None -> ())
          | Granted { session_id } -> (
              match Hashtbl.find_opt t.sessions session_id with
              | Some cs when not cs.c_granted ->
                  cs.c_granted <- true;
                  Events.emit t.events ~now:(Engine.now engine)
                    (Events.Session_granted { client = t.proc; session_id; primary = sender })
              | Some _ | None -> ())
          | Responses { items } ->
              List.iter
                (fun (session_id, body) ->
                  match Hashtbl.find_opt t.sessions session_id with
                  | Some cs when not cs.c_done ->
                      let id = S.response_id body in
                      if t.retain_responses then
                        cs.c_received <- (id, Engine.now engine) :: cs.c_received;
                      cs.c_last_response <- Engine.now engine;
                      Events.emit t.events ~now:(Engine.now engine)
                        (Events.Response_received
                           {
                             client = t.proc;
                             session_id;
                             id;
                             critical = S.response_critical body;
                             from_server = sender;
                           })
                  | Some _ | None -> ())
                items
          | Handoff _ -> ()
      in
      Gcs.set_app gcs proc { Daemon.no_callbacks with on_p2p };
      t

    let proc t = t.proc

    let now t = Engine.now t.engine

    let discover_units t k =
      t.on_units <- Some k;
      Gcs.open_send t.gcs t.proc Naming.service_group
        (encode_group List_units)

    let send_request t cs =
      if t.running && not cs.c_done then begin
        let seq = cs.c_next_seq in
        cs.c_next_seq <- seq + 1;
        let body = S.gen_request t.rng ~seq in
        Events.emit t.events ~now:(now t)
          (Events.Request_sent { client = t.proc; session_id = cs.c_session; seq });
        (* The client computes the same pure session-id -> group map as
           the servers, so routing needs no coordination. *)
        Gcs.open_send t.gcs t.proc
          (Naming.session_group ~shards:t.policy.Policy.session_shards cs.c_session)
          (encode_group (Request { session_id = cs.c_session; seq; body }))
      end

    let cancel_timers cs =
      List.iter (Option.iter Engine.cancel)
        [ cs.c_req_timer; cs.c_ask_timer; cs.c_end_timer ]

    let finish_session t cs =
      if not cs.c_done then begin
        cs.c_done <- true;
        cancel_timers cs;
        Gcs.open_send t.gcs t.proc
          (Naming.content_group cs.c_unit)
          (encode_group (End_session { session_id = cs.c_session }))
      end

    let prof_admit = Haf_sim.Profile.slot "framework.admit"

    let start_session_body t ~unit_id ~duration ~request_interval =
      let session_id = Printf.sprintf "c%03d-%d" t.proc t.serial in
      t.serial <- t.serial + 1;
      let cs =
        {
          c_session = session_id;
          c_unit = unit_id;
          c_granted = false;
          c_next_seq = 1;
          c_received = [];
          c_ask_timer = None;
          c_req_timer = None;
          c_end_timer = None;
          c_last_response = now t;
          c_done = false;
        }
      in
      Hashtbl.replace t.sessions session_id cs;
      Events.emit t.events ~now:(now t)
        (Events.Session_requested { client = t.proc; session_id; unit_id });
      let ask () =
        if t.running && not cs.c_done then
          Gcs.open_send t.gcs t.proc
            (Naming.content_group unit_id)
            (encode_group (Start_session { session_id }))
      in
      ask ();
      (* Re-ask every grant timeout until granted: covers the primary
         crashing before the grant reaches us.  Once granted, re-ask
         only after the stream has been silent for three timeouts.  The
         re-ask is idempotent while the session exists in the unit
         database (the primary simply re-grants); after a total
         content-group loss it re-creates the session, which is the
         only client-side recovery the framework needs. *)
      cs.c_ask_timer <-
        Some
          (Engine.every t.engine ~period:Policy.grant_timeout (fun () ->
               if not cs.c_granted then ask ()
               else if now t -. cs.c_last_response > 3. *. Policy.grant_timeout then begin
                 cs.c_last_response <- now t;
                 ask ()
               end));
      if request_interval > 0. then
        cs.c_req_timer <-
          Some
            (Engine.every t.engine
               ~first:(Rng.float t.rng request_interval)
               ~period:request_interval
               (fun () -> send_request t cs));
      cs.c_end_timer <-
        Some (Engine.schedule t.engine ~delay:duration (fun () -> finish_session t cs));
      session_id

    let start_session t ~unit_id ~duration ~request_interval =
      if Haf_sim.Profile.hit prof_admit then begin
        let w0 = Haf_sim.Profile.words () and c0 = Haf_sim.Profile.cpu () in
        let sid = start_session_body t ~unit_id ~duration ~request_interval in
        Haf_sim.Profile.leave prof_admit ~w0 ~c0;
        sid
      end
      else start_session_body t ~unit_id ~duration ~request_interval

    let stop t =
      t.running <- false;
      Det_tbl.iter_sorted ~compare:String.compare (fun _ cs -> cancel_timers cs) t.sessions

    let received t session_id =
      match Hashtbl.find_opt t.sessions session_id with
      | Some cs -> List.rev cs.c_received
      | None -> []

    let granted t session_id =
      match Hashtbl.find_opt t.sessions session_id with
      | Some cs -> cs.c_granted
      | None -> false

    let session_ids t = Det_tbl.sorted_keys ~compare:String.compare t.sessions
  end
end
