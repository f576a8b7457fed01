(* End-to-end framework tests: sessions, fail-over, propagation, policies,
   rebalancing, replica consistency — all over the real GCS + simulated
   network stack. *)

module Engine = Haf_sim.Engine
module Gcs = Haf_gcs.Gcs
module Events = Haf_core.Events
module Policy = Haf_core.Policy
module Unit_db = Haf_core.Unit_db
module FV = Haf_core.Framework.Make (Haf_services.Vod)

let check = Alcotest.check

type world = {
  engine : Engine.t;
  gcs : Gcs.t;
  events : Events.sink;
  servers : (int * FV.Server.t) list;
  client : FV.Client.t;
}

let setup ?(n = 3) ?(seed = 11) ?(policy = Policy.default) ?(units = [ "movie:1" ]) () =
  let engine = Engine.create ~seed () in
  let gcs = Gcs.create ~num_servers:n engine in
  let events = Events.make_sink () in
  let servers =
    List.map
      (fun p -> (p, FV.Server.create gcs ~proc:p ~policy ~units ~catalog:units ~events))
      (Gcs.servers gcs)
  in
  let cproc = Gcs.add_client gcs in
  let client = FV.Client.create gcs ~proc:cproc ~policy ~events in
  { engine; gcs; events; servers; client }

let crash_server w p =
  FV.Server.stop (List.assoc p w.servers);
  Gcs.crash w.gcs p

let run w ~until = Engine.run ~until w.engine

let received_ids w sid = List.map fst (FV.Client.received w.client sid)

let count_dups ids =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun id -> Hashtbl.replace tbl id (1 + Option.value (Hashtbl.find_opt tbl id) ~default:0))
    ids;
  Hashtbl.fold (fun _ n acc -> acc + Int.max 0 (n - 1)) tbl 0

let count_gaps ids =
  match List.sort_uniq compare ids with
  | [] -> 0
  | first :: _ as sorted ->
      let last = List.nth sorted (List.length sorted - 1) in
      last - first + 1 - List.length sorted

(* [server]'s propagations of [sid] in the interval (from, until]. *)
let propagations w sid ~server ~from ~until =
  List.filter
    (fun (at, e) ->
      match e with
      | Events.Propagated { server = s; session_id; _ } ->
          session_id = sid && s = server && at > from && at <= until
      | _ -> false)
    (Events.events w.events)

let crash_takeovers w ~since =
  List.filter_map
    (fun (at, e) ->
      match e with
      | Events.Takeover { server; session_id; kind = Events.Crash; _ } when at > since ->
          Some (at, server, session_id)
      | _ -> None)
    (Events.events w.events)

(* After [since], a primary that steps down propagates the session no
   more until it is primary again.  Returns the number of step-downs, so
   a caller can insist the check was not vacuous. *)
let demoted_primaries_stay_silent w ~since =
  let tl = Events.events w.events in
  let demotions =
    List.filter_map
      (fun (at, e) ->
        match e with
        | Events.Role_dropped { server; session_id; role = Events.Primary } when at > since ->
            Some (at, server, session_id)
        | _ -> None)
      tl
  in
  List.iter
    (fun (at, server, sid) ->
      let regained =
        List.find_map
          (fun (rt, e) ->
            match e with
            | Events.Role_assumed { server = s; session_id; role = Events.Primary }
              when s = server && session_id = sid && rt > at ->
                Some rt
            | _ -> None)
          tl
      in
      let until = Option.value regained ~default:infinity in
      let after = propagations w sid ~server ~from:at ~until in
      if after <> [] then
        Alcotest.failf "server %d propagated %s %d times after stepping down" server sid
          (List.length after))
    demotions;
  List.length demotions

let primary_of w sid =
  List.find_map
    (fun (p, srv) ->
      if Gcs.alive w.gcs p && FV.Server.is_primary_of srv sid then Some p else None)
    w.servers

(* ------------------------------------------------------------------ *)

let test_session_happy_path () =
  let w = setup () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:10. ~request_interval:0. in
  run w ~until:5.;
  check Alcotest.bool "granted" true (FV.Client.granted w.client sid);
  run w ~until:10.;
  let ids = received_ids w sid in
  check Alcotest.bool "many frames" true (List.length ids > 50);
  check Alcotest.int "no duplicates" 0 (count_dups ids);
  check Alcotest.int "no gaps" 0 (count_gaps ids);
  (* Frames arrive in order. *)
  check Alcotest.bool "ordered" true (ids = List.sort compare ids)

let test_exactly_one_primary () =
  let w = setup () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:20. ~request_interval:0. in
  run w ~until:6.;
  let primaries =
    List.filter (fun (_, srv) -> FV.Server.is_primary_of srv sid) w.servers
  in
  check Alcotest.int "exactly one primary" 1 (List.length primaries)

let test_backup_count_matches_policy () =
  let policy = { Policy.default with n_backups = 2 } in
  let w = setup ~policy () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:20. ~request_interval:0. in
  run w ~until:6.;
  let backups =
    List.filter
      (fun (_, srv) ->
        List.mem_assoc sid (FV.Server.sessions_served srv)
        && List.assoc sid (FV.Server.sessions_served srv) = Events.Backup)
      w.servers
  in
  check Alcotest.int "two backups" 2 (List.length backups)

let test_unit_db_replicas_identical () =
  let w = setup () in
  run w ~until:3.;
  ignore (FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:20. ~request_interval:1.);
  ignore (FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:20. ~request_interval:1.);
  run w ~until:8.;
  let dbs =
    List.filter_map (fun (_, srv) -> FV.Server.db srv "movie:1") w.servers
  in
  check Alcotest.int "three replicas" 3 (List.length dbs);
  match dbs with
  | a :: rest ->
      (* Coordination state is identical at any instant; the propagated
         snapshots may be one in-flight propagation apart. *)
      List.iter
        (fun b ->
          check Alcotest.bool "replica assignments identical" true
            (Unit_db.equal_assignments a b))
        rest
  | [] -> Alcotest.fail "no dbs"

let test_failover_with_backup () =
  let w = setup ~policy:{ Policy.default with n_backups = 1 } () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:30. ~request_interval:0. in
  run w ~until:6.;
  let p0 = Option.get (primary_of w sid) in
  crash_server w p0;
  run w ~until:12.;
  (* A new primary exists and it is not the crashed one. *)
  (match primary_of w sid with
  | Some p1 -> check Alcotest.bool "new primary" true (p1 <> p0)
  | None -> Alcotest.fail "no primary after crash");
  (* The takeover came from a live (backup) context. *)
  let takeovers =
    List.filter_map
      (fun (_, e) ->
        match e with
        | Events.Takeover { kind = Events.Crash; had_live_context; session_id; _ }
          when session_id = sid ->
            Some had_live_context
        | _ -> None)
      (Events.events w.events)
  in
  check Alcotest.bool "crash takeover seen" true (takeovers <> []);
  check Alcotest.bool "from live backup context" true (List.hd takeovers);
  (* The client keeps receiving frames after the crash. *)
  let after_crash =
    List.filter (fun (_, at) -> at > 8.) (FV.Client.received w.client sid)
  in
  check Alcotest.bool "stream continues" true (List.length after_crash > 10)

(* Run [f primary] [delay] seconds after [sid]'s first propagation at or
   after [after]: the fault lands at a fixed offset from the propagation,
   whatever phase the server's propagation timer runs at. *)
let after_propagation w sid ~after ~delay f =
  let armed = ref true in
  Events.subscribe w.events (fun ~now ev ->
      match ev with
      | Events.Propagated { server; session_id; _ }
        when !armed && session_id = sid && now >= after ->
          armed := false;
          ignore (Engine.schedule w.engine ~delay (fun () -> f server))
      | _ -> ())

let frames_per_second =
  float_of_int Haf_services.Vod.frames_per_tick /. Haf_services.Vod.tick_period

let resume_without_backup ~delay =
  let policy = { Policy.default with n_backups = 0; takeover = Policy.Resume } in
  let w = setup ~policy () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:30. ~request_interval:0. in
  after_propagation w sid ~after:6. ~delay:(delay policy) (crash_server w);
  run w ~until:15.;
  (policy, received_ids w sid)

let test_failover_without_backup_resume_duplicates () =
  (* The [2] configuration: no backups, Resume policy.  After a crash the
     new primary rebuilds from the last propagation, so the client sees
     about (rate * time-since-propagation) duplicate frames and no gap.
     The crash comes half a period after the last propagation. *)
  let policy, ids =
    resume_without_backup ~delay:(fun p -> p.Policy.propagation_period /. 2.)
  in
  check Alcotest.bool "stream continues" true (List.length ids > 100);
  check Alcotest.bool "duplicates appear (resume)" true (count_dups ids > 0);
  (* Bounded by what can be sent within one propagation period plus one
     takeover's worth of slack. *)
  let bound = int_of_float (frames_per_second *. (policy.Policy.propagation_period +. 1.5)) in
  check Alcotest.bool "duplicates bounded" true (count_dups ids <= bound);
  check Alcotest.int "no lost frames under Resume" 0 (count_gaps ids)

let test_failover_just_after_propagation () =
  (* Crash right after a propagation has reached the other replicas
     (well under one service tick later): the snapshot the successor
     resumes from is at most one tick behind the client. *)
  let _, ids = resume_without_backup ~delay:(fun _ -> 0.02) in
  check Alcotest.bool "stream continues" true (List.length ids > 100);
  check Alcotest.bool "at most one tick of duplicates" true
    (count_dups ids <= Haf_services.Vod.frames_per_tick);
  check Alcotest.int "no lost frames under Resume" 0 (count_gaps ids)

let test_failover_skip_ahead_gaps () =
  let policy = { Policy.default with n_backups = 0; takeover = Policy.Skip_ahead } in
  let w = setup ~policy ~seed:23 () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:30. ~request_interval:0. in
  run w ~until:6.;
  let p0 = Option.get (primary_of w sid) in
  crash_server w p0;
  run w ~until:15.;
  let ids = received_ids w sid in
  check Alcotest.int "no duplicates under Skip_ahead" 0 (count_dups ids);
  check Alcotest.bool "frames were skipped" true (count_gaps ids > 0)

let test_requests_applied_at_backup () =
  let w = setup ~policy:{ Policy.default with n_backups = 1 } () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:30. ~request_interval:0.7 in
  run w ~until:10.;
  let applied_roles =
    List.filter_map
      (fun (_, e) ->
        match e with
        | Events.Request_applied { session_id; role; _ } when session_id = sid -> Some role
        | _ -> None)
      (Events.events w.events)
  in
  check Alcotest.bool "primary applies" true (List.mem Events.Primary applied_roles);
  check Alcotest.bool "backup applies too (paper: backups listen to client updates)"
    true
    (List.mem Events.Backup applied_roles)

let test_lost_update_window () =
  (* Kill the whole session group (primary + backup) right after a
     request, before the next propagation: the request must be lost —
     the exact fault pattern of the paper's risk analysis. *)
  let policy =
    { Policy.default with n_backups = 1; propagation_period = 5. }
  in
  let w = setup ~n:4 ~policy () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:40. ~request_interval:0. in
  run w ~until:4.;
  let group_members =
    List.filter_map
      (fun (p, srv) ->
        if List.mem_assoc sid (FV.Server.sessions_served srv) then Some p else None)
      w.servers
  in
  check Alcotest.int "primary+backup" 2 (List.length group_members);
  (* One client request... *)
  run w ~until:9.;
  (* ...then both session-group members die within the propagation gap.
     (Propagations happen at ~8.x, next at ~13.x; we crash at 9.5.) *)
  ignore
    (Engine.schedule_at w.engine ~time:9.5 (fun () ->
         List.iter (crash_server w) group_members));
  run w ~until:20.;
  (* Service resumes from the remaining servers... *)
  (match primary_of w sid with
  | Some p -> check Alcotest.bool "resumed elsewhere" true (not (List.mem p group_members))
  | None -> Alcotest.fail "session never recovered");
  (* ...and the stream continues. *)
  let after =
    List.filter (fun (_, at) -> at > 15.) (FV.Client.received w.client sid)
  in
  check Alcotest.bool "stream resumed" true (after <> [])

let test_session_end_cleans_up () =
  let w = setup () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:4. ~request_interval:0. in
  run w ~until:12.;
  List.iter
    (fun (_, srv) ->
      (match FV.Server.db srv "movie:1" with
      | Some db ->
          (* The entry survives as a tombstone (so merges with stale
             stores cannot resurrect the session) but is no longer live. *)
          check Alcotest.bool "db entry tombstoned" false (Unit_db.live db sid);
          (match Unit_db.find db sid with
          | Some sess -> check Alcotest.bool "marked ended" true sess.Unit_db.ended
          | None -> Alcotest.fail "tombstone missing")
      | None -> Alcotest.fail "unit missing");
      check Alcotest.bool "no role left" false
        (List.mem_assoc sid (FV.Server.sessions_served srv)))
    w.servers

let test_join_rebalances () =
  (* Start with one server carrying several sessions, then bring up a
     second server replicating the same unit: sessions must spread. *)
  let policy = { Policy.default with n_backups = 0 } in
  let w = setup ~n:2 ~policy () in
  (* Only server 0 serves the unit initially. *)
  let w =
    (* rebuild: server 1 starts without the unit *)
    let engine = Engine.create ~seed:31 () in
    let gcs = Gcs.create ~num_servers:2 engine in
    let events = Events.make_sink () in
    let s0 = FV.Server.create gcs ~proc:0 ~policy ~units:[ "movie:1" ] ~catalog:[ "movie:1" ] ~events in
    let cproc = Gcs.add_client gcs in
    let client = FV.Client.create gcs ~proc:cproc ~policy ~events in
    ignore w;
    { engine; gcs; events; servers = [ (0, s0) ]; client }
  in
  run w ~until:3.;
  let sids =
    List.init 4 (fun _ ->
        FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:60. ~request_interval:0.)
  in
  run w ~until:8.;
  check Alcotest.bool "all on server 0" true
    (List.for_all (fun sid -> primary_of w sid = Some 0) sids);
  (* Server 1 now starts replicating the unit. *)
  let s1 =
    FV.Server.create w.gcs ~proc:1 ~policy ~units:[ "movie:1" ] ~catalog:[ "movie:1" ]
      ~events:w.events
  in
  let w = { w with servers = (1, s1) :: w.servers } in
  run w ~until:16.;
  let on_new =
    List.filter (fun sid -> primary_of w sid = Some 1) sids
  in
  check Alcotest.int "half the sessions moved to the new server" 2 (List.length on_new);
  (* Rebalance migrations must be hitless: the old primary handed off
     exact context, so no gaps appear. *)
  List.iter
    (fun sid ->
      check Alcotest.int
        (Printf.sprintf "no duplicate frames for %s" sid)
        0
        (count_dups (received_ids w sid)))
    sids

(* With one backup per session, server 0 serves four sessions alone
   until server 1 joins half a period after a propagation; two sessions
   then move to server 1 while server 0 stays their backup. *)
let rebalance_world () =
  let policy = Policy.default in
  let engine = Engine.create ~seed:31 () in
  let gcs = Gcs.create ~num_servers:2 engine in
  let events = Events.make_sink () in
  let mk p = FV.Server.create gcs ~proc:p ~policy ~units:[ "movie:1" ] ~catalog:[ "movie:1" ] ~events in
  let s0 = mk 0 in
  let cproc = Gcs.add_client gcs in
  let client = FV.Client.create gcs ~proc:cproc ~policy ~events in
  let w = { engine; gcs; events; servers = [ (0, s0) ]; client } in
  run w ~until:3.;
  let sids =
    List.init 4 (fun _ ->
        FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:60. ~request_interval:0.)
  in
  run w ~until:8.;
  check Alcotest.bool "all on server 0" true
    (List.for_all (fun sid -> primary_of w sid = Some 0) sids);
  let s1 = ref None in
  after_propagation w (List.hd sids) ~after:8.
    ~delay:(policy.Policy.propagation_period /. 2.)
    (fun _ -> s1 := Some (mk 1));
  run w ~until:16.;
  let w = { w with servers = (1, Option.get !s1) :: w.servers } in
  let moved = List.filter (fun sid -> primary_of w sid = Some 1) sids in
  check Alcotest.int "half the sessions moved to the new server" 2 (List.length moved);
  (w, s0, sids, moved)

let test_rebalance_demotion_hands_off () =
  (* A rebalance that keeps the old primary on as a backup must still
     hand the exact context to the new primary.  Resuming from the
     propagated snapshot would repeat half a period of frames; with the
     handoff the client sees no duplicates or gaps. *)
  let w, s0, sids, moved = rebalance_world () in
  List.iter
    (fun sid ->
      check Alcotest.bool
        (Printf.sprintf "server 0 stays backup of %s" sid)
        true
        (List.assoc_opt sid (FV.Server.sessions_served s0) = Some Events.Backup))
    moved;
  check Alcotest.int "both moves demoted server 0" 2 (demoted_primaries_stay_silent w ~since:8.);
  List.iter
    (fun sid ->
      let ids = received_ids w sid in
      check Alcotest.int (Printf.sprintf "no duplicate frames for %s" sid) 0 (count_dups ids);
      check Alcotest.int (Printf.sprintf "no gaps for %s" sid) 0 (count_gaps ids))
    sids

let test_one_frame_per_server_unit_period () =
  (* Each server ships all its primaries of a content unit in one
     [Propagate] frame per period, yet every session is still propagated
     once per period.  Frames are counted where they are sent: every
     frame passes the "propagate" crash choice point exactly once. *)
  let units = [ "movie:1"; "movie:2" ] in
  let policy = { Policy.default with n_backups = 1 } in
  let period = policy.Policy.propagation_period in
  let w = setup ~policy ~units () in
  let frames = Hashtbl.create 4 in
  Engine.set_chooser w.engine
    (Some
       (fun ~site ~proc ~occ:_ ->
         if site = "propagate" then
           Hashtbl.replace frames proc (1 + Option.value (Hashtbl.find_opt frames proc) ~default:0);
         false));
  run w ~until:3.;
  (* Staggered starts: per-session timers would tick at distinct instants. *)
  let sids =
    List.concat_map
      (fun i ->
        run w ~until:(3. +. (0.07 *. float_of_int i));
        List.map
          (fun unit_id ->
            (FV.Client.start_session w.client ~unit_id ~duration:60. ~request_interval:0., unit_id))
          units)
      (List.init 6 Fun.id)
  in
  run w ~until:6.;
  let k = 8 in
  let t0 = Engine.now w.engine in
  let t1 = t0 +. (float_of_int k *. period) in
  Hashtbl.reset frames;
  run w ~until:t1;
  let within lo hi n = n >= lo && n <= hi in
  List.iter
    (fun (p, srv) ->
      let served = FV.Server.sessions_served srv in
      let units_led =
        List.filter
          (fun u ->
            List.exists
              (fun (sid, u') -> u' = u && List.assoc_opt sid served = Some Events.Primary)
              sids)
          units
      in
      let n_units = List.length units_led in
      check Alcotest.bool (Printf.sprintf "server %d leads sessions" p) true (n_units > 0);
      let sent = Option.value (Hashtbl.find_opt frames p) ~default:0 in
      if not (within (n_units * (k - 1)) (n_units * (k + 1)) sent) then
        Alcotest.failf "server %d sent %d frames for %d units over %d periods" p sent n_units k)
    w.servers;
  List.iter
    (fun (sid, _) ->
      let p = Option.get (primary_of w sid) in
      let n = List.length (propagations w sid ~server:p ~from:t0 ~until:t1) in
      if not (within (k - 1) (k + 1) n) then
        Alcotest.failf "%s propagated %d times over %d periods" sid n k)
    sids;
  (* Crash takeover: the successor propagates within one period. *)
  let victim = Option.get (primary_of w (fst (List.hd sids))) in
  crash_server w victim;
  let t_crash = Engine.now w.engine in
  run w ~until:(t_crash +. 6.);
  let takeovers = crash_takeovers w ~since:t_crash in
  check Alcotest.bool "crash takeovers seen" true (takeovers <> []);
  List.iter
    (fun (at, server, sid) ->
      if propagations w sid ~server ~from:at ~until:(at +. period) = [] then
        Alcotest.failf "%s not propagated within a period of its takeover" sid)
    takeovers;
  (* The victim comes back as a fresh server and the rebalance demotes
     primaries. *)
  Gcs.restart w.gcs victim;
  let fresh =
    FV.Server.create w.gcs ~proc:victim ~policy ~units ~catalog:units ~events:w.events
  in
  let w = { w with servers = (victim, fresh) :: List.remove_assoc victim w.servers } in
  let t_join = Engine.now w.engine in
  run w ~until:(t_join +. 8.);
  check Alcotest.bool "rebalance demoted some primary" true
    (demoted_primaries_stay_silent w ~since:t_join > 0)

(* A bare client process that records every [Responses] frame it
   receives as (arrival time, sender, items), newest first.  It starts
   sessions by sending [Start_session] itself and never retries. *)
type recorder = {
  rproc : int;
  frames : (float * int * (string * Haf_services.Vod.response) list) list ref;
}

let recorder w =
  let rproc = Gcs.add_client w.gcs in
  let frames = ref [] in
  Gcs.set_app w.gcs rproc
    {
      Haf_gcs.Daemon.no_callbacks with
      on_p2p =
        (fun ~sender payload ->
          match FV.decode_p2p payload with
          | FV.Responses { items } -> frames := (Engine.now w.engine, sender, items) :: !frames
          | FV.Unit_list _ | FV.Granted _ | FV.Handoff _ -> ());
    };
  { rproc; frames }

let start_recorded w r session_id =
  Gcs.open_send w.gcs r.rproc
    (Haf_core.Naming.content_group "movie:1")
    (FV.encode_group (FV.Start_session { session_id }))

(* [r]'s frames in (from, until], oldest first. *)
let frames_between r ~from ~until =
  List.rev (List.filter (fun (at, _, _) -> at > from && at <= until) !(r.frames))

let response_id (Haf_services.Vod.Frame { index; _ }) = index

(* [server]'s Response_sent events for [sid] in (from, until]: (time, id,
   critical). *)
let responses_sent w sid ~server ~from ~until =
  List.filter_map
    (fun (at, e) ->
      match e with
      | Events.Response_sent { server = s; session_id; id; critical }
        when s = server && session_id = sid && at > from && at <= until ->
          Some (at, id, critical)
      | _ -> None)
    (Events.events w.events)

let tick_period = Haf_services.Vod.tick_period

let test_one_responses_frame_per_server_client_tick () =
  (* Each server sends each client one [Responses] frame per service
     tick, holding every session it is primary of for that client in
     session-id order, yet every session still gets one tick's responses
     per tick.  Frames are counted where the clients decode them. *)
  let w = setup () in
  let clients = [ recorder w; recorder w ] in
  run w ~until:3.;
  (* Staggered starts: per-session timers would tick at distinct instants. *)
  let sids =
    List.concat
      (List.mapi
         (fun j r ->
           List.init 6 (fun i ->
               run w ~until:(3. +. (0.07 *. float_of_int ((6 * j) + i)));
               let sid = Printf.sprintf "r%d-%d" r.rproc i in
               start_recorded w r sid;
               (sid, r)))
         clients)
  in
  run w ~until:6.;
  let k = 8 in
  let t0 = Engine.now w.engine in
  let t1 = t0 +. (float_of_int k *. tick_period) in
  run w ~until:t1;
  let within lo hi n = n >= lo && n <= hi in
  List.iter
    (fun (server, _) ->
      List.iter
        (fun r ->
          let led =
            List.filter (fun (sid, r') -> r' == r && primary_of w sid = Some server) sids
          in
          (* Per-session frames would number [led] per tick: make the pair
             carry several sessions so the count tells the designs apart. *)
          if List.length led < 2 then
            Alcotest.failf "server %d leads %d sessions of client %d" server (List.length led) r.rproc;
          let frames =
            List.filter (fun (_, s, _) -> s = server) (frames_between r ~from:t0 ~until:t1)
          in
          if not (within (k - 1) (k + 1) (List.length frames)) then
            Alcotest.failf "server %d sent client %d %d frames over %d ticks" server r.rproc
              (List.length frames) k;
          List.iter
            (fun (_, _, items) ->
              let order = List.map fst items in
              if order <> List.stable_sort String.compare order then
                Alcotest.fail "frame items out of session-id order")
            frames)
        clients)
    w.servers;
  let per_tick = Haf_services.Vod.frames_per_tick in
  List.iter
    (fun (sid, r) ->
      let n =
        List.fold_left
          (fun n (_, _, items) -> n + List.length (List.filter (fun (s, _) -> s = sid) items))
          0 (frames_between r ~from:t0 ~until:t1)
      in
      if not (within ((k - 1) * per_tick) ((k + 1) * per_tick) n) then
        Alcotest.failf "%s got %d responses over %d ticks" sid n k)
    sids

let test_first_response_within_a_link_latency_of_takeover () =
  (* A crash successor serves a taken-over session at the takeover
     instant, not at its next service tick: the first response leaves
     then and reaches the client within one LAN latency. *)
  let w = setup ~policy:{ Policy.default with n_backups = 1 } () in
  run w ~until:3.;
  let sids =
    List.init 6 (fun i ->
        run w ~until:(3. +. (0.07 *. float_of_int i));
        FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:60. ~request_interval:0.)
  in
  run w ~until:6.;
  let victim = Option.get (primary_of w (List.hd sids)) in
  crash_server w victim;
  let t_crash = Engine.now w.engine in
  run w ~until:(t_crash +. 4.);
  let takeovers = crash_takeovers w ~since:t_crash in
  check Alcotest.bool "several crash takeovers" true (List.length takeovers >= 2);
  let max_latency = 0.001 in
  List.iter
    (fun (at, server, sid) ->
      let sent =
        match responses_sent w sid ~server ~from:(at -. 1e-9) ~until:(at +. 1.) with
        | (s, _, _) :: _ -> s
        | [] -> Alcotest.failf "%s: no response from %d after its takeover" sid server
      in
      if sent > at then
        Alcotest.failf "%s: first response %.6f s after the takeover" sid (sent -. at);
      let arrived =
        List.find_map
          (fun (r, e) ->
            match e with
            | Events.Response_received { session_id; from_server; _ }
              when session_id = sid && from_server = server && r >= sent ->
                Some r
            | _ -> None)
          (Events.events w.events)
      in
      match arrived with
      | Some r when r -. at <= max_latency -> ()
      | Some r -> Alcotest.failf "%s: first response arrived %.4f s after the takeover" sid (r -. at)
      | None -> Alcotest.failf "%s: no response reached the client" sid)
    takeovers

let test_hybrid_resend_one_frame () =
  (* Under Hybrid, a successor without live context fast-forwards
     through the uncertainty window and re-sends only its critical
     responses (the I-frames), all in one [Responses] frame. *)
  let policy =
    { Policy.default with n_backups = 0; takeover = Policy.Hybrid; propagation_period = 2. }
  in
  let w = setup ~policy () in
  let r = recorder w in
  run w ~until:3.;
  let sid = "r-hybrid" in
  start_recorded w r sid;
  after_propagation w sid ~after:6. ~delay:1.5 (crash_server w);
  run w ~until:12.;
  let at, server =
    match List.filter (fun (_, _, s) -> s = sid) (crash_takeovers w ~since:6.) with
    | (at, server, _) :: _ -> (at, server)
    | [] -> Alcotest.fail "no crash takeover"
  in
  (* The successor held no role before, so what it sent before its
     Takeover event is the re-send; its first tick follows at the same
     instant. *)
  let rec before_takeover acc = function
    | (_, Events.Takeover { server = s; session_id; _ }) :: _ when s = server && session_id = sid
      ->
        List.rev acc
    | (t, Events.Response_sent { server = s; session_id; id; critical }) :: rest
      when s = server && session_id = sid ->
        before_takeover ((t, id, critical) :: acc) rest
    | _ :: rest -> before_takeover acc rest
    | [] -> List.rev acc
  in
  let resent = before_takeover [] (Events.events w.events) in
  check Alcotest.bool "several responses re-sent" true (List.length resent >= 2);
  check Alcotest.bool "only critical responses re-sent" true
    (List.for_all (fun (_, _, critical) -> critical) resent);
  let ids = List.map (fun (_, id, _) -> id) resent in
  let from_successor =
    List.filter (fun (_, s, _) -> s = server) (frames_between r ~from:at ~until:infinity)
  in
  (* The re-send leads the frame that carries the first tick. *)
  (match from_successor with
  | (_, _, items) :: _ ->
      check (Alcotest.list Alcotest.int) "re-sent in one frame" ids
        (List.filteri (fun i _ -> i < List.length ids)
           (List.map (fun (_, resp) -> response_id resp) items))
  | [] -> Alcotest.fail "no frame from the successor");
  (* P/B frames of the window stay dropped. *)
  let last = List.fold_left Int.max 0 ids in
  List.iter
    (fun (_, id, critical) ->
      if id <= last && not critical then
        Alcotest.failf "successor sent P/B frame %d of the uncertainty window" id)
    (responses_sent w sid ~server ~from:0. ~until:infinity)

let test_rebalance_takeover_waits_for_handoff () =
  (* A rebalance successor does not serve at the takeover: the old
     primary's [Handoff] with the exact context is on its way, so the
     successor waits for its next service tick.  The Handoff leaves when
     server 0 steps down and crosses the LAN in no less than 0.5 ms. *)
  let w, _, _, moved = rebalance_world () in
  let tl = Events.events w.events in
  let rebalances =
    List.filter_map
      (fun (at, e) ->
        match e with
        | Events.Takeover { server = 1; session_id; kind = Events.Rebalance; _ } ->
            Some (at, session_id)
        | _ -> None)
      tl
  in
  check (Alcotest.list Alcotest.string) "the moves were rebalance takeovers"
    (List.sort String.compare moved)
    (List.sort String.compare (List.map snd rebalances));
  List.iter
    (fun (at, sid) ->
      let handoff_sent =
        match
          List.find_map
            (fun (t, e) ->
              match e with
              | Events.Role_dropped { server = 0; session_id; role = Events.Primary }
                when session_id = sid && t >= at -. 1. ->
                  Some t
              | _ -> None)
            tl
        with
        | Some t -> t
        | None -> Alcotest.failf "%s: no handoff" sid
      in
      (match responses_sent w sid ~server:1 ~from:(at -. 1e-9) ~until:infinity with
      | (first, _, _) :: _ ->
          if first <= at || first < handoff_sent +. 0.0005 then
            Alcotest.failf "%s: first response %.6f s after the takeover, before the Handoff"
              sid (first -. at)
      | [] -> Alcotest.failf "%s: no response from the successor" sid);
      check Alcotest.int (Printf.sprintf "no duplicate frames for %s" sid) 0
        (count_dups (received_ids w sid)))
    rebalances

let test_crash_takeover_applies_gap_update_first () =
  (* A client update sent while the primary's crash is undetected
     reaches the successor only through its session group's install.
     At server 1, one heartbeat sweep installs the content group's view
     (the takeover) and then the session group's (the relayed update is
     resubmitted and applied).  Serving after the sweep, the successor's
     first frame already follows the update — a seek to frames nobody
     sent — so the client sees no duplicate; serving inside the takeover
     would first repeat frames from the propagated snapshot. *)
  let policy = { Policy.default with n_backups = 1; takeover = Policy.Resume } in
  let w = setup ~n:2 ~policy () in
  let r = recorder w in
  run w ~until:3.;
  let sid = "r-seek" in
  start_recorded w r sid;
  let target = 400_000 in
  after_propagation w sid ~after:6. ~delay:(policy.Policy.propagation_period /. 2.) (fun p ->
      check Alcotest.int "the session group's sequencer is the primary" 0 p;
      crash_server w p;
      ignore
        (Engine.schedule w.engine ~delay:0.05 (fun () ->
             Gcs.open_send w.gcs r.rproc
               (Haf_core.Naming.session_group ~shards:0 sid)
               (FV.encode_group
                  (FV.Request { session_id = sid; seq = 1; body = Haf_services.Vod.Seek target })))));
  run w ~until:12.;
  let at =
    match List.filter (fun (_, _, s) -> s = sid) (crash_takeovers w ~since:6.) with
    | [ (at, 1, _) ] -> at
    | _ -> Alcotest.fail "expected one crash takeover by server 1"
  in
  let items =
    List.concat_map
      (fun (_, _, items) -> List.map (fun (_, resp) -> response_id resp) items)
      (frames_between r ~from:0. ~until:infinity)
  in
  (match frames_between r ~from:at ~until:infinity with
  | (_, 1, first :: _) :: _ ->
      check Alcotest.int "first frame after the takeover follows the seek" target
        (response_id (snd first))
  | _ -> Alcotest.fail "no frame from the successor");
  check Alcotest.int "no duplicate frames" 0 (count_dups items)

let test_grant_retry_after_primary_crash () =
  let policy = { Policy.default with n_backups = 0 } in
  let w = setup ~policy () in
  run w ~until:3.;
  (* Crash the would-be primary the instant the session is requested, so
     the grant is lost; the client must retry and get a grant from the
     successor. *)
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:30. ~request_interval:0. in
  ignore
    (Engine.schedule_at w.engine ~time:3.05 (fun () ->
         match primary_of w sid with Some p -> crash_server w p | None -> ()));
  run w ~until:12.;
  check Alcotest.bool "eventually granted" true (FV.Client.granted w.client sid);
  check Alcotest.bool "frames flow" true (List.length (received_ids w sid) > 0)

let test_fast_restart_single_stream () =
  (* Regression: a primary crashing and restarting inside the suspicion
     timeout used to leave two servers streaming the same session.  After
     reconciliation there must be exactly one live primary and no
     sustained duplicate stream. *)
  let policy = { Policy.default with n_backups = 0 } in
  let w = setup ~n:3 ~policy ~seed:77 () in
  run w ~until:3.;
  let sid = FV.Client.start_session w.client ~unit_id:"movie:1" ~duration:60. ~request_interval:0. in
  run w ~until:8.;
  let p0 = Option.get (primary_of w sid) in
  crash_server w p0;
  ignore
    (Engine.schedule_at w.engine ~time:8.15 (fun () ->
         Gcs.restart w.gcs p0));
  (* The restarted process runs a fresh (stateless) server. *)
  ignore
    (Engine.schedule_at w.engine ~time:8.2 (fun () ->
         let policy = { Policy.default with n_backups = 0 } in
         ignore
           (FV.Server.create w.gcs ~proc:p0 ~policy ~units:[ "movie:1" ]
              ~catalog:[ "movie:1" ] ~events:w.events)));
  run w ~until:30.;
  let primaries =
    List.filter
      (fun (p, srv) -> Gcs.alive w.gcs p && FV.Server.is_primary_of srv sid)
      w.servers
  in
  check Alcotest.bool "at most one live primary object" true (List.length primaries <= 1);
  (* Duplicates bounded by one takeover's rewind, far below a sustained
     double stream (which would be hundreds). *)
  check Alcotest.bool "no sustained duplicate stream" true
    (count_dups (received_ids w sid) < 60)

let test_discovery () =
  let w = setup ~units:[ "movie:1"; "movie:2" ] () in
  run w ~until:3.;
  let answer = ref [] in
  FV.Client.discover_units w.client (fun units -> answer := units);
  run w ~until:6.;
  check (Alcotest.list Alcotest.string) "catalog" [ "movie:1"; "movie:2" ] !answer

let test_two_units_partial_replication () =
  (* Partial replication: unit A on servers 0,1; unit B on servers 1,2. *)
  let engine = Engine.create ~seed:17 () in
  let gcs = Gcs.create ~num_servers:3 engine in
  let events = Events.make_sink () in
  let policy = Policy.default in
  let mk p units = (p, FV.Server.create gcs ~proc:p ~policy ~units ~catalog:[ "a"; "b" ] ~events) in
  let servers = [ mk 0 [ "a" ]; mk 1 [ "a"; "b" ]; mk 2 [ "b" ] ] in
  let cproc = Gcs.add_client gcs in
  let client = FV.Client.create gcs ~proc:cproc ~policy ~events in
  let w = { engine; gcs; events; servers; client } in
  run w ~until:3.;
  let sa = FV.Client.start_session client ~unit_id:"a" ~duration:20. ~request_interval:0. in
  let sb = FV.Client.start_session client ~unit_id:"b" ~duration:20. ~request_interval:0. in
  run w ~until:8.;
  (match primary_of w sa with
  | Some p -> check Alcotest.bool "a served by replica of a" true (p = 0 || p = 1)
  | None -> Alcotest.fail "no primary for a");
  (match primary_of w sb with
  | Some p -> check Alcotest.bool "b served by replica of b" true (p = 1 || p = 2)
  | None -> Alcotest.fail "no primary for b");
  check Alcotest.bool "both streams flow" true
    (List.length (received_ids w sa) > 10 && List.length (received_ids w sb) > 10)

let suite =
  [
    ( "framework.sessions",
      [
        Alcotest.test_case "happy path" `Quick test_session_happy_path;
        Alcotest.test_case "exactly one primary" `Quick test_exactly_one_primary;
        Alcotest.test_case "backup count" `Quick test_backup_count_matches_policy;
        Alcotest.test_case "db replicas identical" `Quick test_unit_db_replicas_identical;
        Alcotest.test_case "session end cleans up" `Quick test_session_end_cleans_up;
        Alcotest.test_case "discovery" `Quick test_discovery;
        Alcotest.test_case "partial replication" `Quick test_two_units_partial_replication;
      ] );
    ( "framework.failover",
      [
        Alcotest.test_case "failover with backup" `Quick test_failover_with_backup;
        Alcotest.test_case "no-backup resume duplicates" `Quick
          test_failover_without_backup_resume_duplicates;
        Alcotest.test_case "crash just after propagation" `Quick
          test_failover_just_after_propagation;
        Alcotest.test_case "skip-ahead gaps" `Quick test_failover_skip_ahead_gaps;
        Alcotest.test_case "requests applied at backup" `Quick test_requests_applied_at_backup;
        Alcotest.test_case "lost update window" `Quick test_lost_update_window;
        Alcotest.test_case "grant retry after crash" `Quick test_grant_retry_after_primary_crash;
        Alcotest.test_case "fast restart single stream" `Quick test_fast_restart_single_stream;
        Alcotest.test_case "join rebalances" `Quick test_join_rebalances;
        Alcotest.test_case "rebalance demotion hands off" `Quick
          test_rebalance_demotion_hands_off;
        Alcotest.test_case "one frame per server, unit and period" `Quick
          test_one_frame_per_server_unit_period;
        Alcotest.test_case "one Responses frame per server, client and tick" `Quick
          test_one_responses_frame_per_server_client_tick;
        Alcotest.test_case "first response within one link latency of a crash takeover" `Quick
          test_first_response_within_a_link_latency_of_takeover;
        Alcotest.test_case "hybrid re-send in one frame" `Quick test_hybrid_resend_one_frame;
        Alcotest.test_case "rebalance takeover waits for the handoff" `Quick
          test_rebalance_takeover_waits_for_handoff;
        Alcotest.test_case "crash takeover applies a gap update first" `Quick
          test_crash_takeover_applies_gap_update_first;
      ] );
  ]
