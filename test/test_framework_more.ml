(* Additional framework integration tests: the hybrid takeover policy,
   total-outage recovery via the client watchdog, propagation staleness,
   and the framework instantiated over the education and search
   services. *)

module Engine = Haf_sim.Engine
module Gcs = Haf_gcs.Gcs
module Events = Haf_core.Events
module Policy = Haf_core.Policy
module Metrics = Haf_stats.Metrics

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* VoD-based scenarios *)

module FV = Haf_core.Framework.Make (Haf_services.Vod)

type vod_world = {
  engine : Engine.t;
  gcs : Gcs.t;
  events : Events.sink;
  servers : (int * FV.Server.t) list;
  client : FV.Client.t;
}

let vod_setup ?(n = 3) ?(seed = 401) ?(policy = Policy.default) () =
  let engine = Engine.create ~seed () in
  let gcs = Gcs.create ~num_servers:n engine in
  let events = Events.make_sink () in
  let servers =
    List.map
      (fun p ->
        (p, FV.Server.create gcs ~proc:p ~policy ~units:[ "m" ] ~catalog:[ "m" ] ~events))
      (Gcs.servers gcs)
  in
  let cproc = Gcs.add_client gcs in
  let client = FV.Client.create gcs ~proc:cproc ~policy ~events in
  { engine; gcs; events; servers; client }

let crash w p =
  FV.Server.stop (List.assoc p w.servers);
  Gcs.crash w.gcs p;
  Events.emit w.events ~now:(Engine.now w.engine) (Events.Server_crashed { server = p })

let vod_primary w sid =
  List.find_map
    (fun (p, srv) ->
      if Gcs.alive w.gcs p && FV.Server.is_primary_of srv sid then Some p else None)
    w.servers

let test_hybrid_policy_critical_only () =
  (* Under Hybrid, the takeover fast-forwards but re-sends the critical
     (I) frames from the skipped window: the client may see duplicate
     I-frames, loses only P/B frames, and never loses an I-frame. *)
  let policy = { Policy.default with n_backups = 0; takeover = Policy.Hybrid } in
  let w = vod_setup ~policy ~seed:402 () in
  Engine.run ~until:3. w.engine;
  let sid = FV.Client.start_session w.client ~unit_id:"m" ~duration:40. ~request_interval:0. in
  (* The successor skips the whole service ticks since the last
     propagation and serves the next one at once, so P/B frames go
     missing only when a tick of the dead primary falls between the
     crash and the takeover.  The primary ticks at 7.99 s, 8.19 s, ...
     here; a crash at 8.1 s leaves two ticks before the takeover about
     a suspicion timeout later, one of which nobody sends. *)
  Engine.run ~until:8.1 w.engine;
  crash w (Option.get (vod_primary w sid));
  Engine.run ~until:20. w.engine;
  let tl = Events.events w.events in
  check Alcotest.int "no missing I-frames" 0 (Metrics.missing ~critical:true tl ~sid);
  check Alcotest.int "no duplicate P/B frames" 0
    (Metrics.duplicates ~critical:false tl ~sid);
  check Alcotest.bool "some P/B frames skipped" true (Metrics.missing tl ~sid > 0)

let test_watchdog_recovers_total_outage () =
  (* Kill every replica: the unit database is gone (the paper's
     "availability is impossible" pattern).  Once servers restart, the
     client's silence watchdog re-establishes the session. *)
  let policy = { Policy.default with n_backups = 1 } in
  let w = vod_setup ~n:2 ~policy ~seed:403 () in
  Engine.run ~until:3. w.engine;
  let sid = FV.Client.start_session w.client ~unit_id:"m" ~duration:60. ~request_interval:0. in
  Engine.run ~until:8. w.engine;
  crash w 0;
  crash w 1;
  Engine.run ~until:12. w.engine;
  check Alcotest.bool "fully dark" true (vod_primary w sid = None);
  (* Both servers come back empty. *)
  List.iter
    (fun p ->
      Gcs.restart w.gcs p;
      ignore
        (FV.Server.create w.gcs ~proc:p ~policy ~units:[ "m" ] ~catalog:[ "m" ]
           ~events:w.events))
    [ 0; 1 ];
  Engine.run ~until:30. w.engine;
  let tl = Events.events w.events in
  let late =
    List.filter (fun (at, _, _) -> at > 15.) (Metrics.responses_received tl ~sid)
  in
  check Alcotest.bool "stream resumed after total outage" true (List.length late > 20)

let test_propagation_cadence () =
  (* The primary must propagate once per period per session. *)
  let policy = { Policy.default with propagation_period = 0.5 } in
  let w = vod_setup ~policy ~seed:404 () in
  Engine.run ~until:3. w.engine;
  let sid = FV.Client.start_session w.client ~unit_id:"m" ~duration:40. ~request_interval:0. in
  ignore sid;
  Engine.run ~until:13. w.engine;
  let props = Metrics.count_propagations (Events.events w.events) in
  (* ~10 seconds of session at 2/s. *)
  check Alcotest.bool "propagation cadence" true (props >= 16 && props <= 22)

let test_backup_context_staleness_bounded () =
  (* The unit database's snapshot must never lag the primary by more
     than one propagation period (plus delivery): check the applied
     set of propagations tracks the requests. *)
  let policy = { Policy.default with n_backups = 1; propagation_period = 0.5 } in
  let w = vod_setup ~policy ~seed:405 () in
  Engine.run ~until:3. w.engine;
  let sid = FV.Client.start_session w.client ~unit_id:"m" ~duration:40. ~request_interval:1. in
  Engine.run ~until:20. w.engine;
  let tl = Events.events w.events in
  (* For every request applied by the primary, some propagation within
     the next 1.5 periods covers it. *)
  let applies =
    List.filter_map
      (fun (at, e) ->
        match e with
        | Events.Request_applied { session_id; seq; role = Events.Primary; _ }
          when session_id = sid ->
            Some (at, seq)
        | _ -> None)
      tl
  in
  check Alcotest.bool "some requests applied" true (applies <> []);
  List.iter
    (fun (at, seq) ->
      if at < 18. then
        let covered =
          List.exists
            (fun (pt, e) ->
              match e with
              | Events.Propagated { session_id; applied; _ } ->
                  session_id = sid && pt >= at && pt <= at +. 0.8
                  && Haf_core.Seqset.mem seq applied
              | _ -> false)
            tl
        in
        if not covered then
          Alcotest.failf "request %d at %.2f not propagated within 0.8s" seq at)
    applies

(* ------------------------------------------------------------------ *)
(* The framework over the education service *)

module FE = Haf_core.Framework.Make (Haf_services.Education)

let test_education_service_end_to_end () =
  let engine = Engine.create ~seed:406 () in
  let gcs = Gcs.create ~num_servers:3 engine in
  let events = Events.make_sink () in
  let policy = { Policy.default with n_backups = 1 } in
  let topic = "topic:t:30" in
  let servers =
    List.map
      (fun p ->
        (p, FE.Server.create gcs ~proc:p ~policy ~units:[ topic ] ~catalog:[ topic ] ~events))
      (Gcs.servers gcs)
  in
  let cproc = Gcs.add_client gcs in
  let client = FE.Client.create gcs ~proc:cproc ~policy ~events in
  Engine.run ~until:3. engine;
  let sid = FE.Client.start_session client ~unit_id:topic ~duration:60. ~request_interval:3. in
  Engine.run ~until:10. engine;
  (* Crash the current primary; the lesson must continue. *)
  (match
     List.find_opt
       (fun (p, srv) -> Gcs.alive gcs p && FE.Server.is_primary_of srv sid)
       servers
   with
  | Some (p, srv) ->
      FE.Server.stop srv;
      Gcs.crash gcs p
  | None -> Alcotest.fail "no education primary");
  Engine.run ~until:25. engine;
  let tl = Events.events events in
  let frags = Metrics.responses_received tl ~sid in
  check Alcotest.bool "fragments flow after crash" true
    (List.exists (fun (at, _, _) -> at > 15.) frags)

let test_education_topic_completion_ends_session () =
  (* A small topic is fully delivered before the client would leave: the
     primary itself must end the session. *)
  let engine = Engine.create ~seed:408 () in
  let gcs = Gcs.create ~num_servers:2 engine in
  let events = Events.make_sink () in
  let policy = Policy.default in
  let topic = "topic:t:3" in
  let _servers =
    List.map
      (fun p ->
        FE.Server.create gcs ~proc:p ~policy ~units:[ topic ] ~catalog:[ topic ] ~events)
      (Gcs.servers gcs)
  in
  let cproc = Gcs.add_client gcs in
  let client = FE.Client.create gcs ~proc:cproc ~policy ~events in
  Engine.run ~until:2. engine;
  let sid = FE.Client.start_session client ~unit_id:topic ~duration:120. ~request_interval:0. in
  Engine.run ~until:30. engine;
  let tl = Events.events events in
  check Alcotest.bool "topic completion ends session" true
    (List.exists
       (fun (_, e) ->
         match e with Events.Session_ended { session_id } -> session_id = sid | _ -> false)
       tl)

(* ------------------------------------------------------------------ *)
(* The framework over the search service *)

module FS = Haf_core.Framework.Make (Haf_services.Search)

let test_search_service_end_to_end () =
  let engine = Engine.create ~seed:407 () in
  let gcs = Gcs.create ~num_servers:3 engine in
  let events = Events.make_sink () in
  let policy = { Policy.default with n_backups = 1 } in
  let corpus = "corpus:c:200" in
  let _servers =
    List.map
      (fun p ->
        FS.Server.create gcs ~proc:p ~policy ~units:[ corpus ] ~catalog:[ corpus ] ~events)
      (Gcs.servers gcs)
  in
  let cproc = Gcs.add_client gcs in
  let client = FS.Client.create gcs ~proc:cproc ~policy ~events in
  Engine.run ~until:3. engine;
  let sid = FS.Client.start_session client ~unit_id:corpus ~duration:30. ~request_interval:4. in
  Engine.run ~until:25. engine;
  let tl = Events.events events in
  let hits = Metrics.responses_received tl ~sid in
  check Alcotest.bool "queries produce hits" true (List.length hits > 5);
  let lost, sent = Metrics.requests_lost tl ~sid in
  check Alcotest.bool "queries were sent" true (sent > 2);
  check Alcotest.int "no queries lost without faults" 0 lost

let test_invalid_policy_rejected () =
  let engine = Engine.create ~seed:410 () in
  let gcs = Gcs.create ~num_servers:1 engine in
  let events = Events.make_sink () in
  Alcotest.check_raises "invalid policy"
    (Invalid_argument "Server.create: n_backups must be non-negative") (fun () ->
      ignore
        (FV.Server.create gcs ~proc:0
           ~policy:{ Policy.default with n_backups = -1 }
           ~units:[ "m" ] ~catalog:[ "m" ] ~events))

let test_server_without_units () =
  (* A pure service-group member (no replicas): it answers discovery but
     never serves sessions. *)
  let engine = Engine.create ~seed:411 () in
  let gcs = Gcs.create ~num_servers:2 engine in
  let events = Events.make_sink () in
  let policy = Policy.default in
  let _frontend =
    FV.Server.create gcs ~proc:0 ~policy ~units:[] ~catalog:[ "m" ] ~events
  in
  let storage =
    FV.Server.create gcs ~proc:1 ~policy ~units:[ "m" ] ~catalog:[ "m" ] ~events
  in
  let cproc = Gcs.add_client gcs in
  let client = FV.Client.create gcs ~proc:cproc ~policy ~events in
  Engine.run ~until:3. engine;
  let answer = ref [] in
  FV.Client.discover_units client (fun units -> answer := units);
  let sid = FV.Client.start_session client ~unit_id:"m" ~duration:20. ~request_interval:0. in
  Engine.run ~until:10. engine;
  check (Alcotest.list Alcotest.string) "frontend answers discovery" [ "m" ] !answer;
  check Alcotest.bool "replica serves the session" true
    (FV.Server.is_primary_of storage sid);
  check (Alcotest.list Alcotest.string) "frontend replicates nothing" []
    (FV.Server.units _frontend)

let test_add_server_mid_run () =
  (* A brand-new server process (fresh GCS node, fresh framework server)
     joins a running deployment: it must merge into the content group,
     receive the database by state exchange, and absorb load. *)
  let policy = { Policy.default with n_backups = 0 } in
  let w = vod_setup ~n:2 ~policy ~seed:409 () in
  Engine.run ~until:3. w.engine;
  (* Six sessions on two servers (3+3); with a third server the even
     share is ceil(6/3)=2, so each incumbent sheds one. *)
  let sids =
    List.init 6 (fun _ ->
        FV.Client.start_session w.client ~unit_id:"m" ~duration:60. ~request_interval:0.)
  in
  Engine.run ~until:10. w.engine;
  let newcomer = Gcs.add_server w.gcs in
  let srv =
    FV.Server.create w.gcs ~proc:newcomer ~policy ~units:[ "m" ] ~catalog:[ "m" ]
      ~events:w.events
  in
  Engine.run ~until:25. w.engine;
  (* The newcomer now holds the full database... *)
  (match FV.Server.db srv "m" with
  | Some db -> check Alcotest.int "db transferred" 6 (Haf_core.Unit_db.size db)
  | None -> Alcotest.fail "unit missing at newcomer");
  (* ...and serves its even share (cap = ceil(4/3) = 2, so >= 1). *)
  let mine = List.filter (fun sid -> FV.Server.is_primary_of srv sid) sids in
  check Alcotest.int "newcomer took its share" 2 (List.length mine);
  (* Migrations were hitless: no duplicate frames anywhere. *)
  List.iter
    (fun sid ->
      let ids = List.map fst (FV.Client.received w.client sid) in
      let dups = List.length ids - List.length (List.sort_uniq compare ids) in
      check Alcotest.int (Printf.sprintf "no dups for %s" sid) 0 dups)
    sids

(* ------------------------------------------------------------------ *)
(* Core safety under random chaos                                      *)

module Unit_db = Haf_core.Unit_db

let prop_consistency_under_chaos =
  (* THE framework safety property: after a random crash/restart schedule
     and a settling period, (a) the live content-group members hold
     identical unit databases, and (b) every surviving session has
     exactly one live self-believed primary. *)
  QCheck.Test.make ~name:"framework: replica consistency + unique primary under chaos"
    ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let policy = { Policy.default with n_backups = 1 } in
      let engine = Engine.create ~seed:(seed + 11) () in
      let gcs = Gcs.create ~num_servers:4 engine in
      let events = Events.make_sink () in
      let mk p =
        FV.Server.create gcs ~proc:p ~policy ~units:[ "m" ] ~catalog:[ "m" ] ~events
      in
      let servers = ref (List.map (fun p -> (p, mk p)) (Gcs.servers gcs)) in
      let cproc = Gcs.add_client gcs in
      let client = FV.Client.create gcs ~proc:cproc ~policy ~events in
      Engine.run ~until:3. engine;
      let sids =
        List.init 3 (fun _ ->
            FV.Client.start_session client ~unit_id:"m" ~duration:80. ~request_interval:2.)
      in
      (* Random crash/restart storm. *)
      let rng = Haf_sim.Rng.create (seed + 13) in
      for _ = 1 to 4 do
        let victim = Haf_sim.Rng.int rng 4 in
        let at = 5. +. Haf_sim.Rng.float rng 15. in
        ignore
          (Engine.schedule_at engine ~time:at (fun () ->
               match List.assoc_opt victim !servers with
               | Some srv when Gcs.alive gcs victim ->
                   FV.Server.stop srv;
                   Gcs.crash gcs victim
               | _ -> ()));
        ignore
          (Engine.schedule_at engine
             ~time:(at +. 3. +. Haf_sim.Rng.float rng 4.)
             (fun () ->
               if not (Gcs.alive gcs victim) then begin
                 Gcs.restart gcs victim;
                 servers := (victim, mk victim) :: List.remove_assoc victim !servers
               end))
      done;
      (* Long settle so all repairs and rebalances complete. *)
      Engine.run ~until:45. engine;
      let live =
        List.filter (fun (p, _) -> Gcs.alive gcs p) !servers
      in
      let dbs = List.filter_map (fun (_, srv) -> FV.Server.db srv "m") live in
      (* Assignments must agree exactly at any instant; snapshots may
         differ by at most the one propagation in flight when the probe
         lands (bounded staleness). *)
      let snap_req db sid =
        match Unit_db.find db sid with
        | Some { Unit_db.propagated = Some sn; _ } -> Haf_core.Seqset.max sn.Unit_db.snap_applied
        | Some { Unit_db.propagated = None; _ } | None -> -1
      in
      let dbs_equal =
        match dbs with
        | first :: rest ->
            List.for_all (fun db -> Unit_db.equal_assignments first db) rest
            && List.for_all
                 (fun sid ->
                   let reqs = List.map (fun db -> snap_req db sid) dbs in
                   List.fold_left Int.max (-1) reqs
                   - List.fold_left Int.min max_int reqs
                   <= 2)
                 (List.concat_map
                    (fun db ->
                      List.map (fun s -> s.Unit_db.session_id) (Unit_db.sessions db))
                    dbs
                 |> List.sort_uniq compare)
        | [] -> false
      in
      let unique_primary =
        List.for_all
          (fun sid ->
            let primaries =
              List.filter (fun (_, srv) -> FV.Server.is_primary_of srv sid) live
            in
            List.length primaries = 1)
          sids
      in
      dbs_equal && unique_primary)

let suite =
  [
    ( "framework.policies",
      [
        Alcotest.test_case "hybrid keeps I-frames" `Quick test_hybrid_policy_critical_only;
        Alcotest.test_case "watchdog total outage" `Quick test_watchdog_recovers_total_outage;
        Alcotest.test_case "propagation cadence" `Quick test_propagation_cadence;
        Alcotest.test_case "staleness bounded" `Quick test_backup_context_staleness_bounded;
        Alcotest.test_case "add server mid-run" `Quick test_add_server_mid_run;
        Alcotest.test_case "invalid policy rejected" `Quick test_invalid_policy_rejected;
        Alcotest.test_case "server without units" `Quick test_server_without_units;
      ] );
    ( "framework.safety",
      List.map QCheck_alcotest.to_alcotest [ prop_consistency_under_chaos ] );
    ( "framework.services",
      [
        Alcotest.test_case "education end-to-end" `Quick test_education_service_end_to_end;
        Alcotest.test_case "education completion" `Quick
          test_education_topic_completion_ends_session;
        Alcotest.test_case "search end-to-end" `Quick test_search_service_end_to_end;
      ] );
  ]
