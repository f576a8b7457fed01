(** Scenario runner: builds a world (engine, GCS fabric, servers,
    clients), injects faults, runs to the horizon and hands back the event
    timeline for analysis. *)

module Engine = Haf_sim.Engine
module Rng = Haf_sim.Rng
module Gcs = Haf_gcs.Gcs
module Network = Haf_net.Network
module Events = Haf_core.Events
module Policy = Haf_core.Policy
module Monitor = Haf_monitor.Monitor
module Stabilize = Haf_monitor.Stabilize
module Chaos = Haf_chaos.Chaos

(* Cross-run violation ledger: every [run] (any functor instantiation)
   appends what its monitor recorded, so the CLI can print a monitor
   summary after an experiment without threading worlds through the
   table-producing code. *)
let observed : Haf_stats.Metrics.violation list ref = ref []

let reset_observed () = observed := []

let observed_violations () = !observed

module Make (S : Haf_core.Service_intf.SERVICE) = struct
  module Fw = Haf_core.Framework.Make (S)

  type world = {
    scenario : Scenario.t;
    engine : Engine.t;
    gcs : Gcs.t;
    events : Events.sink;
    monitor : Monitor.t;
    mutable servers : (int * Fw.Server.t) list;
    clients : Fw.Client.t list;
    stores : (int, Haf_store.Store.t) Hashtbl.t;
        (* One store per server, when the scenario enables stable
           storage.  The store object deliberately outlives the server:
           crash_server power-fails it, restart_server hands the same
           store back so recovery reads what the dead life wrote. *)
    rng : Rng.t;
    corrupt_armed : (string * int, int) Hashtbl.t;
        (* (corruption site, proc) -> pending injections.  apply_schedule
           arms entries here; the engine's corruptor hook consumes one
           per [true] answer, so the corruption lands at the victim's
           next instrumented tick and nowhere else. *)
    mutable stabilizer : Stabilize.t option;
        (* Convergence oracle, when an experiment attached one; probed
           from the monitor loop, told of injections by apply_schedule. *)
    unit_ks : int list;
        (* [0 .. n_units-1], hoisted: the monitor loop used to rebuild
           this list on every tick. *)
  }

  let units_of_server sc p =
    List.filter
      (fun k -> List.mem p (Scenario.servers_for_unit sc k))
      (List.init sc.Scenario.n_units (fun k -> k))
    |> List.map Scenario.unit_name

  let catalog sc = List.init sc.Scenario.n_units Scenario.unit_name

  let setup (sc : Scenario.t) =
    let engine = Engine.create ~seed:sc.seed () in
    let gcs =
      Gcs.create ~net_config:sc.net_config ~gcs_config:sc.gcs_config
        ~num_servers:sc.n_servers engine
    in
    let events = Events.make_sink ~retain:sc.retain_events () in
    (* Every run is monitored: the checker subscribes before any process
       exists, so it sees the complete event stream. *)
    let monitor =
      Monitor.create ~network:(Gcs.network gcs)
        ~servers:(Gcs.servers gcs) ~policy:sc.policy ~gcs:sc.gcs_config ~events ()
    in
    let stores = Hashtbl.create 8 in
    (match sc.store with
    | Some cfg ->
        List.iter
          (fun p ->
            Hashtbl.replace stores p
              (Haf_store.Store.create ~name:(Printf.sprintf "disk.s%d" p) cfg engine))
          (Gcs.servers gcs)
    | None -> ());
    let servers =
      List.map
        (fun p ->
          ( p,
            Fw.Server.create
              ?store:(Hashtbl.find_opt stores p)
              gcs ~proc:p ~policy:sc.policy ~units:(units_of_server sc p)
              ~catalog:(catalog sc) ~events ))
        (Gcs.servers gcs)
    in
    let rng = Engine.fork_rng engine in
    let clients =
      List.init sc.n_clients (fun _ ->
          let proc = Gcs.add_client gcs in
          Fw.Client.create ~retain_responses:sc.retain_responses gcs ~proc
            ~policy:sc.policy ~events)
    in
    let corrupt_armed = Hashtbl.create 8 in
    let w =
      {
        scenario = sc;
        engine;
        gcs;
        events;
        monitor;
        servers;
        clients;
        stores;
        rng;
        corrupt_armed;
        stabilizer = None;
        unit_ks = List.init sc.n_units (fun k -> k);
      }
    in
    (* The corruptor hook answers [true] once per armed (site, proc)
       pair, and tells the convergence oracle at that exact instant —
       the moment the damage actually lands, not the moment the
       schedule op armed it.  An earlier version noted the injection at
       arming time; a monitor probe falling between arming and the
       victim's next tick then saw a still-legal configuration and
       closed the episode before the damage existed. *)
    Engine.set_corruptor engine
      (Some
         (fun ~site ~proc ~occ:_ ->
           match Hashtbl.find_opt corrupt_armed (site, proc) with
           | Some n when n > 0 ->
               Hashtbl.replace corrupt_armed (site, proc) (n - 1);
               (match w.stabilizer with
               | Some st -> Stabilize.note_corruption st ~now:(Engine.now engine)
               | None -> ());
               true
           | Some _ | None -> false));
    (* Client workload: staggered session starts, units chosen
       round-robin so load spreads across content groups. *)
    List.iteri
      (fun ci client ->
        for si = 0 to sc.sessions_per_client - 1 do
          let at =
            sc.warmup
            +. (float_of_int si *. (sc.session_duration +. 3.))
            +. Rng.float rng 1.0
          in
          let unit_id = Scenario.unit_name ((ci + si) mod sc.n_units) in
          ignore
            (Engine.schedule_at engine ~time:at (fun () ->
                 ignore
                   (Fw.Client.start_session client ~unit_id
                      ~duration:sc.session_duration
                      ~request_interval:sc.request_interval)))
        done)
      clients;
    w

  (* ---------------------------------------------------------------- *)
  (* Fault injection                                                   *)

  let store_of w p = Hashtbl.find_opt w.stores p

  let crash_server w p =
    match List.assoc_opt p w.servers with
    | Some srv when Gcs.alive w.gcs p ->
        Fw.Server.stop srv;
        (* Power loss hits the disk at the same instant as the process:
           unsynced writes are lost (or torn), per the fault config. *)
        (match store_of w p with
        | Some st -> Haf_store.Store.crash st
        | None -> ());
        Gcs.crash w.gcs p;
        Events.emit w.events ~now:(Engine.now w.engine) (Events.Server_crashed { server = p })
    | Some _ | None -> ()

  let restart_server w p =
    if not (Gcs.alive w.gcs p) then begin
      Gcs.restart w.gcs p;
      let srv =
        Fw.Server.create
          ?store:(store_of w p)
          w.gcs ~proc:p ~policy:w.scenario.Scenario.policy
          ~units:(units_of_server w.scenario p)
          ~catalog:(catalog w.scenario) ~events:w.events
      in
      w.servers <- (p, srv) :: List.remove_assoc p w.servers;
      Events.emit w.events ~now:(Engine.now w.engine)
        (Events.Server_restarted { server = p })
    end

  let live_servers w = List.filter (fun (p, _) -> Gcs.alive w.gcs p) w.servers

  let current_primary w sid =
    List.find_map
      (fun (p, srv) -> if Fw.Server.is_primary_of srv sid then Some p else None)
      (live_servers w)

  let all_session_ids w = List.concat_map Fw.Client.session_ids w.clients

  (* Independent Poisson crash processes per server, with optional
     exponential repair (a repaired server rejoins as a fresh process and
     triggers the state-exchange/rebalance path). *)
  let schedule_poisson_crashes w ~lambda ?repair ?(start = 0.) ?stop () =
    let stop = Option.value stop ~default:w.scenario.Scenario.duration in
    let rng = Rng.split w.rng in
    List.iter
      (fun (p, _) ->
        let rec plan t =
          let t = t +. Rng.exponential rng ~mean:(1. /. lambda) in
          if t < stop then begin
            ignore (Engine.schedule_at w.engine ~time:t (fun () -> crash_server w p));
            match repair with
            | Some mean ->
                let back = t +. Rng.exponential rng ~mean in
                if back < stop then begin
                  ignore
                    (Engine.schedule_at w.engine ~time:back (fun () ->
                         restart_server w p));
                  plan back
                end
            | None -> ()
          end
        in
        plan start)
      w.servers

  (* Periodically crash the current primary of some active session: the
     targeted schedule used to measure takeover behaviour. *)
  let schedule_primary_kills w ~every ?repair ?(start = 10.) ?stop () =
    let stop = Option.value stop ~default:(w.scenario.Scenario.duration -. 5.) in
    let rng = Rng.split w.rng in
    let rec plan t =
      if t < stop then begin
        ignore
          (Engine.schedule_at w.engine ~time:t (fun () ->
               let sids = all_session_ids w in
               let primaries = List.filter_map (current_primary w) sids in
               match List.sort_uniq compare primaries with
               | [] -> ()
               | ps ->
                   let victim = Rng.pick rng ps in
                   crash_server w victim;
                   (match repair with
                   | Some mean ->
                       ignore
                         (Engine.schedule w.engine
                            ~delay:(Rng.exponential rng ~mean)
                            (fun () -> restart_server w victim))
                   | None -> ())));
        plan (t +. every)
      end
    in
    plan start

  (* Correlated failure events aimed at session groups: every [every]
     seconds, each server currently serving some session (primary or
     backup) crashes independently with probability [kill_prob], and is
     repaired [repair] seconds later.  This is the fault pattern of the
     paper's loss analysis — "every session group member failing during
     the period between propagations" — with P(all die) decaying
     geometrically in the group size. *)
  let schedule_group_wipes w ~every ~kill_prob ~repair ?(start = 10.) ?stop () =
    let stop = Option.value stop ~default:(w.scenario.Scenario.duration -. 5.) in
    let rng = Rng.split w.rng in
    let rec plan t =
      if t < stop then begin
        ignore
          (Engine.schedule_at w.engine ~time:t (fun () ->
               (* One session's group per event: the blast radius is the
                  session group, never the whole cluster, so the unit
                  database always survives somewhere. *)
               match all_session_ids w with
               | [] -> ()
               | sids ->
                   let sid = Rng.pick rng sids in
                   let group_members =
                     List.filter_map
                       (fun (p, srv) ->
                         if List.mem_assoc sid (Fw.Server.sessions_served srv) then
                           Some p
                         else None)
                       (live_servers w)
                   in
                   List.iter
                     (fun p ->
                       if Rng.chance rng kill_prob then begin
                         crash_server w p;
                         ignore
                           (Engine.schedule w.engine ~delay:repair (fun () ->
                                restart_server w p))
                       end)
                     group_members));
        plan (t +. every)
      end
    in
    plan start

  (* Simultaneous loss of an entire content group: every live replica
     of unit [unit_k] crashes now and restarts [repair] seconds later.
     Without stable storage this is unsurvivable — nobody in the merged
     view ever held the unit database, so sessions restart from scratch.
     With a store each replica recovers its database from snapshot+WAL
     and the digest/delta exchange reconciles the copies. *)
  let wipe_unit w ~unit_k ~repair =
    let victims =
      List.filter (Gcs.alive w.gcs) (Scenario.servers_for_unit w.scenario unit_k)
    in
    List.iter (crash_server w) victims;
    List.iter
      (fun p ->
        ignore (Engine.schedule w.engine ~delay:repair (fun () -> restart_server w p)))
      victims

  (* ---------------------------------------------------------------- *)
  (* Chaos schedules                                                   *)

  (* Interpret a {!Haf_chaos.Chaos.schedule} against this world.  Ops
     name servers/units by index; every op is idempotent and tolerant of
     the current state (restart of a live server, crash of a dead one,
     faults on a storeless server are no-ops), so arbitrary shrunk
     subsets of a schedule remain interpretable. *)
  let apply_schedule w (sched : Chaos.schedule) =
    let sc = w.scenario in
    let server_ids = Array.of_list (Gcs.servers w.gcs) in
    let n = Array.length server_ids in
    let proc i = server_ids.(((i mod n) + n) mod n) in
    let net = Gcs.network w.gcs in
    (* Crash-restart storms would otherwise accumulate retransmission
       timers toward peers that never come back as the same incarnation;
       under chaos, channels silent for 30 s are declared dead. *)
    Haf_net.Transport.set_give_up_after (Gcs.transport w.gcs) (Some 30.);
    let apply_op op =
      match (op : Chaos.op) with
      | Chaos.Partition comps ->
          let comps = List.map (List.map proc) comps in
          (* Clients are not named by schedules: deal them round-robin
             across the components so every side keeps some load. *)
          let ncomps = List.length comps in
          let client_procs = List.map Fw.Client.proc w.clients in
          let comps =
            if ncomps = 0 then [ client_procs ]
            else
              List.mapi
                (fun ci comp ->
                  comp
                  @ List.filteri (fun i _ -> i mod ncomps = ci) client_procs)
                comps
          in
          Network.partition net comps
      | Chaos.Heal -> Network.heal_links net
      | Chaos.Link { src; dst; up } -> Network.set_link net (proc src) (proc dst) up
      | Chaos.Delay { src; dst; extra } ->
          Network.set_link_delay net (proc src) (proc dst)
            (if extra > 0. then Some extra else None)
      | Chaos.Crash s -> crash_server w (proc s)
      | Chaos.Restart s -> restart_server w (proc s)
      | Chaos.Wipe_unit u ->
          let k = ((u mod Int.max 1 sc.Scenario.n_units) + sc.Scenario.n_units)
                  mod Int.max 1 sc.Scenario.n_units
          in
          wipe_unit w ~unit_k:k ~repair:5.
      | Chaos.Corrupt { server; target } ->
          (* Arm one injection at the victim's instrumented corruption
             site; the damage itself is applied by the component at its
             next tick, so it hits a real protocol step
             deterministically.  The corruptor hook (see [setup]) starts
             the convergence oracle's clock at that landing instant. *)
          let site = "corrupt." ^ Chaos.target_to_string target in
          let key = (site, proc server) in
          let pending =
            Option.value (Hashtbl.find_opt w.corrupt_armed key) ~default:0
          in
          Hashtbl.replace w.corrupt_armed key (pending + 1)
      | Chaos.Disk_faults { server; on } -> (
          match store_of w (proc server) with
          | Some st ->
              Haf_store.Store.set_faults st
                (if on then Haf_store.Disk.default_faults
                 else
                   match sc.Scenario.store with
                   | Some cfg -> cfg.Haf_store.Store.faults
                   | None -> Haf_store.Disk.no_faults)
          | None -> ())
    in
    List.iter
      (fun (at, op) ->
        ignore (Engine.schedule_at w.engine ~time:at (fun () -> apply_op op)))
      sched

  (* ---------------------------------------------------------------- *)
  (* Monitoring loop                                                   *)

  (* No two mutually reachable live servers both claim primary for one
     session (partitioned duals are legal — the monitor's component
     rule).  Only sessions with >= 2 event-level primary claims can fail:
     everything else has at most one server whose role events say
     "primary", and role events are emitted synchronously with the
     belief change, so the monitor's claims index
     ({!Monitor.multi_primary_sessions}) cannot under-count.  Each
     candidate is still judged against ground truth
     ([Server.is_primary_of]), never against the index itself. *)
  let unique_primaries w =
    let net = Gcs.network w.gcs in
    let servers = Gcs.servers w.gcs in
    let live = live_servers w in
    let unique_ok sid =
      let ps =
        List.filter_map
          (fun (p, srv) -> if Fw.Server.is_primary_of srv sid then Some p else None)
          live
      in
      List.for_all
        (fun p ->
          List.for_all
            (fun q -> p >= q || not (Network.reachable net ~among:servers p q))
            ps)
        ps
    in
    List.for_all unique_ok (Monitor.multi_primary_sessions w.monitor)

  (* Every pair of settled members of one content-group view that can
     reach each other, per unit: [(unit, p, q, agree)] with [p < q] and
     [agree] iff their unit databases hold the same assignments.  Both
     the legality oracle and invariant (d)'s probe read this. *)
  let assignment_pairs w =
    let net = Gcs.network w.gcs in
    let servers = Gcs.servers w.gcs in
    let live = live_servers w in
    List.concat_map
      (fun k ->
        let u = Scenario.unit_name k in
        let holders =
          List.filter_map
            (fun (p, srv) ->
              if Fw.Server.unit_settled srv u then
                match (Fw.Server.unit_view srv u, Fw.Server.db srv u) with
                | Some vid, Some db -> Some (p, vid, db)
                | _ -> None
              else None)
            live
        in
        List.concat_map
          (fun (p, vid, db) ->
            List.filter_map
              (fun (q, vid', db') ->
                if
                  p < q
                  && Haf_gcs.View.Id.equal vid vid'
                  && Network.reachable net ~among:servers p q
                then Some (u, p, q, Haf_core.Unit_db.equal_assignments db db')
                else None)
              holders)
          holders)
      w.unit_ks

  (* A "legal configuration" in the self-stabilization sense: every live
     process passes its local audits (GCS per-group checks and the
     framework's unit-db checksums), [unique_primaries] holds, and
     settled sharers of a unit view agree on the assignment.
     Deliberately evaluated through the {e pure} audit predicates
     ([Daemon.audit_ok], [Server.units_sound]), which ignore
     [Audit.enabled] — so the oracle tells a hardened build (converges)
     from an unhardened one (stays illegal) without the build under test
     grading its own homework. *)
  let legal_configuration w =
    let live = live_servers w in
    let audits_ok =
      List.for_all
        (fun (p, srv) ->
          Haf_gcs.Daemon.audit_ok (Gcs.daemon w.gcs p)
          && Fw.Server.units_sound srv)
        live
    in
    let assignments_agree =
      List.for_all (fun (_, _, _, agree) -> agree) (assignment_pairs w)
    in
    audits_ok && unique_primaries w && assignments_agree

  let track_stabilization w ~window =
    let st =
      Stabilize.create ~window ~report:(fun ~now ~detail ->
          Monitor.report w.monitor ~now ~invariant:Haf_stats.Metrics.Convergence
            ~detail ())
    in
    w.stabilizer <- Some st;
    st

  let probe_stabilizer w =
    match w.stabilizer with
    | Some st ->
        Stabilize.probe st ~now:(Engine.now w.engine)
          ~legal:(legal_configuration w)
    | None -> ()

  (* Invariant (d): settled members of the same content-group view that
     can reach each other must agree on the session assignments.  The
     disagreement must persist across two probes ~0.5 s apart before it
     is reported: totally ordered deliveries land at different members
     at slightly different instants, and that skew is not a bug. *)
  let probe_assignments w pending =
    let now = Engine.now w.engine in
    List.iter
      (fun (u, p, q, agree) ->
        let key = Printf.sprintf "%s/%d/%d" u p q in
        if agree then Hashtbl.remove pending key
        else
          match Hashtbl.find_opt pending key with
          | None -> Hashtbl.replace pending key now
          | Some first when first = infinity -> ()  (* reported *)
          | Some first ->
              if now -. first >= 2. *. w.scenario.Scenario.monitor_interval then begin
                Monitor.report w.monitor ~now
                  ~invariant:Haf_stats.Metrics.Assignment_agreement
                  ~detail:
                    (Printf.sprintf
                       "s%d and s%d share view of %s but disagree on \
                        assignments (for %.2fs)"
                       p q u (now -. first))
                  ();
                Hashtbl.replace pending key infinity
              end)
      (assignment_pairs w)

  let start_monitor w =
    let pending = Hashtbl.create 16 in
    let interval = w.scenario.Scenario.monitor_interval in
    let rec loop t =
      if t <= w.scenario.Scenario.duration then
        ignore
          (Engine.schedule_at w.engine ~time:t (fun () ->
               Monitor.pump w.monitor ~now:(Engine.now w.engine);
               probe_assignments w pending;
               probe_stabilizer w;
               loop (t +. interval)))
    in
    loop interval

  let violations w = Monitor.violations w.monitor

  (* ---------------------------------------------------------------- *)

  let run w =
    start_monitor w;
    Engine.run ~until:w.scenario.Scenario.duration w.engine;
    Monitor.pump w.monitor ~now:(Engine.now w.engine);
    probe_stabilizer w;
    observed := !observed @ violations w;
    Events.events w.events

  let run_scenario ?prepare (sc : Scenario.t) =
    let w = setup sc in
    (match prepare with Some f -> f w | None -> ());
    let tl = run w in
    (tl, w)

  let server_counters w =
    List.map (fun (p, _) -> (p, Network.counters (Gcs.network w.gcs) p)) w.servers
end
