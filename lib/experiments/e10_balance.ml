(** E10 — Load distribution and primary stickiness.

    Paper claims (Section 3.4): "Upon receiving the new view, the servers
    evenly re-distribute the clients among them" and the selection
    "function is chosen so that the new primary assigned will be the
    former primary if possible".

    Three phases: steady state, a crash (survivors absorb the load), and
    a restart (rebalance moves sessions back).  We report the primary
    imbalance (max-min sessions per live server) at a probe instant of
    each phase, and check that no takeovers happen without cause. *)

module R = Runner.Make (Haf_services.Synthetic)
open Common

let id = "e10"

let title = "E10: load balance and stickiness across crash + rejoin (Sec. 3.4)"

(* Who is primary of [sid] at instant [t], per the event timeline. *)
let primary_at tl ~sid ~t ~horizon =
  Metrics.primary_intervals tl ~sid ~horizon
  |> List.find_map (fun (server, a, b) -> if a <= t && t < b then Some server else None)

let imbalance_at tl ~t ~horizon ~servers =
  let counts = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace counts s 0) servers;
  List.iter
    (fun sid ->
      match primary_at tl ~sid ~t ~horizon with
      | Some s when List.mem s servers ->
          Hashtbl.replace counts s (1 + Hashtbl.find counts s)
      | Some _ | None -> ())
    (Metrics.session_ids tl);
  let values = List.map (fun s -> Hashtbl.find counts s) servers in
  List.fold_left Int.max 0 values - List.fold_left Int.min max_int values

let crash_at = 45.

let restart_at = 80.

let run ~quick =
  ignore quick;
  let table =
    Table.create ~title
      ~columns:
        [
          ("phase", Table.Left);
          ("live servers", Table.Right);
          ("sessions", Table.Right);
          ("primary imbalance (max-min)", Table.Right);
          ("takeovers so far", Table.Right);
        ]
      ()
  in
  let duration = 120. in
  let sc =
    {
      Scenario.default with
      seed = 1000;
      n_servers = 4;
      n_units = 1;
      replication = 4;
      n_clients = 12;
      request_interval = 3.;
      session_duration = duration +. 30.;
      duration;
    }
  in
  let tl, _ =
    R.run_scenario sc ~prepare:(fun w ->
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:crash_at (fun () ->
               R.crash_server w 0));
        ignore
          (Haf_sim.Engine.schedule_at w.R.engine ~time:restart_at (fun () ->
               R.restart_server w 0)))
  in
  let n_sessions = List.length (Metrics.session_ids tl) in
  let takeovers_before t =
    List.length
      (List.filter
         (fun (at, e) ->
           match e with
           | Haf_core.Events.Takeover { kind; _ } ->
               at <= t && kind <> Haf_core.Events.Initial
           | _ -> false)
         tl)
  in
  let probe label t servers =
    Table.add_row table
      [
        label;
        Table.fint (List.length servers);
        Table.fint n_sessions;
        Table.fint (imbalance_at tl ~t ~horizon:duration ~servers);
        Table.fint (takeovers_before t);
      ]
  in
  probe "steady state (t=40)" 40. [ 0; 1; 2; 3 ];
  probe "after crash of server 0 (t=70)" 70. [ 1; 2; 3 ];
  probe "after rejoin of server 0 (t=110)" 110. [ 0; 1; 2; 3 ];
  [ table ]
