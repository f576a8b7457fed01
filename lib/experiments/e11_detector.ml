(** E11 (ablation) — failure-detector aggressiveness.

    The paper leans on the GCS assumption that "while the network is
    fairly stable, and process failures can be consistently detected,
    such agreement can be reached".  The knob behind that assumption is
    the suspicion timeout: crash takeover latency is detection-bound
    (E5), so shortening the timeout speeds recovery — but on a lossy
    network an aggressive detector falsely suspects live peers, causing
    spurious view changes (churn) that each cost a flush round and a
    reassignment.

    We sweep the (heartbeat, suspicion) pair over a 5%-lossy LAN with
    periodic primary kills, and measure takeover latency, total view
    changes and client availability: the sweet spot in the middle is the
    design tradeoff this repository's default (100 ms / 350 ms)
    encodes. *)

module R = Runner.Make (Haf_services.Synthetic)
open Common

let id = "e11"

let title = "E11 (ablation): failure-detector timeout vs recovery speed and churn"

let run ~quick =
  let table =
    Table.create ~title
      ~columns:
        [
          ("network", Table.Left);
          ("heartbeat", Table.Right);
          ("suspect timeout", Table.Right);
          ("takeover latency", Table.Right);
          ("view changes", Table.Right);
          ("availability", Table.Right);
        ]
      ()
  in
  let duration = if quick then 90. else 200. in
  List.iter
    (fun (net_name, net_config, hb, suspect) ->
      let lats, churn, avail, runs =
        List.fold_left
          (fun (ls, vc, av, n) seed ->
            let sc =
              {
                Scenario.default with
                seed;
                n_servers = 4;
                n_units = 1;
                replication = 4;
                n_clients = 3;
                request_interval = 0.;
                session_duration = duration +. 30.;
                duration;
                net_config;
                gcs_config =
                  {
                    Haf_gcs.Config.default with
                    heartbeat_interval = hb;
                    suspect_timeout = suspect;
                  };
              }
            in
            let tl, w =
              R.run_scenario sc ~prepare:(fun w ->
                  R.schedule_primary_kills w ~every:25. ~repair:8. ~start:12. ())
            in
            ( ls @ Metrics.takeover_latencies tl,
              vc + Haf_gcs.Gcs.total_view_changes w.R.gcs,
              av +. mean_availability tl ~until:duration,
              n + 1 ))
          ([], 0, 0., 0)
          (seeds ~quick ~base:1100)
      in
      let lat = Summary.of_list lats in
      Table.add_row table
        [
          net_name;
          Printf.sprintf "%gms" (1000. *. hb);
          Printf.sprintf "%gms" (1000. *. suspect);
          Printf.sprintf "%.3fs" lat.Summary.mean;
          Table.fint (churn / Int.max 1 runs);
          Table.fpct (avail /. float_of_int (Int.max 1 runs));
        ])
    (let lan = { Haf_net.Network.default_config with drop_probability = 0.05 } in
     let wan =
       {
         Haf_net.Network.latency = Haf_net.Latency.wan;
         drop_probability = 0.05;
       }
     in
     [
       ("lan", lan, 0.05, 0.12);
       ("lan", lan, 0.1, 0.35);
       ("lan", lan, 0.1, 0.8);
       ("lan", lan, 0.1, 2.0);
       (* WAN rows: the detection cost now includes the ~50 ms one-way
          path, and operators typically scale timeouts with the RTT —
          the second row is a WAN-typical setting. *)
       ("wan", wan, 0.1, 0.35);
       ("wan", wan, 0.5, 1.5);
     ]);
  [ table ]
