(* Refining search: the paper's third motivating service.

     dune exec examples/search_explorer.exe

   A client narrows queries over a document collection; the session
   context is the list of previous result sets, so follow-up queries like
   "restrict query 1 to even ids" only make sense if the context
   survives migration.  We force a migration between queries and check
   that the refinement chain stays consistent. *)

module Engine = Haf_sim.Engine
module Gcs = Haf_gcs.Gcs
module Events = Haf_core.Events
module Policy = Haf_core.Policy
module Search = Haf_services.Search
module F = Haf_core.Framework.Make (Haf_services.Search)

(* Drive explicit queries instead of the random generator: we want a
   specific refinement chain. *)
let queries =
  [
    (* q1: multiples of 3 *)
    Search.Filter { base = None; modulus = 3; residue = 0 };
    (* q2: of those, the even ones -> multiples of 6 *)
    Search.Filter { base = Some 1; modulus = 2; residue = 0 };
    (* q3: intersect q1 with q2 -> still multiples of 6 *)
    Search.Intersect (1, 2);
  ]

let () =
  let engine = Engine.create ~seed:5 () in
  let gcs = Gcs.create ~num_servers:3 engine in
  let events = Events.make_sink () in
  let policy = { Policy.default with n_backups = 1 } in
  let corpus = "corpus:ieee:600" in
  let servers =
    List.map
      (fun p -> F.Server.create gcs ~proc:p ~policy ~units:[ corpus ] ~catalog:[ corpus ] ~events)
      (Gcs.servers gcs)
  in
  let cproc = Gcs.add_client gcs in
  let client = F.Client.create gcs ~proc:cproc ~policy ~events in
  Engine.run ~until:2. engine;
  (* request_interval 0: we inject the queries by hand via the GCS, as a
     raw client of the session group. *)
  let sid = F.Client.start_session client ~unit_id:corpus ~duration:40. ~request_interval:0. in
  Engine.run ~until:4. engine;
  let send_query seq q =
    (* Encode exactly as the framework client does. *)
    let msg = F.Request { session_id = sid; seq; body = q } in
    Gcs.open_send gcs cproc
      (Haf_core.Naming.session_group ~shards:policy.Policy.session_shards sid)
      (Marshal.to_string msg []);
    Events.emit events ~now:(Engine.now engine)
      (Events.Request_sent { client = cproc; session_id = sid; seq })
  in
  List.iteri
    (fun i q ->
      ignore
        (Engine.schedule_at engine
           ~time:(6. +. (8. *. float_of_int i))
           (fun () -> send_query (i + 1) q)))
    queries;
  (* Between q2 and q3, kill the primary: the refinement chain must
     survive on the backup. *)
  ignore
    (Engine.schedule_at engine ~time:18. (fun () ->
         match List.find_opt (fun s -> F.Server.is_primary_of s sid) servers with
         | Some primary ->
             Printf.printf "t=%.1f: crashing search node %d between queries\n"
               (Engine.now engine) (F.Server.proc primary);
             F.Server.stop primary;
             Gcs.crash gcs (F.Server.proc primary);
             Events.emit events ~now:(Engine.now engine)
               (Events.Server_crashed { server = F.Server.proc primary })
         | None -> ()));
  Engine.run ~until:45. engine;

  let tl = Events.events events in
  let module M = Haf_stats.Metrics in
  let hits = M.responses_received tl ~sid in
  (* Hits encode (query * 1_000_000 + doc): reconstruct per-query docs. *)
  let docs_of q =
    List.filter_map
      (fun (_, id, _) -> if id / 1_000_000 = q then Some (id mod 1_000_000) else None)
      hits
    |> List.sort_uniq compare
  in
  let q1 = docs_of 1 and q2 = docs_of 2 and q3 = docs_of 3 in
  Printf.printf "q1 (mod 3):        %d hits\n" (List.length q1);
  Printf.printf "q2 (q1 and even):  %d hits\n" (List.length q2);
  Printf.printf "q3 (q1 inter q2):  %d hits\n" (List.length q3);
  let consistent =
    List.for_all (fun d -> d mod 6 = 0) q2 && List.for_all (fun d -> List.mem d q2) q3
  in
  let lost, sent = M.requests_lost tl ~sid in
  Printf.printf "queries lost: %d of %d\n" lost sent;
  if consistent && List.length q3 > 0 then
    print_endline
      "OK: the refinement chain survived the migration (q3 = q2 = multiples of 6)."
  else print_endline "inconsistent refinement chain - inspect the timeline"
