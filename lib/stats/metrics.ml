module Events = Haf_core.Events
module Seqset = Haf_core.Seqset

type timeline = (float * Events.t) list

let session_ids tl =
  List.filter_map
    (fun (_, e) ->
      match e with Events.Session_requested { session_id; _ } -> Some session_id | _ -> None)
    tl
  |> List.sort_uniq compare

let responses_received tl ~sid =
  List.filter_map
    (fun (at, e) ->
      match e with
      | Events.Response_received { session_id; id; critical; _ } when session_id = sid ->
          Some (at, id, critical)
      | _ -> None)
    tl

let filter_critical critical rs =
  match critical with
  | None -> rs
  | Some want -> List.filter (fun (_, _, c) -> c = want) rs

let duplicates ?critical tl ~sid =
  let rs = filter_critical critical (responses_received tl ~sid) in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (_, id, _) ->
      Hashtbl.replace tbl id (1 + Option.value (Hashtbl.find_opt tbl id) ~default:0))
    rs;
  Hashtbl.fold (fun _ n acc -> acc + Int.max 0 (n - 1)) tbl 0

let missing ?critical tl ~sid =
  let rs = filter_critical critical (responses_received tl ~sid) in
  match List.sort_uniq compare (List.map (fun (_, id, _) -> id) rs) with
  | [] -> 0
  | first :: _ as ids ->
      let last = List.nth ids (List.length ids - 1) in
      (* For the critical-only view the id space is sparse; count against
         the number of distinct ids actually possible is unknowable here,
         so this function is meaningful for contiguous id streams
         (critical=None) and for evenly spaced critical ids. *)
      let span = last - first + 1 in
      let step =
        match ids with
        | a :: b :: _ when critical <> None && b - a > 1 -> b - a
        | _ -> 1
      in
      (span / step) + (if span mod step > 0 then 1 else 0) - List.length ids

let grant_time tl ~sid =
  List.find_map
    (fun (at, e) ->
      match e with
      | Events.Session_granted { session_id; _ } when session_id = sid -> Some at
      | _ -> None)
    tl

let stall_time tl ~sid ~threshold ~until =
  match grant_time tl ~sid with
  | None -> 0.
  | Some t0 ->
      let arrivals =
        responses_received tl ~sid
        |> List.map (fun (at, _, _) -> at)
        |> List.filter (fun at -> at >= t0 && at <= until)
      in
      let points = (t0 :: arrivals) @ [ until ] in
      let rec walk acc = function
        | a :: (b :: _ as rest) ->
            let gap = b -. a in
            walk (if gap > threshold then acc +. (gap -. threshold) else acc) rest
        | [ _ ] | [] -> acc
      in
      walk 0. points

let availability tl ~sid ~threshold ~until =
  match grant_time tl ~sid with
  | None -> 0.
  | Some t0 ->
      let span = until -. t0 in
      if span <= 0. then 0.
      else Float.max 0. (1. -. (stall_time tl ~sid ~threshold ~until /. span))

let requests_lost tl ~sid =
  (* Reconstruct the knowledge lineage of the serving primaries.  Each
     server accumulates the request seqs it applied; a propagation
     publishes the primary's exact incorporated set; a takeover's new
     primary inherits from the handing-over primary (rebalance), from its
     own backup knowledge plus the latest snapshot (crash), or from the
     snapshot alone.  A request is lost iff its seq is absent from the
     final primary's knowledge — i.e. its effect never survived into the
     context actually serving the client (the paper's notion of a lost
     context update). *)
  let sent = ref Seqset.empty and n_sent = ref 0 in
  let knowledge : (int, Seqset.t) Hashtbl.t = Hashtbl.create 8 in
  let know server = Option.value (Hashtbl.find_opt knowledge server) ~default:Seqset.empty in
  let learn server seqs = Hashtbl.replace knowledge server (Seqset.union seqs (know server)) in
  let snapshot = ref Seqset.empty in
  let current_primary = ref None in
  List.iter
    (fun (_, e) ->
      match e with
      | Events.Request_sent { session_id; seq; _ } when session_id = sid ->
          sent := Seqset.add seq !sent;
          incr n_sent
      | Events.Request_applied { session_id; seq; server; _ } when session_id = sid ->
          Hashtbl.replace knowledge server (Seqset.add seq (know server))
      | Events.Propagated { session_id; applied; _ } when session_id = sid ->
          snapshot := applied
      | Events.Takeover { session_id; server; from_primary; kind; _ }
        when session_id = sid ->
          (match (kind, from_primary) with
          | Events.Rebalance, Some p ->
              (* Exact handoff from a live predecessor. *)
              learn server (know p)
          | (Events.Crash | Events.Initial | Events.Rebalance), _ ->
              (* Resume from the unit database: the latest propagated
                 snapshot, merged with whatever this server saw itself
                 (as a backup it applied every request it received). *)
              learn server !snapshot);
          current_primary := Some server
      | Events.Role_assumed { session_id; server; role = Events.Primary }
        when session_id = sid ->
          current_primary := Some server
      | _ -> ())
    tl;
  let final_knowledge =
    match !current_primary with Some p -> know p | None -> !snapshot
  in
  (List.length (Seqset.to_list (Seqset.diff !sent final_knowledge)), !n_sent)

let primary_intervals tl ~sid ~horizon =
  (* Scan the timeline keeping per-server open intervals. *)
  let open_at = Hashtbl.create 8 in
  let finished = ref [] in
  List.iter
    (fun (at, e) ->
      match e with
      | Events.Role_assumed { server; session_id; role = Events.Primary }
        when session_id = sid ->
          if not (Hashtbl.mem open_at server) then Hashtbl.replace open_at server at
      | Events.Role_dropped { server; session_id; role = Events.Primary }
        when session_id = sid -> (
          match Hashtbl.find_opt open_at server with
          | Some t0 ->
              Hashtbl.remove open_at server;
              finished := (server, t0, at) :: !finished
          | None -> ())
      | Events.Server_crashed { server } -> (
          match Hashtbl.find_opt open_at server with
          | Some t0 ->
              Hashtbl.remove open_at server;
              finished := (server, t0, at) :: !finished
          | None -> ())
      | _ -> ())
    tl;
  Hashtbl.iter (fun server t0 -> finished := (server, t0, horizon) :: !finished) open_at;
  List.sort compare !finished

let time_with_count intervals ~pred =
  (* Sweep over interval boundaries, accumulating time where the number
     of simultaneously open intervals satisfies [pred]. *)
  let boundaries =
    List.concat_map (fun (_, a, b) -> [ (a, 1); (b, -1) ]) intervals
    |> List.sort compare
  in
  let rec sweep acc count last = function
    | [] -> acc
    | (at, delta) :: rest ->
        let acc = if pred count then acc +. (at -. last) else acc in
        sweep acc (count + delta) at rest
  in
  match boundaries with
  | [] -> 0.
  | (first, _) :: _ -> sweep 0. 0 first boundaries

let dual_primary_time tl ~sid ~horizon =
  time_with_count (primary_intervals tl ~sid ~horizon) ~pred:(fun c -> c >= 2)

let no_primary_time tl ~sid ~horizon =
  match primary_intervals tl ~sid ~horizon with
  | [] -> 0.
  | intervals ->
      let start = List.fold_left (fun acc (_, a, _) -> Float.min acc a) infinity intervals in
      let covered = time_with_count intervals ~pred:(fun c -> c >= 1) in
      Float.max 0. (horizon -. start -. covered)

let response_arrivals tl ~sid =
  List.filter_map
    (fun (at, e) ->
      match e with
      | Events.Response_received { session_id; from_server; _ } when session_id = sid ->
          Some (at, from_server)
      | _ -> None)
    tl

let multi_source_time tl ~sid ~window =
  let arrivals = List.sort compare (response_arrivals tl ~sid) in
  let arr = Array.of_list arrivals in
  let n = Array.length arr in
  (* Mark [t - w/2, t + w/2] around every arrival that has a
     different-server neighbour within the window, then merge. *)
  let marked = ref [] in
  for i = 0 to n - 1 do
    let t, s = arr.(i) in
    let has_other = ref false in
    let j = ref (i - 1) in
    while !j >= 0 && fst arr.(!j) >= t -. window do
      if snd arr.(!j) <> s then has_other := true;
      decr j
    done;
    let j = ref (i + 1) in
    while !j < n && fst arr.(!j) <= t +. window do
      if snd arr.(!j) <> s then has_other := true;
      incr j
    done;
    if !has_other then marked := (t -. (window /. 2.), t +. (window /. 2.)) :: !marked
  done;
  let merged =
    List.fold_left
      (fun acc (a, b) ->
        match acc with
        | (pa, pb) :: rest when a <= pb -> (pa, Float.max pb b) :: rest
        | _ -> (a, b) :: acc)
      []
      (List.sort compare !marked)
  in
  List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. merged

(* The client-visible latencies, in one chronological fold.  A session's
   grant is timed from its first request to its first grant: the
   client's receipt of the server's grant and any re-grant add no
   sample.  A crash takeover is timed from its predecessor's latest
   crash, kept per server, together with the latest time each server
   assumed each session's primary role: a predecessor that assumed the
   role after its latest crash was live when it was taken over; one that
   restarted without assuming it is still the crashed primary (the
   restart beat the takeover). *)
type grant_state = Asked of float | Answered

type latencies = {
  sessions : (string, grant_state) Hashtbl.t;
  crashed : (int, float) Hashtbl.t;
  assumed : (int * string, float) Hashtbl.t;
  mutable grants : float list;  (* newest first *)
  mutable takeovers : float list;  (* newest first *)
}

let latencies () =
  {
    sessions = Hashtbl.create 64;
    crashed = Hashtbl.create 8;
    assumed = Hashtbl.create 64;
    grants = [];
    takeovers = [];
  }

let observe l ~now = function
  | Events.Session_requested { session_id; _ } ->
      if not (Hashtbl.mem l.sessions session_id) then
        Hashtbl.replace l.sessions session_id (Asked now)
  | Events.Session_granted { session_id; _ } -> (
      match Hashtbl.find_opt l.sessions session_id with
      | Some (Asked t0) ->
          Hashtbl.replace l.sessions session_id Answered;
          l.grants <- (now -. t0) :: l.grants
      | Some Answered | None -> ())
  | Events.Server_crashed { server } -> Hashtbl.replace l.crashed server now
  | Events.Role_assumed { server; session_id; role = Events.Primary } ->
      Hashtbl.replace l.assumed (server, session_id) now
  | Events.Takeover { kind = Events.Crash; from_primary = Some p; session_id; _ } -> (
      match (Hashtbl.find_opt l.crashed p, Hashtbl.find_opt l.assumed (p, session_id)) with
      | Some crash, Some since when since < crash ->
          l.takeovers <- (now -. crash) :: l.takeovers
      | Some crash, None -> l.takeovers <- (now -. crash) :: l.takeovers
      | Some _, Some _ | None, _ -> ())
  | _ -> ()

let grants l = List.rev l.grants

let takeovers l = List.rev l.takeovers

let fold_timeline tl =
  let l = latencies () in
  List.iter (fun (at, e) -> observe l ~now:at e) tl;
  l

let grant_latencies tl = grants (fold_timeline tl)

let takeover_latencies tl = takeovers (fold_timeline tl)

let count_takeovers ?kind tl =
  List.length
    (List.filter
       (fun (_, e) ->
         match e with
         | Events.Takeover { kind = k; _ } -> ( match kind with None -> true | Some want -> k = want)
         | _ -> false)
       tl)

let count_propagations ?server tl =
  List.length
    (List.filter
       (fun (_, e) ->
         match e with
         | Events.Propagated { server = s; _ } -> (
             match server with None -> true | Some want -> s = want)
         | _ -> false)
       tl)

let count_requests_applied ?server ?role tl =
  List.length
    (List.filter
       (fun (_, e) ->
         match e with
         | Events.Request_applied { server = s; role = r; _ } ->
             (match server with None -> true | Some want -> s = want)
             && (match role with None -> true | Some want -> r = want)
         | _ -> false)
       tl)

type invariant =
  | Unique_primary
  | No_acked_loss
  | Staleness_bound
  | Assignment_agreement
  | Convergence

type violation = {
  v_time : float;
  v_invariant : invariant;
  v_session : string option;
  v_detail : string;
}

let invariant_to_string = function
  | Unique_primary -> "unique-primary"
  | No_acked_loss -> "no-acked-loss"
  | Staleness_bound -> "staleness-bound"
  | Assignment_agreement -> "assignment-agreement"
  | Convergence -> "convergence"

let pp_violation ppf v =
  Format.fprintf ppf "[%8.3f] %s%s: %s" v.v_time
    (invariant_to_string v.v_invariant)
    (match v.v_session with Some s -> " (" ^ s ^ ")" | None -> "")
    v.v_detail

let responses_sent ?server tl =
  List.length
    (List.filter
       (fun (_, e) ->
         match e with
         | Events.Response_sent { server = s; _ } -> (
             match server with None -> true | Some want -> s = want)
         | _ -> false)
       tl)
