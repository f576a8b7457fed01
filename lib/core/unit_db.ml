type 'ctx snapshot = {
  snap_ctx : 'ctx;
  snap_applied : Seqset.t;
  snap_at : float;
}

(* Field order is part of the wire and disk bytes: state deltas, merge
   records and snapshot blobs marshal sessions as they are. *)
type 'ctx session = {
  session_id : string;
  client : int;
  unit_id : string;
  started_at : float;
  mutable propagated : 'ctx snapshot option;
  mutable primary : int option;
  mutable backups : int list;
  mutable ended : bool;
}

type 'ctx t = {
  uid : string;
  tbl : (string, 'ctx session) Hashtbl.t;
  mutable cache : int;
      (* XOR of the per-session digest hashes, maintained incrementally
         by every sanctioned mutation — O(1) to read where the old
         implementation recomputed O(n log n).  [checksum] is still a
         full recompute, so comparing the two convicts out-of-band
         damage exactly as before. *)
}

let create ~unit_id () = { uid = unit_id; tbl = Hashtbl.create 16; cache = 0 }

let unit_id t = t.uid

let[@hot] find t sid = Hashtbl.find_opt t.tbl sid

let[@hot] mem t sid = Hashtbl.mem t.tbl sid

(* The per-session digest: every coordination-relevant field of a session
   except the service context itself.  Two uses: (a) the total
   preference order below, shared by merges and by the framework's
   digest/delta state exchange so both pick the same winner; (b) the
   wire digest a recovering member advertises so peers ship only the
   records it lacks.  Sentinels: [d_req_seq = -1] / [d_primary = -1]
   encode "no snapshot" / "no primary" (real values are >= 0). *)
type digest = {
  d_session_id : string;
  d_client : int;
  d_started_at : float;
  d_req_seq : int;
  d_at : float;
  d_primary : int;
  d_backups : int list;
  d_ended : bool;
}

let digest_of_session s =
  let d_req_seq, d_at =
    match s.propagated with
    | Some p -> (Seqset.max p.snap_applied, p.snap_at)
    | None -> (-1, 0.)
  in
  {
    d_session_id = s.session_id;
    d_client = s.client;
    d_started_at = s.started_at;
    d_req_seq;
    d_at;
    d_primary = Option.value s.primary ~default:(-1);
    d_backups = s.backups;
    d_ended = s.ended;
  }

(* One session's contribution to the checksum.  Hashed with generous
   node limits — the default [Hashtbl.hash] stops after 10 meaningful
   nodes, which would let a flip deep in a long field list slip through
   unchanged — then multiplied to spread structurally similar digests
   before the XOR combine. *)
let session_hash s =
  Hashtbl.hash_param 256 256 (digest_of_session s) * 0x9e3779b9 land max_int (* haf-lint: allow R2 — local integrity checksum, never compared across processes *)

(* Run a sanctioned in-place mutation, keeping the incremental cache in
   sync: XOR out the old contribution, XOR in the new. *)
let touching t s f =
  let before = session_hash s in
  f s;
  t.cache <- t.cache lxor before lxor session_hash s

(* The session for [session_id], inserted fresh if absent. *)
let add t ~session_id ~client ~started_at =
  match Hashtbl.find_opt t.tbl session_id with
  | Some s -> s
  | None ->
      let s =
        {
          session_id;
          client;
          unit_id = t.uid;
          started_at;
          primary = None;
          backups = [];
          propagated = None;
          ended = false;
        }
      in
      Hashtbl.replace t.tbl session_id s;
      t.cache <- t.cache lxor session_hash s;
      s

let remove_session t sid =
  match Hashtbl.find_opt t.tbl sid with
  | None -> ()
  | Some s ->
      t.cache <- t.cache lxor session_hash s;
      Hashtbl.remove t.tbl sid

let live t sid = match find t sid with Some s -> not s.ended | None -> false

let sessions t = Haf_sim.Det_tbl.sorted_values ~compare:String.compare t.tbl

let live_sessions t = List.filter (fun s -> not s.ended) (sessions t)

let size t = Hashtbl.length t.tbl

(* The one snapshot-freshness rule, over (highest applied seq, [snap_at])
   pairs, a seq of [-1] meaning no snapshot: newest request first, then
   wall-clock as a tiebreak; a snapshot beats none. *)
let compare_freshness ~seq_a ~at_a ~seq_b ~at_b =
  if seq_a < 0 && seq_b < 0 then 0
  else if seq_b < 0 then 1
  else if seq_a < 0 then -1
  else if seq_a <> seq_b then Int.compare seq_a seq_b
  else Float.compare at_a at_b

(* A detached copy: later mutations of the table do not reach it. *)
let copy s = { s with ended = s.ended }

let export t = List.map copy (sessions t)

(* Compare only the replicated-content part of two digests: which
   propagated snapshot is fresher (the [-1] sentinel means none).
   Assignment and identity fields are deliberately ignored — a state
   exchange reconciles those from the digests themselves, so a record
   differing only in assignment never needs to travel. *)
let digest_snap_compare a b =
  (* A tombstone outranks any snapshot: an End is the final word on a
     session's content, so it both wins merges and gets shipped to
     members still holding live copies. *)
  if a.d_ended || b.d_ended then Bool.compare a.d_ended b.d_ended
  else compare_freshness ~seq_a:a.d_req_seq ~at_a:a.d_at ~seq_b:b.d_req_seq ~at_b:b.d_at

(* Total preference order (positive = first argument wins) so that
   merges are deterministic and order-independent: fresher snapshot
   wins; a snapshot beats none; then the lower primary id (a primary
   beats none); remaining ties fall through the backup list and the
   session identity fields, making the order total — members comparing
   the same pair anywhere in the system agree on the winner. *)
let digest_preference a b =
  let snap = digest_snap_compare a b in
  if snap <> 0 then snap
  else
    let primary =
      if a.d_primary < 0 && b.d_primary < 0 then 0
      else if b.d_primary < 0 then 1
      else if a.d_primary < 0 then -1
      else Int.compare b.d_primary a.d_primary  (* lower id preferred *)
    in
    if primary <> 0 then primary
    else
      let backups = List.compare Int.compare b.d_backups a.d_backups in
      if backups <> 0 then backups
      else
        let client = Int.compare b.d_client a.d_client in
        if client <> 0 then client
        else Float.compare b.d_started_at a.d_started_at

let preference a b = digest_preference (digest_of_session a) (digest_of_session b)

type plan_entry = {
  pl_session_id : string;
  pl_best : digest;
  pl_sender : int;
  pl_needed : bool;
}

let exchange_plan ~members digests =
  let advertised =
    List.map
      (fun m -> (m, Option.value (List.assoc_opt m digests) ~default:[]))
      (List.sort_uniq Int.compare members)
  in
  (* member -> session id -> its copy; the first digest for an id wins *)
  let copies =
    List.map
      (fun (m, ds) ->
        let tbl = Hashtbl.create (List.length ds) in
        List.iter
          (fun d ->
            if not (Hashtbl.mem tbl d.d_session_id) then
              Hashtbl.replace tbl d.d_session_id d)
          ds;
        (m, tbl))
      advertised
  in
  let n_members = List.length advertised in
  List.concat_map (fun (_, ds) -> List.map (fun d -> d.d_session_id) ds) advertised
  |> List.sort_uniq String.compare
  |> List.map (fun sid ->
         (* holders in ascending member id; never empty, since [sid] came
            from one of them *)
         let held =
           List.filter_map
             (fun (m, tbl) -> Option.map (fun d -> (m, d)) (Hashtbl.find_opt tbl sid))
             copies
         in
         let best =
           List.fold_left
             (fun acc (_, d) -> if digest_preference d acc > 0 then d else acc)
             (snd (List.hd held)) held
         in
         let sender, _ =
           List.find (fun (_, d) -> digest_snap_compare d best = 0) held
         in
         {
           pl_session_id = sid;
           pl_best = best;
           pl_sender = sender;
           pl_needed =
             List.length held < n_members
             || List.exists (fun (_, d) -> digest_snap_compare best d > 0) held;
         })

let delta t ~me plan =
  List.filter_map
    (fun e ->
      if e.pl_sender = me && e.pl_needed then
        Option.map copy (find t e.pl_session_id)
      else None)
    plan

type 'ctx op =
  | Add of { unit_id : string; session_id : string; client : int; started_at : float }
  | End of { unit_id : string; session_id : string }
  | Assign of { unit_id : string; session_id : string; primary : int; backups : int list }
  | Ctx of { unit_id : string; session_id : string; snap : 'ctx snapshot }
  | Merge of { unit_id : string; records : 'ctx session list }

let fresher snap = function
  | None -> true
  | Some old ->
      compare_freshness ~seq_a:(Seqset.max snap.snap_applied) ~at_a:snap.snap_at
        ~seq_b:(Seqset.max old.snap_applied) ~at_b:old.snap_at
      > 0

(* One merged record: adopt the session if unknown, and take the
   preferred copy's content and assignment. *)
let merge_one t r =
  let added = not (mem t r.session_id) in
  let s = add t ~session_id:r.session_id ~client:r.client ~started_at:r.started_at in
  if preference r s > 0 then begin
    touching t s (fun s ->
        s.propagated <- r.propagated;
        s.primary <- r.primary;
        s.backups <- r.backups;
        s.ended <- r.ended);
    true
  end
  else added

let apply t op =
  match op with
  | Add { session_id; client; started_at; _ } ->
      let added = not (mem t session_id) in
      ignore (add t ~session_id ~client ~started_at);
      added
  | End { session_id; _ } -> (
      (* Tombstone, not deletion: the entry stays, stripped of assignment
         and content, and wins every merge (see [digest_snap_compare]) —
         so a member that missed the End multicast, or recovers from a
         stable store predating it, cannot resurrect the session through
         a state exchange. *)
      match find t session_id with
      | Some ({ ended = false; _ } as s) ->
          touching t s (fun s ->
              s.ended <- true;
              s.primary <- None;
              s.backups <- [];
              s.propagated <- None);
          true
      | Some _ | None -> false)
  | Assign { session_id; primary; backups; _ } -> (
      match find t session_id with
      | Some ({ ended = false; _ } as s)
        when (match s.primary with Some p -> p <> primary | None -> true)
             || not (List.equal Int.equal s.backups backups) ->
          touching t s (fun s ->
              s.primary <- Some primary;
              s.backups <- backups);
          true
      | Some _ | None -> false)
  | Ctx { session_id; snap; _ } -> (
      match find t session_id with
      | Some ({ ended = false; _ } as s) when fresher snap s.propagated ->
          touching t s (fun s -> s.propagated <- Some snap);
          true
      | Some _ | None -> false)
  | Merge { records; _ } ->
      List.fold_left (fun changed r -> merge_one t r || changed) false records

(* Full recompute, order-independent (XOR combine over the per-session
   digests — equal databases hash equal regardless of iteration order).
   [cached_checksum] maintains the same value incrementally through
   sanctioned mutations; a divergence between the two convicts
   out-of-band state corruption. *)
let checksum t =
  Hashtbl.fold (fun _ s acc -> acc lxor session_hash s) t.tbl 0 (* haf-lint: allow R3 — XOR combine is order-independent *)

let cached_checksum t = t.cache

(* Structural soundness, independent of any cached checksum: the
   invariants every sanctioned mutation preserves, so a violation means
   the in-memory state was damaged out-of-band. *)
let sound t =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec check = function
    | [] -> Ok ()
    | s :: rest ->
        if s.unit_id <> t.uid then
          bad "session %s carries unit %s in db %s" s.session_id s.unit_id t.uid
        else if s.client < 0 then bad "session %s: negative client" s.session_id
        else if
          s.ended && (s.primary <> None || s.backups <> [] || s.propagated <> None)
        then bad "tombstone %s still carries assignment or content" s.session_id
        else if
          match s.primary with Some p -> p < 0 || List.mem p s.backups | None -> false
        then bad "session %s: primary invalid or listed as backup" s.session_id
        else if List.exists (fun b -> b < 0) s.backups then
          bad "session %s: negative backup id" s.session_id
        else if
          match s.propagated with
          | Some sn -> Seqset.max sn.snap_applied < 0
          | None -> false
        then bad "session %s: negative propagated seq" s.session_id
        else check rest
  in
  check (sessions t)

let equal_assignments a b =
  let summary t =
    sessions t
    |> List.map (fun s -> (s.session_id, s.client, s.primary, s.backups, s.ended))
  in
  summary a = summary b

let equal_shape a b =
  let summary t =
    sessions t
    |> List.map (fun s ->
           ( s.session_id,
             s.client,
             s.primary,
             s.backups,
             s.ended,
             Option.map (fun p -> (Seqset.max p.snap_applied, p.snap_at)) s.propagated ))
  in
  summary a = summary b
