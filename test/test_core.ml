(* Unit and property tests for the framework's pure parts: naming, policy,
   the deterministic selection function and the unit database. *)

module Naming = Haf_core.Naming
module Policy = Haf_core.Policy
module Selection = Haf_core.Selection
module Unit_db = Haf_core.Unit_db
module Events = Haf_core.Events

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Naming *)

let test_naming_roundtrip () =
  check (Alcotest.option Alcotest.string) "content" (Some "movie:1")
    (Naming.content_unit_of (Naming.content_group "movie:1"));
  check Alcotest.string "per-session group" "session:c001-0"
    (Naming.session_group ~shards:0 "c001-0");
  check Alcotest.string "shard group is pure in the id"
    (Naming.session_group ~shards:8 "c001-0")
    (Naming.session_group ~shards:8 "c001-0");
  List.iter
    (fun sid ->
      let g = Naming.session_group ~shards:4 sid in
      check Alcotest.bool (sid ^ " maps to one of 4 shards") true
        (List.mem g [ "sshard:0"; "sshard:1"; "sshard:2"; "sshard:3" ]))
    [ "c001-0"; "c002-7"; "x" ];
  check Alcotest.bool "service" true (Naming.is_service_group Naming.service_group);
  check (Alcotest.option Alcotest.string) "not a content group" None
    (Naming.content_unit_of Naming.service_group);
  check (Alcotest.option Alcotest.string) "session is not content" None
    (Naming.content_unit_of (Naming.session_group ~shards:0 "x"));
  check (Alcotest.option Alcotest.string) "shard is not content" None
    (Naming.content_unit_of (Naming.session_group ~shards:4 "x"))

(* ------------------------------------------------------------------ *)
(* Policy *)

let test_policy_validate () =
  check Alcotest.bool "default valid" true (Result.is_ok (Policy.validate Policy.default));
  check Alcotest.bool "vod_paper valid" true
    (Result.is_ok (Policy.validate Policy.vod_paper));
  check Alcotest.bool "negative backups" true
    (Result.is_error (Policy.validate { Policy.default with n_backups = -1 }));
  check Alcotest.bool "zero propagation" true
    (Result.is_error (Policy.validate { Policy.default with propagation_period = 0. }))

let test_policy_vod_paper_matches_paper () =
  (* [2]: session group = primary only, updates every half second. *)
  check Alcotest.int "no backups" 0 Policy.vod_paper.Policy.n_backups;
  check (Alcotest.float 1e-9) "0.5s propagation" 0.5
    Policy.vod_paper.Policy.propagation_period

(* ------------------------------------------------------------------ *)
(* Selection *)

let prev ?(primary = None) ?(backups = []) sid =
  { Selection.p_session_id = sid; p_primary = primary; p_backups = backups }

let test_selection_sticky_primary () =
  let prevs = [ prev ~primary:(Some 2) ~backups:[ 1 ] "s1" ] in
  let a = Selection.assign ~n_backups:1 ~members:[ 1; 2; 3 ] ~rebalance:false prevs in
  match a with
  | [ { Selection.a_primary; _ } ] -> check Alcotest.int "keeps old primary" 2 a_primary
  | _ -> Alcotest.fail "one assignment expected"

let test_selection_prefers_backup_on_crash () =
  (* Old primary 2 gone; backup 3 present: 3 must take over even if 1 is
     less loaded. *)
  let prevs = [ prev ~primary:(Some 2) ~backups:[ 3 ] "s1" ] in
  let a = Selection.assign ~n_backups:1 ~members:[ 1; 3; 4 ] ~rebalance:false prevs in
  match a with
  | [ { Selection.a_primary; _ } ] -> check Alcotest.int "backup promoted" 3 a_primary
  | _ -> Alcotest.fail "one assignment expected"

let test_selection_least_loaded_fallback () =
  let prevs =
    [
      prev ~primary:(Some 1) "s1";
      prev ~primary:(Some 1) "s2";
      prev ~primary:(Some 9) ~backups:[ 9 ] "s3";  (* everyone gone *)
    ]
  in
  let a = Selection.assign ~n_backups:0 ~members:[ 1; 2 ] ~rebalance:false prevs in
  let find sid =
    (List.find (fun x -> x.Selection.a_session_id = sid) a).Selection.a_primary
  in
  check Alcotest.int "s1 stays" 1 (find "s1");
  check Alcotest.int "s2 stays" 1 (find "s2");
  check Alcotest.int "orphan goes to least-loaded" 2 (find "s3")

let test_selection_backups_distinct () =
  let prevs = [ prev "s1" ] in
  let a = Selection.assign ~n_backups:3 ~members:[ 1; 2; 3 ] ~rebalance:false prevs in
  match a with
  | [ { Selection.a_primary; a_backups; _ } ] ->
      check Alcotest.int "only 2 backups possible" 2 (List.length a_backups);
      check Alcotest.bool "primary not backup" false (List.mem a_primary a_backups);
      check Alcotest.int "distinct" 2 (List.length (List.sort_uniq compare a_backups))
  | _ -> Alcotest.fail "one assignment expected"

let test_selection_rebalance_moves_excess () =
  (* 4 sessions all on server 1; server 2 joins; rebalance should move
     about half. *)
  let prevs = List.init 4 (fun i -> prev ~primary:(Some 1) (Printf.sprintf "s%d" i)) in
  let a = Selection.assign ~n_backups:0 ~members:[ 1; 2 ] ~rebalance:true prevs in
  let on_1 = List.length (List.filter (fun x -> x.Selection.a_primary = 1) a) in
  let on_2 = List.length (List.filter (fun x -> x.Selection.a_primary = 2) a) in
  check Alcotest.int "even split" 2 on_1;
  check Alcotest.int "even split" 2 on_2

let test_selection_no_rebalance_is_sticky () =
  let prevs = List.init 4 (fun i -> prev ~primary:(Some 1) (Printf.sprintf "s%d" i)) in
  let a = Selection.assign ~n_backups:0 ~members:[ 1; 2 ] ~rebalance:false prevs in
  check Alcotest.bool "all stay on 1" true
    (List.for_all (fun x -> x.Selection.a_primary = 1) a)

let test_selection_empty_members_raises () =
  Alcotest.check_raises "empty members"
    (Invalid_argument "Selection.assign: no members") (fun () ->
      ignore (Selection.assign ~n_backups:0 ~members:[] ~rebalance:false []))

let arb_prevs =
  QCheck.make
    ~print:(fun l -> string_of_int (List.length l))
    (QCheck.Gen.map
       (fun n ->
         List.init n (fun i ->
             prev
               ~primary:(if i mod 3 = 0 then None else Some (i mod 5))
               ~backups:[ (i + 1) mod 5 ]
               (Printf.sprintf "s%02d" i)))
       (QCheck.Gen.int_bound 20))

let prop_selection_deterministic =
  QCheck.Test.make ~name:"selection is deterministic" ~count:100 arb_prevs (fun prevs ->
      let members = [ 0; 1; 2; 3 ] in
      Selection.assign ~n_backups:2 ~members ~rebalance:true prevs
      = Selection.assign ~n_backups:2 ~members ~rebalance:true prevs)

let prop_selection_valid =
  QCheck.Test.make ~name:"selection picks members, distinct backups" ~count:100 arb_prevs
    (fun prevs ->
      let members = [ 0; 1; 2 ] in
      let a = Selection.assign ~n_backups:2 ~members ~rebalance:false prevs in
      List.for_all
        (fun x ->
          List.mem x.Selection.a_primary members
          && List.for_all (fun b -> List.mem b members) x.Selection.a_backups
          && (not (List.mem x.Selection.a_primary x.Selection.a_backups))
          && List.length (List.sort_uniq compare x.Selection.a_backups)
             = List.length x.Selection.a_backups)
        a)

let prop_selection_idempotent =
  (* Reassigning with unchanged membership must not move anything: the
     framework calls the selection on every content-group event, so any
     instability here would cause spurious migrations. *)
  QCheck.Test.make ~name:"selection is idempotent (no flapping)" ~count:100 arb_prevs
    (fun prevs ->
      let members = [ 0; 1; 2; 3 ] in
      let first = Selection.assign ~n_backups:1 ~members ~rebalance:true prevs in
      let as_prev =
        List.map
          (fun a ->
            {
              Selection.p_session_id = a.Selection.a_session_id;
              p_primary = Some a.Selection.a_primary;
              p_backups = a.Selection.a_backups;
            })
          first
      in
      let second = Selection.assign ~n_backups:1 ~members ~rebalance:true as_prev in
      List.for_all2
        (fun a b -> a.Selection.a_primary = b.Selection.a_primary)
        first second)

let prop_selection_balanced =
  QCheck.Test.make ~name:"rebalanced primaries within 1 of even share" ~count:100
    QCheck.(int_range 1 30)
    (fun n ->
      let prevs =
        List.init n (fun i -> prev ~primary:(Some 0) (Printf.sprintf "s%02d" i))
      in
      let members = [ 0; 1; 2; 3 ] in
      let a = Selection.assign ~n_backups:0 ~members ~rebalance:true prevs in
      let count m = List.length (List.filter (fun x -> x.Selection.a_primary = m) a) in
      let share = float_of_int n /. 4. in
      List.for_all (fun m -> float_of_int (count m) <= ceil share) members)

(* Incremental placement against the full selection.  For a stable
   view, live sessions whose roles are on members and whose backup lists
   are full, and a fresh session, the incremental assignment — primary
   and backups — is exactly the one [assign ~rebalance:false] gives it.
   Random starts and ends on the cached table must then leave it equal
   to a rebuild from the surviving sessions. *)
let prop_incremental_matches_assign =
  QCheck.Test.make ~name:"incremental placement matches full selection" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module Rng = Haf_sim.Rng in
      let rng = Rng.create seed in
      let members = Rng.sample rng (Rng.int_in rng 1 5) [ 0; 1; 2; 3; 4; 5; 6 ] in
      let n_backups = Rng.int rng 3 in
      let random_prev sid =
        let primary = Rng.pick rng members in
        let others = List.filter (fun m -> m <> primary) members in
        let backups = Rng.sample rng (Int.min n_backups (List.length others)) others in
        prev ~primary:(Some primary) ~backups sid
      in
      let live = ref (List.init (Rng.int rng 30) (fun i -> random_prev (Printf.sprintf "s%03d" i))) in
      let loads = Selection.loads_of ~members !live in
      (* The "+" suffix sorts the fresh id anywhere among the live ones. *)
      let fresh = Printf.sprintf "s%03d+" (Rng.int rng 30) in
      let full = Selection.assign ~n_backups ~members ~rebalance:false (prev fresh :: !live) in
      let expected =
        List.find (fun a -> a.Selection.a_session_id = fresh) full
      in
      let placed_matches =
        match Selection.place loads ~n_backups fresh with
        | Some a ->
            live :=
              prev ~primary:(Some a.Selection.a_primary) ~backups:a.Selection.a_backups fresh
              :: !live;
            a = expected
        | None -> false
      in
      for i = 1 to Rng.int rng 40 do
        match !live with
        | _ :: _ when Rng.bool rng ->
            let victim = Rng.pick rng !live in
            Selection.unload loads victim;
            live := List.filter (fun p -> p != victim) !live
        | _ -> (
            let sid = Printf.sprintf "n%03d" i in
            match Selection.place loads ~n_backups sid with
            | Some a ->
                live :=
                  prev ~primary:(Some a.Selection.a_primary) ~backups:a.Selection.a_backups sid
                  :: !live
            | None -> ())
      done;
      placed_matches
      && Selection.load_table loads = Selection.load_table (Selection.loads_of ~members !live))

(* A fresh session moves no settled role.  Settle random sessions one
   start at a time, as the framework does, then start one more: every
   earlier session must keep its primary and its whole backup list, so
   a start logs no assignment record for any other session. *)
let prop_fresh_session_moves_nothing =
  QCheck.Test.make ~name:"fresh session moves no settled role" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module Rng = Haf_sim.Rng in
      let rng = Rng.create seed in
      let members = Rng.sample rng (Rng.int_in rng 1 5) [ 0; 1; 2; 3; 4; 5; 6 ] in
      let n_backups = Rng.int rng 3 in
      let start settled sid =
        List.map
          (fun a ->
            prev ~primary:(Some a.Selection.a_primary) ~backups:a.Selection.a_backups
              a.Selection.a_session_id)
          (Selection.assign ~n_backups ~members ~rebalance:false (prev sid :: settled))
      in
      let sid suffix = Printf.sprintf "s%06d%s" (Rng.int rng 1_000_000) suffix in
      let ids = List.sort_uniq String.compare (List.init (Rng.int rng 30) (fun _ -> sid "")) in
      let settled = List.fold_left start [] ids in
      let fresh = sid "+" in
      List.filter (fun p -> p.Selection.p_session_id <> fresh) (start settled fresh) = settled)

(* ------------------------------------------------------------------ *)
(* Unit_db *)

let mkdb () = Unit_db.create ~unit_id:"u" ()

(* The protocol's ops on unit "u", for tests that only build state. *)
let add ?(client = 0) ?(started_at = 0.) db session_id =
  ignore (Unit_db.apply db (Add { unit_id = "u"; session_id; client; started_at }))

let end_ db session_id = ignore (Unit_db.apply db (End { unit_id = "u"; session_id }))

let assign db session_id ~primary ~backups =
  ignore (Unit_db.apply db (Assign { unit_id = "u"; session_id; primary; backups }))

let propagate db session_id snap =
  ignore (Unit_db.apply db (Ctx { unit_id = "u"; session_id; snap }))

let merge db records = ignore (Unit_db.apply db (Merge { unit_id = "u"; records }))

let test_db_add_idempotent () =
  let db = mkdb () in
  let op client started_at =
    Unit_db.Add { unit_id = "u"; session_id = "s"; client; started_at }
  in
  check Alcotest.bool "first add changes" true (Unit_db.apply db (op 7 1.));
  check Alcotest.bool "re-add changes nothing" false (Unit_db.apply db (op 9 2.));
  check (Alcotest.option Alcotest.int) "client unchanged" (Some 7)
    (Option.map (fun s -> s.Unit_db.client) (Unit_db.find db "s"));
  check Alcotest.int "size" 1 (Unit_db.size db)

let test_db_remove () =
  let db = mkdb () in
  add ~client:1 db "s";
  Unit_db.remove_session db "s";
  check Alcotest.bool "gone" false (Unit_db.mem db "s")

let test_db_sessions_sorted () =
  let db = mkdb () in
  List.iter
    (add db)
    [ "b"; "a"; "c" ];
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c" ]
    (List.map (fun s -> s.Unit_db.session_id) (Unit_db.sessions db))

let snap ctx req_seq at =
  {
    Unit_db.snap_ctx = ctx;
    snap_applied = Haf_core.Seqset.(add req_seq empty);
    snap_at = at;
  }

let test_db_propagate_freshness () =
  let db = mkdb () in
  add ~client:1 db "s";
  propagate db "s" (snap "new" 5 10.);
  propagate db "s" (snap "old" 3 20.);
  (match Unit_db.find db "s" with
  | Some { Unit_db.propagated = Some p; _ } ->
      check Alcotest.string "older req_seq never wins" "new" p.Unit_db.snap_ctx
  | _ -> Alcotest.fail "missing");
  propagate db "s" (snap "newer" 5 30.);
  match Unit_db.find db "s" with
  | Some { Unit_db.propagated = Some p; _ } ->
      check Alcotest.string "same req_seq, later time wins" "newer" p.Unit_db.snap_ctx
  | _ -> Alcotest.fail "missing"

let test_db_merge_union () =
  let a = mkdb () and b = mkdb () in
  add ~client:1 a "s1";
  add ~client:2 b "s2";
  let merged = mkdb () in
  List.iter (merge merged) [ Unit_db.export a; Unit_db.export b ];
  check (Alcotest.list Alcotest.string) "union" [ "s1"; "s2" ]
    (List.map (fun s -> s.Unit_db.session_id) (Unit_db.sessions merged))

let test_db_merge_freshest_assignment_wins () =
  let a = mkdb () and b = mkdb () in
  add ~client:1 a "s";
  add ~client:1 b "s";
  propagate a "s" (snap "stale" 3 5.);
  assign a "s" ~primary:7 ~backups:[ 8 ];
  propagate b "s" (snap "fresh" 9 6.);
  assign b "s" ~primary:4 ~backups:[ 5 ];
  let merged = mkdb () in
  List.iter (merge merged) [ Unit_db.export a; Unit_db.export b ];
  match Unit_db.find merged "s" with
  | Some s ->
      check (Alcotest.option Alcotest.int) "fresh side's primary" (Some 4)
        s.Unit_db.primary;
      check Alcotest.string "fresh snapshot"
        "fresh"
        (match s.Unit_db.propagated with Some p -> p.Unit_db.snap_ctx | None -> "?")
  | None -> Alcotest.fail "missing"

let test_db_merge_records_staleness () =
  (* Merge (the state-exchange delta path): fresher incoming
     content replaces stale, stale incoming never clobbers fresh, and
     unknown sessions are adopted. *)
  let db = mkdb () in
  add ~client:1 db "s";
  propagate db "s" (snap "mine" 7 10.);
  let incoming_of other =
    match Unit_db.export other with rs -> rs
  in
  let fresh = mkdb () in
  add ~client:1 fresh "s";
  propagate fresh "s" (snap "theirs" 9 11.);
  merge db (incoming_of fresh);
  (match Unit_db.find db "s" with
  | Some { Unit_db.propagated = Some p; _ } ->
      check Alcotest.string "fresher incoming wins" "theirs" p.Unit_db.snap_ctx
  | _ -> Alcotest.fail "missing");
  let stale = mkdb () in
  add ~client:1 stale "s";
  propagate stale "s" (snap "old" 2 1.);
  add ~client:2 stale "t";
  merge db (incoming_of stale);
  (match Unit_db.find db "s" with
  | Some { Unit_db.propagated = Some p; _ } ->
      check Alcotest.string "stale incoming loses" "theirs" p.Unit_db.snap_ctx
  | _ -> Alcotest.fail "missing");
  check Alcotest.bool "unknown session adopted" true (Unit_db.mem db "t")

let digest ?(req_seq = -1) ?(at = 0.) ?(primary = -1) ?(ended = false) sid =
  {
    Unit_db.d_session_id = sid;
    d_client = 0;
    d_started_at = 0.;
    d_req_seq = req_seq;
    d_at = at;
    d_primary = primary;
    d_backups = [];
    d_ended = ended;
  }

let test_digest_snap_compare () =
  let cmp a b = Unit_db.digest_snap_compare a b in
  check Alcotest.int "both none tie" 0 (cmp (digest "s") (digest "s"));
  check Alcotest.bool "snapshot beats none" true
    (cmp (digest ~req_seq:0 "s") (digest "s") > 0);
  check Alcotest.bool "higher req_seq wins" true
    (cmp (digest ~req_seq:5 "s") (digest ~req_seq:3 ~at:99. "s") > 0);
  check Alcotest.bool "same req_seq, later time wins" true
    (cmp (digest ~req_seq:5 ~at:2. "s") (digest ~req_seq:5 ~at:1. "s") > 0);
  (* Assignment differences are invisible to the content comparison —
     that is what keeps assignment-only divergence off the wire. *)
  check Alcotest.int "assignment ignored" 0
    (cmp (digest ~req_seq:5 ~at:2. ~primary:0 "s")
       (digest ~req_seq:5 ~at:2. ~primary:3 "s"));
  check Alcotest.bool "but full preference still orders it" true
    (Unit_db.digest_preference
       (digest ~req_seq:5 ~at:2. ~primary:0 "s")
       (digest ~req_seq:5 ~at:2. ~primary:3 "s")
    <> 0)

let prop_db_merge_order_independent =
  QCheck.Test.make ~name:"unit_db merge is order-independent" ~count:100
    QCheck.(small_list (pair (int_bound 5) (pair (int_bound 20) (int_bound 20))))
    (fun specs ->
      (* Build several exports with overlapping sessions and varying
         freshness, merge in both orders, compare shapes. *)
      let exports =
        List.mapi
          (fun i (sid, (rs, at)) ->
            let db = mkdb () and sid = Printf.sprintf "s%d" sid in
            add db sid;
            propagate db sid (snap (Printf.sprintf "v%d" i) rs (float_of_int at));
            assign db sid ~primary:i ~backups:[];
            Unit_db.export db)
          specs
      in
      let m1 = mkdb () and m2 = mkdb () in
      List.iter (merge m1) exports;
      List.iter (merge m2) (List.rev exports);
      Unit_db.equal_shape m1 m2)

(* Random operation histories for the digest/delta reconciliation
   properties.  Session id determines client and start time, as in the
   protocol (a session is created identically wherever its totally
   ordered Start is applied); everything else may diverge freely. *)
type db_op = Op_add of int | Op_end of int | Op_assign of int * int | Op_prop of int * int

let apply_db_op db op =
  let sid i = Printf.sprintf "s%d" i in
  match op with
  | Op_add i -> add ~client:i db (sid i)
  | Op_end i -> end_ db (sid i)
  | Op_assign (i, p) -> assign db (sid i) ~primary:p ~backups:[ (p + 1) mod 4 ]
  | Op_prop (i, seq) ->
      propagate db (sid i) (snap (Printf.sprintf "c%d" seq) seq (float_of_int seq))

let arb_db_ops =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun i -> Op_add i) (int_bound 4));
          (2, map (fun i -> Op_end i) (int_bound 4));
          (3, map2 (fun i p -> Op_assign (i, p)) (int_bound 4) (int_bound 5));
          (3, map2 (fun i s -> Op_prop (i, s)) (int_bound 4) (int_bound 30));
        ])
  in
  let print_op = function
    | Op_add i -> Printf.sprintf "add s%d" i
    | Op_end i -> Printf.sprintf "end s%d" i
    | Op_assign (i, p) -> Printf.sprintf "assign s%d->%d" i p
    | Op_prop (i, s) -> Printf.sprintf "prop s%d@%d" i s
  in
  QCheck.make
    ~print:(fun (a, b) ->
      let s ops = String.concat "; " (List.map print_op ops) in
      Printf.sprintf "[%s] / [%s]" (s a) (s b))
    QCheck.Gen.(pair (list_size (int_bound 40) gen_op) (list_size (int_bound 40) gen_op))

let prop_db_exchange_converges =
  QCheck.Test.make
    ~name:"unit_db replicas converge after a digest/delta exchange" ~count:200
    arb_db_ops
    (fun (ops1, ops2) ->
      let db1 = mkdb () and db2 = mkdb () in
      List.iter (apply_db_op db1) ops1;
      List.iter (apply_db_op db2) ops2;
      let e1 = Unit_db.export db1 and e2 = Unit_db.export db2 in
      merge db1 e2;
      merge db2 e1;
      Unit_db.equal_shape db1 db2 && Unit_db.equal_assignments db1 db2)

let prop_db_tombstones_win =
  QCheck.Test.make
    ~name:"unit_db tombstones always win the exchange" ~count:200 arb_db_ops
    (fun (ops1, ops2) ->
      let db1 = mkdb () and db2 = mkdb () in
      List.iter (apply_db_op db1) ops1;
      List.iter (apply_db_op db2) ops2;
      let e1 = Unit_db.export db1 and e2 = Unit_db.export db2 in
      let tombstoned =
        List.filter_map
          (fun s -> if s.Unit_db.ended then Some s.Unit_db.session_id else None)
          (e1 @ e2)
        |> List.sort_uniq String.compare
      in
      merge db1 e2;
      merge db2 e1;
      List.for_all
        (fun sid ->
          Unit_db.mem db1 sid && Unit_db.mem db2 sid
          && (not (Unit_db.live db1 sid))
          && not (Unit_db.live db2 sid))
        tombstoned)

(* Random op streams over a few sessions, for the log-replay property:
   repeated [Add]s, [End]s of live, ended and absent sessions, [Assign]s
   and stale or fresh [Ctx]s whatever the session's state, and [Merge]s
   of other random databases' exports. *)
type log_op =
  | L_add of int * int
  | L_end of int
  | L_assign of int * int
  | L_ctx of int * int * int
  | L_merge of log_op list

let rec op_of_log = function
  | L_add (i, client) ->
      Unit_db.Add
        { unit_id = "u"; session_id = Printf.sprintf "s%d" i; client; started_at = 0. }
  | L_end i -> End { unit_id = "u"; session_id = Printf.sprintf "s%d" i }
  | L_assign (i, p) ->
      Assign
        {
          unit_id = "u";
          session_id = Printf.sprintf "s%d" i;
          primary = p;
          backups = [ (p + 1) mod 4 ];
        }
  | L_ctx (i, seq, at) ->
      Ctx
        {
          unit_id = "u";
          session_id = Printf.sprintf "s%d" i;
          snap = snap (Printf.sprintf "c%d.%d" seq at) seq (float_of_int at);
        }
  | L_merge ops ->
      let other = mkdb () in
      List.iter (fun op -> ignore (Unit_db.apply other (op_of_log op))) ops;
      Merge { unit_id = "u"; records = Unit_db.export other }

let rec print_log_op = function
  | L_add (i, c) -> Printf.sprintf "add s%d/c%d" i c
  | L_end i -> Printf.sprintf "end s%d" i
  | L_assign (i, p) -> Printf.sprintf "assign s%d->%d" i p
  | L_ctx (i, seq, at) -> Printf.sprintf "ctx s%d@%d/%d" i seq at
  | L_merge ops ->
      Printf.sprintf "merge[%s]" (String.concat "; " (List.map print_log_op ops))

let arb_log_ops =
  let open QCheck.Gen in
  let sid = int_bound 3 in
  let simple =
    frequency
      [
        (3, map2 (fun i c -> L_add (i, c)) sid (int_bound 1));
        (2, map (fun i -> L_end i) sid);
        (3, map2 (fun i p -> L_assign (i, p)) sid (int_bound 3));
        (4, map3 (fun i seq at -> L_ctx (i, seq, at)) sid (int_bound 5) (int_bound 3));
      ]
  in
  let op =
    frequency
      [ (6, simple); (1, map (fun ops -> L_merge ops) (list_size (int_bound 8) simple)) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_log_op ops))
    (list_size (int_bound 40) op)

let prop_db_log_replays =
  QCheck.Test.make
    ~name:"unit_db replaying the ops that changed it rebuilds it" ~count:500
    arb_log_ops
    (fun ops ->
      let a = mkdb () in
      let logged =
        List.filter (fun op -> Unit_db.apply a op) (List.map op_of_log ops)
      in
      let b = mkdb () in
      List.iter (fun op -> ignore (Unit_db.apply b op)) logged;
      Unit_db.equal_shape a b
      && Unit_db.checksum a = Unit_db.checksum b
      && Unit_db.export a = Unit_db.export b
      && Unit_db.cached_checksum a = Unit_db.checksum a)

(* The two folds the exchange plan replaced, kept here as its oracle:
   the best-copy pick (over every member's first digest per session, in
   digest-arrival order) and the designated-sender/needs fold (over the
   sorted members, with its own best copy). *)
let reference_plan ~members digests =
  let sids =
    List.concat_map
      (fun (_, ds) -> List.map (fun d -> d.Unit_db.d_session_id) ds)
      digests
    |> List.sort_uniq String.compare
  in
  let first_of ds sid = List.find_opt (fun d -> d.Unit_db.d_session_id = sid) ds in
  let fold_best = function
    | [] -> assert false
    | d0 :: rest ->
        List.fold_left
          (fun acc d -> if Unit_db.digest_preference d acc > 0 then d else acc)
          d0 rest
  in
  let members = List.sort Int.compare members in
  let digest_of m sid = Option.bind (List.assoc_opt m digests) (fun ds -> first_of ds sid) in
  List.map
    (fun sid ->
      let best = fold_best (List.filter_map (fun (_, ds) -> first_of ds sid) digests) in
      let holders =
        List.filter_map (fun m -> Option.map (fun d -> (m, d)) (digest_of m sid)) members
      in
      let best' = fold_best (List.map snd holders) in
      let sender =
        List.filter (fun (_, d) -> Unit_db.digest_snap_compare d best' = 0) holders
        |> List.map fst
        |> List.fold_left Int.min max_int
      in
      let needed =
        List.exists
          (fun m ->
            match digest_of m sid with
            | None -> true
            | Some d -> Unit_db.digest_snap_compare best' d > 0)
          members
      in
      (sid, best, sender, needed))
    sids

(* Random exchanges: 1-4 members, each advertising a few digests over a
   small id space, so sessions missing at some members, equally fresh
   copies, tombstones and repeated ids within one member's list all
   occur.  Members sent their digests in arbitrary order. *)
let arb_exchange =
  let open QCheck.Gen in
  let gen_digest =
    map
      (fun ((sid, req_seq, at), (primary, backups, ended)) ->
        {
          Unit_db.d_session_id = Printf.sprintf "s%d" sid;
          d_client = sid;
          d_started_at = 0.;
          d_req_seq = (if ended then -1 else req_seq);
          d_at = (if ended || req_seq < 0 then 0. else float_of_int at);
          d_primary = (if ended then -1 else primary);
          d_backups = (if ended then [] else backups);
          d_ended = ended;
        })
      (pair
         (triple (int_bound 5) (int_range (-1) 2) (int_bound 1))
         (triple (int_range (-1) 3)
            (list_size (int_bound 2) (int_bound 3))
            (map (fun n -> n = 0) (int_bound 4))))
  in
  let gen =
    int_range 1 4 >>= fun n ->
    shuffle_l (List.init n (fun m -> m)) >>= fun order ->
    flatten_l
      (List.map
         (fun m -> map (fun ds -> (m, ds)) (list_size (int_bound 6) gen_digest))
         order)
    >>= fun digests -> return (List.init n (fun m -> m), digests)
  in
  let print (members, digests) =
    Printf.sprintf "members [%s]; %s"
      (String.concat "," (List.map string_of_int members))
      (String.concat "; "
         (List.map
            (fun (m, ds) ->
              Printf.sprintf "s%d: %s" m
                (String.concat " "
                   (List.map
                      (fun d ->
                         Printf.sprintf "%s(seq=%d,at=%g,p=%d%s)" d.Unit_db.d_session_id
                           d.Unit_db.d_req_seq d.Unit_db.d_at d.Unit_db.d_primary
                           (if d.Unit_db.d_ended then ",end" else ""))
                      ds)))
            digests))
  in
  QCheck.make ~print gen

let prop_exchange_plan_matches_reference =
  QCheck.Test.make ~name:"exchange plan equals the two folds it replaced" ~count:500
    arb_exchange (fun (members, digests) ->
      let plan = Unit_db.exchange_plan ~members digests in
      let reference = reference_plan ~members digests in
      List.length plan = List.length reference
      && List.for_all2
           (fun (e : Unit_db.plan_entry) (sid, best, sender, needed) ->
             (* Ties under the total preference differ only in fields
                the exchange never reads, so "equally preferred" is the
                right notion of the same winner. *)
             String.equal e.pl_session_id sid
             && Unit_db.digest_preference e.pl_best best = 0
             && e.pl_sender = sender && e.pl_needed = needed)
           plan reference)

(* ------------------------------------------------------------------ *)
(* Events *)

let test_events_sink () =
  let sink = Events.make_sink () in
  Events.emit sink ~now:1. (Events.Session_ended { session_id = "a" });
  Events.emit sink ~now:2. (Events.Session_ended { session_id = "b" });
  (match Events.events sink with
  | [ (1., _); (2., _) ] -> ()
  | _ -> Alcotest.fail "ordering/count");
  check Alcotest.int "count" 2
    (List.length
       (List.filter
          (function _, Events.Session_ended _ -> true | _ -> false)
          (Events.events sink)))

(* ------------------------------------------------------------------ *)
(* Seqset against a reference: a sorted, duplicate-free int list       *)

module Seqset = Haf_core.Seqset

module Seqref = struct
  let norm l = List.sort_uniq Int.compare l
  let add x l = norm (x :: l)
  let union a b = norm (a @ b)
  let diff a b = List.filter (fun x -> not (List.mem x b)) a
  let max l = List.fold_left Int.max 0 l
end

type seq_op = Add of int | Union of int list | Diff of int list

(* Seqs drawn from a narrow range, so adds land next to, inside and
   between existing intervals and unions/diffs split and bridge gaps. *)
let gen_seq_op =
  QCheck.Gen.(
    let seq = int_range 0 40 in
    frequency
      [
        (6, map (fun x -> Add x) seq);
        (2, map (fun l -> Union l) (list_size (int_bound 12) seq));
        (2, map (fun l -> Diff l) (list_size (int_bound 12) seq));
      ])

let print_seq_op = function
  | Add x -> Printf.sprintf "add %d" x
  | Union l -> "union " ^ QCheck.Print.(list int) l
  | Diff l -> "diff " ^ QCheck.Print.(list int) l

let prop_seqset_matches_reference =
  QCheck.Test.make ~name:"seqset agrees with the sorted-list reference" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list print_seq_op)
       QCheck.Gen.(list_size (int_range 1 40) gen_seq_op))
    (fun ops ->
      let agree s l =
        Seqset.to_list s = l
        && Seqset.max s = Seqref.max l
        && List.for_all (fun x -> Seqset.mem x s = List.mem x l) (List.init 44 (fun x -> x - 1))
        (* canonical: the same seqs always have the same representation *)
        && Seqset.of_list (List.rev l) = s
      in
      let _, _, ok =
        List.fold_left
          (fun (s, l, ok) op ->
            let s, l =
              match op with
              | Add x -> (Seqset.add x s, Seqref.add x l)
              | Union xs -> (Seqset.union s (Seqset.of_list xs), Seqref.union l (Seqref.norm xs))
              | Diff xs -> (Seqset.diff s (Seqset.of_list xs), Seqref.diff l (Seqref.norm xs))
            in
            (s, l, ok && agree s l))
          (Seqset.empty, [], true) ops
      in
      ok)

let prop_seqset_binary_ops =
  let arb = QCheck.(pair (small_list (int_range 0 40)) (small_list (int_range 0 40))) in
  QCheck.Test.make ~name:"seqset union/diff of arbitrary sets" ~count:500 arb (fun (a, b) ->
      let sa = Seqset.of_list a and sb = Seqset.of_list b in
      let ra = Seqref.norm a and rb = Seqref.norm b in
      Seqset.to_list (Seqset.union sa sb) = Seqref.union ra rb
      && Seqset.to_list (Seqset.union sb sa) = Seqref.union ra rb
      && Seqset.to_list (Seqset.diff sa sb) = Seqref.diff ra rb
      && Seqset.to_list (Seqset.diff sb sa) = Seqref.diff rb ra)

let test_seqset_coalesces () =
  let ints = Alcotest.(list int) in
  check Alcotest.int "empty max" 0 (Seqset.max Seqset.empty);
  (* filling the one gap between two intervals leaves a single interval *)
  let gap = Seqset.of_list [ 1; 2; 4; 5 ] in
  check ints "gap kept" [ 1; 2; 4; 5 ] (Seqset.to_list gap);
  check Alcotest.bool "gap is not a member" false (Seqset.mem 3 gap);
  check Alcotest.bool "filled gap coalesces" true
    (Seqset.add 3 gap = Seqset.of_list [ 1; 2; 3; 4; 5 ]);
  check Alcotest.bool "adjacent union coalesces" true
    (Seqset.union (Seqset.of_list [ 1; 2 ]) (Seqset.of_list [ 3; 4 ])
    = Seqset.of_list [ 4; 3; 2; 1 ]);
  check ints "diff splits an interval" [ 1; 2; 4; 5 ]
    (Seqset.to_list (Seqset.diff (Seqset.of_list [ 1; 2; 3; 4; 5 ]) (Seqset.of_list [ 3 ])));
  check ints "diff names the one missing seq" [ 2500 ]
    (Seqset.to_list
       (Seqset.diff
          (Seqset.of_list (List.init 5000 succ))
          (Seqset.of_list (List.filter (fun x -> x <> 2500) (List.init 5000 succ)))));
  (* The encoded size follows the gap count, not the seq count (300 and
     3000 share Marshal's 16-bit int encoding). *)
  let bytes n = String.length (Marshal.to_string (Seqset.of_list (List.init n succ)) []) in
  check Alcotest.int "size flat in seq count" (bytes 300) (bytes 3000)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "core.naming",
      [ Alcotest.test_case "roundtrip" `Quick test_naming_roundtrip ] );
    ( "core.policy",
      [
        Alcotest.test_case "validate" `Quick test_policy_validate;
        Alcotest.test_case "vod_paper parameters" `Quick test_policy_vod_paper_matches_paper;
      ] );
    ( "core.selection",
      [
        Alcotest.test_case "sticky primary" `Quick test_selection_sticky_primary;
        Alcotest.test_case "backup promoted on crash" `Quick
          test_selection_prefers_backup_on_crash;
        Alcotest.test_case "least-loaded fallback" `Quick test_selection_least_loaded_fallback;
        Alcotest.test_case "backups distinct" `Quick test_selection_backups_distinct;
        Alcotest.test_case "rebalance moves excess" `Quick test_selection_rebalance_moves_excess;
        Alcotest.test_case "no rebalance is sticky" `Quick test_selection_no_rebalance_is_sticky;
        Alcotest.test_case "empty members raises" `Quick test_selection_empty_members_raises;
      ]
      @ qsuite
          [
            prop_selection_deterministic;
            prop_selection_valid;
            prop_selection_idempotent;
            prop_selection_balanced;
            prop_incremental_matches_assign;
            prop_fresh_session_moves_nothing;
          ]
    );
    ( "core.unit_db",
      [
        Alcotest.test_case "add idempotent" `Quick test_db_add_idempotent;
        Alcotest.test_case "remove" `Quick test_db_remove;
        Alcotest.test_case "sessions sorted" `Quick test_db_sessions_sorted;
        Alcotest.test_case "propagate freshness" `Quick test_db_propagate_freshness;
        Alcotest.test_case "merge union" `Quick test_db_merge_union;
        Alcotest.test_case "merge freshest wins" `Quick
          test_db_merge_freshest_assignment_wins;
        Alcotest.test_case "merge_records staleness" `Quick
          test_db_merge_records_staleness;
        Alcotest.test_case "digest snap compare" `Quick
          test_digest_snap_compare;
      ]
      @ qsuite
          [
            prop_db_merge_order_independent;
            prop_db_exchange_converges;
            prop_db_tombstones_win;
            prop_db_log_replays;
            prop_exchange_plan_matches_reference;
          ] );
    ("core.events", [ Alcotest.test_case "sink" `Quick test_events_sink ]);
    ( "core.seqset",
      Alcotest.test_case "coalescing and gaps" `Quick test_seqset_coalesces
      :: qsuite [ prop_seqset_matches_reference; prop_seqset_binary_ops ] );
  ]
