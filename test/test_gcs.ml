(* Correctness tests for the group communication substrate: membership,
   total order, virtual synchrony, open sends, partitions and merges. *)

module Engine = Haf_sim.Engine
module Network = Haf_net.Network
module Gcs = Haf_gcs.Gcs
module View = Haf_gcs.View
module Config = Haf_gcs.Config

let check = Alcotest.check

type recorder = {
  mutable views : (int * View.t) list;  (* proc, view — newest first *)
  mutable delivered : (int * string * int * string) list;
      (* proc, group, sender, payload — newest first *)
  mutable p2p : (int * int * string) list;  (* proc, sender, payload *)
}

let make ?(n = 3) ?(seed = 42) ?gcs_config () =
  let engine = Engine.create ~seed () in
  let gcs = Gcs.create ?gcs_config ~num_servers:n engine in
  let rec_ = { views = []; delivered = []; p2p = [] } in
  List.iter
    (fun p ->
      Gcs.set_app gcs p
        {
          Haf_gcs.Daemon.no_callbacks with
          on_view = (fun v -> rec_.views <- (p, v) :: rec_.views);
          on_message =
            (fun ~group ~sender payload ->
              rec_.delivered <- (p, group, sender, payload) :: rec_.delivered);
          on_p2p = (fun ~sender payload -> rec_.p2p <- (p, sender, payload) :: rec_.p2p);
        })
    (Gcs.servers gcs);
  (engine, gcs, rec_)

let deliveries_of rec_ ~proc ~group =
  List.rev
    (List.filter_map
       (fun (p, g, s, payload) ->
         if p = proc && String.equal g group then Some (s, payload) else None)
       rec_.delivered)

let last_view rec_ ~proc ~group =
  List.find_map
    (fun (p, v) -> if p = proc && String.equal v.View.group group then Some v else None)
    rec_.views

let settle engine ~until = Engine.run ~until engine

(* ------------------------------------------------------------------ *)

let test_views_converge () =
  let engine, gcs, rec_ = make ~n:4 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  List.iter
    (fun p ->
      match last_view rec_ ~proc:p ~group:"g" with
      | Some v ->
          check (Alcotest.list Alcotest.int) "full membership" [ 0; 1; 2; 3 ]
            v.View.members
      | None -> Alcotest.failf "process %d got no view" p)
    (Gcs.servers gcs);
  (* All processes agree on the view id. *)
  let ids =
    List.filter_map (fun p -> last_view rec_ ~proc:p ~group:"g") (Gcs.servers gcs)
    |> List.map (fun v -> v.View.id)
    |> List.sort_uniq View.Id.compare
  in
  check Alcotest.int "single agreed view id" 1 (List.length ids)

let test_membership_stable_after_settle () =
  let engine, gcs, _ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  List.iter
    (fun p -> check Alcotest.bool "stable" true (Gcs.membership_stable gcs p "g"))
    (Gcs.servers gcs)

let test_total_order () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  (* Concurrent multicasts from every member. *)
  List.iter
    (fun p ->
      for i = 1 to 5 do
        Gcs.multicast gcs p "g" (Printf.sprintf "%d-%d" p i)
      done)
    (Gcs.servers gcs);
  settle engine ~until:6.;
  let seq0 = deliveries_of rec_ ~proc:0 ~group:"g" in
  check Alcotest.int "all 15 delivered" 15 (List.length seq0);
  List.iter
    (fun p ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        (Printf.sprintf "process %d sees same order" p)
        seq0
        (deliveries_of rec_ ~proc:p ~group:"g"))
    [ 1; 2 ]

let test_sender_fifo_within_total_order () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  for i = 1 to 10 do
    Gcs.multicast gcs 2 "g" (string_of_int i)
  done;
  settle engine ~until:6.;
  let mine =
    deliveries_of rec_ ~proc:0 ~group:"g"
    |> List.filter_map (fun (s, payload) -> if s = 2 then Some payload else None)
  in
  check (Alcotest.list Alcotest.string) "sender order preserved"
    (List.init 10 (fun i -> string_of_int (i + 1)))
    mine

let test_crash_view_excludes () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  Gcs.crash gcs 1;
  settle engine ~until:8.;
  List.iter
    (fun p ->
      match last_view rec_ ~proc:p ~group:"g" with
      | Some v -> check (Alcotest.list Alcotest.int) "survivors only" [ 0; 2 ] v.View.members
      | None -> Alcotest.fail "no view")
    [ 0; 2 ];
  (* The group still works. *)
  Gcs.multicast gcs 2 "g" "after-crash";
  settle engine ~until:12.;
  let got = deliveries_of rec_ ~proc:0 ~group:"g" in
  check Alcotest.bool "multicast after crash delivered" true
    (List.exists (fun (_, payload) -> payload = "after-crash") got)

let test_coordinator_crash () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  (* Process 0 is the coordinator/sequencer; kill it. *)
  Gcs.crash gcs 0;
  settle engine ~until:8.;
  List.iter
    (fun p ->
      match last_view rec_ ~proc:p ~group:"g" with
      | Some v -> check (Alcotest.list Alcotest.int) "survivors" [ 1; 2 ] v.View.members
      | None -> Alcotest.fail "no view")
    [ 1; 2 ];
  Gcs.multicast gcs 1 "g" "new-sequencer-works";
  settle engine ~until:12.;
  check Alcotest.bool "delivery resumes" true
    (List.exists
       (fun (_, payload) -> payload = "new-sequencer-works")
       (deliveries_of rec_ ~proc:2 ~group:"g"))

let test_multicast_during_view_change_not_lost () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  Gcs.crash gcs 0;
  (* Send immediately after the sequencer crash, before suspicion. *)
  Gcs.multicast gcs 1 "g" "racing";
  settle engine ~until:12.;
  check Alcotest.bool "resubmitted across view change" true
    (List.exists
       (fun (_, payload) -> payload = "racing")
       (deliveries_of rec_ ~proc:2 ~group:"g"))

let test_partition_and_merge () =
  let engine, gcs, rec_ = make ~n:4 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  Gcs.partition gcs [ [ 0; 1 ]; [ 2; 3 ] ];
  settle engine ~until:8.;
  (match (last_view rec_ ~proc:0 ~group:"g", last_view rec_ ~proc:2 ~group:"g") with
  | Some v0, Some v2 ->
      check (Alcotest.list Alcotest.int) "side A" [ 0; 1 ] v0.View.members;
      check (Alcotest.list Alcotest.int) "side B" [ 2; 3 ] v2.View.members
  | _ -> Alcotest.fail "missing views");
  (* Each side keeps operating independently. *)
  Gcs.multicast gcs 0 "g" "sideA";
  Gcs.multicast gcs 3 "g" "sideB";
  settle engine ~until:12.;
  check Alcotest.bool "A delivers A" true
    (List.exists (fun (_, p) -> p = "sideA") (deliveries_of rec_ ~proc:1 ~group:"g"));
  check Alcotest.bool "B delivers B" true
    (List.exists (fun (_, p) -> p = "sideB") (deliveries_of rec_ ~proc:2 ~group:"g"));
  check Alcotest.bool "A does not deliver B" false
    (List.exists (fun (_, p) -> p = "sideB") (deliveries_of rec_ ~proc:1 ~group:"g"));
  (* Heal: the components merge back into one view. *)
  Gcs.heal gcs;
  settle engine ~until:20.;
  List.iter
    (fun p ->
      match last_view rec_ ~proc:p ~group:"g" with
      | Some v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "merged view at %d" p)
            [ 0; 1; 2; 3 ] v.View.members
      | None -> Alcotest.fail "no view")
    (Gcs.servers gcs)

let test_no_duplicates_ever () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  List.iter
    (fun p ->
      for i = 1 to 5 do
        Gcs.multicast gcs p "g" (Printf.sprintf "m%d-%d" p i)
      done)
    (Gcs.servers gcs);
  Gcs.crash gcs 0;
  settle engine ~until:15.;
  List.iter
    (fun p ->
      let payloads = List.map snd (deliveries_of rec_ ~proc:p ~group:"g") in
      check Alcotest.int
        (Printf.sprintf "no duplicate deliveries at %d" p)
        (List.length payloads)
        (List.length (List.sort_uniq compare payloads)))
    [ 1; 2 ]

let test_virtual_synchrony_on_crash () =
  (* Members transitioning together from v to v' deliver the same set of
     messages in v, even when the sequencer dies mid-stream. *)
  let engine, gcs, rec_ = make ~n:4 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  for i = 1 to 10 do
    Gcs.multicast gcs 0 "g" (Printf.sprintf "pre%d" i);
    Gcs.multicast gcs 1 "g" (Printf.sprintf "alt%d" i)
  done;
  Gcs.crash gcs 0;
  settle engine ~until:15.;
  let sets =
    List.map
      (fun p ->
        deliveries_of rec_ ~proc:p ~group:"g" |> List.map snd |> List.sort compare)
      [ 1; 2; 3 ]
  in
  match sets with
  | [ a; b; c ] ->
      check (Alcotest.list Alcotest.string) "1 = 2" a b;
      check (Alcotest.list Alcotest.string) "2 = 3" b c
  | _ -> assert false

let test_open_send_from_client () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  let client = Gcs.add_client gcs in
  settle engine ~until:3.;
  Gcs.open_send gcs client "g" "from-client";
  settle engine ~until:6.;
  List.iter
    (fun p ->
      let got =
        deliveries_of rec_ ~proc:p ~group:"g"
        |> List.filter (fun (s, payload) -> s = client && payload = "from-client")
      in
      check Alcotest.int (Printf.sprintf "client msg exactly once at %d" p) 1
        (List.length got))
    (Gcs.servers gcs)

let test_open_send_survives_member_crash () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  let client = Gcs.add_client gcs in
  settle engine ~until:3.;
  Gcs.crash gcs 0;
  settle engine ~until:8.;
  Gcs.open_send gcs client "g" "late";
  settle engine ~until:12.;
  List.iter
    (fun p ->
      check Alcotest.bool
        (Printf.sprintf "delivered at survivor %d" p)
        true
        (List.exists
           (fun (s, payload) -> s = client && payload = "late")
           (deliveries_of rec_ ~proc:p ~group:"g")))
    [ 1; 2 ]

(* The client reaches no member, only the non-member 3: its open send
   must take the ttl relay hop through 3 and still be delivered exactly
   once at every member, attributed to the client. *)
let test_open_send_relayed_by_non_member () =
  let engine, gcs, rec_ = make ~n:4 () in
  let members = [ 0; 1; 2 ] in
  List.iter (fun p -> Gcs.join gcs p "g") members;
  let client = Gcs.add_client gcs in
  List.iter
    (fun p ->
      Gcs.set_link gcs client p false;
      Gcs.set_link gcs p client false)
    members;
  settle engine ~until:3.;
  Gcs.open_send gcs client "g" "relayed";
  settle engine ~until:6.;
  List.iter
    (fun p ->
      let got =
        deliveries_of rec_ ~proc:p ~group:"g"
        |> List.filter (fun (s, payload) -> s = client && payload = "relayed")
      in
      check Alcotest.int (Printf.sprintf "relayed msg exactly once at %d" p) 1
        (List.length got))
    members;
  check Alcotest.int "nothing delivered at the relay" 0
    (List.length (deliveries_of rec_ ~proc:3 ~group:"g"))

(* Four servers in "g" and a client that reaches only member 3; the
   1 -> 3 link is delayed 0.2 s, so once 0 crashes and 1 coordinates the
   view without it, 3 stays flushed for 0.2 s after 2 has installed.
   [wrap p on_view] records [p]'s callbacks like [make] and also runs
   [on_view] at each of its installs. *)
let crash_0_harness () =
  let engine, gcs, rec_ = make ~n:4 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  let client = Gcs.add_client gcs in
  List.iter
    (fun p ->
      Gcs.set_link gcs client p false;
      Gcs.set_link gcs p client false)
    [ 0; 1; 2 ];
  settle engine ~until:3.;
  Network.set_link_delay (Gcs.network gcs) 1 3 (Some 0.2);
  let wrap p on_view =
    Gcs.set_app gcs p
      {
        Haf_gcs.Daemon.no_callbacks with
        on_view =
          (fun v ->
            rec_.views <- (p, v) :: rec_.views;
            on_view v);
        on_message =
          (fun ~group ~sender payload ->
            rec_.delivered <- (p, group, sender, payload) :: rec_.delivered);
        on_p2p = (fun ~sender payload -> rec_.p2p <- (p, sender, payload) :: rec_.p2p);
      }
  in
  (engine, gcs, rec_, client, wrap)

let without_0 (v : View.t) = v.View.group = "g" && v.View.members = [ 1; 2; 3 ]

(* An open send a member parks while flushed must survive the new
   coordinator crashing before it sequences the entry.  The client sends
   at 2's install, so 3 parks the entry.  1 crashes the moment 3
   installs, before the forwarded entry reaches it: only the view after
   that can deliver it. *)
let test_parked_open_send_survives_coordinator_crash () =
  let engine, gcs, rec_, client, wrap = crash_0_harness () in
  let sent = ref false and crashed = ref false in
  wrap 2 (fun v ->
      if without_0 v && not !sent then begin
        sent := true;
        Gcs.open_send gcs client "g" "parked"
      end);
  wrap 3 (fun v ->
      if without_0 v && not !crashed then begin
        crashed := true;
        Gcs.crash gcs 1
      end);
  Gcs.crash gcs 0;
  settle engine ~until:8.;
  check Alcotest.bool "sent while 3 was flushed" true !sent;
  check Alcotest.bool "1 crashed at 3's install" true !crashed;
  List.iter
    (fun p ->
      let got =
        deliveries_of rec_ ~proc:p ~group:"g"
        |> List.filter (fun (s, payload) -> s = client && payload = "parked")
      in
      check Alcotest.int (Printf.sprintf "parked msg exactly once at %d" p) 1
        (List.length got))
    [ 2; 3 ]

(* One origin's entries keep their order across an install.  "first"
   reaches 3 right after 0 crashes, before anyone suspects it, so 3
   forwards it to the dead 0 and holds it; "second" reaches 3 while it
   is flushed.  At its install 3 resubmits both, "first" first. *)
let test_origin_order_across_install () =
  let engine, gcs, rec_, client, wrap = crash_0_harness () in
  let sent = ref false in
  wrap 2 (fun v ->
      if without_0 v && not !sent then begin
        sent := true;
        Gcs.open_send gcs client "g" "second"
      end);
  Gcs.crash gcs 0;
  Gcs.open_send gcs client "g" "first";
  settle engine ~until:8.;
  check Alcotest.bool "second sent at 2's install" true !sent;
  List.iter
    (fun p ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "client order at %d" p)
        [ "first"; "second" ]
        (deliveries_of rec_ ~proc:p ~group:"g"
        |> List.filter_map (fun (s, payload) -> if s = client then Some payload else None)))
    [ 1; 2; 3 ]

let test_p2p () =
  let engine, gcs, rec_ = make ~n:2 () in
  Gcs.p2p gcs 0 ~dst:1 "direct";
  settle engine ~until:2.;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "p2p delivered"
    [ (0, "direct") ]
    (List.map (fun (_, s, payload) -> (s, payload)) rec_.p2p)

let test_leave () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  Gcs.leave gcs 2 "g";
  settle engine ~until:8.;
  (match last_view rec_ ~proc:0 ~group:"g" with
  | Some v -> check (Alcotest.list Alcotest.int) "leaver excluded" [ 0; 1 ] v.View.members
  | None -> Alcotest.fail "no view");
  check Alcotest.bool "left process not a member" false (Gcs.view_of gcs 2 "g" <> None)

let test_restart_rejoins () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  Gcs.crash gcs 2;
  settle engine ~until:8.;
  Gcs.restart gcs 2;
  Gcs.join gcs 2 "g";
  settle engine ~until:16.;
  match last_view rec_ ~proc:0 ~group:"g" with
  | Some v ->
      check (Alcotest.list Alcotest.int) "restarted member merged back" [ 0; 1; 2 ]
        v.View.members
  | None -> Alcotest.fail "no view"

let test_restarted_process_not_muted () =
  (* Regression: uids used to be (origin, serial), so a restarted process
     reusing low serials was silently deduplicated by survivors that had
     seen its previous incarnation's messages — muting it forever. *)
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  for i = 1 to 5 do
    Gcs.multicast gcs 2 "g" (Printf.sprintf "first-life-%d" i)
  done;
  settle engine ~until:5.;
  Gcs.crash gcs 2;
  settle engine ~until:9.;
  Gcs.restart gcs 2;
  Gcs.join gcs 2 "g";
  settle engine ~until:16.;
  for i = 1 to 5 do
    Gcs.multicast gcs 2 "g" (Printf.sprintf "second-life-%d" i)
  done;
  settle engine ~until:20.;
  let payloads = List.map snd (deliveries_of rec_ ~proc:0 ~group:"g") in
  for i = 1 to 5 do
    check Alcotest.bool
      (Printf.sprintf "second-life-%d delivered" i)
      true
      (List.mem (Printf.sprintf "second-life-%d" i) payloads)
  done

let test_leave_then_rejoin () =
  (* Regression: a member leaving and later rejoining the same group used
     to stay on the survivors' "left" exclusion list forever, wedging the
     membership in divergent views. *)
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  Gcs.leave gcs 2 "g";
  settle engine ~until:7.;
  Gcs.join gcs 2 "g";
  settle engine ~until:14.;
  List.iter
    (fun p ->
      match last_view rec_ ~proc:p ~group:"g" with
      | Some v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "rejoined view at %d" p)
            [ 0; 1; 2 ] v.View.members
      | None -> Alcotest.fail "no view")
    (Gcs.servers gcs);
  Gcs.multicast gcs 2 "g" "rejoined";
  settle engine ~until:18.;
  check Alcotest.bool "rejoined member can multicast" true
    (List.exists (fun (_, p) -> p = "rejoined") (deliveries_of rec_ ~proc:0 ~group:"g"))

let test_fast_restart_reconverges () =
  (* A process that crashes and restarts faster than the suspicion
     timeout is never suspected; the survivors' views still include it
     while its own state is blank.  The persistent view-id mismatch in
     its heartbeat adverts must force reconciliation. *)
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  Gcs.crash gcs 1;
  (* Restart well inside the suspicion timeout (0.35s default). *)
  ignore
    (Engine.schedule_at engine ~time:3.1 (fun () ->
         Gcs.restart gcs 1;
         Gcs.join gcs 1 "g"));
  settle engine ~until:12.;
  List.iter
    (fun p ->
      match last_view rec_ ~proc:p ~group:"g" with
      | Some v ->
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "reconverged at %d" p)
            [ 0; 1; 2 ] v.View.members
      | None -> Alcotest.fail "no view")
    (Gcs.servers gcs);
  (* And agreement on the view id, i.e. they are really back in one
     view, not stuck in divergent ones. *)
  let ids =
    List.filter_map (fun p -> last_view rec_ ~proc:p ~group:"g") (Gcs.servers gcs)
    |> List.map (fun v -> v.View.id)
    |> List.sort_uniq View.Id.compare
  in
  check Alcotest.int "single view id after fast restart" 1 (List.length ids);
  (* Multicast still works end to end. *)
  Gcs.multicast gcs 1 "g" "post-restart";
  settle engine ~until:16.;
  check Alcotest.bool "delivery works" true
    (List.exists (fun (_, p) -> p = "post-restart") (deliveries_of rec_ ~proc:0 ~group:"g"))

let test_two_groups_independent () =
  let engine, gcs, rec_ = make ~n:4 () in
  List.iter (fun p -> Gcs.join gcs p "g1") [ 0; 1 ];
  List.iter (fun p -> Gcs.join gcs p "g2") [ 2; 3 ];
  settle engine ~until:3.;
  Gcs.multicast gcs 0 "g1" "in-g1";
  Gcs.multicast gcs 2 "g2" "in-g2";
  settle engine ~until:6.;
  check Alcotest.bool "g1 delivery" true
    (List.exists (fun (_, p) -> p = "in-g1") (deliveries_of rec_ ~proc:1 ~group:"g1"));
  check Alcotest.int "no cross-group leak" 0
    (List.length (deliveries_of rec_ ~proc:2 ~group:"g1"))

let test_overlapping_groups () =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "a") [ 0; 1 ];
  List.iter (fun p -> Gcs.join gcs p "b") [ 1; 2 ];
  settle engine ~until:3.;
  Gcs.crash gcs 1;
  settle engine ~until:8.;
  (match last_view rec_ ~proc:0 ~group:"a" with
  | Some v -> check (Alcotest.list Alcotest.int) "a shrinks" [ 0 ] v.View.members
  | None -> Alcotest.fail "no view a");
  match last_view rec_ ~proc:2 ~group:"b" with
  | Some v -> check (Alcotest.list Alcotest.int) "b shrinks" [ 2 ] v.View.members
  | None -> Alcotest.fail "no view b"

(* Whether every origin's payloads, each "<origin>.<k>" with [k] its
   send count, appear in increasing [k]. *)
let in_send_order payloads =
  let last = Hashtbl.create 8 in
  List.for_all
    (fun payload ->
      Scanf.sscanf payload "%d.%d" (fun origin k ->
          let ok = k > Option.value (Hashtbl.find_opt last origin) ~default:0 in
          Hashtbl.replace last origin k;
          ok))
    payloads

(* Property: under a random crash schedule, every pair of surviving
   processes delivers the same totally ordered prefix-consistent
   sequences: one is a subsequence-free exact match after filtering to
   messages both delivered (total order), no process delivers a message
   twice, and each origin's messages — a client's open sends too — arrive
   in the order it sent them. *)
let prop_total_order_random_crashes =
  QCheck.Test.make ~name:"gcs: agreement under random crashes" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let engine, gcs, rec_ = make ~n:4 ~seed:(seed + 1) () in
      let rng = Haf_sim.Rng.create (seed + 77) in
      List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
      let client = Gcs.add_client gcs in
      Engine.run ~until:3. engine;
      (* Random traffic and one random crash at a random moment. *)
      let victim = Haf_sim.Rng.int rng 4 in
      let crash_at = 3. +. Haf_sim.Rng.float rng 2. in
      ignore
        (Engine.schedule_at engine ~time:crash_at (fun () -> Gcs.crash gcs victim));
      let sent = Hashtbl.create 8 in
      let next_payload p =
        let k = Option.value (Hashtbl.find_opt sent p) ~default:0 + 1 in
        Hashtbl.replace sent p k;
        Printf.sprintf "%d.%d" p k
      in
      let at_random_times send =
        for _ = 1 to 8 do
          let at = 3. +. Haf_sim.Rng.float rng 3. in
          ignore (Engine.schedule_at engine ~time:at send)
        done
      in
      List.iter
        (fun p ->
          at_random_times (fun () ->
              if Gcs.alive gcs p then Gcs.multicast gcs p "g" (next_payload p)))
        (Gcs.servers gcs);
      at_random_times (fun () -> Gcs.open_send gcs client "g" (next_payload client));
      Engine.run ~until:20. engine;
      let survivors = List.filter (fun p -> p <> victim) (Gcs.servers gcs) in
      let seqs =
        List.map (fun p -> deliveries_of rec_ ~proc:p ~group:"g" |> List.map snd) survivors
      in
      (* No duplicates anywhere... *)
      List.for_all
        (fun s -> List.length s = List.length (List.sort_uniq compare s))
        seqs
      (* ...all survivors deliver identical sequences (they end in the
         same final view, so virtual synchrony forces full agreement)... *)
      && List.for_all (fun s -> s = List.hd seqs) seqs
      (* ...and in each origin's send order. *)
      && List.for_all in_send_order seqs)

(* Property: [View.merged] is a fact of the view, not of the member
   reading it.  Under random partitions, heals, crashes, restarts, joins
   and leaves, every member that installs a view reports the same
   [merged], and for a view all its members installed, [merged] holds
   iff their previous views (as each member last installed one, join
   singletons included) differ.  No corruption is injected, so no audit
   reset installs a view behind the application's back. *)
let prop_merged_is_shared =
  QCheck.Test.make ~name:"gcs: merged agrees at every member, iff previous views differ"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let engine = Engine.create ~seed:(seed + 1) () in
      let gcs = Gcs.create ~num_servers:4 engine in
      let procs = Gcs.servers gcs in
      let current = Hashtbl.create 4 in
      let installs = ref [] in
      List.iter
        (fun p ->
          Gcs.set_app gcs p
            {
              Haf_gcs.Daemon.no_callbacks with
              on_view =
                (fun v ->
                  installs := (p, Hashtbl.find_opt current p, v) :: !installs;
                  Hashtbl.replace current p v.View.id);
            })
        procs;
      List.iter (fun p -> Gcs.join gcs p "g") procs;
      let rng = Haf_sim.Rng.create (seed + 31) in
      let member p = Gcs.view_of gcs p "g" <> None in
      let random_op () =
        let p = Haf_sim.Rng.int rng 4 in
        match Haf_sim.Rng.int rng 6 with
        | 0 -> if Gcs.alive gcs p then Gcs.crash gcs p
        | 1 ->
            if not (Gcs.alive gcs p) then begin
              Gcs.restart gcs p;
              Gcs.join gcs p "g"
            end
        | 2 ->
            let side = List.filter (fun _ -> Haf_sim.Rng.bool rng) procs in
            Gcs.partition gcs [ side; List.filter (fun q -> not (List.mem q side)) procs ]
        | 3 -> Gcs.heal gcs
        | 4 -> if Gcs.alive gcs p && member p then Gcs.leave gcs p "g"
        | _ -> if Gcs.alive gcs p && not (member p) then Gcs.join gcs p "g"
      in
      for _ = 1 to 8 do
        let at = 3. +. Haf_sim.Rng.float rng 12. in
        ignore (Engine.schedule_at engine ~time:at random_op)
      done;
      ignore
        (Engine.schedule_at engine ~time:16. (fun () ->
             Gcs.heal gcs;
             List.iter
               (fun p ->
                 if not (Gcs.alive gcs p) then Gcs.restart gcs p;
                 if not (member p) then Gcs.join gcs p "g")
               procs));
      Engine.run ~until:30. engine;
      (* Join singletons share an id across lives; key the protocol's
         views by id and members, and check the singletons apart. *)
      let by_view = Hashtbl.create 16 in
      let singletons_unmerged =
        List.for_all
          (fun (p, prev, (v : View.t)) ->
            if View.Id.equal v.View.id (View.Id.initial p) then not v.View.merged
            else begin
              let key = (v.View.id, v.View.members) in
              let seen = Option.value (Hashtbl.find_opt by_view key) ~default:[] in
              Hashtbl.replace by_view key ((p, prev, v.View.merged) :: seen);
              true
            end)
          !installs
      in
      let views_consistent =
        Hashtbl.fold
          (fun (_, members) installers ok ->
            let merged = List.map (fun (_, _, m) -> m) installers in
            let agree = List.for_all (Bool.equal (List.hd merged)) merged in
            let all_installed =
              List.sort_uniq Int.compare (List.map (fun (p, _, _) -> p) installers) = members
            in
            let prevs =
              List.sort_uniq compare (List.map (fun (_, prev, _) -> prev) installers)
            in
            ok && agree
            && ((not all_installed) || Bool.equal (List.hd merged) (List.length prevs > 1)))
          by_view true
      in
      Gcs.total_resets gcs = 0 && singletons_unmerged && views_consistent)

(* ------------------------------------------------------------------ *)
(* View-ordering under exploration: across every explored delivery
   schedule of a three-daemon merge (bounded to 8 branch points), no
   member may ever install views out of its local order.  This drives
   the merge through the engine's scheduler interface instead of one
   seeded schedule. *)

let merge_run plan =
  let engine, gcs, rec_ = make ~n:3 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  let exec = Haf_explore.Explore.Exec.attach ~plan ~max_branches:8 engine in
  Engine.run ~until:2.5 engine;
  let violation =
    List.find_map
      (fun p ->
        let installed =
          List.rev
            (List.filter_map
               (fun (q, v) ->
                 if q = p && String.equal v.View.group "g" then Some v.View.id
                 else None)
               rec_.views)
        in
        let rec monotone = function
          | a :: (b :: _ as rest) ->
              if View.Id.compare a b >= 0 then
                Some
                  (Printf.sprintf "process %d installed non-increasing views"
                     p)
              else monotone rest
          | _ -> None
        in
        monotone installed)
      (Gcs.servers gcs)
  in
  Haf_explore.Explore.Exec.detach exec;
  Haf_explore.Explore.Exec.outcome exec ~violation

let test_view_order_all_schedules () =
  let stats, violations =
    Haf_explore.Explore.explore ~run:merge_run ~max_depth:8
      ~indep:Haf_explore.Explore.indep ~stop_on_violation:true ()
  in
  (match violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s" v.Haf_explore.Explore.message);
  Alcotest.(check bool)
    "explored more than one schedule" true
    (stats.Haf_explore.Explore.schedules > 1)

(* ------------------------------------------------------------------ *)
(* Suspicion deadlines *)

(* Three servers in one group; [victim] crashes [offset] seconds into a
   heartbeat period.  Returns the time the coordinator last received a
   datagram from the victim and the time it installed a view without
   it.  The substrate is wrapped to see every arrival. *)
let detect_after_crash ~offset =
  let coord = 0 and victim = 2 in
  let engine = Engine.create ~seed:42 () in
  let net = Network.create engine Network.default_config in
  let sub = Network.substrate net in
  let last_rx = ref neg_infinity and installed = ref None in
  let sub =
    {
      sub with
      Haf_net.Substrate.set_receiver =
        (fun node recv ->
          sub.Haf_net.Substrate.set_receiver node (fun ~src payload ->
              if node = coord && src = victim then last_rx := Engine.now engine;
              recv ~src payload));
    }
  in
  let gcs = Gcs.create_on ~servers:[ 0; 1; 2 ] ~local:[ 0; 1; 2 ] sub in
  Gcs.set_app gcs coord
    {
      Haf_gcs.Daemon.no_callbacks with
      on_view =
        (fun v ->
          if !installed = None && not (List.mem victim v.View.members) then
            installed := Some (Engine.now engine));
    };
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:(3. +. offset);
  check (Alcotest.list Alcotest.int) "full view first" [ 0; 1; 2 ]
    (Option.get (Gcs.view_of gcs coord "g")).View.members;
  (* The singleton views of the joins do not count. *)
  installed := None;
  Haf_gcs.Daemon.stop (Gcs.daemon gcs victim);
  Network.crash net victim;
  settle engine ~until:6.;
  match !installed with
  | Some at -> (!last_rx, at)
  | None -> Alcotest.failf "offset %.3f: no view without the victim" offset

let test_install_at_deadline () =
  (* The coordinator proposes when the victim's silence reaches the
     suspicion timeout, not at its next heartbeat tick: wherever the
     crash falls in a heartbeat period, the install follows the last
     datagram by the timeout plus a round trip. *)
  let cfg = Config.default in
  List.iter
    (fun i ->
      let offset = float_of_int i *. cfg.Config.heartbeat_interval /. 10. in
      let last_rx, at = detect_after_crash ~offset in
      let bound = cfg.Config.suspect_timeout +. 0.005 in
      if at -. last_rx > bound then
        Alcotest.failf "offset %.3f: install %.4f s after the last datagram (bound %.4f)"
          offset (at -. last_rx) bound)
    (List.init 10 Fun.id)

let test_stop_cancels_deadline () =
  (* Server 1 falls silent; once server 0 has armed its suspicion timer,
     stopping 0 cancels it along with the heartbeat, and nothing fires
     afterwards. *)
  let engine, gcs, _ = make ~n:2 () in
  List.iter (fun p -> Gcs.join gcs p "g") (Gcs.servers gcs);
  settle engine ~until:3.;
  Gcs.crash gcs 1;
  settle engine ~until:3.25;
  check Alcotest.int "heartbeat and suspicion timer armed" 2 (Engine.pending engine);
  Gcs.crash gcs 0;
  check Alcotest.int "both cancelled" 0 (Engine.pending engine);
  let fired = Engine.events_processed engine in
  settle engine ~until:10.;
  check Alcotest.int "no timer fires after stop" fired (Engine.events_processed engine)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "gcs.membership",
      [
        Alcotest.test_case "views converge" `Quick test_views_converge;
        Alcotest.test_case "stable after settle" `Quick test_membership_stable_after_settle;
        Alcotest.test_case "crash excludes" `Quick test_crash_view_excludes;
        Alcotest.test_case "coordinator crash" `Quick test_coordinator_crash;
        Alcotest.test_case "partition and merge" `Quick test_partition_and_merge;
        Alcotest.test_case "leave" `Quick test_leave;
        Alcotest.test_case "restart rejoins" `Quick test_restart_rejoins;
        Alcotest.test_case "fast restart reconverges" `Quick test_fast_restart_reconverges;
        Alcotest.test_case "leave then rejoin" `Quick test_leave_then_rejoin;
        Alcotest.test_case "restarted process not muted" `Quick
          test_restarted_process_not_muted;
        Alcotest.test_case "two groups independent" `Quick test_two_groups_independent;
        Alcotest.test_case "overlapping groups" `Quick test_overlapping_groups;
        Alcotest.test_case "view order across all explored schedules" `Quick
          test_view_order_all_schedules;
        Alcotest.test_case "install at the suspicion deadline" `Quick
          test_install_at_deadline;
        Alcotest.test_case "stop cancels the suspicion timer" `Quick
          test_stop_cancels_deadline;
      ] );
    ( "gcs.ordering",
      [
        Alcotest.test_case "total order" `Quick test_total_order;
        Alcotest.test_case "sender fifo" `Quick test_sender_fifo_within_total_order;
        Alcotest.test_case "no duplicates" `Quick test_no_duplicates_ever;
        Alcotest.test_case "view-change race not lost" `Quick
          test_multicast_during_view_change_not_lost;
        Alcotest.test_case "virtual synchrony on crash" `Quick
          test_virtual_synchrony_on_crash;
      ]
      @ qsuite [ prop_total_order_random_crashes; prop_merged_is_shared ] );
    ( "gcs.open+p2p",
      [
        Alcotest.test_case "open send from client" `Quick test_open_send_from_client;
        Alcotest.test_case "open send after crash" `Quick
          test_open_send_survives_member_crash;
        Alcotest.test_case "open send relayed by a non-member" `Quick
          test_open_send_relayed_by_non_member;
        Alcotest.test_case "parked open send survives coordinator crash" `Quick
          test_parked_open_send_survives_coordinator_crash;
        Alcotest.test_case "origin order across install" `Quick
          test_origin_order_across_install;
        Alcotest.test_case "p2p" `Quick test_p2p;
      ] );
  ]
