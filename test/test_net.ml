(* Tests for the simulated network and the reliable transport. *)

module Engine = Haf_sim.Engine
module Network = Haf_net.Network
module Transport = Haf_net.Transport
module Latency = Haf_net.Latency

let check = Alcotest.check

let make_net ?(config = Network.default_config) ?(n = 3) () =
  let engine = Engine.create ~seed:7 () in
  let net = Network.create engine config in
  let nodes = List.init n (fun _ -> Network.add_node net) in
  (engine, net, nodes)

(* ------------------------------------------------------------------ *)
(* Raw network *)

let test_basic_delivery () =
  let engine, net, _ = make_net () in
  let got = ref [] in
  Network.set_receiver net 1 (fun ~src payload -> got := (src, payload) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run engine;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "delivered"
    [ (0, "hello") ] !got

let test_latency_positive () =
  let engine, net, _ = make_net () in
  let arrival = ref (-1.) in
  Network.set_receiver net 1 (fun ~src:_ _ -> arrival := Engine.now engine);
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  check Alcotest.bool "strictly positive latency" true (!arrival > 0.)

let test_crash_blocks_delivery () =
  let engine, net, _ = make_net () in
  let got = ref 0 in
  Network.set_receiver net 1 (fun ~src:_ _ -> incr got);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  check Alcotest.int "no delivery to crashed node" 0 !got;
  check Alcotest.bool "alive flag" false (Network.alive net 1)

let test_crashed_source_sends_nothing () =
  let engine, net, _ = make_net () in
  let got = ref 0 in
  Network.set_receiver net 1 (fun ~src:_ _ -> incr got);
  Network.crash net 0;
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  check Alcotest.int "crashed source is mute" 0 !got

let test_recover () =
  let engine, net, _ = make_net () in
  let got = ref 0 in
  Network.set_receiver net 1 (fun ~src:_ _ -> incr got);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 "y";
  Engine.run engine;
  check Alcotest.int "delivery after recovery" 1 !got

let test_partition_blocks () =
  let engine, net, _ = make_net () in
  let got = ref 0 in
  Network.set_receiver net 2 (fun ~src:_ _ -> incr got);
  Network.partition net [ [ 0; 1 ]; [ 2 ] ];
  Network.send net ~src:0 ~dst:2 "x";
  Engine.run engine;
  check Alcotest.int "across partition" 0 !got;
  Network.heal_links net;
  Network.send net ~src:0 ~dst:2 "y";
  Engine.run engine;
  check Alcotest.int "after heal" 1 !got

let test_partition_within_component () =
  let engine, net, _ = make_net () in
  let got = ref 0 in
  Network.set_receiver net 1 (fun ~src:_ _ -> incr got);
  Network.partition net [ [ 0; 1 ]; [ 2 ] ];
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  check Alcotest.int "inside component flows" 1 !got

let test_asymmetric_link () =
  let engine, net, _ = make_net () in
  let at1 = ref 0 and at0 = ref 0 in
  Network.set_receiver net 1 (fun ~src:_ _ -> incr at1);
  Network.set_receiver net 0 (fun ~src:_ _ -> incr at0);
  Network.set_link net 0 1 false;
  Network.send net ~src:0 ~dst:1 "x";
  Network.send net ~src:1 ~dst:0 "y";
  Engine.run engine;
  check Alcotest.int "0->1 cut" 0 !at1;
  check Alcotest.int "1->0 open (non-transitive direction)" 1 !at0

let test_unlisted_nodes_form_component () =
  let engine, net, _ = make_net ~n:4 () in
  let got = ref [] in
  List.iter
    (fun i -> Network.set_receiver net i (fun ~src payload -> got := (src, i, payload) :: !got))
    [ 0; 1; 2; 3 ];
  Network.partition net [ [ 0; 1 ] ];
  (* 2 and 3 were not listed: they share the implicit component. *)
  Network.send net ~src:2 ~dst:3 "a";
  Network.send net ~src:2 ~dst:0 "b";
  Engine.run engine;
  check Alcotest.int "2->3 delivered, 2->0 blocked" 1 (List.length !got)

let test_drop_probability () =
  let config = { Network.default_config with drop_probability = 0.5 } in
  let engine, net, _ = make_net ~config () in
  let got = ref 0 in
  Network.set_receiver net 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 1000 do
    Network.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run engine;
  check Alcotest.bool "roughly half dropped" true (!got > 350 && !got < 650)

let test_counters () =
  let engine, net, _ = make_net () in
  Network.set_receiver net 1 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 "abcd";
  Engine.run engine;
  let c0 = Network.counters net 0 and c1 = Network.counters net 1 in
  check Alcotest.int "sent" 1 c0.Network.datagrams_sent;
  check Alcotest.int "received" 1 c1.Network.datagrams_received;
  check Alcotest.int "bytes" 4 c1.Network.bytes_received;
  check Alcotest.int "nothing dropped yet" 0 c0.Network.datagrams_dropped;
  (* Loss to a crashed destination is charged to the sender. *)
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 "xy";
  Engine.run engine;
  check Alcotest.int "drop counted on sender" 1 c0.Network.datagrams_dropped;
  Network.reset_counters net;
  check Alcotest.int "reset" 0 (Network.counters net 0).Network.datagrams_sent;
  check Alcotest.int "reset dropped" 0 (Network.counters net 0).Network.datagrams_dropped

let test_self_send () =
  let engine, net, _ = make_net () in
  let got = ref 0 in
  Network.set_receiver net 0 (fun ~src payload ->
      check Alcotest.int "self src" 0 src;
      check Alcotest.string "self payload" "me" payload;
      incr got);
  Network.send net ~src:0 ~dst:0 "me";
  Engine.run engine;
  check Alcotest.int "self delivery" 1 !got

let test_oneway_cut () =
  let engine, net, _ = make_net () in
  let got0 = ref 0 and got1 = ref 0 in
  Network.set_receiver net 0 (fun ~src:_ _ -> incr got0);
  Network.set_receiver net 1 (fun ~src:_ _ -> incr got1);
  Network.cut_oneway net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 "blocked";
  Network.send net ~src:1 ~dst:0 "flows";
  Engine.run engine;
  check Alcotest.int "cut direction drops" 0 !got1;
  check Alcotest.int "reverse direction flows" 1 !got0;
  check Alcotest.bool "connected is directional" true
    ((not (Network.connected net 0 1)) && Network.connected net 1 0);
  (* One-way cuts separate for the bidirectional reachability oracle,
     even through the untouched relay node 2. *)
  check Alcotest.bool "not reachable through one-way cut" false
    (Network.reachable net ~among:[ 0; 1 ] 0 1);
  check Alcotest.bool "reachable via relay both ways up" true
    (Network.reachable net ~among:[ 0; 1; 2 ] 0 1);
  Network.heal_links net;
  let before = !got1 in
  Network.send net ~src:0 ~dst:1 "after heal";
  Engine.run engine;
  check Alcotest.int "heal restores the link" (before + 1) !got1

let test_link_delay_override () =
  let config =
    { Network.default_config with latency = Latency.Constant 0.001 }
  in
  let engine, net, _ = make_net ~config () in
  let arrival = ref (-1.) in
  Network.set_receiver net 1 (fun ~src:_ _ -> arrival := Engine.now engine);
  Network.send net ~src:0 ~dst:1 "baseline";
  Engine.run engine;
  let baseline = !arrival in
  Network.set_link_delay net 0 1 (Some 0.5);
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "override installed" (Some 0.5)
    (Network.link_delay net 0 1);
  check (Alcotest.option (Alcotest.float 1e-9)) "other direction untouched" None
    (Network.link_delay net 1 0);
  let t0 = Engine.now engine in
  Network.send net ~src:0 ~dst:1 "slow";
  Engine.run engine;
  check Alcotest.bool "spike adds the extra delay" true
    (!arrival -. t0 >= baseline +. 0.5);
  (* Delay degrades but never disconnects. *)
  check Alcotest.bool "still connected under delay" true
    (Network.connected net 0 1);
  Network.set_link_delay net 0 1 None;
  let t1 = Engine.now engine in
  Network.send net ~src:0 ~dst:1 "fast again";
  Engine.run engine;
  check Alcotest.bool "cleared override" true (!arrival -. t1 < 0.5)

(* ------------------------------------------------------------------ *)
(* Reliable transport *)

let make_transport ?(drop = 0.) ?(n = 3) () =
  let config = { Network.default_config with drop_probability = drop } in
  let engine, net, nodes = make_net ~config ~n () in
  let tr = Transport.create (Network.substrate net) in
  (engine, net, tr, nodes)

let payload_at dgram pos = String.sub dgram pos (String.length dgram - pos)

let collect tr node =
  let got = ref [] in
  Transport.attach tr node (fun ~src payload -> got := (src, payload) :: !got);
  got

let test_transport_in_order () =
  let engine, _, tr, _ = make_transport () in
  let got = collect tr 1 in
  Transport.attach tr 0 (fun ~src:_ _ -> ());
  for i = 1 to 20 do
    Transport.send tr ~src:0 ~dst:1 (string_of_int i)
  done;
  Engine.run engine;
  let payloads = List.rev_map snd !got in
  check (Alcotest.list Alcotest.string) "fifo order"
    (List.init 20 (fun i -> string_of_int (i + 1)))
    payloads

let test_transport_reliable_over_loss () =
  let engine, _, tr, _ = make_transport ~drop:0.3 () in
  let got = collect tr 1 in
  Transport.attach tr 0 (fun ~src:_ _ -> ());
  for i = 1 to 50 do
    Transport.send tr ~src:0 ~dst:1 (string_of_int i)
  done;
  Engine.run ~until:60. engine;
  let payloads = List.rev_map snd !got in
  check (Alcotest.list Alcotest.string) "exactly once, in order, despite 30% loss"
    (List.init 50 (fun i -> string_of_int (i + 1)))
    payloads;
  let st = Transport.stats tr in
  check Alcotest.int "stats: payloads sent" 50 st.Transport.payloads_sent;
  check Alcotest.int "stats: payloads delivered" 50 st.Transport.payloads_delivered;
  check Alcotest.bool "stats: loss forced retransmissions" true
    (st.Transport.retransmissions > 0);
  check Alcotest.bool "stats: retransmitted frames arrived as duplicates" true
    (st.Transport.duplicates > 0);
  check Alcotest.int "stats: nothing outstanding" 0 st.Transport.unacked

let test_transport_across_partition_heal () =
  let engine, net, tr, _ = make_transport () in
  let got = collect tr 1 in
  Transport.attach tr 0 (fun ~src:_ _ -> ());
  Network.partition net [ [ 0 ]; [ 1 ] ];
  Transport.send tr ~src:0 ~dst:1 "late";
  Engine.run ~until:5. engine;
  check Alcotest.int "nothing during partition" 0 (List.length !got);
  Network.heal_links net;
  Engine.run ~until:20. engine;
  check (Alcotest.list Alcotest.string) "delivered after heal" [ "late" ]
    (List.rev_map snd !got)

let test_transport_unreliable_raw () =
  let engine, _, tr, _ = make_transport () in
  let raw = ref [] in
  Transport.attach tr 1
    ~on_raw:(fun ~src dgram pos -> raw := (src, payload_at dgram pos) :: !raw)
    (fun ~src:_ _ -> ());
  Transport.send_unreliable tr ~src:0 ~dst:1 (Transport.raw "ping");
  Engine.run engine;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "raw path"
    [ (0, "ping") ] !raw

let test_transport_reset_node () =
  let engine, net, tr, _ = make_transport () in
  let got = collect tr 1 in
  Transport.attach tr 0 (fun ~src:_ _ -> ());
  Transport.send tr ~src:0 ~dst:1 "a";
  Engine.run engine;
  (* Simulate the receiver process restarting: wipe its channel state. *)
  Network.crash net 1;
  Transport.send tr ~src:0 ~dst:1 "lost-or-later";
  Engine.run ~until:2. engine;
  Network.recover net 1;
  Transport.reset_node tr 1;
  Engine.run ~until:30. engine;
  Transport.send tr ~src:0 ~dst:1 "fresh";
  Engine.run ~until:60. engine;
  let payloads = List.rev_map snd !got in
  (* "a" before the crash; after the reset the channel renegotiates and
     both queued and fresh messages arrive, still in order. *)
  check Alcotest.bool "prefix a"
    true
    (match payloads with "a" :: _ -> true | _ -> false);
  check Alcotest.string "fresh arrives last" "fresh" (List.nth payloads (List.length payloads - 1))

let test_transport_give_up () =
  let engine, net, tr, _ = make_transport () in
  let got = collect tr 1 in
  Transport.attach tr 0 (fun ~src:_ _ -> ());
  Transport.set_give_up_after tr (Some 5.);
  Transport.send tr ~src:0 ~dst:1 "pre-cut";
  Engine.run engine;
  Network.partition net [ [ 0 ]; [ 1 ] ];
  Transport.send tr ~src:0 ~dst:1 "doomed";
  (* Without a give-up threshold the channel would back off and
     retransmit forever; with one, it must declare the channel dead
     within ~5s and stop (no live timers => the engine drains). *)
  Engine.run ~until:60. engine;
  check Alcotest.int "one channel declared dead" 1 (Transport.stats tr).Transport.give_ups;
  (* A later send transparently opens a fresh incarnation. *)
  Network.heal_links net;
  Transport.send tr ~src:0 ~dst:1 "post-heal";
  Engine.run ~until:120. engine;
  let payloads = List.rev_map snd !got in
  check Alcotest.bool "queue of the dead channel was dropped" true
    (not (List.mem "doomed" payloads));
  check Alcotest.string "fresh channel works" "post-heal"
    (List.nth payloads (List.length payloads - 1))

let prop_transport_partition_churn =
  (* The GCS contract on the transport: exactly-once, in-order delivery
     as long as the two endpoints are eventually connected — under
     random loss AND random partition windows while traffic flows. *)
  QCheck.Test.make ~name:"transport: exactly-once in-order across partition churn"
    ~count:15
    QCheck.(pair (int_bound 1000) (int_bound 30))
    (fun (seed, drop_pct) ->
      let drop = float_of_int drop_pct /. 100. in
      let engine = Engine.create ~seed:(seed + 3) () in
      let net = Network.create engine { Network.default_config with drop_probability = drop } in
      let _ = Network.add_node net and _ = Network.add_node net in
      let tr = Transport.create (Network.substrate net) in
      let got = ref [] in
      Transport.attach tr 1 (fun ~src:_ payload -> got := payload :: !got);
      Transport.attach tr 0 (fun ~src:_ _ -> ());
      let rng = Haf_sim.Rng.create (seed + 17) in
      (* Random sends over 30s; record the actual submission order. *)
      let sent = ref [] in
      for i = 1 to 40 do
        let at = Haf_sim.Rng.float rng 30. in
        ignore
          (Engine.schedule_at engine ~time:at (fun () ->
               sent := string_of_int i :: !sent;
               Transport.send tr ~src:0 ~dst:1 (string_of_int i)))
      done;
      (* ...through three random partition windows. *)
      for _ = 1 to 3 do
        let cut = Haf_sim.Rng.float rng 25. in
        let heal = cut +. 1. +. Haf_sim.Rng.float rng 5. in
        ignore
          (Engine.schedule_at engine ~time:cut (fun () ->
               Network.partition net [ [ 0 ]; [ 1 ] ]));
        ignore
          (Engine.schedule_at engine ~time:heal (fun () -> Network.heal_links net))
      done;
      ignore (Engine.schedule_at engine ~time:35. (fun () -> Network.heal_links net));
      Engine.run ~until:120. engine;
      (* Exactly-once, and in submission order. *)
      List.rev !got = List.rev !sent)

let prop_transport_any_loss_rate =
  QCheck.Test.make ~name:"transport: exactly-once in-order for any loss < 0.6" ~count:20
    QCheck.(pair (int_bound 1000) (int_bound 60))
    (fun (seed, drop_pct) ->
      let drop = float_of_int drop_pct /. 100. in
      let engine = Engine.create ~seed:(seed + 1) () in
      let net = Network.create engine { Network.default_config with drop_probability = drop } in
      let _ = Network.add_node net and _ = Network.add_node net in
      let tr = Transport.create (Network.substrate net) in
      let got = ref [] in
      Transport.attach tr 1 (fun ~src:_ payload -> got := payload :: !got);
      Transport.attach tr 0 (fun ~src:_ _ -> ());
      for i = 1 to 30 do
        Transport.send tr ~src:0 ~dst:1 (string_of_int i)
      done;
      Engine.run ~until:120. engine;
      List.rev !got = List.init 30 (fun i -> string_of_int (i + 1)))

(* ------------------------------------------------------------------ *)
(* Transport frames *)

(* A substrate that only queues: a datagram reaches its destination's
   receiver (the transport's frame dispatcher) when [pump] hands it
   over, so a test can drive the dispatcher with any bytes. *)
type mailbox = {
  sub : Haf_net.Substrate.t;
  queued : (int * int * string) list ref;  (* (src, dst, dgram), newest first *)
  receivers : (int, src:int -> string -> unit) Hashtbl.t;
}

let mailbox engine =
  let queued = ref [] and receivers = Hashtbl.create 4 in
  let sub =
    {
      Haf_net.Substrate.engine;
      send = (fun ?label:_ ~src ~dst dgram -> queued := (src, dst, dgram) :: !queued);
      set_receiver = (fun node h -> Hashtbl.replace receivers node h);
      add_node = (fun () -> Hashtbl.length receivers);
      node_count = (fun () -> Hashtbl.length receivers);
      counters = (fun _ -> Haf_net.Substrate.fresh_counters ());
      reset_counters = (fun () -> ());
    }
  in
  { sub; queued; receivers }

(* Deliver every queued datagram, oldest first, until none is left
   (acks sent in reply included); [tap] sees each one first. *)
let pump ?(tap = ignore) mb =
  while !(mb.queued) <> [] do
    let batch = List.rev !(mb.queued) in
    mb.queued := [];
    List.iter
      (fun (src, dst, dgram) ->
        tap dgram;
        (Hashtbl.find mb.receivers dst) ~src dgram)
      batch
  done

(* Data and Ack frames carry connection ids from both ends of their
   range: large ones (the UDP substrate seeds them from a monotonic clock
   in milliseconds) and negative ones (a [corrupt_conn] rollback below
   zero).  The second receiver has no state for the rolled-back
   connection, so it must take it as first contact and deliver; its Ack
   must carry the same negative id back, or the sender stays unacked. *)
let prop_frames_round_trip =
  QCheck.Test.make ~name:"transport frames: Data, Ack and Raw round-trip through dispatch"
    ~count:200
    QCheck.(
      triple
        (oneof [ float_bound_inclusive 900.; float_bound_inclusive 1e12 ])
        (small_list string) (small_list string))
    (fun (clock, payloads, raws) ->
      let engine = Engine.create_external ~now:(fun () -> clock) () in
      let mb = mailbox engine in
      let sender = Transport.create mb.sub in
      Transport.attach sender 0 (fun ~src:_ _ -> ());
      let got = ref [] and got_raw = ref [] in
      let receiver () =
        let tr = Transport.create mb.sub in
        Transport.attach tr 1
          ~on_raw:(fun ~src:_ dgram pos -> got_raw := payload_at dgram pos :: !got_raw)
          (fun ~src:_ p -> got := p :: !got);
        tr
      in
      let first = receiver () in
      List.iter (fun p -> Transport.send sender ~src:0 ~dst:1 p) ("" :: payloads);
      List.iter (fun p -> Transport.send_unreliable sender ~src:0 ~dst:1 (Transport.raw p)) raws;
      pump mb;
      let rolled_back = Transport.corrupt_conn sender 0 in
      let second = receiver () in
      Transport.send sender ~src:0 ~dst:1 "after";
      pump mb;
      let st = Transport.stats sender in
      rolled_back
      && List.rev !got = ("" :: payloads) @ [ "after" ]
      && List.rev !got_raw = raws
      && st.Transport.unacked = 0
      && st.Transport.rejected + (Transport.stats first).Transport.rejected
         + (Transport.stats second).Transport.rejected
         = 0)

(* The frame layout, restated: a kind byte, then a Data header of three
   8-byte integers, an Ack of exactly two, or a Raw payload. *)
let well_formed dgram =
  let len = String.length dgram in
  len > 0
  &&
  match dgram.[0] with
  | 'D' -> len >= 25
  | 'A' -> len = 17
  | 'R' -> true
  | _ -> false

(* Valid frames of every kind, captured off the wire. *)
let sample_frames =
  let mb = mailbox (Engine.create ~seed:1 ()) in
  let tr = Transport.create mb.sub in
  Transport.attach tr 0 (fun ~src:_ _ -> ());
  Transport.attach tr 1 (fun ~src:_ _ -> ());
  let frames = ref [] in
  Transport.send tr ~src:0 ~dst:1 "a reliable payload";
  Transport.send tr ~src:0 ~dst:1 "";
  Transport.send_unreliable tr ~src:0 ~dst:1 (Transport.raw "a heartbeat");
  Transport.send_unreliable tr ~src:0 ~dst:1 (Transport.raw "");
  pump ~tap:(fun dgram -> frames := dgram :: !frames) mb;
  List.rev !frames

let gen_dgram =
  let open QCheck.Gen in
  let frame = oneofl sample_frames in
  oneof
    [
      string_size (int_bound 40);
      (let* kind = oneofl [ 'D'; 'A'; 'R' ] and* rest = string_size (int_bound 40) in
       return (String.make 1 kind ^ rest));
      (let* f = frame in
       let* n = int_bound (String.length f) in
       return (String.sub f 0 n));
      (let* f = frame in
       let* bit = int_bound ((8 * String.length f) - 1) in
       let b = Bytes.of_string f in
       let i = bit / 8 in
       Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
       return (Bytes.to_string b));
    ]

(* A decoder that raises on hostile bytes would crash a receiver from
   outside; every datagram must be routed or counted, never both. *)
let prop_dispatch_total =
  QCheck.Test.make ~name:"transport frames: dispatch is total and counts every non-frame"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (fun s -> Printf.sprintf "%S" s))
       (QCheck.Gen.list_size (QCheck.Gen.int_bound 20) gen_dgram))
    (fun dgrams ->
      let mb = mailbox (Engine.create ~seed:2 ()) in
      let tr = Transport.create mb.sub in
      Transport.attach tr 1 ~on_raw:(fun ~src:_ _ _ -> ()) (fun ~src:_ _ -> ());
      let dispatch = Hashtbl.find mb.receivers 1 in
      List.for_all
        (fun dgram ->
          let before = (Transport.stats tr).Transport.rejected in
          dispatch ~src:0 dgram;
          (Transport.stats tr).Transport.rejected - before
          = if well_formed dgram then 0 else 1)
        dgrams)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "net.network",
      [
        Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
        Alcotest.test_case "latency positive" `Quick test_latency_positive;
        Alcotest.test_case "crash blocks delivery" `Quick test_crash_blocks_delivery;
        Alcotest.test_case "crashed source mute" `Quick test_crashed_source_sends_nothing;
        Alcotest.test_case "recover" `Quick test_recover;
        Alcotest.test_case "partition blocks" `Quick test_partition_blocks;
        Alcotest.test_case "partition within component" `Quick test_partition_within_component;
        Alcotest.test_case "asymmetric link" `Quick test_asymmetric_link;
        Alcotest.test_case "implicit component" `Quick test_unlisted_nodes_form_component;
        Alcotest.test_case "drop probability" `Quick test_drop_probability;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "self send" `Quick test_self_send;
        Alcotest.test_case "one-way cut" `Quick test_oneway_cut;
        Alcotest.test_case "link delay override" `Quick test_link_delay_override;
      ] );
    ( "net.transport",
      [
        Alcotest.test_case "in order" `Quick test_transport_in_order;
        Alcotest.test_case "reliable over loss" `Quick test_transport_reliable_over_loss;
        Alcotest.test_case "partition then heal" `Quick test_transport_across_partition_heal;
        Alcotest.test_case "raw datagrams" `Quick test_transport_unreliable_raw;
        Alcotest.test_case "reset node" `Quick test_transport_reset_node;
        Alcotest.test_case "give-up threshold" `Quick test_transport_give_up;
      ]
      @ qsuite
          [
            prop_transport_any_loss_rate;
            prop_transport_partition_churn;
            prop_frames_round_trip;
            prop_dispatch_total;
          ] );
  ]
