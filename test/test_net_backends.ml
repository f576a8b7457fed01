(* Backend conformance: one test body, every substrate.

   The Transport contract — reliable FIFO over loss, incarnation reset,
   give-up — is stated once against the Substrate record and executed
   over both the deterministic sim network and the real UDP loopback
   backend.  What differs per backend is only how time passes (virtual
   steps vs. the select reactor) and how a peer "crashes" (sim crash
   vs. a deaf/mute socket). *)

module Engine = Haf_sim.Engine
module Network = Haf_net.Network
module Substrate = Haf_net.Substrate
module Transport = Haf_net.Transport
module Udp = Haf_net_unix.Udp

let check = Alcotest.check

module type BACKEND = sig
  val name : string

  type ctx

  val make : ?drop:float -> n:int -> unit -> ctx

  val substrate : ctx -> Substrate.t

  val run_until : ctx -> ?timeout:float -> (unit -> bool) -> bool
  (** Let time pass (virtual or wall-clock) until the predicate holds or
      [timeout] seconds elapse; returns whether it held. *)

  val set_down : ctx -> int -> bool -> unit
  (** Peer failure: a down node neither sends nor receives. *)

  val teardown : ctx -> unit
end

module Sim_backend : BACKEND = struct
  let name = "sim"

  type ctx = { engine : Engine.t; net : Network.t }

  let make ?(drop = 0.) ~n () =
    let engine = Engine.create ~seed:11 () in
    let net = Network.create engine { Network.default_config with drop_probability = drop } in
    for _ = 1 to n do
      ignore (Network.add_node net)
    done;
    { engine; net }

  let substrate ctx = Network.substrate ctx.net

  let run_until ctx ?(timeout = 120.) pred =
    let deadline = Engine.now ctx.engine +. timeout in
    let rec loop () =
      if pred () then true
      else if Engine.now ctx.engine > deadline then pred ()
      else if Engine.step ctx.engine then loop ()
      else pred ()
    in
    loop ()

  let set_down ctx id down =
    if down then Network.crash ctx.net id else Network.recover ctx.net id

  let teardown _ = ()
end

module Udp_backend : BACKEND = struct
  let name = "udp"

  type ctx = Udp.t

  (* Distinct port block per context so a test never hears stale
     retransmissions from its predecessor's still-queued frames. *)
  let next_block = ref 0

  let make ?(drop = 0.) ~n () =
    let block = !next_block in
    incr next_block;
    let u =
      Udp.create_local ~seed:11
        ~base_port:(7700 + (8 * block))
        ~drop_probability:drop ~nodes:n ()
    in
    let sub = Udp.substrate u in
    for _ = 1 to n do
      ignore (sub.Substrate.add_node ())
    done;
    u

  let substrate = Udp.substrate

  (* Wall-clock timeouts: loopback RTT is microseconds, so even the
     lossy suites settle well under a second. *)
  let run_until u ?(timeout = 20.) pred = Udp.run_until u ~timeout pred

  let set_down = Udp.set_down

  let teardown = Udp.close
end

module Conformance (B : BACKEND) = struct
  let make_transport ?drop ?give_up_after ~n () =
    let ctx = B.make ?drop ~n () in
    let tr = Transport.create (B.substrate ctx) in
    Transport.set_give_up_after tr give_up_after;
    (ctx, tr)

  let collect tr node =
    let got = ref [] in
    Transport.attach tr node (fun ~src payload -> got := (src, payload) :: !got);
    got

  (* Reliable FIFO: exactly-once, in-order delivery of 50 payloads over
     30% injected loss — which forces real retransmissions on both
     backends (loopback never loses on its own). *)
  let test_reliable_fifo () =
    let ctx, tr = make_transport ~drop:0.3 ~n:2 () in
    let got = collect tr 1 in
    Transport.attach tr 0 (fun ~src:_ _ -> ());
    for i = 1 to 50 do
      Transport.send tr ~src:0 ~dst:1 (string_of_int i)
    done;
    let done_ = B.run_until ctx (fun () -> List.length !got = 50) in
    check Alcotest.bool "all delivered in time" true done_;
    check
      (Alcotest.list Alcotest.string)
      "exactly once, in order, despite 30% loss"
      (List.init 50 (fun i -> string_of_int (i + 1)))
      (List.rev_map snd !got);
    let st = Transport.stats tr in
    check Alcotest.int "payloads_sent" 50 st.Transport.payloads_sent;
    check Alcotest.int "payloads_delivered" 50 st.Transport.payloads_delivered;
    check Alcotest.bool "loss forced retransmissions" true
      (st.Transport.retransmissions > 0);
    let sub = B.substrate ctx in
    let c0 = sub.Substrate.counters 0 in
    check Alcotest.bool "substrate counted sends" true
      (c0.Substrate.datagrams_sent >= 50);
    check Alcotest.bool "substrate counted injected loss" true
      (c0.Substrate.datagrams_dropped > 0);
    B.teardown ctx

  (* Incarnation reset: after the receiver loses its channel state (a
     process restart), the connection renegotiates and delivery resumes
     in order on a fresh incarnation. *)
  let test_incarnation_reset () =
    let ctx, tr = make_transport ~n:2 () in
    let got = collect tr 1 in
    Transport.attach tr 0 (fun ~src:_ _ -> ());
    Transport.send tr ~src:0 ~dst:1 "a";
    let ok = B.run_until ctx (fun () -> List.length !got = 1) in
    check Alcotest.bool "first payload delivered" true ok;
    Transport.reset_node tr 1;
    Transport.send tr ~src:0 ~dst:1 "fresh";
    let ok = B.run_until ctx (fun () -> List.length !got = 2) in
    check Alcotest.bool "post-reset payload delivered" true ok;
    check
      (Alcotest.list Alcotest.string)
      "order across the reset" [ "a"; "fresh" ]
      (List.rev_map snd !got);
    B.teardown ctx

  (* Give-up: with an unreachable peer and a 1s threshold the channel is
     declared dead (queue dropped, give-up counted); once the peer is
     back a later send transparently opens a fresh incarnation. *)
  let test_give_up () =
    let ctx, tr = make_transport ~give_up_after:1.0 ~n:2 () in
    let got = collect tr 1 in
    Transport.attach tr 0 (fun ~src:_ _ -> ());
    B.set_down ctx 1 true;
    Transport.send tr ~src:0 ~dst:1 "doomed";
    let gave_up = B.run_until ctx (fun () -> (Transport.stats tr).Transport.give_ups = 1) in
    check Alcotest.bool "channel declared dead" true gave_up;
    check Alcotest.int "queue dropped with the channel" 0 (Transport.stats tr).Transport.unacked;
    B.set_down ctx 1 false;
    Transport.send tr ~src:0 ~dst:1 "post-heal";
    let ok =
      B.run_until ctx (fun () -> List.rev_map snd !got = [ "post-heal" ])
    in
    check Alcotest.bool "fresh incarnation after the give-up" true ok;
    B.teardown ctx

  (* Wire validation: a datagram that is not a transport frame (here,
     raw garbage injected straight through the substrate, below the
     transport's own send path) is dropped and counted in
     [rejected] of its stats snapshot.  Honest peers are
     unaffected: a real payload sent after the garbage still arrives. *)
  let test_rejected_counter () =
    let ctx, tr = make_transport ~n:2 () in
    let got = collect tr 1 in
    Transport.attach tr 0 (fun ~src:_ _ -> ());
    check Alcotest.int "no rejections yet" 0 (Transport.stats tr).Transport.rejected;
    let sub = B.substrate ctx in
    sub.Substrate.send ~src:0 ~dst:1 "not a transport frame";
    let rejected = B.run_until ctx (fun () -> (Transport.stats tr).Transport.rejected >= 1) in
    check Alcotest.bool "garbage datagram counted as rejected" true rejected;
    check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
      "garbage never delivered as a payload" [] !got;
    Transport.send tr ~src:0 ~dst:1 "legit";
    let ok = B.run_until ctx (fun () -> List.rev_map snd !got = [ "legit" ]) in
    check Alcotest.bool "honest traffic unaffected" true ok;
    let st = Transport.stats tr in
    check Alcotest.bool "stats expose the rejection" true
      (st.Transport.rejected >= 1);
    B.teardown ctx

  let suite =
    ( "net.backend." ^ B.name,
      [
        Alcotest.test_case "reliable fifo over loss" `Quick test_reliable_fifo;
        Alcotest.test_case "incarnation reset" `Quick test_incarnation_reset;
        Alcotest.test_case "give-up threshold" `Quick test_give_up;
        Alcotest.test_case "rejects invalid datagrams" `Quick
          test_rejected_counter;
      ] )
end

module Sim_conformance = Conformance (Sim_backend)
module Udp_conformance = Conformance (Udp_backend)

let suite = [ Sim_conformance.suite; Udp_conformance.suite ]
