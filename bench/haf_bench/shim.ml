(* The counting/timing substrate shim: a record of wrapped closures that
   sits between the datagram substrate (sim or UDP) and everything built
   on it.  Every datagram the stack sends or delivers passes through
   here, so per-datagram counts and costs are taken at the substrate
   boundary without touching the library.  Clock brackets run only in a
   traced run; counting is always on. *)

module Sub = Haf_net.Substrate
module Clock = Haf_net_unix.Clock
module Hist = Stats.Hist

(* Largest payload one IPv4 UDP datagram can carry. *)
let udp_max_payload = 65_507

type t = {
  traced : bool;
  mutable sent : int;
  mutable bytes : int;
  mutable max_bytes : int;
  mutable oversize : int;
  mutable delivered : int;
  send_us : Hist.t;
  recv_us : Hist.t;
}

let create ~traced =
  {
    traced;
    sent = 0;
    bytes = 0;
    max_bytes = 0;
    oversize = 0;
    delivered = 0;
    send_us = Hist.create ();
    recv_us = Hist.create ();
  }

let wrap t (s : Sub.t) =
  let send ?label ~src ~dst payload =
    let n = String.length payload in
    t.sent <- t.sent + 1;
    t.bytes <- t.bytes + n;
    if n > t.max_bytes then t.max_bytes <- n;
    if n > udp_max_payload then t.oversize <- t.oversize + 1;
    if t.traced then begin
      let t0 = Clock.now () in
      s.Sub.send ?label ~src ~dst payload;
      Hist.add t.send_us ((Clock.now () -. t0) *. 1e6)
    end
    else s.Sub.send ?label ~src ~dst payload
  in
  (* The receive bracket is inclusive: it covers the whole synchronous
     reaction to one datagram (transport, GCS, framework, event taps). *)
  let set_receiver node handler =
    s.Sub.set_receiver node (fun ~src payload ->
        t.delivered <- t.delivered + 1;
        if t.traced then begin
          let t0 = Clock.now () in
          handler ~src payload;
          Hist.add t.recv_us ((Clock.now () -. t0) *. 1e6)
        end
        else handler ~src payload)
  in
  { s with Sub.send; set_receiver }
