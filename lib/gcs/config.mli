(** GCS timing parameters. *)

type t = {
  heartbeat_interval : float;
      (** Period of Ping probes and of the local membership sweep.  It
          no longer sets when suspicions are re-evaluated: once a peer
          has been silent for longer than one interval, a one-shot timer
          suspects it at its deadline (see [suspect_timeout]) and runs
          the sweep then, whatever the phase of the heartbeat. *)
  suspect_timeout : float;
      (** Silence after which a monitored peer is suspected: at last
          heard + [suspect_timeout], when the daemon also starts the
          view change.  Must exceed a couple of heartbeat intervals plus
          round-trip latency. *)
  flush_timeout : float;
      (** How long a coordinator waits for flush replies before
          re-proposing without the laggards, and how long a flushed member
          waits for an install before giving up on the proposer. *)
}

val default : t
(** LAN-oriented defaults: 100 ms heartbeats, 350 ms suspicion,
    600 ms flush timeout. *)

val validate : t -> (t, string) result
(** Check the cross-parameter constraints documented above. *)
