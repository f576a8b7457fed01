(** GCS timing parameters. *)

type t = {
  heartbeat_interval : float;
      (** Period of Ping probes and of the local sweep that re-evaluates
          suspicions and membership. *)
  suspect_timeout : float;
      (** Silence after which a monitored peer is suspected.  Must exceed
          a couple of heartbeat intervals plus round-trip latency. *)
  flush_timeout : float;
      (** How long a coordinator waits for flush replies before
          re-proposing without the laggards, and how long a flushed member
          waits for an install before giving up on the proposer. *)
  seq_batch_window : float;
      (** When positive, the sequencer buffers submissions and flushes
          them every [seq_batch_window] seconds: one [Wire.Data]
          frame per member carries the whole batch, with consecutive
          sequence numbers in submission order — so the total delivery
          order is {e identical} to the unbatched one (qcheck-pinned),
          only the framing amortizes.  [0.] (the default) sequences
          each submission at once, in a one-entry frame. *)
}

val default : t
(** LAN-oriented defaults: 100 ms heartbeats, 350 ms suspicion,
    600 ms flush timeout. *)

val validate : t -> (t, string) result
(** Check the cross-parameter constraints documented above. *)

val pp : Format.formatter -> t -> unit
