(** Availability policy: the paper's configurable parameters.

    "The key configurable parameters in our framework are the number of
    servers at each level of synchronization, and the frequency with
    which the primary propagates context to the other servers." *)

type takeover =
  | Resume
      (** Retransmit every response since the last known position.  The
          client may see duplicates, but never misses a response
          (paper: favour duplicates for MPEG I-frames). *)
  | Skip_ahead
      (** Fast-forward to the estimated live position.  No duplicates,
          but responses sent in the uncertainty window may be lost. *)
  | Hybrid
      (** Fast-forward, but retransmit the {e critical} responses from
          the skipped range: the paper's per-frame-class MPEG policy. *)

type t = {
  n_backups : int;
      (** Backup servers per session group (0 reproduces the VoD design
          of [2], i.e. session group = primary only). *)
  propagation_period : float;
      (** Seconds between the primary's context propagations to the
          content group ([2] used 0.5 s). *)
  takeover : takeover;
  session_shards : int;
      (** The one scale setting; it selects only how sessions are named
          as GCS groups ({!Naming.session_group}).  0 (the default) is
          the paper's design: every session gets its own group.
          Positive [k] maps sessions onto [k] fixed shard groups, which
          bounds group count at 10{^5}+ concurrent sessions; requests
          fan out to the shard's members and non-involved servers drop
          them.

          Nothing else depends on it.  In both designs a fresh session
          is placed incrementally against a load table kept identical
          at every member ({!Selection.place}), and each server ships
          every local primary's snapshot for a content unit in one
          frame per period. *)
}

val default : t
(** 1 backup, 0.5 s propagation, [Resume] takeover, [session_shards = 0]. *)

val grant_timeout : float
(** 2 s.  Client-side: re-send the start-session request every this
    long until granted, and once granted after three of them with no
    response. *)

val vod_paper : t
(** The configuration of the VoD service of [2]: no backups, 0.5 s
    propagation. *)

val validate : t -> (t, string) result

