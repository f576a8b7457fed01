(** The replicated unit database.

    One instance lives at every member of a content group.  It "keeps
    track of the sessions that exist for a particular content unit, the
    allocation of servers to these sessions, and session context
    information as periodically propagated by each primary."

    Consistency is not this module's job: the framework applies the same
    totally ordered stream of {!op}s at every member (a state exchange
    after a view change with joiners is one more op, a {!Merge}), so
    replicas stay identical — a property the test suite checks.  Every
    change goes through {!apply}, which also says whether the op changed
    anything; the framework logs exactly those ops, and recovery applies
    them again. *)

type 'ctx snapshot = {
  snap_ctx : 'ctx;
  snap_applied : Seqset.t;
      (** Exactly the request seqs [snap_ctx] incorporates.  Its
          {!Seqset.max} is the snapshot's request high-water mark, which
          freshness, digests and {!equal_shape} compare. *)
  snap_at : float;
}

type 'ctx session = {
  session_id : string;
  client : int;
  unit_id : string;
  started_at : float;
  mutable propagated : 'ctx snapshot option;
  mutable primary : int option;
  mutable backups : int list;
  mutable ended : bool;
      (** Tombstone: the session's End was processed here.  The entry
          stays (and wins merges) so a state exchange with a member that
          missed the End — or recovered from a store predating it —
          cannot resurrect the session. *)
}
(** One session's entry, and also what a state exchange ships and a
    stable-store snapshot holds: the field order is part of those
    bytes. *)

type 'ctx t

val create : unit_id:string -> unit -> 'ctx t
(** An empty database: one table keyed by session id.  Every walk
    (sessions, exports, merges, audits) covers the whole table in
    session-id order. *)

val unit_id : _ t -> string

val remove_session : 'ctx t -> string -> unit
(** Physical deletion, outside {!apply} and the log; protocol code
    tombstones with {!End} instead. *)

val live : 'ctx t -> string -> bool
(** Present and not tombstoned. *)

val find : 'ctx t -> string -> 'ctx session option

val mem : 'ctx t -> string -> bool

val sessions : 'ctx t -> 'ctx session list
(** Sorted by session id — the deterministic iteration order everything
    else relies on.  Includes tombstones; role assignment and
    propagation must use {!live_sessions}. *)

val live_sessions : 'ctx t -> 'ctx session list
(** {!sessions} without the tombstones. *)

val size : _ t -> int

(** {2 State exchange} *)

val export : 'ctx t -> 'ctx session list
(** Copies of every session in {!sessions} order: later mutations of the
    database do not reach them. *)

type digest = {
  d_session_id : string;
  d_client : int;
  d_started_at : float;
  d_req_seq : int;
      (** The snapshot's highest applied seq; -1 when no snapshot has
          been propagated. *)
  d_at : float;
  d_primary : int;  (** -1 when unassigned. *)
  d_backups : int list;
  d_ended : bool;
}
(** Everything a session carries except the service context — small
    enough to advertise on the wire during a state exchange, rich
    enough to decide which member holds the authoritative copy. *)

val digest_of_session : _ session -> digest

val digest_snap_compare : digest -> digest -> int
(** Compare only the replicated-content part — which propagated
    snapshot is fresher; [-1] sentinels mean none, and a tombstone
    outranks any snapshot.  The state exchange uses this to decide
    whether a record must {e travel}: assignment fields are reconciled
    from the digests themselves, so a copy that differs only in
    assignment is not worth shipping. *)

val digest_preference : digest -> digest -> int
(** Strictly positive iff the first argument is the preferred copy; zero
    iff the digests are identical.  A {e total} order: fresher snapshot
    first, a snapshot beats none, then lower primary id, then the
    remaining fields — so every member, merging in any order, picks the
    same winner. *)

type plan_entry = {
  pl_session_id : string;
  pl_best : digest;  (** The winning copy under {!digest_preference}. *)
  pl_sender : int;
      (** The lowest member holding content as fresh as [pl_best] (by
          {!digest_snap_compare}): the one member that ships it. *)
  pl_needed : bool;
      (** Some member lacks the session or holds older content, so the
          record must travel at all. *)
}

val exchange_plan : members:int list -> (int * digest list) list -> plan_entry list
(** The state exchange's one decision, from every member's digests:
    for each session any of [members] advertises, in ascending id, which
    copy wins, who ships it, and whether anyone needs it.  Only
    [members] are read (only view members can multicast a digest in the
    view), each member's first digest for an id counts, and every member
    computes the same plan from the same digests.  O(sessions × members)
    after hashing the digests. *)

val delta : 'ctx t -> me:int -> plan_entry list -> 'ctx session list
(** Copies of the sessions member [me] ships under a plan: those it is
    the sender of and someone needs, in plan order. *)

(** {2 Operations} *)

type 'ctx op =
  | Add of { unit_id : string; session_id : string; client : int; started_at : float }
      (** Insert a fresh session; no-op if the id is known (even as a
          tombstone). *)
  | End of { unit_id : string; session_id : string }
      (** Tombstone the session: mark it {!session.ended}, strip
          assignment and content.  No-op if absent or ended. *)
  | Assign of { unit_id : string; session_id : string; primary : int; backups : int list }
      (** Record a live session's primary and backups. *)
  | Ctx of { unit_id : string; session_id : string; snap : 'ctx snapshot }
      (** A propagated snapshot for a live session, kept only when the
          freshness rule of {!digest_snap_compare} (highest applied
          seq, then [snap_at]) ranks it above the current one. *)
  | Merge of { unit_id : string; records : 'ctx session list }
      (** Union by session id.  For sessions known on both sides, the
          copy preferred by {!digest_preference} wins the snapshot and
          the recorded assignment — a deterministic, order-independent
          rule, so replicas merging the same records in any order
          converge. *)
(** Every change the protocol makes to a unit database, and also the
    framework's WAL record: the constructor and field order are the
    disk bytes.  [unit_id] names the database the op belongs to; the
    caller routes it, {!apply} does not read it. *)

val apply : 'ctx t -> 'ctx op -> bool
(** Apply one op, keeping {!cached_checksum} in step; [true] iff the
    database changed.  Deterministic: the same ops applied in the same
    order to equal databases leave them equal, and an op that returned
    [false] changed nothing, so replaying only the [true] ops rebuilds
    the same database. *)

(** {2 Self-checking} *)

val checksum : 'ctx t -> int
(** Full recompute: XOR-combined hash over the per-session digests
    (identity, assignment, snapshot metadata, tombstone flag — not the
    service context).  Equal databases hash equal, independent of
    insertion order.  {!cached_checksum} maintains the same value
    incrementally; the periodic audit recomputes with this function and
    a mismatch convicts out-of-band state corruption. *)

val cached_checksum : 'ctx t -> int
(** O(1): the incrementally maintained checksum, updated by every
    sanctioned mutation.  Equals {!checksum} unless the in-memory state
    was damaged out-of-band (qcheck-pinned). *)

val sound : 'ctx t -> (unit, string) result
(** Structural invariants every sanctioned mutation preserves: sessions
    belong to this unit, tombstones carry no assignment or content, a
    primary is never its own backup, ids and seqs are non-negative.
    [Error detail] means the in-memory state was damaged. *)

val equal_shape : 'ctx t -> 'ctx t -> bool
(** Same sessions with the same assignments and snapshot metadata
    (contexts compared structurally is up to the service; we compare
    each snapshot's highest applied seq and [snap_at]).  Exact equality holds at every message-delivery point;
    sampled between deliveries, a propagation can be in flight — use
    {!equal_assignments} for probes at arbitrary instants. *)

val equal_assignments : 'ctx t -> 'ctx t -> bool
(** Same sessions with the same clients and primary/backup assignments —
    the coordination-relevant state, which must agree at {e any} instant
    on members sharing a view (snapshots are only eventually equal by
    design: they lag by at most one propagation in flight). *)
