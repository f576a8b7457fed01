(** The highly-available service framework — the paper's contribution.

    {!Make} instantiates the framework over a concrete service
    description (see {!Service_intf.SERVICE}) and yields two engines:

    - {!Make.Server}: joins the service group and one content group per
      replicated unit; maintains the replicated unit database; elects
      itself primary or backup via the deterministic selection function;
      streams responses, applies client requests, propagates context,
      and migrates sessions across crashes, joins and rebalances.
    - {!Make.Client}: session-oriented client that addresses the service
      purely through abstract group names — it never learns which server
      serves it, exactly as the paper prescribes.

    One [Server.t]/[Client.t] is created per process on a
    {!Haf_gcs.Gcs.t} fabric; all instances must share one
    {!Events.sink} if the run is to be analyzed with {!Haf_stats}. *)

val test_end_session_deletes : bool ref
(** Test-only fault switch reintroducing PR 3's bug 6: when [true],
    [End_session] physically deletes the unit-db record instead of
    tombstoning it, so a replica that recovers stale state from stable
    storage can resurrect an ended session through the state exchange.
    Shared across all {!Make} instantiations; must stay [false] outside
    the model-checker tests that prove the explorer catches the zombie. *)

module Make (S : Service_intf.SERVICE) : sig
  (** {2 Wire messages}

      Exposed so that tests and harnesses can inject hand-crafted
      traffic; normal applications never construct these.  No message
      names its sender or group: receivers take the sender from the GCS
      delivery ([~sender]) and the unit from the group it arrived in. *)

  type group_msg =
    | List_units  (** Client -> service group; answered to its sender. *)
    | Start_session of { session_id : string }
        (** Client -> content group (totally ordered at every replica);
            the delivery's sender is the session's client. *)
    | Propagate of { snaps : (string * S.context Unit_db.snapshot) list }
        (** Server -> content group, every propagation period: one frame
            per server and unit carries the (session id, snapshot) pair
            of every local primary of the unit, in session-id order,
            applied in order. *)
    | End_session of { session_id : string }
    | State_digest of { vid : Haf_gcs.View.Id.t; digest : Unit_db.digest list }
        (** Members -> content group after a view change with joiners:
            round one of the state exchange, advertising per-session
            metadata only.  Counted once per delivering sender. *)
    | State_delta of { vid : Haf_gcs.View.Id.t; records : S.context Unit_db.session list }
        (** Round two: each member ships exactly the sessions it is the
            designated holder of and that some member lacks — possibly
            none, so completion stays detectable. *)
    | Request of { session_id : string; seq : int; body : S.request }
        (** Client -> session group ({!Naming.session_group}): a
            context update, seen by the primary and every backup. *)

  type p2p_msg =
    | Unit_list of string list
    | Granted of { session_id : string }
        (** Primary -> client: the p2p sender is the granting primary. *)
    | Responses of { items : (string * S.response) list }
        (** Server -> client, once per service tick, and once more when
            a crash successor serves the sessions it took over: the
            responses of every session this server is primary of for
            the client (or took over), in session-id order.  A Hybrid
            takeover's re-sent critical responses lead the frame. *)
    | Handoff of {
        session_id : string;
        ctx : S.context;
        applied : Seqset.t;  (** Exactly the request seqs [ctx] incorporates. *)
        at : float;
      }
        (** Old primary -> new primary on a load-balancing migration:
            the exact context, so the move is hitless. *)

  val encode_group : group_msg -> string

  val decode_p2p : string -> p2p_msg

  (** {2 Persistence format}

      What a server writes to its {!Haf_store.Store.t}: one WAL record
      per {!Unit_db.op} that changed a unit database (the ops
      {!Unit_db.apply} returned [true] for, in delivery order), and a
      snapshot blob holding every unit's export per snapshot cycle.
      Recovery applies the snapshot as one {!Unit_db.Merge} per unit,
      then each WAL op.  Exposed for tests that inspect recovered
      stores. *)

  val encode_op : S.context Unit_db.op -> string

  val decode_op : string -> S.context Unit_db.op

  module Server : sig
    type t

    val create :
      ?store:Haf_store.Store.t ->
      Haf_gcs.Gcs.t ->
      proc:int ->
      policy:Policy.t ->
      units:string list ->
      catalog:string list ->
      events:Events.sink ->
      t
    (** Start a server process: registers the GCS callbacks, joins the
        service group and the content group of every unit in [units].
        [catalog] is the unit list advertised to clients (the paper's
        "list of available content units").

        With [?store], the server logs every unit-database op that
        changed the database to the WAL, snapshots all units every [snapshot_period], group-
        commits every [sync_period], and delays session grants until the
        WAL is durable.  If the store holds recovered state (same
        [Store.t] across a crash/restart), {!create} replays
        snapshot+WAL into the unit databases, emits
        {!Events.Store_recovered}, and withholds self-assignment over
        the recovered sessions until a state exchange reconciles it with
        survivors — or a grace period of two suspicion timeouts proves
        it alone, as after a whole-group crash.

        @raise Invalid_argument if [policy] fails {!Policy.validate}. *)

    val stop : t -> unit
    (** Crash/stop this server instance: cancels every timer and makes
        all callbacks inert.  Call together with {!Haf_gcs.Gcs.crash};
        after {!Haf_gcs.Gcs.restart}, build a fresh server with
        {!create}. *)

    val proc : t -> int

    val units : t -> string list
    (** Units this server replicates, sorted. *)

    val db : t -> string -> S.context Unit_db.t option
    (** This replica's unit database (identical across content-group
        members — a property the test suite checks). *)

    val sessions_served : t -> (string * Events.role) list
    (** Sessions this server currently holds a role for, sorted. *)

    val is_primary_of : t -> string -> bool

    val unit_view : t -> string -> Haf_gcs.View.Id.t option
    (** The content-group view this replica currently holds for the
        unit, if any — the scoping key for the monitor's
        assignment-agreement probe. *)

    val unit_settled : t -> string -> bool
    (** True when the unit is in steady state: no state exchange in
        flight and not withholding self-assignment after a store
        recovery.  Probes comparing replicas must skip unsettled ones —
        divergence during reconciliation is expected, not a violation. *)

    val units_sound : t -> bool
    (** Pure self-check over every unit database: structural invariants
        ({!Unit_db.sound}) and the cached {!Unit_db.checksum} both hold.
        Independent of [Haf_gcs.Audit.enabled] — the convergence oracle
        evaluates it on hardened and unhardened builds alike.  The
        server itself audits this periodically (every two fabric
        heartbeats) and, when hardening is on, answers a failure with
        reset-and-rejoin: roles relinquished, an empty replica re-joins
        the content group, and the state exchange restores the copy. *)
  end

  module Client : sig
    type t

    val create :
      ?retain_responses:bool ->
      Haf_gcs.Gcs.t ->
      proc:int ->
      policy:Policy.t ->
      events:Events.sink ->
      t
    (** A client process (created on a {!Haf_gcs.Gcs.add_client}
        process).  [policy] supplies the session-group naming
        ({!Policy.session_shards}); retries and the silence watchdog
        run every {!Policy.grant_timeout}.  [retain_responses] (default
        [true]): keep the per-session (id, time) response list
        {!received} serves; [false] keeps client memory flat at bench
        scale — the stream still drives the watchdog, but {!received}
        answers []. *)

    val proc : t -> int

    val discover_units : t -> (string list -> unit) -> unit
    (** Ask the service group for the catalog; the callback fires once
        with the answer (from whichever server currently coordinates the
        service view). *)

    val start_session :
      t -> unit_id:string -> duration:float -> request_interval:float -> string
    (** Begin a session on a content unit; returns the session id.
        The client re-sends the start request until granted, emits a
        request drawn from [S.gen_request] every [request_interval]
        seconds (0 = never), re-establishes the session if the response
        stream stays silent for three grant timeouts, and ends the
        session after [duration] seconds.  All delivery anomalies are
        recorded in the event sink for offline analysis. *)

    val stop : t -> unit

    val granted : t -> string -> bool

    val received : t -> string -> (int * float) list
    (** (response id, arrival time) for a session, oldest first.
        Empty under [~retain_responses:false]. *)

    val session_ids : t -> string list
  end
end
