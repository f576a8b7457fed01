(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and an event queue.  Components
    schedule closures to fire at future virtual times; [run] drains the
    queue in (time, insertion-order) order, so simultaneous events fire
    FIFO and every run with the same seed is bit-for-bit reproducible.

    The engine deliberately has no notion of processes or messages; those
    live in {!Haf_net} and above.  It does, however, expose a pluggable
    {e scheduler interface}: events carry a {!label}, and when a
    {!set_picker} policy is installed, message deliveries become
    explorable choice points instead of firing in fixed time order — the
    hook the {!Haf_explore} model checker drives. *)

type t

type timer
(** Handle for a scheduled (possibly periodic) event; cancellation is
    lazy: a cancelled timer stays in the queue until popped or until the
    engine purges the heap (triggered once dead entries are the
    majority), but its action is never run. *)

type label =
  | Internal
      (** Timer/housekeeping event: always fires in deterministic
          (time, insertion) order, never a model-checking choice point. *)
  | Deliver of { src : int; dst : int }
      (** Delivery of a reliable-channel message from node [src] to node
          [dst].  Per channel, deliveries stay FIFO; across channels a
          driven scheduler may reorder them. *)

type candidate = { src : int; dst : int; k : int; at : float }
(** One enabled delivery offered to a picker: the head of channel
    [(src, dst)], carrying its per-channel delivery index [k] (stable
    across re-executions of the same decision prefix) and its scheduled
    fire time [at]. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes an engine whose clock starts at [0.0].
    [seed] (default 1) seeds the root {!Rng.t}. *)

val create_external : ?seed:int -> now:(unit -> float) -> unit -> t
(** An engine driven by an {e external monotonic clock} instead of the
    virtual one: [now] is sampled on every read (never rewinding — the
    engine keeps the max seen), timers carry real-time deadlines, and
    the queue is drained by an outside event loop via {!next_deadline}
    and {!run_due} rather than {!run}.  This is how {!Haf_net_unix}
    reuses the exact timer machinery protocol code schedules against,
    so the same GCS/framework code runs on both substrates.  Determinism
    guarantees obviously do not apply. *)

val now : t -> float
(** Current time in seconds: virtual for {!create}, the (monotonically
    clamped) external clock for {!create_external}. *)

val rng : t -> Rng.t
(** The engine's root random stream.  Components should normally call
    {!fork_rng} once at creation instead of sharing this. *)

val fork_rng : t -> Rng.t
(** An independent random stream split off the root. *)

val schedule : t -> ?label:label -> delay:float -> (unit -> unit) -> timer
(** [schedule t ~delay f] fires [f] once at [now t +. max delay 0.].
    [label] (default [Internal]) classifies the event for driven
    scheduling; only {!Haf_net} tags deliveries. *)

val schedule_at : t -> ?label:label -> time:float -> (unit -> unit) -> timer
(** Absolute-time variant; times in the past fire immediately (at [now]). *)

val every : t -> ?first:float -> period:float -> (unit -> unit) -> timer
(** [every t ~first ~period f] fires [f] at [now + first] (default
    [period]) and then every [period] seconds until cancelled.  Requires
    [period > 0.].  Always [Internal]. *)

val cancel : timer -> unit
(** Idempotent.  A cancelled timer never fires again. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [until], stop once the next event would
    fire strictly after [until] and set the clock to [until]. *)

val step : t -> bool
(** Execute the single next event under the seeded (time-ordered)
    policy.  [false] if the queue held no live entry to pop. *)

val next_deadline : t -> float option
(** Earliest live timer deadline, or [None] if the queue is empty.
    Purges dead heap heads on the way.  An external event loop uses
    this to size its poll timeout. *)

val run_due : t -> unit
(** Fire, in (time, insertion) order, every timer whose deadline is at
    or before [now t] — re-sampling the clock between events, so timers
    armed by fired actions run in the same call once due.  The
    external-loop counterpart of {!run}; on a virtual-clock engine it
    only fires events already due at the frozen clock. *)

(** {2 Scheduler interface}

    With a picker installed, [run] switches to the driven policy:
    internal events still fire in time order, but whenever one or more
    delivery channel heads are due no later than the next internal
    event, the picker chooses which of them fires next (the clock moves
    to [max clock chosen.at]).  A delivery is thus never delayed past a
    pending timer — a bounded-asynchrony model — while deliveries due
    together may fire in any order the picker asks for.  The candidate
    list is sorted by [(src, dst)] and every run over the same decision
    prefix re-offers the same candidates, which is what makes stateless
    re-execution sound. *)

val set_picker : t -> (candidate list -> candidate) option -> unit
(** Install ([Some]) or remove ([None]) the driven-scheduling policy.
    The picker must return one of the offered candidates. *)

val set_chooser : t -> (site:string -> proc:int -> occ:int -> bool) option -> unit
(** Install the crash choice-point handler consulted by {!choice}.  The
    [occ]urrence counter numbers calls per [(site, proc)], giving each
    choice point a stable identity across re-executions. *)

val choice : t -> site:string -> proc:int -> bool
(** Protocol code calls [choice t ~site ~proc] at instrumented fault
    points ("may I be crashed here?").  Returns [false] when no chooser
    is installed — the production fast path.  A chooser that returns
    [true] has arranged a fault (e.g. scheduled an immediate crash of
    [proc]); the caller must abandon the rest of its step. *)

val set_corruptor :
  t -> (site:string -> proc:int -> occ:int -> bool) option -> unit
(** Install the state-corruption choice-point handler consulted by
    {!corruption}.  Like {!set_chooser}, the [occ]urrence counter numbers
    calls per [(site, proc)], so a corruption scheduled against
    occurrence [k] lands at the same protocol step on every replay. *)

val corruption : t -> site:string -> proc:int -> bool
(** Hardened components call [corruption t ~site ~proc] at instrumented
    corruption points ("should my state be corrupted here?").  Returns
    [false] when no corruptor is installed — the production fast path.
    When it returns [true] the caller applies the site's corruption to
    its own in-memory state and carries on: unlike {!choice}, the
    process stays up — detecting and recovering from the damage is the
    self-stabilization machinery's job. *)

(** {2 Introspection} *)

val pending : t -> int
(** Number of live timers in the queue (cancelled and consumed entries
    excluded). *)

val heap_size : t -> int
(** Physical queue size including dead entries awaiting purge; test
    hook for the lazy-purge policy. *)

val events_processed : t -> int
(** Events fired since creation (cancelled entries excluded). *)
