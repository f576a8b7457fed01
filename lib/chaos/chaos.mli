(** Deterministic chaos schedules.

    A seeded RNG is compiled into a {e fault schedule}: a time-sorted
    list of fault and repair operations that an experiment runner
    interprets against the simulated network, the GCS processes and the
    stable stores.  The schedule — not the RNG — is the first-class
    artifact: it can be printed, stored next to a failing seed, parsed
    back for an exact replay, and {e shrunk} to a locally minimal
    counterexample with {!shrink}.

    Ops name servers and units by {e index} (0-based position in the
    scenario's server/unit lists), so a schedule is meaningful across
    scenarios of the same shape.  Interpreters must treat every op as
    idempotent and state-tolerant (restarting a live server, crashing a
    crashed one, or healing a healthy fabric are no-ops): the shrinker
    removes arbitrary subsets, which breaks fault/repair pairing. *)

type target =
  | View_id
      (** Damage the daemon's installed view for one of its groups:
          drop the server from its own membership (or, alone, skew the
          view id's epoch). *)
  | Epoch
      (** Desync the daemon's per-group epoch high-water mark below the
          installed view's epoch (bounded-counter violation). *)
  | Clock
      (** Corrupt the delivery clock: jump [delivered_up_to] past the
          log's horizon, stalling contiguous total-order delivery. *)
  | Record
      (** Bit-flip a unit-database record on one server (assignment or
          tombstone flag), bypassing the framework's checksum cache. *)
  | Conn
      (** Roll a transport sender-connection id back to a stale
          incarnation, so the receiver discards everything as duplicate. *)

type op =
  | Partition of int list list
      (** Symmetric partition of the {e server} indices into the given
          components (servers not listed form an implicit extra one).
          Client placement is the interpreter's choice. *)
  | Heal  (** All links up, all delay overrides cleared. *)
  | Link of { src : int; dst : int; up : bool }
      (** Directed link control: [up = false] is a one-way cut. *)
  | Delay of { src : int; dst : int; extra : float }
      (** Extra one-way propagation delay; [extra <= 0.] clears it. *)
  | Crash of int
  | Restart of int
  | Wipe_unit of int
      (** Simultaneously crash every replica of the unit and erase
          their stable stores — the total-amnesia scenario. *)
  | Disk_faults of { server : int; on : bool }
      (** Toggle the store fault model (torn writes, corruption, fsync
          failures) on one server's devices. *)
  | Corrupt of { server : int; target : target }
      (** Transient in-memory state corruption on one server: the
          process stays up, but one piece of its protocol state is
          silently damaged.  Delivered deterministically through the
          engine's corruption hook ({!Haf_sim.Engine.corruption}) at
          the next instrumented point for [target] on [server]; the
          text form is ["corrupt-<target> <server>"].  There is no
          paired repair op — recovery is the hardened protocol's
          responsibility (audit, reset, rejoin). *)

type schedule = (float * op) list
(** Time-sorted, times in seconds of virtual time. *)

val generate :
  ?corruption:int ->
  seed:int ->
  intensity:float ->
  horizon:float ->
  n_servers:int ->
  n_units:int ->
  unit ->
  schedule
(** Compile a seed into a schedule of paired incidents (fault at [t],
    repair at [t + duration]) over [horizon] seconds.  [intensity]
    scales the incident count (1.0 ≈ one incident per 8 s).
    {!Delay} extras are capped at 0.2 s — below the default suspicion
    timeout, so delay spikes degrade without forging failures.
    [corruption] (default 0) is the relative weight of {!Corrupt}
    incidents in the mix; 0 disables them entirely, keeping schedules
    generated before the corruption fault model existed byte-identical.
    Equal arguments give byte-identical schedules. *)

val target_to_string : target -> string

val target_of_string : string -> target option

val all_targets : target list
(** Every corruption target, in a fixed order (generation and tests). *)

val to_string : schedule -> string
(** One op per line: ["<time> <op> <args>"]. *)

val of_string : string -> (schedule, string) result
(** Inverse of {!to_string}; blank lines and [#] comments are skipped. *)

val shrink : failing:(schedule -> bool) -> schedule -> schedule * int
(** [shrink ~failing s]: delta-debugging (ddmin) minimisation.
    [failing] must return [true] iff the candidate schedule still
    reproduces the failure; it is called once on [s] itself first (if
    that returns [false], [s] is returned unchanged).  Returns a
    locally minimal failing schedule — removing any single remaining op
    makes the failure disappear — and the number of [failing]
    evaluations spent. *)
