(** Opt-in profiling registry for the simulation hot paths.

    Disabled (the default), every probe site costs one bool load and a
    branch.  Enabled, sites count every entry and measure a
    [Gc.minor_words] + CPU-clock delta on a 1-in-64 subsample, scaled
    back up in {!snapshot} — so a profiled bench run stays within a few
    percent of an unprofiled one.

    The begin/end protocol is deliberately closure-free so [@hot]
    callers stay R9-clean:

    {[
      let slot = Profile.slot "monitor.event"   (* once, at creation *)

      (* per event: *)
      if Profile.hit slot then begin
        let w0 = Profile.words () and c0 = Profile.cpu () in
        work ();
        Profile.leave slot ~w0 ~c0
      end
      else work ()
    ]}

    CPU time comes from an injected clock ({!set_clock}) because
    library code stays off the wall clock (haf-lint R1); the binary
    that opts into profiling passes [Sys.time] in. *)

type slot

val slot : string -> slot
(** Idempotent by name: the same name always returns the same slot. *)

val enable : unit -> unit

val disable : unit -> unit

val set_clock : (unit -> float) option -> unit
(** Injected CPU clock for span attribution; [None] (default)
    attributes allocation only. *)

val reset : unit -> unit
(** Zero every registered slot (keeps registrations). *)

val hit : slot -> bool
(** Count one guarded-section entry; [true] iff this entry should be
    measured (always [false] while disabled, including the count). *)

val words : unit -> float
(** [Gc.minor_words] — pair with {!leave}. *)

val cpu : unit -> float
(** The injected clock, or [0.] when none is set. *)

val leave : slot -> w0:float -> c0:float -> unit
(** Close a measured entry opened by a [true] {!hit}. *)

type entry = {
  e_name : string;
  e_count : int;  (** Guarded-section entries while enabled. *)
  e_sampled : int;  (** Entries that carried a measurement. *)
  e_minor_words : float;  (** Estimated total minor-heap words (scaled). *)
  e_cpu_s : float;  (** Estimated total CPU seconds (scaled). *)
}

val snapshot : unit -> entry list
(** Every slot with a nonzero count, sorted by name. *)

type gc_sample = {
  g_minor_words : float;
  g_major_words : float;
  g_minor_collections : int;
  g_major_collections : int;
  g_heap_words : int;
}

val gc_sample : unit -> gc_sample
(** [Gc.quick_stat] projection for the engine-tick sampler: difference
    two of these for global allocation / collection deltas. *)
