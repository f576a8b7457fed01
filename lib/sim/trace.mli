(** Lightweight structured trace for debugging and test assertions.

    Components emit timestamped lines tagged with a component name; tests
    can filter the recorded lines, and interactive runs can echo them to
    stderr.  Tracing is off by default and costs one branch per call when
    disabled. *)

type t

type line = { time : float; component : string; message : string }

val create : ?echo:bool -> ?capacity:int -> unit -> t
(** [capacity] bounds the number of retained lines (default 100_000);
    older lines are dropped first.  [echo] prints lines to stderr as they
    are emitted. *)

val disabled : t
(** A shared sink that records nothing. *)

val set_enabled : t -> bool -> unit

val emit : t -> time:float -> component:string -> string -> unit

val emitf :
  t -> time:float -> component:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Format and {!emit}.  On a disabled trace nothing is formatted: no
    [%a] printer runs and no string is built, so callers should pass
    structured values through [%a] rather than pre-rendering them. *)

val lines : t -> line list
(** Recorded lines, oldest first. *)

val matching : t -> component:string -> line list
