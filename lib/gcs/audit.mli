(** Local self-audit checks for the self-stabilizing GCS.

    Pure predicates over a daemon's (and the framework's) own in-memory
    state.  Run periodically (on the heartbeat tick) and on receive;
    a failing verdict triggers the local reset-and-rejoin path, which
    re-enters the group through the ordinary merge and digest/delta
    state exchange instead of propagating poisoned state. *)

val enabled : bool ref
(** Master switch for all self-auditing (default [true]).  Setting it
    to [false] yields the {e unhardened} build the stabilization
    experiment (E18) uses as its negative control: corruption is still
    injected, but nothing detects or repairs it. *)

type verdict =
  | Sound
  | Bad_view of { group : string; detail : string }
      (** Installed view fails its structural invariants (empty, self
          missing, negative epoch). *)
  | Bad_counter of { group : string; detail : string }
      (** Epoch/sequencer counters out of their monotonicity bounds. *)
  | Bad_clock of { group : string; detail : string }
      (** Delivery clock points outside the view log. *)

val describe : verdict -> string

val is_sound : verdict -> bool

val check_view : me:int -> View.t -> verdict
(** Structural view invariants, re-checked from scratch — corruption
    bypasses the smart constructor that normally guarantees them. *)

val check_counters : view:View.t -> max_epoch:int -> next_seq:int -> verdict
(** [max_epoch >= view epoch >= 0] (bounded-counter monotonicity) and
    [next_seq >= 1]. *)

val check_clock :
  group:string -> delivered_up_to:int -> log_holds_horizon:bool -> verdict
(** [log_holds_horizon] is whether the view log contains the entry at
    [delivered_up_to] (vacuously true at 0): delivery only advances
    over logged entries, so a clock past the horizon is corruption. *)
