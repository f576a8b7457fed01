(** Group views.

    A view is the membership service's report of a group's current
    composition.  View identifiers pair a monotonically increasing epoch
    with the identity of the coordinator that installed the view, which
    makes them unique across concurrent partitions. *)

type proc = int

module Id : sig
  type t = { epoch : int; coord : proc }

  val compare : t -> t -> int
  (** Lexicographic on (epoch, coord). *)

  val equal : t -> t -> bool

  val initial : proc -> t
  (** The id of the singleton view a process self-installs on join:
      epoch 0, coordinated by itself. *)
end

type t = {
  id : Id.t;
  group : string;
  members : proc list;  (** Sorted ascending; never empty. *)
  merged : bool;
      (** The members came from more than one previous view: a join, a
          partition heal, a restart or a group reset by the audit.
          [false] means every member moved together from one view, so
          virtual synchrony gave them the same deliveries there.  A
          property of the view, the same at every member. *)
}

val make : id:Id.t -> group:string -> members:proc list -> merged:bool -> t
(** Sorts and dedupes [members].  @raise Invalid_argument if empty. *)

val singleton : group:string -> proc -> t
(** The view a process self-installs on join; not [merged]. *)

val is_member : t -> proc -> bool

val size : t -> int

val coordinator : t -> proc
(** The lowest-id member: sequencer of the view's totally ordered
    multicasts. *)
