(** Sets of request seqs: what a session's context has incorporated.

    A set is a list of disjoint, non-adjacent closed intervals, so its
    size is one plus the number of gaps, not the number of seqs.  Gaps
    come only from lost updates, so a long session with none stays one
    interval.  Every operation is first-order over [int] compares and
    runs in O(intervals); {!add} and {!max} cost O(1) when the seq
    extends the top interval, which is the common case.  Two sets
    holding the same seqs have the same representation, so structural
    equality is set equality. *)

type t

val empty : t

val add : int -> t -> t

val mem : int -> t -> bool

val union : t -> t -> t

val diff : t -> t -> t
(** [diff a b]: the seqs of [a] absent from [b]. *)

val max : t -> int
(** The highest seq; 0 for {!empty}. *)

val to_list : t -> int list
(** Ascending and duplicate-free. *)

val of_list : int list -> t
(** Any order; duplicates collapse. *)
