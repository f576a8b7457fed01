(** Hierarchical timer wheel — the engine's event queue.

    O(1) amortized insert, O(1) amortized pop when busy, and pops in
    {e exactly} the [(time, seq)] order of the binary {!Heap} it
    replaced, so legacy schedules replay byte-identically (a qcheck
    suite in [test_sim] pins wheel-vs-heap agreement on arbitrary
    interleavings).

    Time is quantized to 1 ms ticks for slot placement only; ordering
    inside a tick bucket is re-established from the exact float key, so
    quantization never reorders.  Items whose time precedes the cursor
    (possible when an external clock fires handlers between a peek and
    the fired deadline) are accepted and pop first, in order. *)

type 'a t

val create : time:('a -> float) -> seq:('a -> int) -> unit -> 'a t

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Minimum by [(time, seq)], or [None] when empty. *)

val peek : 'a t -> 'a option
(** Like {!pop} without removing.  May advance the internal cursor —
    never observably: content and pop order are unchanged. *)

val length : _ t -> int

val is_empty : _ t -> bool

val clear : _ t -> unit

val to_list : 'a t -> 'a list
(** All items, unordered (deterministic for a given history). *)
