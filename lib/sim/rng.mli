(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulation flows through a value of
    type {!t} seeded explicitly, so a whole experiment is reproducible from
    its scenario description and seed.  The generator is splittable: use
    {!split} to derive an independent stream for a sub-component without
    perturbing the parent stream when components are added or removed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent child generator, advancing [t] once. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used for
    memoryless crash and request inter-arrival times. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  @raise Invalid_argument on []. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher-Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [min k (length xs)] distinct elements, in random
    order. *)
