(** Descriptive statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1). *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val of_list : float list -> t
(** Zeroed summary for the empty list. *)

val mean : float list -> float

val stddev : float list -> float

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [0,100], nearest-rank on sorted data. *)

val ci95_halfwidth : t -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean: [1.96 * stddev / sqrt n]. *)
