(** The experiment registry: every Section-4 claim as a runnable table.
    See DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-
    measured discussion. *)

type experiment = {
  id : string;  (** "e1" .. "e14" *)
  title : string;
  run : quick:bool -> Haf_stats.Table.t list;
}

val all : experiment list

val find : string -> experiment option
