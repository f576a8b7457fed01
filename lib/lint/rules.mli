(** The haf-lint rule set.

    All rules guard the same invariant from different angles: a
    simulation run is a pure function of its seed, and protocol
    decisions depend only on explicitly ordered data.

    - R1: no ambient randomness or wall-clock time ([Random.*],
      [Unix.gettimeofday], [Unix.time], [Sys.time]) anywhere but
      [lib/sim/rng.ml].
    - R2: no polymorphic [compare]/[Hashtbl.hash]/[Marshal] in the
      protocol layers ([lib/gcs], [lib/core]).
    - R3: no [Hashtbl.iter]/[Hashtbl.fold]/[Hashtbl.to_seq*] over
      protocol state in [lib/gcs]/[lib/core] — bucket order is not part
      of program semantics; use [Sim.Det_tbl].
    - R4: no direct console output in [lib/] — output flows through
      typed [Events], [Stats] tables and reports, or returned data, and
      is printed at the [bin/] edge.
    - R5: every [lib/**/*.ml] has a matching [.mli] (exempt:
      [*_intf.ml] pure-interface files).

    New rules: add a {!ban} (or a file-level check in {!Driver}) and a
    line to {!descriptions}. *)

type ban = {
  b_rule : string;
  b_scope : string -> bool;
  b_exact : string list;
  b_prefixes : string list;
  b_message : string -> string;
}

val bans : ban list
(** The identifier-based rules (R1–R4). *)

val matches : ban -> string -> bool
(** Does the flattened identifier fall under this ban, scope aside? *)

val check_ident : path:string -> string -> (string * string) list
(** [(rule, message)] for every ban the flattened identifier violates
    in this file. *)

val mli_required : path:string -> bool
(** Does R5 demand a sibling [.mli] for this path? *)

val missing_mli_message : string -> string

val descriptions : (string * string) list
(** [(rule id, one-line summary)], for [--rules] output. *)

val protocol_dirs : string -> bool
(** Is this (normalized) path protocol code — [lib/gcs], [lib/core],
    [lib/store], [lib/chaos], [lib/monitor], [lib/explore]?  Shared
    scope predicate for R2/R3 and the deep tier (R6 dispatch sites, R8
    entry points). *)

val deep_rules : string list
(** The typedtree/call-graph tier: R6–R9. *)

val lexical_rules : string list
(** The parsetree tier: R1–R5. *)
