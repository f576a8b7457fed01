(** Render a human-readable report of a framework run from its event
    timeline: per-session delivery quality, fault and takeover summary,
    and global counters.  This is the "what happened?" view an operator
    would want after a drill; `examples/run_report.exe` shows it on a
    chaotic scenario. *)

val fault_table : Metrics.timeline -> Table.t
(** Chronological fault and takeover log. *)

val render : ?title:string -> horizon:float -> Metrics.timeline -> string
(** The three tables concatenated, ready to print. *)
