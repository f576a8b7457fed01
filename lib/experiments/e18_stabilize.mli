(** E18 — Corruption sweep under the convergence oracle.

    The self-stabilization claim, carried by two tables: (a) the
    {e hardened} build returns to a legal configuration within a bounded
    quiescence window after every injected state corruption, at every
    sweep intensity (convergence violations must be 0, reconvergence
    p50/p95 reported); (b) with the hardening switched off a single
    epoch corruption leaves the group illegal forever, the
    {!Haf_monitor.Stabilize} oracle flags it, and the triggering
    schedule ddmin-shrinks to exactly that corruption entry with a
    byte-identical text replay. *)

val id : string

val title : string

val window : float
(** Quiescence window for the hardened sweep (seconds from the last
    landed corruption to a legal configuration). *)

val run : quick:bool -> Haf_stats.Table.t list

(** {2 BENCH_stabilize.json} *)

type stats = {
  st_runs : int;
  st_corruptions : int;
  st_audits : int;
  st_resets : int;
  st_conv_violations : int;
  st_reconv_p50 : float option;
  st_reconv_p95 : float option;
}

val json_of_stats : intensity:float -> stats -> string
(** Render [stats] as the BENCH_stabilize.json document.  Its [mode]
    field is always ["custom"]: the one producer is [run_custom]. *)

val run_custom :
  chaos_seed:int ->
  ?intensity:float ->
  quick:bool ->
  unit ->
  Haf_stats.Table.t list * stats
(** One monitored, oracle-tracked hardened run for
    [--chaos-corruption SEED]: tables (metrics plus the replayable
    schedule) and the same run's [stats] for the smoke job's JSON
    artifact. *)
