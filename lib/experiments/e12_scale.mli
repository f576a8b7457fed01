(** E12: scaling with concurrent sessions (Sec. 2, variable client load)

    See the header comment in [e12_scale.ml] for the paper claim under test. *)

val id : string

val title : string

val run : quick:bool -> Haf_stats.Table.t list

(** {2 Engine scale bench}

    One-process benchmark behind [haf_experiments --engine-bench]: the
    scale mode ([Policy.session_shards = 64]: shard groups), a ramp to
    each target population, a mid-run primary crash, and the invariant
    monitor watching throughout.  Grant and crash-takeover latencies
    come from {!Haf_stats.Metrics}' fold, subscribed online. *)

val bench :
  clock:(unit -> float) ->
  ladder:int list ->
  ?profile_all:bool ->
  ?json:string ->
  Format.formatter ->
  bool
(** One monitored run per ladder entry.  Prints the rung table
    (sessions, grant and takeover p95, engine events per cpu-s, ...),
    then the self-profile of the last rung, or of every rung with
    [profile_all].  With [json], also writes the BENCH_engine.json
    payload there: per-rung results and profiles, the checked-in
    throughput floors and the headline max-sessions-under-the-takeover-
    ceiling figure.  Returns [true] iff no rung recorded a monitor
    violation, none ran below its tolerated floor and each took at least
    one grant and one crash-takeover sample; each failure is printed.  [clock] supplies CPU seconds, passed in from the binary so
    the library stays free of ambient time. *)
