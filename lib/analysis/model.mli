(** Closed-form models of the paper's Section-4 risk analysis.

    The paper argues qualitatively which fault patterns lose availability
    and how the configurable parameters move the probabilities.  These
    small models make the arguments quantitative so experiment E9 can
    cross-validate them against the simulation.  Crashes are modelled as
    independent Poisson processes of rate [lambda] per server. *)

val update_loss_probability :
  lambda:float -> period:float -> group_size:float -> float
(** Probability that one client context update is lost: every member of
    the session group (primary + backups, [group_size] many) crashes
    between the update's arrival and the next propagation.  The update
    lands uniformly within the propagation period [period], hence

    {v  P(loss) = (1/P) \int_0^P (1 - e^{-lambda d})^g dd  v}

    which for small [lambda*P] behaves like [(lambda P)^g / (g+1)] —
    the paper's claim that loss probability "decreases as either the
    propagation frequency or the size of the session group rise",
    super-linearly in the group size. *)

val update_loss_probability_approx :
  lambda:float -> period:float -> group_size:float -> float
(** The small-rate closed form [(lambda P)^g / (g+1)]. *)

val no_replica_unavailability : lambda:float -> repair:float -> replicas:int -> float
(** Steady-state fraction of time all [replicas] of a content unit are
    down, with exponential repair of mean [repair]: [q^k] for per-server
    unavailability [q = lambda*repair / (1 + lambda*repair)] — the
    paper's "probability of this scenario can be reduced by increasing
    the degree of replication". *)

val expected_duplicates_per_takeover : response_rate:float -> period:float -> float
(** Under the Resume policy, the new primary rewinds to the last
    propagation: expected duplicate responses = rate * P/2 (the paper's
    "half a second of duplicate video frames" for P = 0.5 s). *)

val expected_missing_per_takeover : response_rate:float -> period:float -> float
(** Under Skip-ahead the same window is skipped instead: same magnitude,
    opposite anomaly. *)

val takeover_latency :
  suspect_timeout:float -> rtt:float -> with_exchange:bool -> float
(** Crash-detected takeover as the client sees it: suspicion, then one
    flush round (propose + flush-reply + install ~ 1.5 RTT); a join
    additionally needs the state exchange round.  A crash successor
    serves as soon as the install returns, so this models the gap the
    client sees (up to one delivery), not only role assumption.  The
    coordinator suspects the victim at last heard + [suspect_timeout]
    (its deadline timer, not its next heartbeat sweep), and the victim
    was last heard at or before the crash, so for a crash [suspect +
    1.5 RTT] is a tight upper bound: the gap falls short of it only by
    how long before the crash the victim last sent. *)

val propagation_msgs_per_sec :
  sessions_primary:int -> period:float -> group_size:int -> float
(** Messages per second a primary spends propagating context: one
    multicast per session per period, fanned to [group_size - 1]
    members. *)

val backup_request_load : sessions_backup:int -> request_rate:float -> float
(** Requests per second a server must receive and record because of its
    backup roles ("the work is merely receiving and recording the
    request; only the primary responds"). *)
