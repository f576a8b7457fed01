(** Heartbeat-based failure detector bookkeeping.

    The daemon drives this module: it records when peers were last heard
    from and classifies silence as suspicion.  The detector is local and
    unreliable by design — the membership protocol, not the detector, is
    responsible for agreement.  During stable periods it is accurate,
    which is what the paper's "precise views in stable times" relies
    on. *)

type proc = int

type t

val create : me:proc -> suspect_timeout:float -> t

val monitor : t -> proc -> now:float -> unit
(** Start watching a peer.  A freshly monitored peer gets a grace period
    of one timeout before it can be suspected. *)

val monitored : t -> proc list

val is_monitored : t -> proc -> bool

val heard_from : t -> proc -> now:float -> unit
(** Record any direct communication from the peer.  Clears an existing
    suspicion (the membership sweep will then attempt a merge). *)

val sweep : t -> now:float -> proc list * float
(** Mark as suspected every trusted peer whose silence reached the
    timeout ([last heard + timeout <= now]) and return them, with the
    earliest deadline of the peers still trusted afterwards ([infinity]
    when there is none).  A suspected peer has no deadline: hearing from
    it again gives it a fresh one. *)

val suspected : t -> proc -> bool
(** Unmonitored peers are never suspected. *)

val reachable : t -> proc -> bool
(** Monitored and not suspected. *)
