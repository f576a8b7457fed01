(** Synthetic stream service for experiments.

    A minimal, cheap SERVICE: it streams consecutive items at one item
    per tick and supports absolute repositioning.  The availability
    experiments use it so that measured anomalies (duplicates, gaps,
    lost updates) reflect the framework and the fault schedule rather
    than service-specific logic.  Every [critical_every]-th item is
    critical. *)

type context = { pos : int; marker : int }
(** [marker] records the last applied request's seq — the experiments
    check lost context updates by asking whether a request's effect is
    ever visible downstream. *)

type request = Reposition of { seq : int; to_ : int }

type response = Item of { index : int }

include
  Haf_core.Service_intf.SERVICE
    with type context := context
     and type request := request
     and type response := response
