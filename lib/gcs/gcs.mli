(** The GCS fabric: a deployment of one GCS daemon per process over one
    datagram substrate.

    This is the composition root: it owns the reliable transport and the
    daemons, and exposes the paper-facing API (join, totally ordered
    multicast, open-group sends, p2p).  {!create} builds the default
    deployment — every process simulated, over {!Haf_net.Network} — and
    additionally offers fault injection (crash, restart, partitions,
    asymmetric links).  {!create_on} deploys the {e same unmodified
    daemons} over any {!Haf_net.Substrate.t}, e.g. real UDP sockets via
    [Haf_net_unix], where each OS process hosts a subset of the group
    and faults are real (kill the process).

    Processes are created either as {e servers} (full members of the
    fabric, listed in everyone's bootstrap contacts) or {e clients}
    (probe the servers, never join groups, send via open-group sends). *)

type proc = int

type t

val create :
  ?net_config:Haf_net.Network.config ->
  ?gcs_config:Config.t ->
  num_servers:int ->
  Haf_sim.Engine.t ->
  t
(** Creates [num_servers] server processes with ids [0 .. num_servers-1],
    already started.  Clients are added afterwards with {!add_client};
    they probe the servers every three server heartbeat intervals. *)

val create_on :
  ?gcs_config:Config.t ->
  servers:proc list ->
  local:proc list ->
  Haf_net.Substrate.t ->
  t
(** Deploy over an arbitrary substrate.  [servers] is the full bootstrap
    contact list (must be consecutive ids from 0, matching the
    substrate's address table); [local] is the subset whose daemons run
    in {e this} OS process — the others are expected to be hosted
    elsewhere over the same wire.  Daemons for [local] are started
    immediately with the full contact list.  Clients are still added
    with {!add_client} (the substrate's next node id must belong to
    this process).  Simulation-only operations ({!network}, {!crash},
    {!restart}, {!partition}, {!heal}, {!set_link}) raise
    [Invalid_argument] on such a fabric: faults are injected for real,
    at the OS level. *)

val engine : t -> Haf_sim.Engine.t

val network : t -> Haf_net.Network.t
(** The simulated network under a {!create} fabric.
    @raise Invalid_argument on a {!create_on} fabric. *)

val substrate : t -> Haf_net.Substrate.t
(** The datagram substrate this fabric runs over (works on both). *)

val transport : t -> Haf_net.Transport.t
(** The reliable-channel layer under this GCS; exposed so a fault
    harness can tune the give-up threshold or watch dead channels. *)

val config : t -> Config.t

val servers : t -> proc list

val add_server : t -> proc
(** Bring up an additional server process ("new servers are brought up to
    alleviate the load"). *)

val add_client : t -> proc
(** A client process: monitors the servers, does not join groups. *)

(** {2 Application wiring} *)

val set_app : t -> proc -> Daemon.callbacks -> unit

val join : t -> proc -> string -> unit

val leave : t -> proc -> string -> unit

val multicast : t -> proc -> string -> string -> unit

val open_send : t -> proc -> string -> string -> unit

val p2p : t -> proc -> dst:proc -> string -> unit

val view_of : t -> proc -> string -> View.t option

val believed_members : t -> proc -> string -> proc list

val membership_stable : t -> proc -> string -> bool

(** {2 Fault injection} *)

val crash : t -> proc -> unit

val restart : t -> proc -> unit
(** The process comes back with empty GCS state (a fresh daemon) that
    keeps the {!set_app} callbacks; the application layer must re-join
    groups.
    The new daemon's incarnation is the crashed one's plus one — the
    fabric persists that single integer across the crash, so peers are
    guaranteed to distinguish the two lives. *)

val alive : t -> proc -> bool

val partition : t -> proc list list -> unit

val heal : t -> unit

val set_link : t -> proc -> proc -> bool -> unit

(** {2 Introspection} *)

val daemon : t -> proc -> Daemon.t
(** The live daemon for a process.  @raise Not_found if crashed. *)

val total_view_changes : t -> int

val total_resets : t -> int
(** Reset-and-rejoin recoveries taken across all processes. *)
