(** Deterministic primary/backup selection.

    "Each server ... applies a deterministic function to the unit
    database in order to select lightly-loaded primary and backup servers
    for this client.  Thanks to total message ordering, the function is
    evaluated over identical databases at the different servers, and all
    the servers choose the same primary and backup servers."

    The function implements the paper's preferences: "the new primary
    assigned will be the former primary if possible, or one of the former
    backups, if the former primary has failed but some former backup
    remains in the group"; otherwise the least-loaded member.  Load
    counts a primary role as 1 and a backup role as 1/2 (backups only
    receive and record requests; only the primary responds). *)

type prev = {
  p_session_id : string;
  p_primary : int option;  (** Assignment before this view, if any. *)
  p_backups : int list;
}

type assignment = { a_session_id : string; a_primary : int; a_backups : int list }

val assign :
  n_backups:int ->
  members:int list ->
  rebalance:bool ->
  prev list ->
  assignment list
(** Pure and deterministic in all arguments: same inputs on every replica
    yield the same output.  Sessions are processed in session-id order.
    With [rebalance] set, a former primary whose load would exceed the
    even share [ceil(sessions/members)] loses the stickiness preference
    (used after servers join); without it, former primaries always keep
    their sessions ("immediately reach a consistent decision ... without
    exchanging additional information").  Each session keeps its
    surviving backups, in order, up to [n_backups]; the missing slots go
    to the least loaded members by weighted load.  So without
    [rebalance], a session placed by an earlier call over the same
    members keeps all its roles.

    @raise Invalid_argument if [members] is empty. *)

(** {2 Incremental placement}

    A load table kept across session starts, so a fresh session is
    placed in O(members) instead of re-running {!assign} over every live
    session.  Every replica holds the same table and applies the same
    starts and ends in total order, so they all agree with no extra
    round.  The table is valid only while the view is stable; callers
    drop it on any view change and rebuild it with {!loads_of}. *)

type loads

val loads_of : members:int list -> prev list -> loads
(** The table for [members] given the live sessions [prevs]: per member,
    its primary count and its weighted load (primaries 1, backups
    1/2).  Roles held by non-members are ignored. *)

val place : loads -> n_backups:int -> string -> assignment option
(** [place loads ~n_backups session_id] places a fresh session and
    counts its roles in [loads].  The primary is the member with the
    fewest primaries, lowest id on ties; the backups are the least
    loaded members by weighted load.  {!assign} makes both picks with
    the same code, so when every live session's roles are on members
    and no live session has an open backup slot, [place] returns
    exactly the entry [assign ~rebalance:false] gives the fresh
    session.  [None] only if the table has no members. *)

val unload : loads -> prev -> unit
(** Stop counting an ended session's roles. *)

val load_table : loads -> (int * float * float) list
(** (member, primary count, weighted load), by member: for tests. *)
