(** Group naming conventions.

    The paper's three group scales map to deterministic names, so that
    every server — and the deterministic selection function — computes the
    same group name with no extra coordination ("the group name is
    computed deterministically by each of the servers"). *)

val service_group : string
(** The group of all servers; the clients' a-priori-known contact point. *)

val content_group : string -> string
(** [content_group unit_id]: the group of servers replicating one content
    unit. *)

val session_group : shards:int -> string -> string
(** [session_group ~shards session_id]: the group carrying one live
    session's requests to its primary and backups, under
    {!Policy.t.session_shards} = [shards].  With [shards = 0] it is the
    session's own group, [session:<id>].  With [shards = k > 0] it is
    one of [k] fixed shard groups, [sshard:<i>], shared by every session
    whose id hashes to [i]; members that hold no role in a session drop
    its requests.  The hash is a hand-written FNV-1a of the id (never
    the polymorphic [Hashtbl.hash]) mod [k]: pure in the session id, so
    every server and every client computes the same group with no
    coordination. *)

val is_service_group : string -> bool

val content_unit_of : string -> string option
(** Inverse of {!content_group}. *)
