(** The deep-tier rules, R6–R9.

    Each rule is driven by in-source marks harvested by {!Marks}:

    - R6 ({!r6}): in protocol directories, no [match] arm over a
      [@@haf.protocol] type (directly or as a tuple component) may be a
      catch-all — adding a constructor must fail lint at every
      dispatch.  Known gaps, by construction: [function]-style
      dispatch and [_ as x] aliases are not inspected.
    - R7 ({!r7}): every construction of a [@haf.ack] constructor must
      sit inside a [Store.sync]/[Store.append] application (the
      framework acks in the sync continuation) or inside the [None]
      arm of a [match] on a [Store.t option]; constructions elsewhere
      are chased through uses of the enclosing binding and reported
      only where they escape uncovered.
    - R8 ({!r8}): no node outside the protocol directories that is
      reachable from protocol code may touch ambient
      time/randomness/polymorphic compare/[Marshal] — the transitive
      closure of the lexical R1/R2 bans.
    - R9 ({!r9}): bodies of [\[@hot\]] bindings may not allocate
      avoidably: no closure literals or nested function bindings, no
      list appends, no polymorphic comparison on non-immediate types,
      no polymorphic comparators passed by name. *)

val r6 : marks:Marks.protocol_type list -> Cmt_load.unit_ -> Diagnostic.t list

val r7 : acks:string list -> Cmt_load.unit_ -> Diagnostic.t list

val r9 : Cmt_load.unit_ -> Diagnostic.t list

val r8 :
  allow:(file:string -> line:int -> rules:string list -> bool) ->
  Callgraph.t ->
  Diagnostic.t list
(** [allow] is consulted per finding with [rules = ["R8"; base]] where
    [base] is the underlying lexical rule ("R1" or "R2"); returning
    [true] suppresses the finding (and lets the caller record pragma
    usage). *)

