(** Inline suppression pragmas.

    A violation can be waived, with a recorded reason, by a comment of
    the form

    {[ (* haf-lint: allow R4 — why this use is safe *) ]}

    The pragma covers every line the comment itself spans plus the next
    line, so it works both trailing the offending expression and as a
    (possibly multi-line) comment immediately above it.  Several rules
    may be listed ([allow R2 R3]).  [allow-file] scopes the waiver to
    the whole file — reserve it for files that *are* the mechanism a
    rule protects (e.g. the one module that wraps a banned primitive).

    The deep tier additionally supports {e attribute} pragmas — rule
    scoped, attached to the construct they waive:

    {[
      [@@@haf.lint.allow "R6"]          (* whole file *)
      let[@haf.lint.allow "R8"] f = ... (* one binding *)
    ]}

    Attribute pragmas are tracked: one that suppresses nothing is itself
    reported (rule [pragma]), so deep-tier waivers cannot rot silently.
    Comment pragmas keep their original fire-and-forget semantics. *)

type span = {
  p_start : int;
  p_end : int;
  p_rules : string list;
  p_file_wide : bool;
  p_attr : bool;  (** attribute-origin: eligible for unused warnings *)
}

type t

val scan : string -> t
(** Extract comment pragmas from raw source text.  The scanner is
    comment-aware: pragma-looking text inside string literals (including
    [{|...|}] quoted strings) is ignored. *)

val spans : t -> span list

val attribute_span :
  start_line:int -> end_line:int -> rules:string list -> file_wide:bool -> span
(** Build a span for a [[@haf.lint.allow]] attribute; combine with the
    comment spans via {!of_spans}. *)

val of_spans : span list -> t

val is_rule_token : string -> bool
(** ["R6"]-shaped: an [R] followed by digits. *)

val allows : t -> line:int -> rule:string -> bool

val covering : t -> line:int -> rule:string -> int option
(** Index (into {!spans}) of the first span waiving [rule] at [line] —
    the hook used to mark attribute pragmas as used. *)
