(** Orchestration: parse sources with [compiler-libs], run every rule,
    apply pragmas and the allowlist.

    The library never prints — it returns {!Diagnostic.t} lists and the
    [bin/haf_lint] executable does the I/O, which is exactly the
    separation rule R4 demands of everything under [lib/]. *)

val lint_source :
  path:string -> ?has_mli:bool -> string -> Diagnostic.t list
(** Lint one source text as if it lived at [path] (rule scoping and the
    allowlist key off the path).  [has_mli] feeds rule R5; omitting it
    skips that rule — used by the in-memory fixture tests. *)

val lint_paths : string list -> Diagnostic.t list
(** Walk files and directory trees (skipping [_build]-style and hidden
    directories), lint every [.ml]/[.mli], and return all findings in
    {!Diagnostic.compare} order.  Directory entries are visited in
    sorted order so output is stable across filesystems. *)

val exit_code : Diagnostic.t list -> int
(** 0 when clean, 1 when any diagnostic was produced. *)
