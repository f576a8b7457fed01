(** Static per-file rule waivers.

    Inline pragmas ({!Pragma}) are the preferred suppression mechanism
    because they carry a reason next to the code; this table is for the
    handful of files that are themselves the sanctioned implementation
    of what a rule polices (the RNG for R1, [*_intf.ml] pure-interface
    modules for R5). *)

val allowed : rule:string -> path:string -> bool

(** {2 Path predicates (shared with {!Rules})} *)

val normalize : string -> string
(** Backslashes to slashes, leading ["./"] stripped. *)

val under : string -> string -> bool
(** [under "lib/gcs" path]: is [path] inside that directory (matched at
    a path-component boundary, so absolute paths work too)? *)

val ends_with : string -> string -> bool
