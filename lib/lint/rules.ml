let protocol_dirs path =
  Allowlist.under "lib/gcs" path
  || Allowlist.under "lib/core" path
  || Allowlist.under "lib/store" path
  || Allowlist.under "lib/chaos" path
  || Allowlist.under "lib/monitor" path
  || Allowlist.under "lib/explore" path

let lib path = Allowlist.under "lib" path

let anywhere _ = true

type ban = {
  b_rule : string;
  b_scope : string -> bool;  (* normalized file path *)
  b_exact : string list;  (* flattened longidents, matched exactly *)
  b_prefixes : string list;  (* flattened longident prefixes *)
  b_message : string -> string;
}

let with_stdlib names = names @ List.map (fun n -> "Stdlib." ^ n) names

let bans =
  [
    {
      b_rule = "R1";
      b_scope = anywhere;
      b_exact = with_stdlib [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ];
      b_prefixes = [ "Random."; "Stdlib.Random." ];
      b_message =
        (fun id ->
          Printf.sprintf
            "ambient nondeterminism: %s; draw randomness and time from \
             Sim.Rng / Sim.Engine so the same seed replays the same history"
            id);
    };
    {
      b_rule = "R1";
      b_scope = lib;
      b_exact = [];
      b_prefixes = [ "Unix."; "Stdlib.Unix."; "UnixLabels." ];
      b_message =
        (fun id ->
          Printf.sprintf
            "real-world syscall surface: %s; only the lib/net_unix substrate may \
             touch sockets, processes or the wall clock — everything above \
             it goes through Haf_net.Substrate and stays substrate-blind"
            id);
    };
    {
      b_rule = "R2";
      b_scope = protocol_dirs;
      b_exact = with_stdlib [ "compare"; "Hashtbl.hash" ];
      b_prefixes = [ "Marshal."; "Stdlib.Marshal." ];
      b_message =
        (fun id ->
          Printf.sprintf
            "polymorphic structural operation %s in protocol code; message \
             and view types must use their explicit compare/equal (cf. \
             View.Id.compare, Wire.compare_uid)"
            id);
    };
    {
      b_rule = "R3";
      b_scope = protocol_dirs;
      b_exact =
        with_stdlib
          [
            "Hashtbl.iter";
            "Hashtbl.fold";
            "Hashtbl.to_seq";
            "Hashtbl.to_seq_keys";
            "Hashtbl.to_seq_values";
          ];
      b_prefixes = [];
      b_message =
        (fun id ->
          Printf.sprintf
            "%s visits protocol state in hash-bucket order, which is not \
             stable across runs; use Sim.Det_tbl sorted-key iteration"
            id);
    };
    {
      b_rule = "R4";
      b_scope = lib;
      b_exact =
        with_stdlib
          [
            "print_string";
            "print_endline";
            "print_newline";
            "print_int";
            "print_float";
            "print_char";
            "prerr_string";
            "prerr_endline";
            "prerr_newline";
          ]
        @ [ "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf" ];
      b_prefixes = [];
      b_message =
        (fun id ->
          Printf.sprintf
            "direct console output (%s) in library code; emit typed Events, \
             fill Stats tables/reports or return data, and print at the \
             bin/ edge"
            id);
    };
  ]

let matches ban ident =
  List.exists (String.equal ident) ban.b_exact
  || List.exists
       (fun p ->
         String.length ident >= String.length p
         && String.sub ident 0 (String.length p) = p)
       ban.b_prefixes

let check_ident ~path ident =
  List.filter_map
    (fun b ->
      if b.b_scope (Allowlist.normalize path) && matches b ident then
        Some (b.b_rule, b.b_message ident)
      else None)
    bans

let mli_required ~path =
  let path = Allowlist.normalize path in
  lib path && Allowlist.ends_with ".ml" path

let missing_mli_message path =
  Printf.sprintf
    "%s has no matching .mli; every lib/ module declares its interface \
     (add one, or name the file *_intf.ml if it is a pure interface)"
    (Filename.basename path)

let descriptions =
  [
    ("R1",
     "no ambient randomness/time outside lib/sim/rng.ml, and no Unix.* \
      syscalls in lib/ outside the lib/net_unix substrate");
    ("R2",
     "no polymorphic compare/hash/Marshal in lib/gcs, lib/core, lib/store, \
      lib/chaos, lib/monitor, lib/explore");
    ("R3", "no unordered Hashtbl iteration over protocol state");
    ("R4", "no direct stdout/stderr in lib/ (use typed Events / Stats / returned data)");
    ("R5", "every lib/**/*.ml has a matching .mli");
    ("R6",
     "(deep) handler totality: no catch-all arms over [@@haf.protocol] \
      message/event types in protocol dispatch");
    ("R7",
     "(deep) durable-before-ack: every [@haf.ack] emission is dominated \
      by a Store.sync/Store.append (or the explicit no-store arm)");
    ("R8",
     "(deep) transitive determinism: protocol code cannot reach ambient \
      time/randomness/polymorphic compare through helpers in other dirs, \
      nor any lib/net_unix substrate module");
    ("R9",
     "(deep) hot-path allocation: no closures, @-appends or polymorphic \
      comparisons inside [@hot] functions");
  ]

let deep_rules = [ "R6"; "R7"; "R8"; "R9" ]

let lexical_rules = [ "R1"; "R2"; "R3"; "R4"; "R5" ]
