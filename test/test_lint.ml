(* haf-lint rule fixtures: per rule, one violating source, one clean
   source, one pragma-suppressed source — all linted in memory through
   Driver.lint_source, plus on-disk walker/exit-code coverage. *)

module Driver = Haf_lint.Driver
module Diag = Haf_lint.Diagnostic

let check = Alcotest.check

let rules_of ds = List.map (fun d -> d.Diag.rule) ds

let lint ?has_mli path src = Driver.lint_source ~path ?has_mli src

let check_rules msg expected ds =
  check (Alcotest.list Alcotest.string) msg expected (rules_of ds)

(* ------------------------------------------------------------------ *)
(* R1: ambient randomness/time                                         *)

let test_r1_violation () =
  check_rules "Random.int flagged" [ "R1" ]
    (lint "lib/net/latency.ml" {|let jitter () = Random.int 10|});
  check_rules "Unix.gettimeofday flagged" [ "R1" ]
    (lint "lib/core/clock.ml" {|let now () = Unix.gettimeofday ()|});
  check_rules "Sys.time flagged even in test/" [ "R1" ]
    (lint "test/test_foo.ml" {|let t = Sys.time ()|});
  check_rules "Random flagged in lib/store" [ "R1" ]
    (lint "lib/store/disk.ml" {|let torn () = Random.bool ()|});
  check_rules "Random flagged in lib/explore" [ "R1" ]
    (lint "lib/explore/explore.ml" {|let pick xs = List.nth xs (Random.int 2)|})

let test_r1_unix_scope () =
  check_rules "any Unix syscall flagged in lib" [ "R1" ]
    (lint "lib/gcs/foo.ml" {|let boom fd = Unix.close fd|});
  check_rules "Unix.select flagged in lib/net" [ "R1" ]
    (lint "lib/net/foo.ml" {|let wait fds = Unix.select fds [] [] 1.0|});
  check_rules "bin composition roots may use Unix" []
    (lint "bin/foo.ml" {|let boom fd = Unix.close fd|})

let test_r1_clean () =
  check_rules "Sim.Rng is the sanctioned source" []
    (lint "lib/net/latency.ml" {|let jitter rng = Haf_sim.Rng.int rng 10|})

let test_r1_allowlist () =
  check_rules "rng.ml itself may use Random" []
    (lint "lib/sim/rng.ml" {|let seed () = Random.bits ()|});
  check_rules "lib/net_unix is the sanctioned syscall surface" []
    (lint "lib/net_unix/udp.ml"
       {|let sock () = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0|})

let test_r1_pragma () =
  check_rules "trailing pragma suppresses" []
    (lint "lib/net/latency.ml"
       {|let jitter () = Random.int 10 (* haf-lint: allow R1 — fixture *)|})

(* ------------------------------------------------------------------ *)
(* R2: polymorphic compare/hash/Marshal in protocol code               *)

let test_r2_violation () =
  check_rules "bare compare flagged in lib/gcs" [ "R2" ]
    (lint "lib/gcs/foo.ml" {|let order xs = List.sort compare xs|});
  check_rules "Marshal flagged in lib/core" [ "R2" ]
    (lint "lib/core/foo.ml" {|let enc x = Marshal.to_string x []|});
  check_rules "Hashtbl.hash flagged" [ "R2" ]
    (lint "lib/gcs/foo.ml" {|let h x = Hashtbl.hash x|});
  check_rules "Marshal flagged in lib/store" [ "R2" ]
    (lint "lib/store/wal.ml" {|let enc x = Marshal.to_string x []|});
  (* The chaos and monitor layers are protocol code too: a schedule must
     replay byte-identically and the monitor compares protocol ids. *)
  check_rules "bare compare flagged in lib/chaos" [ "R2" ]
    (lint "lib/chaos/chaos.ml" {|let order xs = List.sort compare xs|});
  check_rules "Marshal flagged in lib/monitor" [ "R2" ]
    (lint "lib/monitor/monitor.ml" {|let enc x = Marshal.to_string x []|});
  (* The explorer is protocol code as well: decision keys and schedule
     text must be deterministic for prefixes to replay. *)
  check_rules "bare compare flagged in lib/explore" [ "R2" ]
    (lint "lib/explore/explore.ml" {|let order xs = List.sort compare xs|})

let test_r2_out_of_scope () =
  check_rules "bare compare fine outside protocol dirs" []
    (lint "lib/services/foo.ml" {|let order xs = List.sort compare xs|})

let test_r2_clean () =
  check_rules "explicit comparator passes" []
    (lint "lib/gcs/foo.ml" {|let order xs = List.sort Int.compare xs|})

let test_r2_pragma () =
  check_rules "pragma-above suppresses" []
    (lint "lib/gcs/foo.ml"
       "(* haf-lint: allow R2 — fixture comparator shadows Stdlib *)\n\
        let order xs = List.sort compare xs")

(* ------------------------------------------------------------------ *)
(* R3: unordered Hashtbl iteration                                     *)

let test_r3_violation () =
  check_rules "Hashtbl.fold flagged in lib/core" [ "R3" ]
    (lint "lib/core/foo.ml" {|let keys t = Hashtbl.fold (fun k _ a -> k :: a) t []|});
  check_rules "Hashtbl.iter flagged in lib/gcs" [ "R3" ]
    (lint "lib/gcs/foo.ml" {|let each f t = Hashtbl.iter f t|});
  check_rules "Hashtbl.iter flagged in lib/store" [ "R3" ]
    (lint "lib/store/store.ml" {|let each f t = Hashtbl.iter f t|});
  check_rules "Hashtbl.iter flagged in lib/monitor" [ "R3" ]
    (lint "lib/monitor/monitor.ml" {|let each f t = Hashtbl.iter f t|});
  check_rules "Hashtbl.iter flagged in lib/explore" [ "R3" ]
    (lint "lib/explore/spec.ml" {|let each f t = Hashtbl.iter f t|})

let test_r3_clean () =
  check_rules "Det_tbl iteration passes" []
    (lint "lib/core/foo.ml"
       {|let keys t = Haf_sim.Det_tbl.sorted_keys ~compare:Int.compare t|});
  check_rules "Hashtbl.fold fine outside protocol dirs" []
    (lint "lib/stats/foo.ml" {|let keys t = Hashtbl.fold (fun k _ a -> k :: a) t []|})

let test_r3_pragma () =
  check_rules "pragma suppresses" []
    (lint "lib/gcs/foo.ml"
       {|let each f t = Hashtbl.iter f t (* haf-lint: allow R3 — fixture *)|})

(* ------------------------------------------------------------------ *)
(* The self-stabilization modules (gcs audit, wire validation, the
   convergence oracle) are protocol code: R1-R3 must police them at
   their real paths, and the idioms they actually use must pass. *)

let test_audit_modules_policed () =
  check_rules "ambient time flagged in the gcs audit" [ "R1" ]
    (lint "lib/gcs/audit.ml" {|let due () = Unix.gettimeofday () > 3.|});
  check_rules "ambient randomness flagged in the oracle" [ "R1" ]
    (lint "lib/monitor/stabilize.ml" {|let jitter () = Random.float 0.1|});
  check_rules "bare compare flagged in wire validation" [ "R2" ]
    (lint "lib/gcs/wire.ml" {|let sorted xs = List.sort compare xs|});
  check_rules "Marshal flagged in the gcs audit" [ "R2" ]
    (lint "lib/gcs/audit.ml" {|let enc v = Marshal.to_string v []|});
  check_rules "Hashtbl.iter flagged in the oracle" [ "R3" ]
    (lint "lib/monitor/stabilize.ml" {|let each f t = Hashtbl.iter f t|});
  check_rules "Hashtbl.fold flagged in the gcs audit" [ "R3" ]
    (lint "lib/gcs/audit.ml"
       {|let ids t = Hashtbl.fold (fun k _ a -> k :: a) t []|})

let test_audit_modules_clean_idioms () =
  check_rules "engine-clock deadline arithmetic passes" []
    (lint "lib/monitor/stabilize.ml"
       {|let overdue ~now deadline = now -. deadline > 0.|});
  check_rules "explicit comparator in validation passes" []
    (lint "lib/gcs/wire.ml" {|let sorted xs = List.sort String.compare xs|});
  check_rules "deterministic table iteration passes" []
    (lint "lib/gcs/audit.ml"
       {|let ids t = Haf_sim.Det_tbl.sorted_keys ~compare:String.compare t|})

(* ------------------------------------------------------------------ *)
(* R4: direct console output in lib/                                   *)

let test_r4_violation () =
  check_rules "print_endline flagged in lib/" [ "R4" ]
    (lint "lib/stats/foo.ml" {|let shout () = print_endline "hi"|});
  check_rules "Printf.eprintf flagged in lib/" [ "R4" ]
    (lint "lib/sim/foo.ml" {|let shout () = Printf.eprintf "hi\n"|})

let test_r4_out_of_scope () =
  check_rules "stdout is fine at the bin/ edge" []
    (lint "bin/tool.ml" {|let () = print_endline "hi"|})

let test_r4_multiline_pragma () =
  (* The pragma comment itself spans two lines; it must still cover the
     line right after it. *)
  check_rules "multi-line pragma covers next line" []
    (lint "lib/sim/foo.ml"
       "(* haf-lint: allow R4 — fixture sink whose waiver\n\
       \   spans two lines *)\n\
        let shout () = Printf.eprintf \"hi\\n\"")

(* ------------------------------------------------------------------ *)
(* R5: every lib/**/*.ml has a .mli                                    *)

let test_r5_violation () =
  check_rules "missing mli flagged" [ "R5" ]
    (lint ~has_mli:false "lib/core/foo.ml" {|let x = 1|})

let test_r5_clean () =
  check_rules "mli present passes" []
    (lint ~has_mli:true "lib/core/foo.ml" {|let x = 1|});
  check_rules "bin/ needs no mli" []
    (lint ~has_mli:false "bin/tool.ml" {|let x = 1|});
  check_rules "pure-interface *_intf.ml exempt" []
    (lint ~has_mli:false "lib/core/foo_intf.ml" {|module type S = sig end|})

let test_r5_pragma () =
  check_rules "allow-file pragma suppresses" []
    (lint ~has_mli:false "lib/core/foo.ml"
       "(* haf-lint: allow-file R5 — fixture *)\nlet x = 1")

(* ------------------------------------------------------------------ *)
(* Pragma semantics and robustness                                     *)

let test_pragma_in_string_ignored () =
  check_rules "pragma text inside a string literal does not suppress"
    [ "R1" ]
    (lint "lib/net/foo.ml"
       {|let s = "(* haf-lint: allow R1 *)"
let j () = Random.int 10|})

let test_pragma_wrong_rule () =
  check_rules "pragma for another rule does not suppress" [ "R1" ]
    (lint "lib/net/foo.ml"
       {|let j () = Random.int 10 (* haf-lint: allow R4 — wrong rule *)|})

let test_pragma_does_not_leak () =
  check_rules "pragma covers only its own and the next line" [ "R1" ]
    (lint "lib/net/foo.ml"
       "(* haf-lint: allow R1 — first use only *)\n\
        let a () = Random.int 10\n\
        let b () = Random.int 10")

let test_attr_pragma_binding () =
  check_rules "binding attribute suppresses over the whole binding" []
    (lint "lib/net/foo.ml"
       "let[@haf.lint.allow \"R1\"] jitter () =\n  Random.int 10");
  check_rules "other bindings stay policed" [ "R1" ]
    (lint "lib/net/foo.ml"
       "let[@haf.lint.allow \"R1\"] jitter () = Random.int 10\n\
        let b () = Random.int 10")

let test_attr_pragma_file_wide () =
  check_rules "floating attribute covers the file" []
    (lint "lib/net/foo.ml"
       "[@@@haf.lint.allow \"R1\"]\n\
        let a () = Random.int 10\n\
        let b () = Random.int 10")

let test_attr_pragma_unused () =
  check_rules "unused attribute pragma is itself a finding" [ "pragma" ]
    (lint "lib/net/foo.ml"
       "[@@@haf.lint.allow \"R1\"]\nlet a = 1");
  (* A pragma naming a deep rule is the deep tier's business; the
     lexical tier must not call it unused. *)
  check_rules "deep-rule pragma not flagged by the lexical tier" []
    (lint "lib/net/foo.ml" "[@@@haf.lint.allow \"R8\"]\nlet a = 1")

(* ------------------------------------------------------------------ *)
(* Diagnostics, exit codes, the on-disk walker                         *)

let test_syntax_error () =
  check_rules "unparsable source yields a syntax diagnostic" [ "syntax" ]
    (lint "lib/core/foo.ml" {|let let = in|})

let test_exit_codes () =
  check Alcotest.int "clean tree exits 0" 0 (Driver.exit_code []);
  check Alcotest.int "violations exit 1" 1
    (Driver.exit_code (lint "lib/gcs/foo.ml" {|let c = compare|}))

let test_json () =
  let d = Diag.make ~file:"lib/a.ml" ~line:3 ~rule:"R1" "needs \"quoting\"" in
  check Alcotest.string "json escaping"
    {|{"file":"lib/a.ml","line":3,"col":0,"rule":"R1","message":"needs \"quoting\""}|}
    (Diag.to_json d);
  check Alcotest.string "empty list" "[]" (Diag.list_to_json [])

let test_to_string_format () =
  let d = Diag.make ~file:"lib/gcs/daemon.ml" ~line:42 ~rule:"R3" "msg" in
  check Alcotest.string "file:line: [rule] format"
    "lib/gcs/daemon.ml:42: [R3] msg" (Diag.to_string d)

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let test_walker () =
  let root = Filename.temp_dir "haf_lint_test" "" in
  let libdir = Filename.concat root "lib" in
  let gcsdir = Filename.concat libdir "gcs" in
  let builddir = Filename.concat root "_build" in
  Sys.mkdir libdir 0o755;
  Sys.mkdir gcsdir 0o755;
  Sys.mkdir builddir 0o755;
  write_file (Filename.concat gcsdir "bad.ml") "let c a b = compare a b\n";
  write_file (Filename.concat gcsdir "bad.mli") "val c : 'a -> 'a -> int\n";
  (* Violations under _build must be invisible to the walker. *)
  write_file (Filename.concat builddir "worse.ml") "let j = Random.bits ()\n";
  let diags = Driver.lint_paths [ root ] in
  check_rules "walker finds the violation, skips _build" [ "R2" ] diags;
  check Alcotest.int "exit code 1" 1 (Driver.exit_code diags)

let suite =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "R1 violation" `Quick test_r1_violation;
        Alcotest.test_case "R1 clean" `Quick test_r1_clean;
        Alcotest.test_case "R1 allowlist" `Quick test_r1_allowlist;
        Alcotest.test_case "R1 pragma" `Quick test_r1_pragma;
        Alcotest.test_case "R2 violation" `Quick test_r2_violation;
        Alcotest.test_case "R2 out of scope" `Quick test_r2_out_of_scope;
        Alcotest.test_case "R2 clean" `Quick test_r2_clean;
        Alcotest.test_case "R2 pragma" `Quick test_r2_pragma;
        Alcotest.test_case "R3 violation" `Quick test_r3_violation;
        Alcotest.test_case "R3 clean" `Quick test_r3_clean;
        Alcotest.test_case "R3 pragma" `Quick test_r3_pragma;
        Alcotest.test_case "audit modules policed" `Quick
          test_audit_modules_policed;
        Alcotest.test_case "audit modules clean idioms" `Quick
          test_audit_modules_clean_idioms;
        Alcotest.test_case "R4 violation" `Quick test_r4_violation;
        Alcotest.test_case "R4 out of scope" `Quick test_r4_out_of_scope;
        Alcotest.test_case "R4 multiline pragma" `Quick test_r4_multiline_pragma;
        Alcotest.test_case "R5 violation" `Quick test_r5_violation;
        Alcotest.test_case "R5 clean" `Quick test_r5_clean;
        Alcotest.test_case "R5 pragma" `Quick test_r5_pragma;
      ] );
    ( "lint.engine",
      [
        Alcotest.test_case "pragma in string ignored" `Quick
          test_pragma_in_string_ignored;
        Alcotest.test_case "pragma wrong rule" `Quick test_pragma_wrong_rule;
        Alcotest.test_case "pragma scope bounded" `Quick test_pragma_does_not_leak;
        Alcotest.test_case "attr pragma binding" `Quick test_attr_pragma_binding;
        Alcotest.test_case "attr pragma file-wide" `Quick test_attr_pragma_file_wide;
        Alcotest.test_case "attr pragma unused" `Quick test_attr_pragma_unused;
        Alcotest.test_case "syntax error" `Quick test_syntax_error;
        Alcotest.test_case "exit codes" `Quick test_exit_codes;
        Alcotest.test_case "json output" `Quick test_json;
        Alcotest.test_case "text format" `Quick test_to_string_format;
        Alcotest.test_case "walker skips _build" `Quick test_walker;
      ] );
  ]
