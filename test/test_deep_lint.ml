(* Deep-tier fixtures (R6-R9): each rule gets a violating fixture, a
   clean one, and a suppressed one, type-checked in process through
   Typecheck and analyzed with Deep.analyze — no dune round-trip.  The
   call graph gets its own unit tests: recursion, a cross-unit edge
   through an injected persistent module, and a functor application
   resolved through the alias map. *)

module Deep = Haf_lint.Deep
module Typecheck = Haf_lint.Typecheck
module Callgraph = Haf_lint.Callgraph
module Diag = Haf_lint.Diagnostic

let check = Alcotest.check

let rules_of ds = List.map (fun d -> d.Diag.rule) ds

let check_rules msg expected ds =
  check (Alcotest.list Alcotest.string) msg expected (rules_of ds)

let analyze ?source fixtures = Deep.analyze ?source fixtures

let unit_ ?file ?modname ?opens src =
  fst (Typecheck.unit_ ?file ?modname ?opens src)

(* ------------------------------------------------------------------ *)
(* R6: handler totality                                                 *)

let msg_decl = "type msg = Ping | Pong of int * int | Stop [@@haf.protocol]\n"

let test_r6_violation () =
  check_rules "wildcard arm over a protocol type" [ "R6" ]
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           (msg_decl ^ "let f m = match m with Ping -> 1 | _ -> 2");
       ]);
  check_rules "binder arm is a catch-all too" [ "R6" ]
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           (msg_decl ^ "let f m = match m with Ping -> 1 | other -> ignore other; 2");
       ]);
  check_rules "or-pattern hiding a wildcard" [ "R6" ]
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           (msg_decl ^ "let f m = match m with Stop | _ -> 2");
       ])

let test_r6_tuple_component () =
  check_rules "catch-all at a protocol tuple position" [ "R6" ]
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           (msg_decl
          ^ "let f m n = match (m, n) with Ping, 0 -> 1 | _, _ -> 2");
       ]);
  check_rules "naming the protocol position passes" []
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           (msg_decl
          ^ "let f m n = match (m, n) with (Ping | Pong _ | Stop), (_ : int) -> 1");
       ])

let test_r6_clean () =
  check_rules "total match passes" []
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           (msg_decl
          ^ "let f m = match m with Ping -> 1 | Pong _ -> 2 | Stop -> 3");
       ]);
  (* [Pong _] swallows both arguments without being a catch-all over
     the type itself. *)
  check_rules "unmarked types are not policed" []
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           "type plain = A | B\nlet f m = match m with A -> 1 | _ -> 2";
       ])

let test_r6_outside_protocol_dirs () =
  check_rules "catch-all fine outside protocol dirs" []
    (analyze
       [
         unit_ ~file:"lib/services/fix.ml"
           (msg_decl ^ "let f m = match m with Ping -> 1 | _ -> 2");
       ])

let test_r6_attr_pragma () =
  check_rules "file-wide attribute pragma suppresses, and is not unused" []
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           ("[@@@haf.lint.allow \"R6\"]\n" ^ msg_decl
          ^ "let f m = match m with Ping -> 1 | _ -> 2");
       ])

(* The audit verdict type carries [@@haf.protocol] in lib/gcs/audit.ml
   precisely so R6 polices its dispatches: mirror its shape here and
   check both directions — a recovery dispatch that wildcards over the
   corruption verdicts is flagged, and the real total-match idiom (one
   arm per audit dimension) passes. *)
let verdict_decl =
  "type verdict =\n\
  \  | Sound\n\
  \  | Bad_view of string\n\
  \  | Bad_counter of string\n\
  \  | Bad_clock of string\n\
  \  | Bad_record of string\n\
   [@@haf.protocol]\n"

let test_r6_audit_verdict () =
  check_rules "recovery dispatch wildcarding corruption verdicts" [ "R6" ]
    (analyze
       [
         unit_ ~file:"lib/gcs/audit_fix.ml"
           (verdict_decl
          ^ "let react v = match v with Sound -> () | _ -> print_string \"reset\"");
       ]);
  check_rules "binder arm hides new audit dimensions too" [ "R6" ]
    (analyze
       [
         unit_ ~file:"lib/gcs/audit_fix.ml"
           (verdict_decl
          ^ "let react v = match v with Sound -> 0 | bad -> ignore bad; 1");
       ]);
  check_rules "one arm per audit dimension passes" []
    (analyze
       [
         unit_ ~file:"lib/gcs/audit_fix.ml"
           (verdict_decl
          ^ "let react v = match v with\n\
            \  | Sound -> 0\n\
            \  | Bad_view _ -> 1\n\
            \  | Bad_counter _ -> 2\n\
            \  | Bad_clock _ -> 3\n\
            \  | Bad_record _ -> 4");
       ])

let test_unused_attr_pragma () =
  check_rules "pragma that suppresses nothing is flagged" [ "pragma" ]
    (analyze
       [
         unit_ ~file:"lib/gcs/fix.ml"
           ("[@@@haf.lint.allow \"R7\"]\n" ^ msg_decl
          ^ "let f m = match m with Ping -> 1 | Pong _ -> 2 | Stop -> 3");
       ])

(* ------------------------------------------------------------------ *)
(* R7: durable-before-ack                                               *)

let store_decl =
  "module Store = struct\n\
  \  type t = T\n\
  \  let sync (_ : t) (k : ok:bool -> unit) = k ~ok:true\n\
   end\n\
   type reply = Granted of { n : int } [@haf.ack] | Refused\n\
   let send (_ : reply) = ()\n"

let test_r7_violation () =
  check_rules "naked ack emission" [ "R7" ]
    (analyze
       [
         unit_ ~file:"lib/core/fix.ml"
           (store_decl ^ "let bad () = send (Granted { n = 3 })");
       ]);
  check_rules "uncovered emission escaping through a helper" [ "R7" ]
    (analyze
       [
         unit_ ~file:"lib/core/fix.ml"
           (store_decl
          ^ "let escape () =\n\
            \  let mk () = send (Granted { n = 4 }) in\n\
            \  mk ()");
       ])

let test_r7_clean () =
  check_rules "ack inside the sync continuation passes" []
    (analyze
       [
         unit_ ~file:"lib/core/fix.ml"
           (store_decl
          ^ "let good (st : Store.t) =\n\
            \  Store.sync st (fun ~ok -> if ok then send (Granted { n = 1 }))");
       ]);
  check_rules "ack in the no-store arm passes" []
    (analyze
       [
         unit_ ~file:"lib/core/fix.ml"
           (store_decl
          ^ "let good2 (sto : Store.t option) =\n\
            \  match sto with\n\
            \  | Some st -> Store.sync st (fun ~ok:_ -> ())\n\
            \  | None -> send (Granted { n = 2 })");
       ]);
  (* The grant_if_primary shape: the helper constructs the ack, and
     every use of the helper is covered. *)
  check_rules "helper with only covered call sites passes" []
    (analyze
       [
         unit_ ~file:"lib/core/fix.ml"
           (store_decl
          ^ "let covered (st : Store.t) =\n\
            \  let mk () = send (Granted { n = 5 }) in\n\
            \  Store.sync st (fun ~ok:_ -> mk ())");
       ]);
  check_rules "plain constructors are not acks" []
    (analyze
       [
         unit_ ~file:"lib/core/fix.ml"
           (store_decl ^ "let fine () = send Refused");
       ])

(* ------------------------------------------------------------------ *)
(* R9: hot-path allocation                                              *)

let test_r9_violation () =
  check_rules "list append in a hot body" [ "R9" ]
    (analyze
       [ unit_ ~file:"lib/sim/fix.ml" "let[@hot] bad xs ys = xs @ ys" ]);
  check_rules "closure literal argument" [ "R9" ]
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let[@hot] bad t = List.iter (fun x -> ignore x) t";
       ]);
  check_rules "nested function binding" [ "R9" ]
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let[@hot] bad x =\n  let helper y = y + x in\n  helper 3";
       ]);
  check_rules "polymorphic equality on a non-immediate type" [ "R9" ]
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let[@hot] bad (a : int list) b = a = b";
       ]);
  check_rules "polymorphic comparator passed by name" [ "R9" ]
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let[@hot] bad (xs : int list) = List.sort compare xs";
       ]);
  (* The framework's incremental-placement regression: a standalone
     recursive scan whose load table is never annotated stays
     polymorphic, so its compares are polymorphic too — even though
     every caller passes floats. *)
  check_rules "inferred type variable makes the compare polymorphic" [ "R9" ]
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let[@hot] rec scan loads best = function\n\
            \  | [] -> best\n\
            \  | c :: rest ->\n\
            \      if Hashtbl.find loads c < Hashtbl.find loads best then\n\
            \        scan loads c rest\n\
            \      else scan loads best rest";
       ])

let test_r9_clean () =
  check_rules "immediate comparison passes" []
    (analyze
       [ unit_ ~file:"lib/sim/fix.ml" "let[@hot] ok (a : int) b = a = b" ]);
  check_rules "explicit comparator passes" []
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let[@hot] ok (xs : int list) = List.sort Int.compare xs";
       ]);
  check_rules "cold code may allocate freely" []
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let cold xs ys = List.map (fun x -> x + 1) (xs @ ys)";
       ]);
  (* The two idioms the PR-9 hot paths rely on: annotating the table
     pins the compares to floats, and a first-order module-level loop
     replaces the closure-taking iterator (Events.emit's tap loop). *)
  check_rules "annotated table makes the compares immediate" []
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let[@hot] rec scan (loads : (int, float) Hashtbl.t) best = function\n\
            \  | [] -> best\n\
            \  | c :: rest ->\n\
            \      if Hashtbl.find loads c < Hashtbl.find loads best then\n\
            \        scan loads c rest\n\
            \      else scan loads best rest";
       ]);
  check_rules "first-order loop instead of a closure-taking iterator" []
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let rec run_all x = function [] -> () | f :: rest -> f x; run_all x rest\n\
            let[@hot] fire fs (x : int) = run_all x fs";
       ])

(* The idioms the PR-10 hot paths rely on: the monitor's staleness
   queue pushes a float-keyed record literal per activity (allocation
   is fine under R9 — only the closure/append/poly-compare idioms cost
   a dispatch or a megamorphic call), and the profiler's enter/leave
   protocol threads plain floats through first-order calls instead of
   wrapping the profiled body in a closure.  The violating shape both
   replaced — an iterator taking a closure literal per event — stays
   flagged. *)
let test_r9_pr10_idioms () =
  check_rules "record-literal deadline entry in a hot body passes" []
    (analyze
       [
         unit_ ~file:"lib/monitor/fix.ml"
           "type entry = { deadline : float; la : float }\n\
            let[@hot] arm (push : entry -> unit) la bound =\n\
            \  push { deadline = la +. bound; la }";
       ]);
  check_rules "first-order profile enter/leave protocol passes" []
    (analyze
       [
         unit_ ~file:"lib/monitor/fix.ml"
           "let[@hot] tap hit words leave (on_event : int -> unit) ev =\n\
            \  if hit () then begin\n\
            \    let w0 : float = words () in\n\
            \    on_event ev;\n\
            \    leave w0\n\
            \  end\n\
            \  else on_event ev";
       ]);
  check_rules "closure-per-event tap stays flagged" [ "R9" ]
    (analyze
       [
         unit_ ~file:"lib/monitor/fix.ml"
           "let[@hot] tap (fs : (int -> unit) list) ev =\n\
            \  List.iter (fun f -> f ev) fs";
       ])

let test_r9_binding_pragma () =
  check_rules "binding-level attribute pragma suppresses R9" []
    (analyze
       [
         unit_ ~file:"lib/sim/fix.ml"
           "let[@hot] [@haf.lint.allow \"R9\"] waived xs ys = xs @ ys";
       ])

(* ------------------------------------------------------------------ *)
(* R8: transitive determinism                                           *)

let helper_src = "let pick (xs : int list) = List.nth xs (Random.int 2)"

let cross_units ?(protocol_file = "lib/gcs/use.ml") () =
  let helper, sg =
    Typecheck.unit_ ~file:"lib/services/helper.ml" ~modname:"Helper"
      helper_src
  in
  let user =
    unit_ ~file:protocol_file ~modname:"Use"
      ~opens:[ ("Helper", sg) ]
      "let go xs = Helper.pick xs"
  in
  (helper, user)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1)) in
  at 0

let test_r8_violation () =
  let helper, user = cross_units () in
  let ds = analyze [ helper; user ] in
  check_rules "Random reached from protocol code through a helper" [ "R8" ] ds;
  match ds with
  | [ d ] ->
      check Alcotest.string "reported in the helper file"
        "lib/services/helper.ml" d.Diag.file;
      check Alcotest.bool "witness chain names both nodes" true
        (contains d.Diag.message "Use.go"
        && contains d.Diag.message "Helper.pick")
  | _ -> Alcotest.fail "expected exactly one diagnostic"

let test_r8_unreached () =
  let helper, _ = cross_units () in
  check_rules "an uncalled helper is out of R8 reach" []
    (analyze [ helper ])

let test_r8_net_unix_reach () =
  (* The helper is perfectly deterministic — its sin is its address:
     protocol code must not reach into the real-time substrate at all. *)
  let helper, sg =
    Typecheck.unit_ ~file:"lib/net_unix/reactor.ml" ~modname:"Reactor"
      "let poke (x : int) = x + 1"
  in
  let user =
    unit_ ~file:"lib/gcs/use2.ml" ~modname:"Use2"
      ~opens:[ ("Reactor", sg) ]
      "let go x = Reactor.poke x"
  in
  let ds = analyze [ helper; user ] in
  check_rules "net_unix module reached from protocol code" [ "R8" ] ds;
  (match ds with
  | [ d ] ->
      check Alcotest.string "reported in the substrate file"
        "lib/net_unix/reactor.ml" d.Diag.file;
      check Alcotest.bool "message names the witness chain" true
        (contains d.Diag.message "Use2.go"
        && contains d.Diag.message "substrate-blind");
      check Alcotest.bool "message has no double space" false
        (contains d.Diag.message "  ")
  | _ -> Alcotest.fail "expected exactly one diagnostic");
  (* Unreached, it is fine: bin/ picks the substrate, and test code may
     drive it directly. *)
  check_rules "an unreached net_unix module is clean" [] (analyze [ helper ])

let test_r8_comment_pragma () =
  (* Re-check the helper with the pragma comment actually in its
     source, so line numbers in the typedtree and in the scanned text
     agree (the pragma covers its own line and the next). *)
  let helper_with_pragma =
    "(* haf-lint: allow R8 — fixture: sanctioned nondeterminism *)\n"
    ^ helper_src
  in
  let helper, sg =
    Typecheck.unit_ ~file:"lib/services/helper.ml" ~modname:"Helper"
      helper_with_pragma
  in
  let user =
    unit_ ~file:"lib/gcs/use.ml" ~modname:"Use"
      ~opens:[ ("Helper", sg) ]
      "let go xs = Helper.pick xs"
  in
  let source file =
    if String.equal file "lib/services/helper.ml" then
      Some helper_with_pragma
    else None
  in
  check_rules "comment pragma in the helper suppresses" []
    (analyze ~source [ helper; user ])

(* ------------------------------------------------------------------ *)
(* Call-graph unit tests                                                *)

let graph_of units = Callgraph.build units

let names ns = List.map (fun n -> n.Callgraph.n_name) ns

let test_callgraph_cycle () =
  let g =
    graph_of
      [
        unit_ ~modname:"Cyc" ~file:"lib/sim/cyc.ml"
          "let rec f x = if x = 0 then 1 else g (x - 1)\nand g x = f x";
      ]
  in
  let f = List.hd (Callgraph.find g ~suffix:"Cyc.f") in
  check (Alcotest.list Alcotest.string) "f calls g (and g only)"
    [ "Cyc.g" ] (names (Callgraph.callees g f));
  let reached = Callgraph.reach g ~roots:[ f ] in
  check (Alcotest.list Alcotest.string) "BFS terminates on the cycle"
    [ "Cyc.f"; "Cyc.g" ]
    (List.sort String.compare (names (List.map fst reached)))

let test_callgraph_cross_unit () =
  let helper, user = cross_units () in
  let g = graph_of [ helper; user ] in
  let go = List.hd (Callgraph.find g ~suffix:"Use.go") in
  check Alcotest.bool "cross-unit edge Use.go -> Helper.pick" true
    (List.mem "Helper.pick" (names (Callgraph.callees g go)))

let test_callgraph_functor () =
  let g =
    graph_of
      [
        unit_ ~modname:"Fct" ~file:"lib/sim/fct.ml"
          "module F (X : sig val v : int end) = struct let f () = X.v end\n\
           module App = F (struct let v = 3 end)\n\
           let use () = App.f ()";
      ]
  in
  let use = List.hd (Callgraph.find g ~suffix:"Fct.use") in
  check Alcotest.bool "application resolves through the alias map to F.f"
    true
    (List.mem "Fct.F.f" (names (Callgraph.callees g use)))

let test_determinism_replay () =
  let helper, user = cross_units () in
  let strings units = List.map Diag.to_string (analyze units) in
  check (Alcotest.list Alcotest.string) "same input, same report"
    (strings [ helper; user ])
    (strings [ helper; user ])

(* ------------------------------------------------------------------ *)
(* Schema v2                                                            *)

let test_schema_v2 () =
  let d1 = Diag.make ~file:"lib/a.ml" ~line:1 ~rule:"R6" "x" in
  let d2 = Diag.make ~file:"lib/a.ml" ~line:2 ~rule:"R6" "y" in
  let d3 = Diag.make ~file:"lib/b.ml" ~line:9 ~rule:"R9" "z" in
  check Alcotest.string "envelope with per-rule counts"
    ({|{"schema":2,"total":3,"rules":{"R6":2,"R9":1},"diagnostics":[|}
    ^ Diag.to_json d1 ^ "," ^ Diag.to_json d2 ^ "," ^ Diag.to_json d3 ^ "]}")
    (Diag.report_to_json [ d1; d2; d3 ]);
  check Alcotest.string "empty report"
    {|{"schema":2,"total":0,"rules":{},"diagnostics":[]}|}
    (Diag.report_to_json [])

let suite =
  [
    ( "deep-lint.rules",
      [
        Alcotest.test_case "R6 violation" `Quick test_r6_violation;
        Alcotest.test_case "R6 tuple component" `Quick test_r6_tuple_component;
        Alcotest.test_case "R6 clean" `Quick test_r6_clean;
        Alcotest.test_case "R6 scope" `Quick test_r6_outside_protocol_dirs;
        Alcotest.test_case "R6 attr pragma" `Quick test_r6_attr_pragma;
        Alcotest.test_case "R6 audit verdict" `Quick test_r6_audit_verdict;
        Alcotest.test_case "unused attr pragma" `Quick test_unused_attr_pragma;
        Alcotest.test_case "R7 violation" `Quick test_r7_violation;
        Alcotest.test_case "R7 clean" `Quick test_r7_clean;
        Alcotest.test_case "R9 violation" `Quick test_r9_violation;
        Alcotest.test_case "R9 clean" `Quick test_r9_clean;
        Alcotest.test_case "R9 PR-10 idioms" `Quick test_r9_pr10_idioms;
        Alcotest.test_case "R9 binding pragma" `Quick test_r9_binding_pragma;
        Alcotest.test_case "R8 violation" `Quick test_r8_violation;
        Alcotest.test_case "R8 net_unix reach" `Quick test_r8_net_unix_reach;
        Alcotest.test_case "R8 unreached" `Quick test_r8_unreached;
        Alcotest.test_case "R8 comment pragma" `Quick test_r8_comment_pragma;
      ] );
    ( "deep-lint.callgraph",
      [
        Alcotest.test_case "recursion cycle" `Quick test_callgraph_cycle;
        Alcotest.test_case "cross-unit edge" `Quick test_callgraph_cross_unit;
        Alcotest.test_case "functor application" `Quick test_callgraph_functor;
        Alcotest.test_case "deterministic replay" `Quick test_determinism_replay;
        Alcotest.test_case "schema v2 json" `Quick test_schema_v2;
      ] );
  ]
