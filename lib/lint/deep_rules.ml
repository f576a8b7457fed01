let diag ~file (loc : Location.t) ~rule msg =
  let p = loc.Location.loc_start in
  Diagnostic.make ~file ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
    ~rule msg

let span_of (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_cnum, loc.Location.loc_end.Lexing.pos_cnum)

let inside (s, e) cnum = cnum >= s && cnum <= e

(* ==================================================================== *)
(* R6 — handler totality over [@@haf.protocol] types                    *)
(* ==================================================================== *)

(* Does this pattern match every constructor?  [Tpat_var _] covers
   multi-argument constructors ([C _] swallows all arguments), so no
   arity juggling is needed.  Known limitation, documented in
   ARCHITECTURE.md: [_ as x] aliases are not treated as catch-alls. *)
let rec catch_all : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_any -> true
  | Typedtree.Tpat_var _ -> true
  | Typedtree.Tpat_value v ->
      catch_all (v :> Typedtree.value Typedtree.general_pattern)
  | Typedtree.Tpat_or (a, b, _) -> catch_all a || catch_all b
  | _ -> false

(* Catch-all at tuple position [idx], for [match (msg, other) with ...]
   dispatches where only one component is a protocol type. *)
let rec catch_all_at : type k. k Typedtree.general_pattern -> int -> bool =
 fun p idx ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_any -> true
  | Typedtree.Tpat_var _ -> true
  | Typedtree.Tpat_value v ->
      catch_all_at (v :> Typedtree.value Typedtree.general_pattern) idx
  | Typedtree.Tpat_or (a, b, _) -> catch_all_at a idx || catch_all_at b idx
  | Typedtree.Tpat_tuple ps -> (
      match List.nth_opt ps idx with Some sub -> catch_all sub | None -> false)
  | _ -> false

let tconstr_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, _, _) -> Some (Marks.dotted (Path.name path))
  | _ -> None

(* A type-constructor name refers to a marked protocol type when its
   last two components match a declaration's (module, name); names
   local to the declaring unit print bare, so those match by file. *)
let marked ~marks ~file name =
  match List.rev (String.split_on_char '.' name) with
  | [] -> None
  | [ tname ] ->
      List.find_opt
        (fun (d : Marks.protocol_type) ->
          String.equal d.Marks.d_file file && String.equal d.Marks.d_name tname)
        marks
  | tname :: dmod :: _ ->
      List.find_opt
        (fun (d : Marks.protocol_type) ->
          String.equal d.Marks.d_module dmod
          && String.equal d.Marks.d_name tname)
        marks

let r6_message (d : Marks.protocol_type) =
  Printf.sprintf
    "catch-all arm over [@@haf.protocol] type %s.%s; name every constructor \
     so that adding a message kind fails lint at this dispatch"
    d.Marks.d_module d.Marks.d_name

let r6 ~marks (u : Cmt_load.unit_) =
  if not (Rules.protocol_dirs u.Cmt_load.u_file) then []
  else begin
    let file = u.Cmt_load.u_file in
    let acc = ref [] in
    let check_cases cases targets =
      List.iter
        (fun (c : Typedtree.computation Typedtree.case) ->
          List.iter
            (fun (d, idx) ->
              let hit =
                match idx with
                | None -> catch_all c.Typedtree.c_lhs
                | Some i -> catch_all_at c.Typedtree.c_lhs i
              in
              if hit then
                acc :=
                  diag ~file c.Typedtree.c_lhs.Typedtree.pat_loc ~rule:"R6"
                    (r6_message d)
                  :: !acc)
            targets)
        cases
    in
    let iterator =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.Typedtree.exp_desc with
            | Typedtree.Texp_match (scrut, cases, _) ->
                let targets =
                  match Types.get_desc scrut.Typedtree.exp_type with
                  | Types.Tconstr _ -> (
                      match
                        Option.bind (tconstr_name scrut.Typedtree.exp_type)
                          (marked ~marks ~file)
                      with
                      | Some d -> [ (d, None) ]
                      | None -> [])
                  | Types.Ttuple tys ->
                      List.concat
                        (List.mapi
                           (fun i ty ->
                             match
                               Option.bind (tconstr_name ty)
                                 (marked ~marks ~file)
                             with
                             | Some d -> [ (d, Some i) ]
                             | None -> [])
                           tys)
                  | _ -> []
                in
                if targets <> [] then check_cases cases targets
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    iterator.structure iterator u.Cmt_load.u_str;
    List.rev !acc
  end

(* ==================================================================== *)
(* R7 — durable-before-ack                                              *)
(* ==================================================================== *)

(* The framework writes in continuation style: the post-sync code lives
   inside the [Store.sync st (fun ~ok -> ...)] application, so "ack
   dominated by sync" reduces to span containment — an emission point
   is covered when it sits inside a sync/append application, or inside
   the [None] arm of a [match .. Store.t option ..] (no store attached:
   nothing can be forgotten).  Constructing an ack elsewhere is fine as
   long as every use of the enclosing binding is itself covered; the
   fixpoint below chases uses and reports only where an uncovered
   emission escapes. *)

let store_call_name name =
  match List.rev (String.split_on_char '.' (Marks.dotted name)) with
  | ("sync" | "append") :: "Store" :: _ -> true
  | _ -> false

let store_option_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [ arg ], _)
    when String.equal (Marks.last_component (Path.name p)) "option" -> (
      match Types.get_desc arg with
      | Types.Tconstr (sp, _, _) -> (
          match List.rev (String.split_on_char '.' (Marks.dotted (Path.name sp)))
          with
          | "t" :: "Store" :: _ -> true
          | _ -> false)
      | _ -> false)
  | _ -> false

type r7_point = {
  pt_loc : Location.t;
  pt_cnum : int;
  pt_ctor : string;
  pt_origin : int;  (* line of the original ack construction *)
}

type r7_region = {
  rg_span : int * int;
  rg_binders : string list;  (* Ident.unique_name *)
}

let apply_head (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (path, _, _) -> Some (Path.name path)
  | _ -> None

let r7 ~acks (u : Cmt_load.unit_) =
  if acks = [] then []
  else begin
    let file = u.Cmt_load.u_file in
    let regions = ref [] in
    let durable = ref [] in
    let constructs = ref [] in
    let refs : (string, (Location.t * int) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let note_ref uid loc =
      let cell =
        match Hashtbl.find_opt refs uid with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.replace refs uid c;
            c
      in
      cell := (loc, (span_of loc |> fst)) :: !cell
    in
    let iterator =
      {
        Tast_iterator.default_iterator with
        value_binding =
          (fun self vb ->
            let binders =
              List.map Ident.unique_name
                (Typedtree.pat_bound_idents vb.Typedtree.vb_pat)
            in
            regions :=
              {
                rg_span = span_of vb.Typedtree.vb_expr.Typedtree.exp_loc;
                rg_binders = binders;
              }
              :: !regions;
            Tast_iterator.default_iterator.value_binding self vb);
        expr =
          (fun self e ->
            (match e.Typedtree.exp_desc with
            | Typedtree.Texp_apply (f, _) -> (
                match apply_head f with
                | Some name when store_call_name name ->
                    durable := span_of e.Typedtree.exp_loc :: !durable
                | Some _ | None -> ())
            | Typedtree.Texp_match (scrut, cases, _)
              when store_option_type scrut.Typedtree.exp_type ->
                List.iter
                  (fun (c : Typedtree.computation Typedtree.case) ->
                    let rec none_pat :
                        type k. k Typedtree.general_pattern -> bool =
                     fun p ->
                      match p.Typedtree.pat_desc with
                      | Typedtree.Tpat_construct (_, cd, _, _) ->
                          String.equal cd.Types.cstr_name "None"
                      | Typedtree.Tpat_value v ->
                          none_pat
                            (v :> Typedtree.value Typedtree.general_pattern)
                      | Typedtree.Tpat_or (a, b, _) ->
                          none_pat a || none_pat b
                      | _ -> false
                    in
                    if none_pat c.Typedtree.c_lhs then
                      durable :=
                        span_of c.Typedtree.c_rhs.Typedtree.exp_loc :: !durable)
                  cases
            | Typedtree.Texp_construct (_, cd, _)
              when List.mem cd.Types.cstr_name acks ->
                constructs :=
                  ( cd.Types.cstr_name,
                    e.Typedtree.exp_loc,
                    fst (span_of e.Typedtree.exp_loc) )
                  :: !constructs
            | Typedtree.Texp_ident (Path.Pident id, _, _) ->
                note_ref (Ident.unique_name id) e.Typedtree.exp_loc
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    iterator.structure iterator u.Cmt_load.u_str;
    let regions = !regions and durable = !durable in
    let covered cnum = List.exists (fun s -> inside s cnum) durable in
    (* innermost enclosing value binding *)
    let region_of cnum =
      List.fold_left
        (fun best r ->
          if inside r.rg_span cnum then
            match best with
            | Some b
              when snd b.rg_span - fst b.rg_span
                   <= snd r.rg_span - fst r.rg_span ->
                best
            | _ -> Some r
          else best)
        None regions
    in
    let seen = Hashtbl.create 32 in
    let out = ref [] in
    let queue = Queue.create () in
    List.iter
      (fun (ctor, loc, cnum) ->
        Queue.add
          {
            pt_loc = loc;
            pt_cnum = cnum;
            pt_ctor = ctor;
            pt_origin = loc.Location.loc_start.Lexing.pos_lnum;
          }
          queue)
      (List.rev !constructs);
    while not (Queue.is_empty queue) do
      let p = Queue.pop queue in
      if not (Hashtbl.mem seen p.pt_cnum) then begin
        Hashtbl.replace seen p.pt_cnum ();
        if not (covered p.pt_cnum) then begin
          let uses =
            match region_of p.pt_cnum with
            | None -> []
            | Some r ->
                List.concat_map
                  (fun uid ->
                    match Hashtbl.find_opt refs uid with
                    | Some cell -> !cell
                    | None -> [])
                  r.rg_binders
                (* uses inside the region itself are recursion, not
                   escapes *)
                |> List.filter (fun (_, c) -> not (inside r.rg_span c))
          in
          match uses with
          | [] ->
              out :=
                diag ~file p.pt_loc ~rule:"R7"
                  (Printf.sprintf
                     "[@haf.ack] %s emitted without a dominating \
                      Store.sync/Store.append (constructed at line %d); a \
                      crash after this ack could forget acknowledged state"
                     p.pt_ctor p.pt_origin)
                :: !out
          | _ ->
              List.iter
                (fun (loc, cnum) ->
                  Queue.add
                    {
                      pt_loc = loc;
                      pt_cnum = cnum;
                      pt_ctor = p.pt_ctor;
                      pt_origin = p.pt_origin;
                    }
                    queue)
                uses
        end
      end
    done;
    List.rev !out
  end

(* ==================================================================== *)
(* R9 — hot-path allocation                                             *)
(* ==================================================================== *)

let strip_stdlib name =
  if String.length name > 7 && String.sub name 0 7 = "Stdlib." then
    String.sub name 7 (String.length name - 7)
  else name

let append_names = [ "@"; "List.append"; "List.concat"; "List.rev_append" ]

let poly_compare_names =
  [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max" ]

let immediate_bases =
  [
    "int";
    "bool";
    "char";
    "float";
    "string";
    "bytes";
    "unit";
    "int32";
    "int64";
    "nativeint";
  ]

let immediate_arg (args : (Asttypes.arg_label * Typedtree.expression option) list)
    =
  let first =
    List.find_map
      (fun (lbl, e) ->
        match (lbl, e) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
      args
  in
  match first with
  | None -> false
  | Some e -> (
      match Types.get_desc e.Typedtree.exp_type with
      | Types.Tconstr (p, _, _) ->
          List.mem (Marks.last_component (Path.name p)) immediate_bases
      | _ -> false)

let r9_one ~file hot_name expr =
  let acc = ref [] in
  let head_locs = Hashtbl.create 16 in
  let flag loc msg =
    acc :=
      diag ~file loc ~rule:"R9"
        (Printf.sprintf "%s in [@hot] %s" msg hot_name)
      :: !acc
  in
  (* pass 1: applications — heads, lambda arguments *)
  let pass1 =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_apply (f, args) -> (
              (match f.Typedtree.exp_desc with
              | Typedtree.Texp_ident _ ->
                  Hashtbl.replace head_locs
                    (fst (span_of f.Typedtree.exp_loc))
                    ()
              | _ -> ());
              (match apply_head f with
              | Some raw ->
                  let name = strip_stdlib (Marks.dotted raw) in
                  if List.mem name append_names then
                    flag f.Typedtree.exp_loc
                      (Printf.sprintf
                         "list append (%s) allocates a fresh spine per call"
                         name)
                  else if
                    List.mem name poly_compare_names
                    && not (immediate_arg args)
                  then
                    flag f.Typedtree.exp_loc
                      (Printf.sprintf
                         "polymorphic comparison (%s) on a non-immediate type"
                         name)
              | None -> ());
              List.iter
                (fun (_, arg) ->
                  match arg with
                  | Some ({ Typedtree.exp_desc = Typedtree.Texp_function _; _ }
                          as lam) ->
                      flag lam.Typedtree.exp_loc
                        "closure literal allocated per call"
                  | _ -> ())
                args)
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  pass1.expr pass1 expr;
  (* pass 2: nested function bindings, and comparators passed by name *)
  let root_cnum = fst (span_of expr.Typedtree.exp_loc) in
  let pass2 =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match vb.Typedtree.vb_expr.Typedtree.exp_desc with
          | Typedtree.Texp_function _
            when fst (span_of vb.Typedtree.vb_expr.Typedtree.exp_loc)
                 <> root_cnum ->
              flag vb.Typedtree.vb_loc
                "nested function binding allocates a closure per call"
          | _ -> ());
          Tast_iterator.default_iterator.value_binding self vb);
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (path, _, _)
            when not
                   (Hashtbl.mem head_locs (fst (span_of e.Typedtree.exp_loc)))
            -> (
              let name = strip_stdlib (Marks.dotted (Path.name path)) in
              if List.mem name append_names then
                flag e.Typedtree.exp_loc
                  (Printf.sprintf "%s passed by name allocates on use" name)
              else
                match name with
                | "compare" | "Hashtbl.hash" ->
                    flag e.Typedtree.exp_loc
                      (Printf.sprintf
                         "polymorphic comparator %s passed by name" name)
                | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  pass2.expr pass2 expr;
  List.rev !acc

let r9 (u : Cmt_load.unit_) =
  List.concat_map
    (fun (name, expr, _) -> r9_one ~file:u.Cmt_load.u_file name expr)
    (Marks.hot_bindings u)

(* ==================================================================== *)
(* R8 — transitive determinism                                          *)
(* ==================================================================== *)

(* R8 reaches for the lexical tier's R1 and R2 bans, read from
   {!Rules.bans} so the banned names live in one place. *)
let banned_ref name =
  List.find_map
    (fun (b : Rules.ban) ->
      match b.b_rule with
      | "R1" when Rules.matches b name -> Some ("R1", "ambient nondeterminism")
      | "R2" when Rules.matches b name ->
          Some ("R2", "polymorphic structural operation")
      | _ -> None)
    Rules.bans

let chain_names chain =
  String.concat " -> " (List.map (fun n -> n.Callgraph.n_name) chain)

let r8 ~allow graph =
  let roots =
    List.filter
      (fun n -> Rules.protocol_dirs n.Callgraph.n_file)
      (Callgraph.nodes graph)
  in
  Callgraph.reach graph ~roots
  |> List.concat_map (fun (node, chain) ->
         (* banned names *inside* protocol dirs are the lexical tier's
            R1/R2 findings already; R8 polices the helpers they reach *)
         if Rules.protocol_dirs node.Callgraph.n_file then []
         else if Allowlist.under "lib/net_unix" node.Callgraph.n_file then begin
           (* substrate blindness: protocol layers must work identically
              over the sim and the real-time substrate, so no call chain
              may land in lib/net_unix — that choice belongs to the
              composition roots (bin/) alone *)
           let line = node.Callgraph.n_loc.Location.loc_start.Lexing.pos_lnum in
           if allow ~file:node.Callgraph.n_file ~line ~rules:[ "R8" ] then []
           else
             [
               diag ~file:node.Callgraph.n_file node.Callgraph.n_loc ~rule:"R8"
                 (Printf.sprintf
                    "real-time substrate code (%s) is reachable from protocol \
                     code: %s; protocol layers are substrate-blind — only \
                     bin/ composition roots may pick lib/net_unix"
                    node.Callgraph.n_name (chain_names chain));
             ]
         end
         else
           List.filter_map
             (fun (name, loc) ->
               match banned_ref name with
               | None -> None
               | Some (base, what) ->
                   let line = loc.Location.loc_start.Lexing.pos_lnum in
                   if
                     allow ~file:node.Callgraph.n_file ~line
                       ~rules:[ "R8"; base ]
                   then None
                   else
                     Some
                       (diag ~file:node.Callgraph.n_file loc ~rule:"R8"
                          (Printf.sprintf
                             "%s (%s) is reachable from protocol code: %s; \
                              protocol decisions must not depend on it \
                              (base rule %s)"
                             what (strip_stdlib name) (chain_names chain) base)))
             node.Callgraph.n_refs)
  |> List.sort_uniq Diagnostic.compare
