(* haf_bench: the repository's benchmark.  One command runs the named
   workloads on the simulated network and on UDP loopback, prints every
   metric by name and unit, checks correctness, and writes
   out/results.json (plus out/<workload>.trace.json when traced).

     haf_bench.exe --workload all --seed 1 [--seconds 40] [--trace [0|1]]
                   [--scale X] [--out DIR]

   The last line of stdout is one JSON object: correct, attempted,
   failed and the metrics (end-to-end, or per-layer with --trace).  The
   exit code is 1 if the correctness gate fails, 2 on a usage error or
   a busy UDP port. *)

module W = Workload

type opts = {
  mutable workloads : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable scale : float option;
  mutable out : string;
}

let usage () =
  prerr_endline
    "usage: haf_bench.exe --workload (all|NAME[,NAME...]) --seed N [--seconds S] \
     [--trace [0|1]] [--scale X] [--out DIR]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun s -> s.W.name) W.specs));
  exit 2

let parse argv =
  let o =
    { workloads = "all"; seed = 1; seconds = 40.; trace = false; scale = None;
      out = "bench/haf_bench/out" }
  in
  let num conv s = match conv s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workloads <- v; go rest
    | "--seed" :: v :: rest -> o.seed <- num int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> o.seconds <- num float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--trace" :: rest -> o.trace <- true; go rest
    | "--scale" :: v :: rest -> o.scale <- Some (num float_of_string_opt v); go rest
    | "--out" :: v :: rest -> o.out <- v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* Full precision; a missing value (nan) is JSON null, and fails the gate. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metric_json ?(samples = false) (m : W.metric) =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s%s}" (json_string m.W.m_name)
    (json_float m.W.m_value) (json_string m.W.m_unit)
    (if samples && m.W.m_n > 0 then Printf.sprintf ", \"n\": %d" m.W.m_n else "")

let obj fields = "{" ^ String.concat ", " fields ^ "}"

type result = {
  spec : W.spec;
  tally : W.tally;  (* the untraced run: end-to-end numbers *)
  e2e : W.metric list;
  layers : W.metric list;
  errors : string list;
}

let attempted r = W.total r.tally.W.attempts

let failed r = W.total r.tally.W.failures

let counts tbl =
  obj
    (List.map
       (fun (k, n) -> Printf.sprintf "%s: %d" (json_string k) n)
       (List.sort compare (List.of_seq (Hashtbl.to_seq tbl))))

(* One line per workload, so a line-oriented reader can check it. *)
let result_line r =
  Printf.sprintf "    %s: %s" (json_string r.spec.W.name)
    (obj
       [
         Printf.sprintf "\"substrate\": %s"
           (json_string (match r.spec.W.substrate with Deploy.Sim -> "sim" | Deploy.Udp _ -> "udp"));
         Printf.sprintf "\"why\": %s" (json_string r.spec.W.why);
         Printf.sprintf "\"trials\": %d" r.tally.W.trials;
         Printf.sprintf "\"correct\": %b" (r.errors = []);
         Printf.sprintf "\"errors\": [%s]" (String.concat ", " (List.map json_string r.errors));
         Printf.sprintf "\"attempted\": %d" (attempted r);
         Printf.sprintf "\"failed\": %d" (failed r);
         Printf.sprintf "\"failed_ratio\": %s" (json_float (W.failed_ratio r.tally));
         Printf.sprintf "\"attempts\": %s" (counts r.tally.W.attempts);
         Printf.sprintf "\"failures\": %s" (counts r.tally.W.failures);
         Printf.sprintf "\"monitor.violations\": %d" r.tally.W.violations;
         Printf.sprintf "\"end_to_end\": %s" (obj (List.map (metric_json ~samples:true) r.e2e));
         Printf.sprintf "\"per_layer\": %s" (obj (List.map (metric_json ~samples:true) r.layers));
       ])

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_results o results =
  let path = Filename.concat o.out "results.json" in
  write_file path
    (String.concat "\n"
       [
         "{";
         Printf.sprintf "  \"seed\": %d, \"seconds\": %s, \"trace\": %b, \"scale\": %s,"
           o.seed (json_float o.seconds) o.trace
           (match o.scale with Some s -> json_float s | None -> "null");
         "  \"workloads\": {";
         String.concat ",\n" (List.map result_line results);
         "  }";
         "}";
         "";
       ]);
  path

(* Chrome trace_event JSON: complete ("X") events in microseconds, one
   row per session; per-datagram costs as histograms in otherData. *)
let write_trace o (spec : W.spec) (t : W.tally) =
  let path = Filename.concat o.out (spec.W.name ^ ".trace.json") in
  let us x = json_float (x *. 1e6) in
  let event (sp : W.span) =
    Printf.sprintf
      "{\"name\": %s, \"cat\": \"haf_bench\", \"ph\": \"X\", \"ts\": %s, \"dur\": %s, \
       \"pid\": %d, \"tid\": %d}"
      (json_string sp.W.sp_name) (us sp.W.sp_start) (us sp.W.sp_dur) sp.W.sp_trial
      sp.W.sp_session
  in
  let hist name h =
    Printf.sprintf "%s: {\"count\": %d, \"mean\": %s, \"p50\": %s, \"p99\": %s, \"buckets\": [%s]}"
      (json_string name) h.Stats.Hist.count
      (json_float (Stats.Hist.mean h))
      (json_float (Stats.Hist.percentile h 50.))
      (json_float (Stats.Hist.percentile h 99.))
      (String.concat ", "
         (List.map
            (fun (ub, n) -> Printf.sprintf "[%s, %d]" (json_float ub) n)
            (Stats.Hist.nonempty h)))
  in
  write_file path
    (String.concat "\n"
       [
         "{\"traceEvents\": [";
         String.concat ",\n" (List.rev_map event t.W.spans);
         "],";
         "\"displayTimeUnit\": \"ms\",";
         Printf.sprintf "\"otherData\": {\"workload\": %s, \"histograms\": {%s}}"
           (json_string spec.W.name)
           (String.concat ", " [ hist "net.send_us" t.W.send_us; hist "net.recv_us" t.W.recv_us ]);
         "}";
         "";
       ])

(* Every named metric must appear in the written results, per workload. *)
let check_results path results =
  let ic = open_in path in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let contains line sub =
    let n = String.length sub and m = String.length line in
    let rec at i = i + n <= m && (String.sub line i n = sub || at (i + 1)) in
    at 0
  in
  List.concat_map
    (fun r ->
      let key = json_string r.spec.W.name ^ ": {" in
      match List.find_opt (fun l -> contains l key) lines with
      | None -> [ r.spec.W.name ^ " missing from " ^ path ]
      | Some line ->
          List.filter_map
            (fun (m : W.metric) ->
              if contains line (json_string m.W.m_name ^ ": {\"value\"") then None
              else Some (Printf.sprintf "%s: %s missing from %s" r.spec.W.name m.W.m_name path))
            (r.e2e @ r.layers))
    results

(* ------------------------------------------------------------------ *)

let print_block r =
  Printf.printf "== %s: %d sessions, %d trial(s), attempted %d, failed %d (%.4f)\n"
    r.spec.W.name r.spec.W.sessions r.tally.W.trials (attempted r) (failed r)
    (W.failed_ratio r.tally);
  let row (m : W.metric) = Printf.printf "  %-40s %14.4f %s\n" m.W.m_name m.W.m_value m.W.m_unit in
  List.iter row r.e2e;
  Printf.printf "  per layer:\n";
  List.iter row r.layers;
  Printf.printf "  monitor.violations %d\n" r.tally.W.violations;
  List.iter (fun e -> Printf.printf "  GATE: %s\n" e) r.errors;
  print_newline ()

let run_workload o spec =
  let spec, single =
    match o.scale with Some f -> (W.scaled spec f, true) | None -> (spec, false)
  in
  let go ~seconds ~traced = W.run spec ~seed:o.seed ~seconds ~traced ~single in
  (* The traced run shares the budget with an untraced one: end-to-end
     numbers and the tracing overhead need both. *)
  let base = go ~seconds:(if o.trace then o.seconds /. 2. else o.seconds) ~traced:false in
  let e2e = W.end_to_end base in
  let layered = if o.trace then go ~seconds:(o.seconds /. 2.) ~traced:true else base in
  let layers = W.per_layer layered ~untraced:base in
  if o.trace then write_trace o spec layered;
  let bad =
    List.filter_map
      (fun (m : W.metric) ->
        if Float.is_finite m.W.m_value && m.W.m_value > 0. then None
        else Some (Printf.sprintf "end-to-end metric %s has no valid value" m.W.m_name))
      e2e
    @ List.filter_map
        (fun (m : W.metric) ->
          if Float.is_finite m.W.m_value then None
          else Some (Printf.sprintf "per-layer metric %s is not finite" m.W.m_name))
        layers
  in
  let errors =
    List.rev base.W.errors @ (if o.trace then List.rev layered.W.errors else []) @ bad
  in
  { spec; tally = base; e2e; layers; errors }

let () =
  let o = parse Sys.argv in
  let specs =
    if o.workloads = "all" then W.specs
    else
      List.map
        (fun n -> match W.find n with Some s -> s | None -> usage ())
        (String.split_on_char ',' o.workloads)
  in
  mkdir_p o.out;
  let results =
    try List.map (run_workload o) specs
    with Deploy.Port_busy msg ->
      prerr_endline ("haf_bench: " ^ msg);
      exit 2
  in
  List.iter print_block results;
  let path = write_results o results in
  let missing = check_results path results in
  List.iter (fun e -> Printf.printf "GATE: %s\n" e) missing;
  let correct = missing = [] && List.for_all (fun r -> r.errors = []) results in
  let prefix r name = if List.length results = 1 then name else r.spec.W.name ^ "/" ^ name in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (m : W.metric) -> metric_json { m with W.m_name = prefix r m.W.m_name })
          (if o.trace then r.layers else r.e2e))
      results
  in
  Printf.printf "%s\n%!"
    (obj
       [
         Printf.sprintf "\"correct\": %b" correct;
         Printf.sprintf "\"attempted\": %d" (List.fold_left (fun a r -> a + attempted r) 0 results);
         Printf.sprintf "\"failed\": %d" (List.fold_left (fun a r -> a + failed r) 0 results);
         Printf.sprintf "\"metrics\": %s" (obj metrics);
       ]);
  exit (if correct then 0 else 1)
