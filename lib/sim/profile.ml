(* Opt-in, process-global profiling registry for the simulation hot
   paths.

   The observation plane must not tax the system it observes: while
   disabled (the default) every probe site costs one mutable-bool load
   and a branch — no closure, no hash lookup, no allocation.  Enabled,
   a site still only counts; the expensive part (a [Gc.minor_words]
   delta and a CPU-clock delta around the guarded code) is taken on a
   1-in-[sample_mask+1] subsample and scaled back up at snapshot time,
   so profiling a 10^7-event run perturbs it by a few percent instead
   of dominating it.

   Sites pre-register a {!slot} once (at module init or object
   creation), so the per-event path never hashes a string.  The
   begin/end protocol ([hit] / [words] / [cpu] / [leave]) is spelled
   out at the call site instead of wrapping a closure precisely so that
   [@hot] callers stay R9-clean: no closure literal is constructed per
   dispatched event.

   CPU time comes from an injected clock ([set_clock]) because library
   code must stay off the wall clock (haf-lint R1); the binary that
   opts into profiling passes [Sys.time] in.  With no clock injected,
   spans still attribute allocation. *)

type slot = {
  s_name : string;
  mutable s_count : int;  (* guarded-section entries while enabled *)
  mutable s_sampled : int;  (* entries that carried a measurement *)
  mutable s_minor_words : float;  (* summed deltas over sampled entries *)
  mutable s_cpu_s : float;  (* summed deltas over sampled entries *)
}

let enabled = ref false

let clock : (unit -> float) option ref = ref None

(* Measure one entry in [sample_mask + 1]; a power-of-two mask keeps
   the decision a single [land] on the hot path. *)
let sample_mask = 63

let registry : (string, slot) Hashtbl.t = Hashtbl.create 32

let slot name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
      let s =
        { s_name = name; s_count = 0; s_sampled = 0; s_minor_words = 0.; s_cpu_s = 0. }
      in
      Hashtbl.replace registry name s;
      s

let set_clock c = clock := c

let enable () = enabled := true

let disable () = enabled := false

let reset () =
  Hashtbl.iter
    (fun _ s ->
      s.s_count <- 0;
      s.s_sampled <- 0;
      s.s_minor_words <- 0.;
      s.s_cpu_s <- 0.)
    registry

let[@hot] hit s =
  if not !enabled then false
  else begin
    let c = s.s_count in
    s.s_count <- c + 1;
    c land sample_mask = 0
  end

let words () = Gc.minor_words ()

let cpu () = match !clock with None -> 0. | Some f -> f ()

let[@hot] leave s ~w0 ~c0 =
  s.s_sampled <- s.s_sampled + 1;
  s.s_minor_words <- s.s_minor_words +. (Gc.minor_words () -. w0);
  s.s_cpu_s <- s.s_cpu_s +. (cpu () -. c0)

type entry = {
  e_name : string;
  e_count : int;
  e_sampled : int;
  e_minor_words : float;  (* scaled estimate over all entries *)
  e_cpu_s : float;  (* scaled estimate over all entries *)
}

let snapshot () =
  Hashtbl.fold
    (fun _ s acc ->
      if s.s_count = 0 then acc
      else
        let scale =
          if s.s_sampled = 0 then 0.
          else float_of_int s.s_count /. float_of_int s.s_sampled
        in
        {
          e_name = s.s_name;
          e_count = s.s_count;
          e_sampled = s.s_sampled;
          e_minor_words = s.s_minor_words *. scale;
          e_cpu_s = s.s_cpu_s *. scale;
        }
        :: acc)
    registry []
  |> List.sort (fun a b -> String.compare a.e_name b.e_name)

(* GC snapshot for the engine-tick sampler: the caller differences two
   of these around a run (or per tick) for the global allocation and
   collection deltas the per-site spans cannot see. *)
type gc_sample = {
  g_minor_words : float;
  g_major_words : float;
  g_minor_collections : int;
  g_major_collections : int;
  g_heap_words : int;
}

let gc_sample () =
  let s = Gc.quick_stat () in
  {
    g_minor_words = s.Gc.minor_words;
    g_major_words = s.Gc.major_words;
    g_minor_collections = s.Gc.minor_collections;
    g_major_collections = s.Gc.major_collections;
    g_heap_words = s.Gc.heap_words;
  }
