(* Event labels: the scheduler interface distinguishes message
   deliveries (explorable: the model checker may reorder them) from
   internal timers (heartbeats, retransmits, workload ticks — always
   fired in deterministic time order). *)
type label = Internal | Deliver of { src : int; dst : int }

type candidate = { src : int; dst : int; k : int; at : float }

type t = {
  mutable clock : float;
  ext_now : (unit -> float) option;
      (* [None]: the virtual clock — time is whatever the event queue
         says it is.  [Some f]: an external (real, monotonic) clock; the
         queue holds real-time deadlines and an outside event loop
         drives them with {!run_due}/{!next_deadline}.  [clock] then
         caches the latest sample so time never goes backwards even if
         the source jitters. *)
  queue : entry Wheel.t;
  root_rng : Rng.t;
  mutable next_seq : int;
  mutable fired : int;
  mutable dead_in_heap : int;
      (* Entries still in [queue] that will never fire: consumed by the
         driven scheduler, or belonging to a cancelled timer.  Drives the
         lazy purge and keeps [pending] a live-timer count. *)
  delivered : (int * int, int) Hashtbl.t;
      (* (src, dst) -> deliveries fired so far: the per-channel index [k]
         that names a delivery stably across re-executions. *)
  mutable picker : (candidate list -> candidate) option;
  mutable chooser : (site:string -> proc:int -> occ:int -> bool) option;
  choice_occ : (string * int, int) Hashtbl.t;
  mutable corruptor : (site:string -> proc:int -> occ:int -> bool) option;
  corrupt_occ : (string * int, int) Hashtbl.t;
}

and timer = {
  mutable cancelled : bool;
  mutable action : unit -> unit;
  owner : t;
  mutable in_heap : int;  (* non-consumed entries of this timer in queue *)
}

and entry = {
  fire_at : float;
  seq : int;
  timer : timer;
  label : label;
  mutable consumed : bool;  (* fired out of heap order by the driven scheduler *)
}

let make ?(seed = 1) ext_now =
  {
    clock = (match ext_now with None -> 0. | Some f -> f ());
    ext_now;
    queue = Wheel.create ~time:(fun e -> e.fire_at) ~seq:(fun e -> e.seq) ();
    root_rng = Rng.create seed;
    next_seq = 0;
    fired = 0;
    dead_in_heap = 0;
    delivered = Hashtbl.create 32;
    picker = None;
    chooser = None;
    choice_occ = Hashtbl.create 16;
    corruptor = None;
    corrupt_occ = Hashtbl.create 16;
  }

let create ?seed () = make ?seed None

let create_external ?seed ~now () = make ?seed (Some now)

let now t =
  match t.ext_now with
  | None -> t.clock
  | Some f ->
      let n = f () in
      if n > t.clock then t.clock <- n;
      t.clock

let rng t = t.root_rng

let fork_rng t = Rng.split t.root_rng

(* ---------------------------------------------------------------- *)
(* Queue maintenance                                                 *)

let purge_threshold = 16

(* Rebuild the heap without dead entries once they are the majority:
   keeps [pending]-sized state proportional to live timers even when a
   component cancels timers far faster than their fire times arrive
   (e.g. transport acks cancelling retransmits). *)
let maybe_purge t =
  let size = Wheel.length t.queue in
  if size > purge_threshold && 2 * t.dead_in_heap > size then begin
    let entries = Wheel.to_list t.queue in
    Wheel.clear t.queue;
    List.iter
      (fun e ->
        if e.consumed then ()
        else if e.timer.cancelled then e.timer.in_heap <- e.timer.in_heap - 1
        else Wheel.push t.queue e)
      entries;
    t.dead_in_heap <- 0
  end

let[@hot] push_entry t ~at ~label timer =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  timer.in_heap <- timer.in_heap + 1;
  Wheel.push t.queue { fire_at = at; seq; timer; label; consumed = false }

let schedule_at t ?(label = Internal) ~time f =
  let timer = { cancelled = false; action = f; owner = t; in_heap = 0 } in
  push_entry t ~at:(Float.max time t.clock) ~label timer;
  timer

let schedule t ?label ~delay f =
  schedule_at t ?label ~time:(now t +. Float.max delay 0.) f

let every t ?first ~period f =
  if period <= 0. then invalid_arg "Engine.every: period must be positive";
  let first = Option.value first ~default:period in
  let timer = { cancelled = false; action = ignore; owner = t; in_heap = 0 } in
  (* One action closure per timer, not per firing: with 10^5 sessions
     each ticking every 0.2 sim-s, rebuilding the continuation closure
     on every fire was one of the two top hot-path allocation sites the
     self-profile attributed to [engine.internal].  The deadline chain
     [at +. period] accumulates in a mutable cell with the same float
     arithmetic, so fire times are bit-identical to the closure chain it
     replaces. *)
  let next_at = ref (now t +. Float.max first 0.) in
  timer.action <-
    (fun () ->
      f ();
      if not timer.cancelled then begin
        next_at := !next_at +. period;
        push_entry t ~at:!next_at ~label:Internal timer
      end);
  push_entry t ~at:!next_at ~label:Internal timer;
  timer

let cancel timer =
  if not timer.cancelled then begin
    timer.cancelled <- true;
    let t = timer.owner in
    t.dead_in_heap <- t.dead_in_heap + timer.in_heap;
    maybe_purge t
  end

(* ---------------------------------------------------------------- *)
(* Firing                                                            *)

let[@hot] delivered_on t key =
  Option.value (Hashtbl.find_opt t.delivered key) ~default:0

let[@hot] note_delivery t = function
  | Internal -> ()
  | Deliver { src; dst } ->
      Hashtbl.replace t.delivered (src, dst) (delivered_on t (src, dst) + 1)

(* Profiling slots for CPU/allocation attribution by event kind; while
   the profiler is disabled each costs one bool load per fire. *)
let prof_internal = Profile.slot "engine.internal"

let prof_deliver = Profile.slot "engine.deliver"

let[@hot] fire t e =
  t.clock <- Float.max t.clock e.fire_at;
  t.fired <- t.fired + 1;
  note_delivery t e.label;
  let prof = match e.label with Internal -> prof_internal | Deliver _ -> prof_deliver in
  if Profile.hit prof then begin
    let w0 = Profile.words () and c0 = Profile.cpu () in
    e.timer.action ();
    Profile.leave prof ~w0 ~c0
  end
  else e.timer.action ()

(* Seeded policy: pop strictly in (time, insertion) order. *)
let[@hot] step t =
  match Wheel.pop t.queue with
  | None -> false
  | Some e ->
      if e.consumed then t.dead_in_heap <- t.dead_in_heap - 1
      else begin
        e.timer.in_heap <- e.timer.in_heap - 1;
        if e.timer.cancelled then t.dead_in_heap <- t.dead_in_heap - 1
        else fire t e
      end;
      true

(* External-loop interface: an outside (real-time) event loop asks for
   the earliest live deadline to size its poll timeout, then fires
   whatever has come due.  Dead heap heads are popped on the way — the
   same bookkeeping [step] applies lazily. *)
let rec next_deadline t =
  match Wheel.peek t.queue with
  | None -> None
  | Some e ->
      if e.consumed then begin
        ignore (Wheel.pop t.queue);
        t.dead_in_heap <- t.dead_in_heap - 1;
        next_deadline t
      end
      else if e.timer.cancelled then begin
        ignore (Wheel.pop t.queue);
        e.timer.in_heap <- e.timer.in_heap - 1;
        t.dead_in_heap <- t.dead_in_heap - 1;
        next_deadline t
      end
      else Some e.fire_at

let run_due t =
  let continue = ref true in
  while !continue do
    match next_deadline t with
    | Some d when d <= now t -> ignore (step t)
    | Some _ | None -> continue := false
  done

(* Driven policy: internal events keep firing in time order, but among
   message deliveries that are due no later than the next internal event
   only the per-channel FIFO heads are enabled, and the picker chooses
   which one fires.  The chosen entry is consumed in place (the heap is
   not reordered), so the walk is O(live entries) per step; the purge
   keeps that proportional to live timers. *)
let entry_earlier a b =
  a.fire_at < b.fire_at || (a.fire_at = b.fire_at && a.seq < b.seq)

let consume_and_fire t e =
  e.consumed <- true;
  e.timer.in_heap <- e.timer.in_heap - 1;
  t.dead_in_heap <- t.dead_in_heap + 1;
  fire t e;
  maybe_purge t

let driven_step t pick ~limit =
  let live =
    List.filter
      (fun e -> not (e.consumed || e.timer.cancelled))
      (Wheel.to_list t.queue)
  in
  if live = [] then `Empty
  else begin
    let internal_next =
      List.fold_left
        (fun acc e ->
          match (e.label, acc) with
          | Deliver _, _ -> acc
          | Internal, None -> Some e
          | Internal, Some b -> if entry_earlier e b then Some e else acc)
        None live
    in
    (* Per-channel FIFO heads, keyed (src, dst); assoc list keeps the
       scan deterministic (channel count is small). *)
    let heads = ref [] in
    List.iter
      (fun e ->
        match e.label with
        | Internal -> ()
        | Deliver { src; dst } -> (
            let key = (src, dst) in
            match List.assoc_opt key !heads with
            | Some b when entry_earlier b e -> ()
            | Some _ -> heads := (key, e) :: List.remove_assoc key !heads
            | None -> heads := (key, e) :: !heads))
      live;
    let due (_, e) =
      e.fire_at <= limit
      &&
      match internal_next with
      | None -> true
      | Some i -> e.fire_at <= i.fire_at
    in
    let enabled =
      List.filter due !heads
      |> List.sort (fun ((a1, b1), _) ((a2, b2), _) ->
             match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c)
    in
    match enabled with
    | [] -> (
        match internal_next with
        | Some e when e.fire_at <= limit ->
            consume_and_fire t e;
            `Fired
        | Some _ | None -> `Past_limit)
    | _ ->
        let cands =
          List.map
            (fun ((src, dst), (e : entry)) ->
              { src; dst; k = delivered_on t (src, dst); at = e.fire_at })
            enabled
        in
        let chosen = pick cands in
        let e =
          match List.assoc_opt (chosen.src, chosen.dst) !heads with
          | Some e -> e
          | None -> invalid_arg "Engine: picker returned a non-candidate"
        in
        consume_and_fire t e;
        `Fired
  end

let run ?until t =
  match t.picker with
  | None -> (
      match until with
      | None -> while step t do () done
      | Some limit ->
          let continue = ref true in
          while !continue do
            match Wheel.peek t.queue with
            | Some e when e.fire_at <= limit -> ignore (step t)
            | Some _ | None ->
                t.clock <- Float.max t.clock limit;
                continue := false
          done)
  | Some pick ->
      let limit = Option.value until ~default:infinity in
      let continue = ref true in
      while !continue do
        match driven_step t pick ~limit with
        | `Fired -> ()
        | `Empty | `Past_limit ->
            (match until with
            | Some l -> t.clock <- Float.max t.clock l
            | None -> ());
            continue := false
      done

(* ---------------------------------------------------------------- *)
(* Scheduler interface                                               *)

let set_picker t p = t.picker <- p

let set_chooser t c = t.chooser <- c

(* Ask a hook about a fault site, numbering each (site, proc) pair's
   visits in [occs] so a replay can name "the k-th visit". *)
let ask hook occs ~site ~proc =
  match hook with
  | None -> false
  | Some f ->
      let key = (site, proc) in
      let occ = Option.value (Hashtbl.find_opt occs key) ~default:0 in
      Hashtbl.replace occs key (occ + 1);
      f ~site ~proc ~occ

let choice t ~site ~proc = ask t.chooser t.choice_occ ~site ~proc

let set_corruptor t c = t.corruptor <- c

let corruption t ~site ~proc = ask t.corruptor t.corrupt_occ ~site ~proc

(* ---------------------------------------------------------------- *)

let pending t = Wheel.length t.queue - t.dead_in_heap

let heap_size t = Wheel.length t.queue

let events_processed t = t.fired
