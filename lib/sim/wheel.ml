(* Hierarchical timer wheel.

   The engine's event queue: O(1) amortized insert and (lazy) cancel,
   pops in exact [(time, seq)] order — the same total order the binary
   {!Heap} it replaced used — so schedules replay byte-identically.

   Items live in one of three places:

   - [ready]: a small binary heap ordered by the true [(time, seq)]
     key.  Holds the items of the current tick bucket (drained from the
     wheel) plus any item pushed at or before the cursor.  Every item
     in [ready] precedes every item still in the wheel, so the global
     minimum is always [ready]'s root once {!ensure_ready} ran.
   - [slots]: [levels]x[width] unordered cons-lists.  An item's slot is
     chosen from the highest bit-group in which its quantized tick
     differs from the cursor, so each level-[l] slot holds exactly one
     value of [tick asr (bits*l)] — draining a level-0 slot yields one
     tick's items, draining a higher slot cascades its items down.
   - nowhere else: ticks beyond the representable horizon are clamped
     to the top slot; order inside a bucket is re-established from the
     true float time, so clamping never reorders.

   Quantization is order-safe because [tick_of] is monotone (float
   multiply and truncation are monotone), and items sharing a tick are
   sorted by the exact key inside [ready]. *)

type 'a t = {
  time : 'a -> float;
  seq : 'a -> int;
  mutable cur : int;  (* cursor tick: wheel items sit strictly above it *)
  slots : 'a list array array;
  counts : int array;  (* live items per level *)
  ready : 'a Heap.t;
  mutable len : int;
}

let bits = 8

let width = 1 lsl bits

let levels = 6

let tick_limit = (1 lsl (bits * levels)) - 1

let tick_limit_f = float_of_int tick_limit

(* One tick is 1 ms of simulated/real time. *)
let ticks_per_s = 1. /. 1e-3

let create ~time ~seq () =
  let leq a b =
    let ta = time a and tb = time b in
    ta < tb || (ta = tb && seq a <= seq b)
  in
  {
    time;
    seq;
    cur = 0;
    slots = Array.init levels (fun _ -> Array.make width []);
    counts = Array.make levels 0;
    ready = Heap.create ~leq;
    len = 0;
  }

let length t = t.len

let is_empty t = t.len = 0

let[@hot] tick_of time =
  let f = time *. ticks_per_s in
  if f >= tick_limit_f then tick_limit
  else if f > 0. then int_of_float f
  else 0

(* Route an item with [tick > cur] to its slot: the level is the
   highest bit-group where [tick] and [cur] differ, so the invariant
   "every level-[l] item shares all groups above [l] with the cursor"
   holds by construction and is preserved as the cursor advances (the
   cursor cannot pass a group boundary without draining the slot). *)
let[@hot] place t x tick =
  let diff = tick lxor t.cur in
  let level =
    if diff < 0x100 then 0
    else if diff < 0x10000 then 1
    else if diff < 0x1000000 then 2
    else if diff < 0x100000000 then 3
    else if diff < 0x10000000000 then 4
    else 5
  in
  let slot = (tick lsr (bits * level)) land (width - 1) in
  let row = t.slots.(level) in
  row.(slot) <- x :: row.(slot);
  t.counts.(level) <- t.counts.(level) + 1

let[@hot] push t x =
  let tick = tick_of (t.time x) in
  if tick <= t.cur then Heap.push t.ready x else place t x tick;
  t.len <- t.len + 1

(* Re-insert a drained higher-level slot's items below; items landing
   exactly on the (re-based) cursor go straight to [ready]. *)
let rec redistribute t = function
  | [] -> ()
  | x :: rest ->
      let tick = tick_of (t.time x) in
      if tick <= t.cur then Heap.push t.ready x else place t x tick;
      redistribute t rest

let rec ready_all t = function
  | [] -> ()
  | x :: rest ->
      Heap.push t.ready x;
      ready_all t rest

let wheel_count t =
  let n = ref 0 in
  for l = 0 to levels - 1 do
    n := !n + t.counts.(l)
  done;
  !n

(* Advance the cursor to the next occupied tick and drain that bucket
   into [ready].  Level 0 is scanned from the cursor's own group
   position (its slots hold exactly the ticks of the current rotation);
   an empty level 0 cascades the next occupied slot of the lowest
   occupied level down and rescans. *)
let rec refill t =
  if t.counts.(0) > 0 then begin
    let base = t.cur land lnot (width - 1) in
    let i = ref (t.cur land (width - 1)) in
    let row = t.slots.(0) in
    while !i < width && row.(!i) == [] do
      incr i
    done;
    if !i = width then invalid_arg "Wheel: level-0 count/slot mismatch";
    let items = row.(!i) in
    row.(!i) <- [];
    t.counts.(0) <- t.counts.(0) - List.length items;
    t.cur <- base lor !i;
    ready_all t items
  end
  else begin
    let level = ref 1 in
    while !level < levels && t.counts.(!level) = 0 do
      incr level
    done;
    if !level < levels then begin
      let l = !level in
      let shift = bits * l in
      let row = t.slots.(l) in
      let i = ref (((t.cur lsr shift) land (width - 1)) + 1) in
      while !i < width && row.(!i) == [] do
        incr i
      done;
      if !i = width then invalid_arg "Wheel: cascade count/slot mismatch";
      let items = row.(!i) in
      row.(!i) <- [];
      t.counts.(l) <- t.counts.(l) - List.length items;
      (* Re-base: groups above [l] keep, group [l] = found slot, all
         lower groups zero — the earliest tick the slot can contain. *)
      t.cur <- ((t.cur lsr (shift + bits)) lsl (shift + bits)) lor (!i lsl shift);
      redistribute t items;
      if Heap.is_empty t.ready then refill t
    end
  end

let ensure_ready t =
  if Heap.is_empty t.ready && wheel_count t > 0 then refill t

let[@hot] peek t =
  match Heap.peek t.ready with
  | Some _ as s -> s
  | None ->
      ensure_ready t;
      Heap.peek t.ready

let[@hot] pop t =
  (match Heap.peek t.ready with
  | Some _ -> ()
  | None -> ensure_ready t);
  match Heap.pop t.ready with
  | None -> None
  | Some _ as s ->
      t.len <- t.len - 1;
      s

let clear t =
  Heap.clear t.ready;
  for l = 0 to levels - 1 do
    Array.fill t.slots.(l) 0 width [];
    t.counts.(l) <- 0
  done;
  t.cur <- 0;
  t.len <- 0

let to_list t =
  let acc = ref (Heap.to_list t.ready) in
  for l = 0 to levels - 1 do
    let row = t.slots.(l) in
    for s = 0 to width - 1 do
      let rec add = function
        | [] -> ()
        | x :: rest ->
            acc := x :: !acc;
            add rest
      in
      add row.(s)
    done
  done;
  !acc
