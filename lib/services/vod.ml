type context = { position : int; rate : int; length : int }

type request = Seek of int | Set_rate of int

type response = Frame of { index : int; key : bool }

let name = "vod"

let gop = 12

(* Frames per movie when the unit id does not specify one. *)
let default_length = 500_000

let frames_per_tick = 5

let tick_period = 0.2

(* A movie named "movie:<n>:<frames>" carries its own length; anything
   else gets the default (long enough that sessions end by client
   departure, not by the credits rolling). *)
let length_of_unit unit_id =
  match String.split_on_char ':' unit_id with
  | [ _; _; len ] -> ( match int_of_string_opt len with Some l when l > 0 -> l | _ -> default_length)
  | _ -> default_length

let initial_context ~unit_id =
  { position = 0; rate = frames_per_tick; length = length_of_unit unit_id }

let clamp ctx pos = Int.max 0 (Int.min pos ctx.length)

let apply_request ctx = function
  | Seek pos -> { ctx with position = clamp ctx pos }
  | Set_rate r -> { ctx with rate = Int.max 0 (Int.min r (4 * frames_per_tick)) }

let frame index = Frame { index; key = index mod gop = 0 }

let tick ctx =
  if ctx.rate = 0 || ctx.position >= ctx.length then ([], ctx)
  else begin
    let upto = Int.min ctx.length (ctx.position + ctx.rate) in
    let frames = List.init (upto - ctx.position) (fun i -> frame (ctx.position + i)) in
    (frames, { ctx with position = upto })
  end

let session_finished ctx = ctx.position >= ctx.length

let response_id (Frame { index; _ }) = index

let response_critical (Frame { key; _ }) = key

let gen_request rng ~seq =
  ignore seq;
  let r = Haf_sim.Rng.uniform rng in
  if r < 0.6 then
    (* Skip to the start of a "scene": scenes every 2500 frames. *)
    Seek (Haf_sim.Rng.int rng 200 * 2500)
  else if r < 0.8 then Set_rate 0
  else Set_rate frames_per_tick
