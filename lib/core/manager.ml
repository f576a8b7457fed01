module Engine = Haf_sim.Engine

type health = { h_unit : string; h_live_replicas : int; h_sessions : int }

type reason = Under_replicated of string | Overloaded of string

type t = {
  engine : Engine.t;
  cooldown : float;
  mutable last_spawn : float;
  mutable log : (float * reason) list;  (* newest first *)
  timer : Engine.timer;
}

let evaluate ~min_replicas ~max_load healths =
  (* Worst under-replication first: availability beats load. *)
  let worst_under =
    healths
    |> List.filter (fun h -> h.h_live_replicas < min_replicas)
    |> List.sort (fun a b -> Int.compare a.h_live_replicas b.h_live_replicas)
  in
  match worst_under with
  | h :: _ -> Some (Under_replicated h.h_unit)
  | [] -> (
      let load h =
        if h.h_live_replicas = 0 then infinity
        else float_of_int h.h_sessions /. float_of_int h.h_live_replicas
      in
      let overloaded =
        healths
        |> List.filter (fun h -> load h > max_load)
        |> List.sort (fun a b -> Float.compare (load b) (load a))
      in
      match overloaded with h :: _ -> Some (Overloaded h.h_unit) | [] -> None)

let create ~engine ~check_period ~min_replicas ~max_load ?cooldown ~observe ~spawn
    () =
  let cooldown = Option.value cooldown ~default:(3. *. check_period) in
  let self = ref None in
  let tick () =
    match !self with
    | None -> ()
    | Some t ->
        let now = Engine.now engine in
        if now -. t.last_spawn >= t.cooldown then (
          match evaluate ~min_replicas ~max_load (observe ()) with
          | Some reason ->
              t.last_spawn <- now;
              t.log <- (now, reason) :: t.log;
              spawn reason
          | None -> ())
  in
  let timer = Engine.every engine ~period:check_period tick in
  let t = { engine; cooldown; last_spawn = neg_infinity; log = []; timer } in
  self := Some t;
  t

let stop t = Engine.cancel t.timer

let decisions t = List.rev t.log
