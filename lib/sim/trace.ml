type line = { time : float; component : string; message : string }

type t = {
  mutable on : bool;
  echo : bool;
  capacity : int;
  buffer : line Queue.t;
}

let create ?(echo = false) ?(capacity = 100_000) () =
  { on = true; echo; capacity; buffer = Queue.create () }

let disabled =
  { on = false; echo = false; capacity = 0; buffer = Queue.create () }

let set_enabled t on = t.on <- on

let emit t ~time ~component message =
  if t.on then begin
    (* haf-lint: allow R4 — this *is* the sink every other module in lib/
       must route output through; echo mirrors the buffer to stderr. *)
    if t.echo then Printf.eprintf "[%10.4f] %-12s %s\n%!" time component message;
    Queue.push { time; component; message } t.buffer;
    while Queue.length t.buffer > t.capacity do
      ignore (Queue.pop t.buffer)
    done
  end

(* Never written to: [ikfprintf] only consumes the arguments. *)
let null_formatter = Format.make_formatter (fun _ _ _ -> ()) ignore

let emitf t ~time ~component fmt =
  if t.on then Format.kasprintf (fun s -> emit t ~time ~component s) fmt
  else Format.ikfprintf ignore null_formatter fmt

let lines t = List.of_seq (Queue.to_seq t.buffer)

let matching t ~component =
  List.filter (fun l -> String.equal l.component component) (lines t)
