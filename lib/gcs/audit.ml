(* Local self-audit for the self-stabilizing GCS.

   A daemon (and, one layer up, the framework's unit database) runs
   these pure checks over its own in-memory state, periodically and on
   receive.  A corrupted replica thereby detects its own damage and
   resets locally instead of limping on and poisoning healthy peers.
   The checks are deliberately cheap — constant work per group — so the
   periodic audit rides the heartbeat tick for free. *)

(* The hardened/unhardened switch: with audits disabled the protocol
   behaves exactly as before this module existed, which is what the
   stabilization experiment's negative control (E18) runs against. *)
let enabled = ref true

type verdict =
  | Sound
  | Bad_view of { group : string; detail : string }
  | Bad_counter of { group : string; detail : string }
  | Bad_clock of { group : string; detail : string }
[@@haf.protocol]
(* Deep-lint R6 (handler totality): every [match] over [verdict] in
   protocol code must name each constructor, so a new audit dimension
   cannot be silently ignored by an existing recovery dispatch. *)

let describe = function
  | Sound -> "sound"
  | Bad_view { group; detail } -> Printf.sprintf "bad-view(%s): %s" group detail
  | Bad_counter { group; detail } ->
      Printf.sprintf "bad-counter(%s): %s" group detail
  | Bad_clock { group; detail } -> Printf.sprintf "bad-clock(%s): %s" group detail

let is_sound = function
  | Sound -> true
  | Bad_view _ | Bad_counter _ | Bad_clock _ -> false

(* View sanity: the member list is a smart-constructed invariant
   (sorted, non-empty, includes self for an installed view), but
   corruption bypasses the constructor — so re-check it from scratch. *)
let check_view ~me (v : View.t) =
  let group = v.View.group in
  if v.View.members = [] then Bad_view { group; detail = "empty membership" }
  else if not (View.is_member v me) then
    Bad_view { group; detail = Printf.sprintf "self (%d) not a member" me }
  else if v.View.id.View.Id.epoch < 0 then
    Bad_view
      {
        group;
        detail = Printf.sprintf "negative epoch %d" v.View.id.View.Id.epoch;
      }
  else Sound

(* Counter sanity: the epoch high-water mark is monotone and never
   behind the installed view's epoch; the sequencer counter starts at 1. *)
let check_counters ~view ~max_epoch ~next_seq =
  let group = view.View.group in
  let vepoch = view.View.id.View.Id.epoch in
  if max_epoch < 0 then
    Bad_counter { group; detail = Printf.sprintf "max_epoch %d < 0" max_epoch }
  else if max_epoch < vepoch then
    Bad_counter
      {
        group;
        detail =
          Printf.sprintf "max_epoch %d behind view epoch %d" max_epoch vepoch;
      }
  else if next_seq < 1 then
    Bad_counter { group; detail = Printf.sprintf "next_seq %d < 1" next_seq }
  else Sound

(* Delivery-clock sanity: [delivered_up_to] only ever advances to
   sequence numbers the view log actually holds, so a clock that points
   past the log's horizon can only be corruption (or a lost log). *)
let check_clock ~group ~delivered_up_to ~log_holds_horizon =
  if delivered_up_to < 0 then
    Bad_clock
      { group; detail = Printf.sprintf "delivered_up_to %d < 0" delivered_up_to }
  else if delivered_up_to > 0 && not log_holds_horizon then
    Bad_clock
      {
        group;
        detail =
          Printf.sprintf "delivered_up_to %d beyond log horizon" delivered_up_to;
      }
  else Sound
