(* Convergence oracle for the self-stabilization experiments.

   The contract it checks is the practically-self-stabilizing one: after
   the *last* injected state corruption, the deployment must return to a
   legal configuration within a bounded quiescence window.  "Legal" is
   decided by the caller (the runner evaluates audits + unique primary +
   assignment agreement) and fed in through [probe]; this module only
   keeps the episode clock and reports through the monitor's violation
   channel, so convergence failures surface exactly like any other
   invariant violation. *)

type t = {
  window : float;
  report : now:float -> detail:string -> unit;
  mutable episode_start : float option;
      (* Time of the corruption opening the current illegal episode;
         [None] once a legal probe closed it.  A fresh corruption
         restarts the deadline — the oracle's clock runs from the last
         injection, per the practically-self-stabilizing contract. *)
  mutable flagged : bool;  (* current episode already reported *)
  mutable injected : int;
  mutable times : float list;  (* reconvergence durations, newest first *)
}

let create ~window ~report =
  if window <= 0. then invalid_arg "Stabilize.create: window must be positive";
  {
    window;
    report;
    episode_start = None;
    flagged = false;
    injected = 0;
    times = [];
  }

let note_corruption t ~now =
  t.injected <- t.injected + 1;
  t.episode_start <- Some now;
  t.flagged <- false

let probe t ~now ~legal =
  match t.episode_start with
  | None -> ()
  | Some t0 ->
      if legal then begin
        t.times <- (now -. t0) :: t.times;
        t.episode_start <- None;
        t.flagged <- false
      end
      else if (not t.flagged) && now -. t0 > t.window then begin
        t.report ~now
          ~detail:
            (Printf.sprintf
               "no legal configuration %.2fs after corruption #%d (window \
                %.2fs)"
               (now -. t0) t.injected t.window);
        t.flagged <- true
      end

let converged t = t.episode_start = None

let injected t = t.injected

let reconvergence_times t = List.rev t.times
