type t = {
  heartbeat_interval : float;
  suspect_timeout : float;
  flush_timeout : float;
}

let default =
  {
    heartbeat_interval = 0.1;
    suspect_timeout = 0.35;
    flush_timeout = 0.6;
  }

let validate t =
  if t.heartbeat_interval <= 0. then Error "heartbeat_interval must be positive"
  else if t.suspect_timeout < 2. *. t.heartbeat_interval then
    Error "suspect_timeout must be at least two heartbeat intervals"
  else if t.flush_timeout <= 0. then Error "flush_timeout must be positive"
  else Ok t
