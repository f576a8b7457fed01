type takeover = Resume | Skip_ahead | Hybrid

type t = {
  n_backups : int;
  propagation_period : float;
  takeover : takeover;
  session_shards : int;
}

let default =
  {
    n_backups = 1;
    propagation_period = 0.5;
    takeover = Resume;
    session_shards = 0;
  }

let grant_timeout = 2.0

let vod_paper = { default with n_backups = 0; propagation_period = 0.5 }

let validate t =
  if t.n_backups < 0 then Error "n_backups must be non-negative"
  else if t.propagation_period <= 0. then Error "propagation_period must be positive"
  else if t.session_shards < 0 then Error "session_shards must be non-negative"
  else Ok t
