type t = {
  seed : int;
  n_servers : int;
  n_units : int;
  replication : int;
  n_clients : int;
  sessions_per_client : int;
  session_duration : float;
  request_interval : float;
  policy : Haf_core.Policy.t;
  gcs_config : Haf_gcs.Config.t;
  net_config : Haf_net.Network.config;
  store : Haf_store.Store.config option;
  warmup : float;
  duration : float;
  monitor_interval : float;
  retain_events : bool;
  retain_responses : bool;
}

let default =
  {
    seed = 1;
    n_servers = 5;
    n_units = 2;
    replication = 3;
    n_clients = 3;
    sessions_per_client = 1;
    session_duration = 100.;
    request_interval = 2.;
    policy = Haf_core.Policy.default;
    gcs_config = Haf_gcs.Config.default;
    net_config = Haf_net.Network.default_config;
    store = None;
    warmup = 3.;
    duration = 120.;
    monitor_interval = 0.25;
    retain_events = true;
    retain_responses = true;
  }

let unit_name k = Printf.sprintf "u%02d" k

let servers_for_unit t k =
  List.init (Int.min t.replication t.n_servers) (fun i -> (k + i) mod t.n_servers)
