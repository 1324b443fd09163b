type plan = {
  n_relays : int;
  required_mbit_per_sec : float;
  flood_mbit_per_sec : float;
  instance : Cost.instance;
  usd_per_month : float;
}

let make ~n_relays ~required_mbit_per_sec () =
  let instance = Cost.break_one_run ~required_mbit_per_sec () in
  {
    n_relays;
    required_mbit_per_sec;
    flood_mbit_per_sec = instance.Cost.flood_mbit_per_sec;
    instance;
    usd_per_month = Cost.monthly_usd instance;
  }

let hours_to_network_down = 3.

let pp ppf p =
  Format.fprintf ppf
    "%d relays: protocol needs %.1f Mbit/s; flood %d authorities at %.0f Mbit/s for %.0f s \
     => $%.3f per run, $%.2f/month"
    p.n_relays p.required_mbit_per_sec p.instance.Cost.targets p.flood_mbit_per_sec
    p.instance.Cost.seconds p.instance.Cost.usd p.usd_per_month
