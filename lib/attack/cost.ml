let usd_per_mbit_per_hour = 0.00074

let flood_usd ~mbit_per_sec ~targets ~seconds =
  if mbit_per_sec < 0. || targets < 0 || seconds < 0. then
    invalid_arg "Cost.flood_usd: negative input";
  usd_per_mbit_per_hour *. mbit_per_sec *. float_of_int targets *. (seconds /. 3600.)

type instance = {
  required_mbit_per_sec : float;
  targets : int;
  flood_mbit_per_sec : float;
  seconds : float;
  usd : float;
}

let break_one_run ?(required_mbit_per_sec = 10.) () =
  let targets = 5 and seconds = 300. in
  let flood = 250. -. required_mbit_per_sec in
  if flood < 0. then invalid_arg "Cost.break_one_run: required exceeds link";
  {
    required_mbit_per_sec;
    targets;
    flood_mbit_per_sec = flood;
    seconds;
    usd = flood_usd ~mbit_per_sec:flood ~targets ~seconds;
  }

let monthly_usd instance = instance.usd *. 24. *. 30.

let hours_to_network_down = 3.

let pp ~n_relays ppf i =
  Format.fprintf ppf
    "%d relays: protocol needs %.1f Mbit/s; flood %d authorities at %.0f Mbit/s for %.0f s \
     => $%.3f per run, $%.2f/month"
    n_relays i.required_mbit_per_sec i.targets i.flood_mbit_per_sec i.seconds i.usd
    (monthly_usd i)

let jansen_bridges_monthly_usd = 17_000.
let jansen_scanners_monthly_usd = 2_800.
