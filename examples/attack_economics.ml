(* Attack economics (Section 4.3): measure the bandwidth the current
   protocol actually needs at several network sizes, then price the
   stressor-service attack that denies it.

     dune exec examples/attack_economics.exe *)

module R = Protocols.Runenv

(* Smallest attacked-authority bandwidth at which the current protocol
   still succeeds (the Figure 7 quantity), by binary search. *)
let required_mbit ~n_relays =
  let spec = { R.Spec.default with seed = "economics"; n_relays } in
  let votes = (R.of_spec spec).R.votes in
  let ok mbit =
    let attacks =
      Attack.Ddos.bandwidth_attack ~n:9 ~residual_bits_per_sec:(mbit *. 1e6) ()
    in
    let env = R.of_spec ~votes { spec with attacks } in
    R.success env (Protocols.Current_v3.run env)
  in
  let rec search lo hi =
    if hi -. lo < 0.2 then hi
    else
      let mid = (lo +. hi) /. 2. in
      if ok mid then search lo mid else search mid hi
  in
  search 0.1 50.

let () =
  Printf.printf "link capacity per authority: %.0f Mbit/s (2021 incident report)\n"
    (Attack.Ddos.authority_link_bits_per_sec /. 1e6);
  Printf.printf "stressor price: $%.5f per Mbit/s per target-hour (Jansen et al.)\n\n"
    Attack.Cost.usd_per_mbit_per_hour;
  List.iter
    (fun n_relays ->
      let required = required_mbit ~n_relays in
      let instance = Attack.Cost.break_one_run ~required_mbit_per_sec:required () in
      Format.printf "%a@." (Attack.Cost.pp ~n_relays) instance)
    [ 1000; 4000; 8000 ];
  Printf.printf
    "\nAfter %.0f hours without a fresh consensus the documents expire and the\n\
     whole Tor network stops building circuits.\n"
    Attack.Cost.hours_to_network_down;
  Printf.printf
    "For scale: Jansen et al. priced attacks on Tor bridges at $%.0f/month and\n\
     on the bandwidth scanners at $%.0f/month — the directory authorities are\n\
     three orders of magnitude cheaper to attack.\n"
    Attack.Cost.jansen_bridges_monthly_usd Attack.Cost.jansen_scanners_monthly_usd
