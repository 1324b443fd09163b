module Runenv = Protocols.Runenv
module Directory = Torclient.Directory

type attack_policy = No_attack | Hourly_flood

type hour = {
  index : int;
  consensus_produced : bool;
  client_usable : bool;
  client_status : Directory.freshness option;
}

type timeline = {
  protocol : Experiments.protocol;
  policy : attack_policy;
  hours : hour list;
  dark_hours : int;
  attacker_usd : float;
}

(* Signers whose computed document matches the majority digest and who
   hold enough signatures: the authorities a client could download the
   signed consensus from. *)
let signed_consensus_of_run keyring ~n (result : Runenv.run_result) =
  match Runenv.majority_signed ~n result with
  | None -> None
  | Some consensus ->
      let signers =
        List.init n Fun.id
        |> List.filter (fun i ->
               match result.Runenv.per_authority.(i).Runenv.consensus with
               | Some c -> Dirdoc.Consensus.equal c consensus
               | None -> false)
      in
      Some (Directory.make keyring consensus ~signers)

let run ?(hours = 12) ~protocol ~policy () =
  let n = 9 in
  let base = Runenv.default_valid_after in
  let keyring = Crypto.Keyring.create ~seed:"outage" ~n () in
  let client = Torclient.Client.create ~keyring ~n_authorities:n in
  let attacked_hours = ref 0 in
  let hour_rows =
    List.init hours (fun index ->
        (* Hour 0 bootstraps before the attacker shows up. *)
        let attacked = policy = Hourly_flood && index >= 1 in
        if attacked then incr attacked_hours;
        let attacks = if attacked then Attack.Ddos.bandwidth_attack ~n () else [] in
        let valid_after = base +. (3600. *. float_of_int index) in
        let env =
          Runenv.of_spec
            {
              Runenv.Spec.default with
              seed = Printf.sprintf "outage-h%d" index;
              valid_after;
              n_relays = 2000;
              attacks;
              horizon = 3000.;
            }
        in
        (* The runs use the shared outage keyring so one client can
           verify every hour's signatures. *)
        let env = { env with Runenv.keyring } in
        let report = Experiments.run protocol env in
        let produced = report.Runenv.success in
        (if produced then
           match signed_consensus_of_run keyring ~n report.Runenv.result with
           | Some sc ->
               (* The client fetches shortly after the run concludes. *)
               let fetch_time = valid_after +. 1200. in
               ignore (Torclient.Client.offer client ~now:fetch_time sc)
           | None -> ());
        let end_of_hour = valid_after +. 3599. in
        {
          index;
          consensus_produced = produced;
          client_usable = Torclient.Client.can_build_circuits client ~now:end_of_hour;
          client_status = Torclient.Client.status client ~now:end_of_hour;
        })
  in
  let dark_hours =
    List.length (List.filter (fun h -> not h.client_usable) hour_rows)
  in
  let instance = Attack.Cost.break_one_run () in
  {
    protocol;
    policy;
    hours = hour_rows;
    dark_hours;
    attacker_usd = float_of_int !attacked_hours *. instance.Attack.Cost.usd;
  }

let first_dark_hour timeline =
  List.find_map
    (fun h -> if not h.client_usable then Some h.index else None)
    timeline.hours
