type t = {
  keyring : Crypto.Keyring.t;
  n_authorities : int;
  mutable held : Dirdoc.Consensus.t option;
}

let create ~keyring ~n_authorities = { keyring; n_authorities; held = None }

let offer t ~now (sc : Directory.signed_consensus) =
  match Directory.verify t.keyring ~n_authorities:t.n_authorities sc with
  | Error _ as e -> e
  | Ok () ->
      if not (Directory.usable ~now sc.Directory.consensus) then
        Error "consensus already expired"
      else begin
        match t.held with
        | Some held
          when held.Dirdoc.Consensus.valid_after
               >= sc.Directory.consensus.Dirdoc.Consensus.valid_after ->
            Error "older than the held consensus"
        | Some _ | None ->
            t.held <- Some sc.Directory.consensus;
            Ok ()
      end

let status t ~now = Option.map (fun c -> Directory.freshness ~now c) t.held

let can_build_circuits t ~now =
  match t.held with Some c -> Directory.usable ~now c | None -> false
