type result = {
  outputs : (int * Dirdoc.Consensus.t) option array;
  iterations_run : int;
  agreement : bool;
  majority_signed_documents : Dirdoc.Consensus.t list;
}

let split_attack () =
  (* A full knockout during the two signature rounds: authorities 5-8
     neither send nor receive signatures before the 600 s deadline, so
     only 0-4 finish iteration 0. *)
  List.map
    (fun node -> { Runenv.node; start = 300.; stop = 600.; bits_per_sec = 0. })
    [ 5; 6; 7; 8 ]

let iterations = 3

let run (env : Runenv.t) =
  let n = env.n in
  let need = Runenv.majority ~n in
  let outputs = Array.make n None in
  let majority_docs = ref [] in
  let remember doc =
    if not (List.exists (Dirdoc.Consensus.equal doc) !majority_docs) then
      majority_docs := doc :: !majority_docs
  in
  let iterations_run = ref 0 in
  let all_adopted () = Array.for_all Option.is_some outputs in
  let iteration = ref 0 in
  while !iteration < iterations && not (all_adopted ()) do
    let k = !iteration in
    incr iterations_run;
    (* Relay lists move on between iterations; only the first run is
       under the attack that caused the failure. *)
    let iter_env =
      if k = 0 then env
      else
        Runenv.of_spec
          {
            Runenv.Spec.default with
            seed = Printf.sprintf "retry-%d" k;
            valid_after = env.valid_after;
            n;
            n_relays = Dirdoc.Vote.n_relays env.votes.(0);
            bandwidth_bits_per_sec = env.bandwidth_bits_per_sec;
          }
    in
    let iter_env = { iter_env with Runenv.keyring = env.keyring } in
    let result = Current_v3.run iter_env in
    Array.iteri
      (fun i (a : Runenv.authority_result) ->
        match a.consensus with
        | Some doc when a.signatures >= need ->
            remember doc;
            if outputs.(i) = None then outputs.(i) <- Some (k, doc)
        | _ -> ())
      result.Runenv.per_authority;
    incr iteration
  done;
  let docs =
    Array.to_list outputs |> List.filter_map (Option.map snd)
  in
  let agreement =
    match docs with
    | [] -> true
    | first :: rest -> List.for_all (Dirdoc.Consensus.equal first) rest
  in
  {
    outputs;
    iterations_run = !iterations_run;
    agreement;
    majority_signed_documents = !majority_docs;
  }
