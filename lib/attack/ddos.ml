let authority_link_bits_per_sec = 250e6
let ddos_residual_bits_per_sec = 0.5e6
(* 300 s — the first two rounds, during which votes travel; the only
   window the attacker must cover. *)
let vote_window_seconds = 300.

let majority_targets ~n = List.init ((n / 2) + 1) Fun.id

let windows ~start ~stop ~bits_per_sec ~n =
  if stop < start then invalid_arg "Ddos: stop before start";
  List.map
    (fun node -> { Protocols.Runenv.node; start; stop; bits_per_sec })
    (majority_targets ~n)

let bandwidth_attack ?(start = 0.) ?(stop = vote_window_seconds)
    ?(residual_bits_per_sec = ddos_residual_bits_per_sec) ~n () =
  windows ~start ~stop ~bits_per_sec:residual_bits_per_sec ~n

let knockout ?(start = 0.) ?(stop = vote_window_seconds) ~n () =
  windows ~start ~stop ~bits_per_sec:0. ~n
