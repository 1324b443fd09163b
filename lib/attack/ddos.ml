let authority_link_bits_per_sec = 250e6
let ddos_residual_bits_per_sec = 0.5e6
(* 300 s — the first two rounds, during which votes travel; the only
   window the attacker must cover. *)
let vote_window_seconds = 300.

let majority_targets ~n = List.init ((n / 2) + 1) Fun.id

let check_targets ~n targets =
  if targets = [] then invalid_arg "Ddos: empty target list";
  List.iter
    (fun t -> if t < 0 || t >= n then invalid_arg "Ddos: target out of range")
    targets

let windows ~targets ~start ~stop ~bits_per_sec ~n =
  check_targets ~n targets;
  if stop < start then invalid_arg "Ddos: stop before start";
  List.map
    (fun node -> { Protocols.Runenv.node; start; stop; bits_per_sec })
    targets

let bandwidth_attack ?targets ?(start = 0.) ?(stop = vote_window_seconds)
    ?(residual_bits_per_sec = ddos_residual_bits_per_sec) ~n () =
  let targets = Option.value targets ~default:(majority_targets ~n) in
  windows ~targets ~start ~stop ~bits_per_sec:residual_bits_per_sec ~n

let knockout ?targets ?(start = 0.) ?(stop = vote_window_seconds) ~n () =
  let targets = Option.value targets ~default:(majority_targets ~n) in
  windows ~targets ~start ~stop ~bits_per_sec:0. ~n
