module Rng = Tor_sim.Rng

type divergence = {
  missing_prob : float;
  bw_jitter : float;
  flag_flip_prob : float;
  unmeasured_prob : float;
}

let default_divergence =
  { missing_prob = 0.01; bw_jitter = 0.10; flag_flip_prob = 0.02; unmeasured_prob = 0.15 }

let no_divergence =
  { missing_prob = 0.; bw_jitter = 0.; flag_flip_prob = 0.; unmeasured_prob = 0. }

(* The nine real directory authorities, for log realism. *)
let authority_nicknames =
  [| "moria1"; "tor26"; "dizum"; "gabelmoo"; "dannenberg"; "maatuska"; "longclaw";
     "bastet"; "faravahar" |]

let authority_nickname i =
  if i >= 0 && i < Array.length authority_nicknames then authority_nicknames.(i)
  else Printf.sprintf "auth%d" i

let nickname_syllables =
  [| "tor"; "nym"; "iron"; "quiet"; "blue"; "night"; "free"; "deep"; "grey"; "swift";
     "hidden"; "north"; "salt"; "ember"; "drift" |]

let random_fingerprint rng =
  let hex = "0123456789ABCDEF" in
  String.init 40 (fun _ -> hex.[Rng.int rng 16])

let random_address rng =
  Printf.sprintf "%d.%d.%d.%d" (Rng.range rng ~min:1 ~max:223) (Rng.int rng 256)
    (Rng.int rng 256) (Rng.range rng ~min:1 ~max:254)

(* The mixes' values are made once, with their texts, and shared by
   every relay that draws them. *)
let v0_4_8_12 = Version.make 0 4 8 12
let v0_4_8_11 = Version.make 0 4 8 11
let v0_4_7_16 = Version.make 0 4 7 16
let v0_4_8_10 = Version.make 0 4 8 10
let v0_4_9_1_alpha = Version.make ~tag:"alpha" 0 4 9 1
let web_policy = Exit_policy.make Exit_policy.Accept [ (80, 80); (443, 443) ]

let web_mail_policy =
  Exit_policy.make Exit_policy.Accept [ (20, 23); (80, 80); (443, 443); (993, 995) ]

let version_mix rng =
  (* A realistic spread: mostly current stable, a tail of older
     releases and an alpha. *)
  let roll = Rng.int rng 100 in
  if roll < 55 then v0_4_8_12
  else if roll < 75 then v0_4_8_11
  else if roll < 88 then v0_4_7_16
  else if roll < 96 then v0_4_8_10
  else v0_4_9_1_alpha

let exit_policy_mix rng =
  let roll = Rng.int rng 100 in
  if roll < 65 then Exit_policy.reject_all
  else if roll < 80 then web_policy
  else if roll < 90 then web_mail_policy
  else Exit_policy.accept_all

(* Bandwidth in kB/s: log-uniform across ~3 decades, like the live
   network's long-tailed capacity distribution. *)
let bandwidth_mix rng =
  let exponent = 2. +. Rng.float rng 3. in
  int_of_float (10. ** exponent)

let base_flags rng ~bandwidth ~exit =
  let flags = Flags.of_list [ Flags.Running; Flags.Valid; Flags.V2Dir ] in
  let flags = if exit then Flags.add Flags.Exit flags else flags in
  let flags = if bandwidth > 2_000 then Flags.add Flags.Fast flags else flags in
  let flags =
    if bandwidth > 5_000 && Rng.int rng 100 < 60 then
      Flags.add Flags.Guard (Flags.add Flags.Stable flags)
    else if Rng.int rng 100 < 40 then Flags.add Flags.Stable flags
    else flags
  in
  if Rng.int rng 100 < 25 then Flags.add Flags.HSDir flags else flags

let relay_nickname rng i =
  let syllable () = nickname_syllables.(Rng.int rng (Array.length nickname_syllables)) in
  Printf.sprintf "%s%s%04d" (syllable ()) (syllable ()) (i mod 10000)

let relays ~rng ~n ~published =
  let seen = Hashtbl.create (2 * n) in
  let rec fresh_fingerprint () =
    let fp = random_fingerprint rng in
    if Hashtbl.mem seen fp then fresh_fingerprint ()
    else begin
      Hashtbl.add seen fp ();
      fp
    end
  in
  List.init n (fun i ->
      let bandwidth = bandwidth_mix rng in
      let exit_policy = exit_policy_mix rng in
      let exit = Exit_policy.policy exit_policy = Exit_policy.Accept in
      let flags = base_flags rng ~bandwidth ~exit in
      Relay.make ~fingerprint:(fresh_fingerprint ()) ~nickname:(relay_nickname rng i)
        ~address:(random_address rng)
        ~or_port:(Rng.range rng ~min:443 ~max:9999)
        ~dir_port:(if Rng.int rng 100 < 30 then 80 else 0)
        ~published:(Float.round published) ~flags ~version:(version_mix rng) ~bandwidth
        ~measured:bandwidth ~exit_policy ())

(* Flags an authority may legitimately disagree about; Running/Valid
   stay put so inclusion itself is stable under small divergence. *)
let flippable_flags = [ Flags.Fast; Flags.Stable; Flags.Guard; Flags.HSDir ]

(* Perturbation touches only [flags] and [measured], so the view's relay
   shares every other field with the ground truth, the descriptor digest
   included: none of its inputs change.  No [Relay.make] check can fail
   either, because [measured] stays at least 1. *)
let perturb_relay rng divergence (r : Relay.t) =
  let flags =
    if Rng.float rng 1.0 < divergence.flag_flip_prob then
      let flag = List.nth flippable_flags (Rng.int rng (List.length flippable_flags)) in
      if Flags.mem flag r.flags then Flags.remove flag r.flags else Flags.add flag r.flags
    else r.flags
  in
  let measured =
    if Rng.float rng 1.0 < divergence.unmeasured_prob then None
    else
      match r.measured with
      | None -> None
      | Some m ->
          let jitter = Rng.gaussian rng ~mean:1.0 ~stddev:divergence.bw_jitter in
          Some (Stdlib.max 1 (int_of_float (float_of_int m *. Float.max 0.1 jitter)))
  in
  { r with flags; measured }

(* Indices of [truth] in fingerprint order. *)
let fingerprint_order truth =
  let order = Array.init (Array.length truth) Fun.id in
  Array.stable_sort (fun i j -> Relay.compare_fingerprint truth.(i) truth.(j)) order;
  order

(* One authority's view.  The RNG draws run over [truth] in ground-truth
   order, which pins the stream; the relays come out in [order], so
   [Vote.create] finds them sorted. *)
let sorted_view ~rng ~divergence truth order =
  let observed =
    Array.init (Array.length truth) (fun i ->
        if Rng.float rng 1.0 < divergence.missing_prob then None
        else Some (perturb_relay rng divergence truth.(i)))
  in
  Array.fold_right
    (fun i view -> match observed.(i) with Some r -> r :: view | None -> view)
    order []

let authority_view ~rng ~divergence ground_truth =
  let truth = Array.of_list ground_truth in
  sorted_view ~rng ~divergence truth (fingerprint_order truth)

let votes ~rng ?(divergence = default_divergence) ~keyring ~n_authorities ~n_relays
    ~valid_after () =
  let published = valid_after -. 600. in
  let truth = Array.of_list (relays ~rng ~n:n_relays ~published) in
  let order = fingerprint_order truth in
  Array.init n_authorities (fun authority ->
      let view = sorted_view ~rng ~divergence truth order in
      Vote.create ~authority
        ~authority_fingerprint:(Crypto.Keyring.fingerprint keyring authority)
        ~nickname:(authority_nickname authority) ~published ~valid_after ~relays:view)

(* Hourly churn: the chance an existing relay disappears, new relays
   as a fraction of the population, the chance a relay publishes a new
   descriptor. *)
let leave_prob = 0.015
let join_frac = 0.015
let rekey_prob = 0.30

let evolve ~rng ~published ground_truth =
  let survivors =
    List.filter (fun _ -> Rng.float rng 1.0 >= leave_prob) ground_truth
  in
  let republished =
    List.map
      (fun (r : Relay.t) ->
        if Rng.float rng 1.0 < rekey_prob then
          let jitter = Float.max 0.5 (Rng.gaussian rng ~mean:1.0 ~stddev:0.05) in
          let bandwidth = Stdlib.max 1 (int_of_float (float_of_int r.bandwidth *. jitter)) in
          Relay.make ~fingerprint:r.fingerprint ~nickname:r.nickname ~address:r.address
            ~or_port:r.or_port ~dir_port:r.dir_port ~published:(Float.round published)
            ~flags:r.flags ~version:r.version ~protocols:r.protocols ~bandwidth
            ?measured:(Option.map (fun _ -> bandwidth) r.measured)
            ~exit_policy:r.exit_policy ()
        else r)
      survivors
  in
  let n_joining =
    int_of_float (Float.round (float_of_int (List.length ground_truth) *. join_frac))
  in
  let fresh = relays ~rng ~n:n_joining ~published in
  (* Joining relays could collide with survivors only if the RNG
     repeated a 160-bit fingerprint; guard anyway. *)
  let taken = Hashtbl.create (List.length republished) in
  List.iter (fun (r : Relay.t) -> Hashtbl.replace taken r.fingerprint ()) republished;
  republished @ List.filter (fun (r : Relay.t) -> not (Hashtbl.mem taken r.fingerprint)) fresh
