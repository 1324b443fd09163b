module Runenv = Protocols.Runenv
module Dist = Torclient.Distribution

type t = { protocol : Experiments.protocol; spec : Runenv.Spec.t }

let initial =
  { protocol = Experiments.Ours; spec = { Runenv.Spec.default with seed = "scenario" } }

let ( let* ) = Result.bind

let parse_protocol s =
  Option.to_result
    ~none:(Printf.sprintf "unknown protocol %S" s)
    (Exec.Job.protocol_of_name s)

let int_arg s = Option.to_result ~none:(Printf.sprintf "bad integer %S" s) (int_of_string_opt s)
let float_arg s = Option.to_result ~none:(Printf.sprintf "bad number %S" s) (float_of_string_opt s)

(* Directives are space-split, so the crash window rides inside one
   word: [crashed:<start>:<stop>]. *)
let parse_behavior s =
  match String.split_on_char ':' s with
  | [ "silent" ] -> Ok Runenv.Silent
  | [ "equivocating" ] -> Ok Runenv.Equivocating
  | [ "honest" ] -> Ok Runenv.Honest
  | [ "crashed"; start; stop ] ->
      let* start = float_arg start in
      let* stop = float_arg stop in
      Ok (Runenv.Crashed { start; stop })
  | _ -> Error (Printf.sprintf "unknown behavior %S" s)

(* Defense members ride inside one word, like crash windows:
   [admission:<rate>:<burst>:<backlog>] and [rotate:<out>:<epoch>]
   (optionally [rotate:<out>:<epoch>:<seed>]).  Bare preset names pick
   the committed defaults.  A member replaces the same member of
   [current], so [defense admission:…] followed by [defense rotate:…]
   composes both. *)
let parse_defense current s =
  match String.split_on_char ':' s with
  | [ preset ] when Defense.Plan.preset preset <> None ->
      Ok (Option.get (Defense.Plan.preset preset))
  | [ "admission"; rate; burst; backlog ] ->
      let* rate = float_arg rate in
      let* burst = int_arg burst in
      let* backlog = int_arg backlog in
      Ok
        {
          current with
          Defense.Plan.admission = Some { Defense.Admission.rate; burst; backlog };
        }
  | "rotate" :: out :: epoch :: seed ->
      let* out = int_arg out in
      let* epoch = float_arg epoch in
      let* seed =
        match seed with
        | [] -> Ok Defense.Rotation.default.Defense.Rotation.seed
        | [ seed ] -> Ok seed
        | _ -> Error (Printf.sprintf "unknown defense %S" s)
      in
      Ok
        {
          current with
          Defense.Plan.rotation = Some { Defense.Rotation.seed; out; epoch };
        }
  | _ -> Error (Printf.sprintf "unknown defense %S" s)

let with_spec t spec = Ok { t with spec }

(* Attack windows keep directive order. *)
let add_attacks t windows = with_spec t { t.spec with attacks = t.spec.attacks @ windows }

(* Any distribution directive switches the tier on; later directives
   refine the same config. *)
let with_distribution t f =
  let d = Option.value t.spec.distribution ~default:Dist.default_config in
  with_spec t { t.spec with distribution = Some (f d) }

(* One directive, one pure step.  Range checks the whole spec needs
   anyway are left to [Runenv.Spec.validate]. *)
let step t = function
  | [] -> Ok t
  | [ "protocol"; p ] ->
      let* protocol = parse_protocol p in
      Ok { t with protocol }
  | [ "relays"; n ] ->
      let* n_relays = int_arg n in
      with_spec t { t.spec with n_relays }
  | [ "bandwidth"; b ] ->
      let* b = float_arg b in
      with_spec t { t.spec with bandwidth_bits_per_sec = b *. 1e6 }
  | [ "seed"; seed ] -> with_spec t { t.spec with seed }
  | [ "horizon"; h ] ->
      let* horizon = float_arg h in
      with_spec t { t.spec with horizon }
  | [ "behavior"; node; b ] ->
      let* node = int_arg node in
      let* b = parse_behavior b in
      let n = t.spec.n in
      if node < 0 || node >= n then Error (Printf.sprintf "behavior node %d out of range" node)
      else begin
        let behaviors =
          match t.spec.behaviors with
          | Some bs -> Array.copy bs
          | None -> Array.make n Runenv.Honest
        in
        behaviors.(node) <- b;
        with_spec t { t.spec with behaviors = Some behaviors }
      end
  | [ "attack"; node; start; stop; residual ] ->
      let* node = int_arg node in
      let* start = float_arg start in
      let* stop = float_arg stop in
      let* residual = float_arg residual in
      add_attacks t [ { Runenv.node; start; stop; bits_per_sec = residual *. 1e6 } ]
  | [ "flood-majority"; start; stop; residual ] ->
      let* start = float_arg start in
      let* stop = float_arg stop in
      let* residual = float_arg residual in
      add_attacks t
        (Attack.Ddos.bandwidth_attack ~n:t.spec.n ~start ~stop
           ~residual_bits_per_sec:(residual *. 1e6) ())
  | [ "knockout-majority"; start; stop ] ->
      let* start = float_arg start in
      let* stop = float_arg stop in
      add_attacks t (Attack.Ddos.knockout ~n:t.spec.n ~start ~stop ())
  | [ "defense"; d ] ->
      let* plan = parse_defense (Option.value t.spec.defense ~default:Defense.Plan.none) d in
      with_spec t
        { t.spec with defense = (if Defense.Plan.is_empty plan then None else Some plan) }
  | [ "clients"; n ] ->
      let* clients = int_arg n in
      with_distribution t (fun d -> { d with Dist.clients })
  | [ "caches"; n ] ->
      let* caches = int_arg n in
      with_distribution t (fun d -> { d with Dist.caches })
  | [ "halt"; seconds ] ->
      let* halt = float_arg seconds in
      with_distribution t (fun d -> { d with Dist.halt })
  | [ "diffs"; flag ] ->
      let* diffs =
        match flag with
        | "on" -> Ok true
        | "off" -> Ok false
        | s -> Error (Printf.sprintf "diffs must be on or off, not %S" s)
      in
      with_distribution t (fun d -> { d with Dist.diffs })
  | words -> Error (Printf.sprintf "unknown directive %S" (String.concat " " words))

(* The one way directives become a scenario: each applied in order
   from [initial], then the finished spec checked.  [where i] names
   directive [i] in its error; the attack helpers raise on a window
   that stops before it starts. *)
let fold ~where directives =
  let rec go t i = function
    | [] -> (
        match Runenv.Spec.validate t.spec with
        | () -> Ok t
        | exception Invalid_argument e -> Error e)
    | d :: rest -> (
        match step t d with
        | Ok t -> go t (i + 1) rest
        | Error e | (exception Invalid_argument e) -> Error (where i ^ e))
  in
  go initial 0 directives

let of_directives = fold ~where:(fun _ -> "")

let words line =
  let content =
    match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
  in
  String.split_on_char ' ' (String.trim content) |> List.filter (fun w -> w <> "")

let parse text =
  fold
    ~where:(fun i -> Printf.sprintf "line %d: " (i + 1))
    (List.map words (String.split_on_char '\n' text))

let run t = Experiments.run t.protocol (Runenv.of_spec t.spec)

let default_text =
  "# The paper's Figure 1 scenario: the deployed protocol, the live\n\
   # network's scale, and a stressor flood on five of the nine\n\
   # directory authorities during the vote exchange.\n\
   protocol current\n\
   relays 8000\n\
   bandwidth 250\n\
   seed figure-1\n\
   flood-majority 0 300 0.5\n"
