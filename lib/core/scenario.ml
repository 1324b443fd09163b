module Runenv = Protocols.Runenv

type t = { protocol : Experiments.protocol; env : Runenv.t }

type draft = {
  mutable protocol : Experiments.protocol;
  mutable relays : int;
  mutable bandwidth_mbit : float;
  mutable seed : string;
  mutable horizon : float;
  mutable behaviors : (int * Runenv.behavior) list;
  mutable attacks : Runenv.attack list;
  mutable distribution : Torclient.Distribution.config option;
  mutable defense : Defense.Plan.t option;
}

let fresh_draft () =
  {
    protocol = Experiments.Ours;
    relays = 1000;
    bandwidth_mbit = 250.;
    seed = "scenario";
    horizon = 7200.;
    behaviors = [];
    attacks = [];
    distribution = None;
    defense = None;
  }

(* Any distribution directive switches the tier on; later directives
   refine the same config. *)
let dist_config draft =
  Option.value draft.distribution ~default:Torclient.Distribution.default_config

let ( let* ) = Result.bind

let parse_protocol s =
  Option.to_result
    ~none:(Printf.sprintf "unknown protocol %S" s)
    (Exec.Job.protocol_of_name s)

let int_arg s = Option.to_result ~none:(Printf.sprintf "bad integer %S" s) (int_of_string_opt s)
let float_arg s = Option.to_result ~none:(Printf.sprintf "bad number %S" s) (float_of_string_opt s)

(* Directives are space-split, so the crash window rides inside one
   word: [crashed:<start>:<stop>]. *)
(* Defense members ride inside one word, like crash windows:
   [admission:<rate>:<burst>:<backlog>] and [rotate:<out>:<epoch>]
   (optionally [rotate:<out>:<epoch>:<seed>]).  Bare preset names pick
   the committed defaults.  Later directives merge member-wise, so
   [defense admission:…] followed by [defense rotate:…] composes
   both. *)
let parse_defense draft s =
  let current =
    Option.value draft.defense ~default:Defense.Plan.none
  in
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

let parse_behavior s =
  match String.split_on_char ':' s with
  | [ "silent" ] -> Ok Runenv.Silent
  | [ "equivocating" ] -> Ok Runenv.Equivocating
  | [ "honest" ] -> Ok Runenv.Honest
  | [ "crashed"; start; stop ] ->
      let ( let* ) = Result.bind in
      let* start = float_arg start in
      let* stop = float_arg stop in
      if stop < start then Error (Printf.sprintf "crash window %S stops before it starts" s)
      else Ok (Runenv.Crashed { start; stop })
  | _ -> Error (Printf.sprintf "unknown behavior %S" s)

let apply_directive draft = function
  | [ "protocol"; p ] ->
      let* p = parse_protocol p in
      draft.protocol <- p;
      Ok ()
  | [ "relays"; n ] ->
      let* n = int_arg n in
      if n < 0 then Error "relays must be non-negative"
      else begin
        draft.relays <- n;
        Ok ()
      end
  | [ "bandwidth"; b ] ->
      let* b = float_arg b in
      draft.bandwidth_mbit <- b;
      Ok ()
  | [ "seed"; s ] ->
      draft.seed <- s;
      Ok ()
  | [ "horizon"; h ] ->
      let* h = float_arg h in
      draft.horizon <- h;
      Ok ()
  | [ "behavior"; node; b ] ->
      let* node = int_arg node in
      let* b = parse_behavior b in
      draft.behaviors <- (node, b) :: draft.behaviors;
      Ok ()
  | [ "attack"; node; start; stop; residual ] ->
      let* node = int_arg node in
      let* start = float_arg start in
      let* stop = float_arg stop in
      let* residual = float_arg residual in
      draft.attacks <-
        { Runenv.node; start; stop; bits_per_sec = residual *. 1e6 } :: draft.attacks;
      Ok ()
  | [ "flood-majority"; start; stop; residual ] ->
      let* start = float_arg start in
      let* stop = float_arg stop in
      let* residual = float_arg residual in
      draft.attacks <-
        Attack.Ddos.bandwidth_attack ~n:9 ~start ~stop
          ~residual_bits_per_sec:(residual *. 1e6) ()
        @ draft.attacks;
      Ok ()
  | [ "knockout-majority"; start; stop ] ->
      let* start = float_arg start in
      let* stop = float_arg stop in
      draft.attacks <- Attack.Ddos.knockout ~n:9 ~start ~stop () @ draft.attacks;
      Ok ()
  | [ "defense"; d ] ->
      let* plan = parse_defense draft d in
      draft.defense <- Some plan;
      Ok ()
  | [ "clients"; n ] ->
      let* n = int_arg n in
      if n <= 0 then Error "clients must be positive"
      else begin
        draft.distribution <-
          Some { (dist_config draft) with Torclient.Distribution.clients = n };
        Ok ()
      end
  | [ "caches"; n ] ->
      let* n = int_arg n in
      if n <= 0 then Error "caches must be positive"
      else begin
        draft.distribution <-
          Some { (dist_config draft) with Torclient.Distribution.caches = n };
        Ok ()
      end
  | [ "halt"; seconds ] ->
      let* halt = float_arg seconds in
      if halt < 0. then Error "halt must be non-negative"
      else begin
        draft.distribution <-
          Some { (dist_config draft) with Torclient.Distribution.halt };
        Ok ()
      end
  | [ "diffs"; flag ] ->
      let* diffs =
        match flag with
        | "on" -> Ok true
        | "off" -> Ok false
        | s -> Error (Printf.sprintf "diffs must be on or off, not %S" s)
      in
      draft.distribution <-
        Some { (dist_config draft) with Torclient.Distribution.diffs };
      Ok ()
  | words -> Error (Printf.sprintf "unknown directive %S" (String.concat " " words))

let parse text =
  let draft = fresh_draft () in
  let lines = String.split_on_char '\n' text in
  let rec go line_no = function
    | [] -> Ok ()
    | line :: rest -> (
        let content =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let words =
          String.split_on_char ' ' (String.trim content)
          |> List.filter (fun w -> w <> "")
        in
        match words with
        | [] -> go (line_no + 1) rest
        | directive -> (
            match apply_directive draft directive with
            | Ok () -> go (line_no + 1) rest
            | Error e -> Error (Printf.sprintf "line %d: %s" line_no e)))
  in
  let* () = go 1 lines in
  let behaviors = Array.make 9 Runenv.Honest in
  let* () =
    List.fold_left
      (fun acc (node, b) ->
        let* () = acc in
        if node < 0 || node >= 9 then Error (Printf.sprintf "behavior node %d out of range" node)
        else begin
          behaviors.(node) <- b;
          Ok ()
        end)
      (Ok ()) draft.behaviors
  in
  match
    Runenv.of_spec
      {
        Runenv.Spec.default with
        seed = draft.seed;
        n_relays = draft.relays;
        bandwidth_bits_per_sec = draft.bandwidth_mbit *. 1e6;
        attacks = draft.attacks;
        behaviors = Some behaviors;
        distribution = draft.distribution;
        horizon = draft.horizon;
        defense =
          (match draft.defense with
          | Some p when not (Defense.Plan.is_empty p) -> Some p
          | Some _ | None -> None);
      }
  with
  | env -> Ok { protocol = draft.protocol; env }
  | exception Invalid_argument e -> Error e

let run (t : t) = Experiments.run t.protocol t.env

let default_text =
  "# The paper's Figure 1 scenario: the deployed protocol, the live\n\
   # network's scale, and a stressor flood on five of the nine\n\
   # directory authorities during the vote exchange.\n\
   protocol current\n\
   relays 8000\n\
   bandwidth 250\n\
   seed figure-1\n\
   flood-majority 0 300 0.5\n"
