type kind =
  | Drop of { src : int; dst : int; prob : float }
  | Partition of { a : int; b : int }
  | Delay of { src : int; dst : int; max_extra : float }
  | Duplicate of { src : int; dst : int; prob : float }
  | Crash of { node : int }

type fault = { kind : kind; start : float; stop : float }

type plan = { seed : string; faults : fault list }

let any = -1

let empty = { seed = ""; faults = [] }

let crash_nodes plan =
  List.filter_map
    (fun f -> match f.kind with Crash { node } -> Some node | _ -> None)
    plan.faults
  |> List.sort_uniq Int.compare

let clears_at plan =
  List.fold_left (fun acc f -> Float.max acc f.stop) 0. plan.faults

let validate ~n plan =
  let node e name =
    if e <> any && (e < 0 || e >= n) then
      invalid_arg (Printf.sprintf "Fault.validate: %s endpoint %d out of range" name e)
  in
  let prob p name =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Fault.validate: %s probability %g outside [0, 1]" name p)
  in
  List.iter
    (fun f ->
      if not (f.start <= f.stop) then
        invalid_arg "Fault.validate: fault window stops before it starts";
      match f.kind with
      | Drop { src; dst; prob = p } ->
          node src "drop"; node dst "drop"; prob p "drop"
      | Partition { a; b } -> node a "partition"; node b "partition"
      | Delay { src; dst; max_extra } ->
          node src "delay"; node dst "delay";
          if not (max_extra >= 0.) then invalid_arg "Fault.validate: negative delay"
      | Duplicate { src; dst; prob = p } ->
          node src "duplicate"; node dst "duplicate"; prob p "duplicate"
      | Crash { node = e } -> node e "crash")
    plan.faults

(* Same conventions as [Runenv.Spec.canonical]: lossless %h floats,
   length-prefixed strings, one tag character per fault kind. *)
let canonical plan =
  let buf = Buffer.create 128 in
  let f x = Buffer.add_string buf (Printf.sprintf "%h;" x) in
  let i x = Buffer.add_string buf (Printf.sprintf "%d;" x) in
  Buffer.add_string buf (string_of_int (String.length plan.seed));
  Buffer.add_char buf ':';
  Buffer.add_string buf plan.seed;
  Buffer.add_char buf ';';
  i (List.length plan.faults);
  List.iter
    (fun flt ->
      (match flt.kind with
      | Drop { src; dst; prob } -> Buffer.add_char buf 'l'; i src; i dst; f prob
      | Partition { a; b } -> Buffer.add_char buf 'p'; i a; i b
      | Delay { src; dst; max_extra } ->
          Buffer.add_char buf 'j'; i src; i dst; f max_extra
      | Duplicate { src; dst; prob } ->
          Buffer.add_char buf 'd'; i src; i dst; f prob
      | Crash { node } -> Buffer.add_char buf 'c'; i node);
      f flt.start;
      f flt.stop)
    plan.faults;
  Buffer.contents buf

let digest plan = Crypto.Digest32.hex (Crypto.Digest32.of_string (canonical plan))

let pp_endpoint ppf e =
  if e = any then Format.pp_print_char ppf '*' else Format.pp_print_int ppf e

let pp_fault ppf flt =
  let w ppf () = Format.fprintf ppf "%g..%g" flt.start flt.stop in
  match flt.kind with
  | Drop { src; dst; prob } ->
      Format.fprintf ppf "drop[%a>%a,%a,p=%.2f]" pp_endpoint src pp_endpoint dst w () prob
  | Partition { a; b } ->
      Format.fprintf ppf "partition[%a<>%a,%a]" pp_endpoint a pp_endpoint b w ()
  | Delay { src; dst; max_extra } ->
      Format.fprintf ppf "delay[%a>%a,%a,+%gs]" pp_endpoint src pp_endpoint dst w ()
        max_extra
  | Duplicate { src; dst; prob } ->
      Format.fprintf ppf "dup[%a>%a,%a,p=%.2f]" pp_endpoint src pp_endpoint dst w () prob
  | Crash { node } -> Format.fprintf ppf "crash[%d,%a]" node w ()

let pp ppf plan =
  if plan.faults = [] then Format.pp_print_string ppf "(no faults)"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
      pp_fault ppf plan.faults

(* --- runtime injector ---------------------------------------------------- *)

(* Randomness is keyed per message, not drawn from one global stream:
   message number [k] on link (src, dst) gets its own SplitMix64 stream
   seeded by chaining the mixer over (plan seed, src, dst, k).  The
   draws a message sees then depend only on its position in ITS link's
   send sequence — which is the sender's program order — never on how
   sends on different links interleave globally.  The committed chaos
   verdicts and break counts are pinned to this dealing of draws. *)
type t = {
  plan : plan;
  base : int64; (* plan-keyed seed for per-message streams *)
  has_prob : bool; (* any fault kind that consumes draws? *)
  n : int;
  counters : int array; (* n*n per-(src,dst) message counters *)
}

let instantiate plan ~n =
  if n <= 0 then invalid_arg "Fault.instantiate: n must be positive";
  let has_prob =
    List.exists
      (fun f ->
        match f.kind with
        | Drop _ | Delay _ | Duplicate _ -> true
        | Partition _ | Crash _ -> false)
      plan.faults
  in
  {
    plan;
    base = Rng.seed_of_string ("fault:" ^ digest plan);
    has_prob;
    n;
    counters = Array.make (n * n) 0;
  }

type decision = { drop : bool; extra_delay : float; duplicate : bool }

let pass = { drop = false; extra_delay = 0.; duplicate = false }

let matches pat v = pat = any || pat = v

let active flt ~now = now >= flt.start && now < flt.stop

let message_stream t ~src ~dst =
  let i = (src * t.n) + dst in
  let k = t.counters.(i) in
  t.counters.(i) <- k + 1;
  let s = Rng.mix64 (Int64.add t.base (Int64.of_int (src + 1))) in
  let s = Rng.mix64 (Int64.add s (Int64.of_int (dst + 1))) in
  Rng.create (Rng.mix64 (Int64.add s (Int64.of_int k)))

(* Every matching probabilistic fault consumes its draw, even when the
   message is already doomed: the draw sequence within a message then
   depends only on the plan, never on which earlier fault fired first.
   The per-link counter advances on every call whether or not a fault
   is currently active, so a message's stream depends only on its link
   sequence number. *)
let decide t ~now ~src ~dst =
  let rng = if t.has_prob then Some (message_stream t ~src ~dst) else None in
  let draw bound =
    match rng with Some r -> Rng.float r bound | None -> assert false
  in
  let drop = ref false and extra = ref 0. and dup = ref false in
  List.iter
    (fun flt ->
      if active flt ~now then
        match flt.kind with
        | Drop { src = s; dst = d; prob } ->
            if matches s src && matches d dst && draw 1. < prob then drop := true
        | Partition { a; b } ->
            if (a = src && b = dst) || (a = dst && b = src) then drop := true
        | Delay { src = s; dst = d; max_extra } ->
            if matches s src && matches d dst then extra := !extra +. draw max_extra
        | Duplicate { src = s; dst = d; prob } ->
            if matches s src && matches d dst && draw 1. < prob then dup := true
        | Crash _ -> ())
    t.plan.faults;
  if (not !drop) && !extra = 0. && not !dup then pass
  else { drop = !drop; extra_delay = !extra; duplicate = !dup }

let crashed t ~node ~now =
  List.exists
    (fun flt ->
      match flt.kind with
      | Crash { node = e } -> e = node && active flt ~now
      | _ -> false)
    t.plan.faults
