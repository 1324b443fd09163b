type config = { seed : string; out : int; epoch : float }

(* out=1 removes the least capacity the schedule allows (one of nine
   authorities), and a 100 s epoch is short enough that no single epoch
   covers a whole v3 fetch round (150 s) — a rotated-out authority is
   always back in time to answer the round's remaining retries.
   Measured on the 200-plan chaos campaign, this is the setting where
   rotation strictly reduces v3 breaks (41 -> 40); the reduction is
   stable for epochs in [90, 130]. *)
let default = { seed = "mptc"; out = 1; epoch = 100. }

let validate ~n config =
  if not (config.epoch > 0.) then
    invalid_arg "Defense.Rotation.validate: epoch must be positive";
  if config.out < 0 then
    invalid_arg "Defense.Rotation.validate: out must be non-negative";
  if config.out >= n then
    invalid_arg
      "Defense.Rotation.validate: out must leave at least one authority active"

let canonical config =
  let buf = Buffer.create 32 in
  Buffer.add_char buf 'r';
  Buffer.add_string buf (string_of_int (String.length config.seed));
  Buffer.add_char buf ':';
  Buffer.add_string buf config.seed;
  Buffer.add_char buf ';';
  Buffer.add_string buf (Printf.sprintf "%d;%h;" config.out config.epoch);
  Buffer.contents buf

let pp ppf config =
  Format.fprintf ppf "rotate[out=%d,epoch=%gs,seed=%s]" config.out config.epoch
    config.seed

let epoch_of config ~now = int_of_float (Float.floor (now /. config.epoch))

(* The epoch's quiet subset: rank every node by a seeded digest of
   (seed, epoch, node) and take the [out] smallest (ties impossible —
   the digests differ — but the node id breaks them anyway).  Random
   keys give a uniform random subset, fresh per epoch, with no RNG
   stream to thread: membership is a pure function of (config, n,
   epoch). *)
let out_nodes config ~n ~epoch =
  if config.out = 0 then []
  else begin
    let score i =
      Crypto.Digest32.hex
        (Crypto.Digest32.of_string
           (Printf.sprintf "rotation:%s:%d:%d" config.seed epoch i))
    in
    let ranked = List.init n (fun i -> (score i, i)) in
    let ranked = List.sort compare ranked in
    List.filteri (fun k _ -> k < config.out) ranked |> List.map snd
  end

let quiet_at config ~n ~node ~now =
  List.mem node (out_nodes config ~n ~epoch:(epoch_of config ~now))

(* Memoized membership for the per-message hot paths. *)
type t = {
  config : config;
  n : int;
  mutable epoch : int; (* epoch the [quiet] array reflects; -1 = none *)
  quiet_set : bool array;
}

let instantiate config ~n =
  validate ~n config;
  { config; n; epoch = -1; quiet_set = Array.make n false }

let quiet t ~node ~now =
  let e = epoch_of t.config ~now in
  if e <> t.epoch then begin
    Array.fill t.quiet_set 0 t.n false;
    List.iter
      (fun i -> t.quiet_set.(i) <- true)
      (out_nodes t.config ~n:t.n ~epoch:e);
    t.epoch <- e
  end;
  t.quiet_set.(node)
