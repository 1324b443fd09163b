(* Cohort-based distribution tier.  One event per cohort attempt, not
   per client: a cohort expands a single fetch-schedule sample into a
   batched download for all of its members, so a million clients cost
   a few thousand events.  Caches serialize downloads at their egress
   rate through a busy-until watermark; a cohort that would queue
   longer than the client timeout gives up and retries with
   exponential backoff — attempts made while the directory is still
   down (the halt window) fail the same way, which is what winds the
   backoff up before the flash crowd hits. *)

module Engine = Tor_sim.Engine
module Rng = Tor_sim.Rng

type config = { clients : int; caches : int; halt : float; diffs : bool }

let default_config = { clients = 1_000_000; caches = 16; halt = 0.; diffs = true }

(* Fixed parameters: client aggregates per cache; the window (s) over
   which cohorts spread their first fetch; the first retry delay (s),
   its backoff factor and cap; the queue delay (s) after which a client
   abandons an attempt; each cache's egress rate.  [canonical_config]
   writes them too, so they take part in the RNG seed. *)
let cohorts_per_cache = 64
let fetch_spread = 1800.
let retry_initial = 60.
let retry_multiplier = 2.
let retry_max = 600.
let client_timeout = 30.
let cache_bandwidth_bits_per_sec = 1e9

(* The largest client population a run accepts: 1,000x the paper's
   million-client crowd.  [run] counts client-weighted bytes and
   attempts in plain ints (cohort size x per-client bytes, [9 * clients]),
   and this bound keeps them far inside the 63-bit range. *)
let max_clients = 1_000_000_000

(* The most caches a run accepts: above the live network's mean of
   7,142 relays, each of which may serve as a directory cache.  [run]
   sizes per-cache arrays and [caches * cohorts_per_cache] cohorts by
   the count, and its cost grows with the cohort count. *)
let max_caches = 10_000

(* The longest halt a run accepts: one week, 56x the paper's 3 h.
   Cohorts retry from the outage start, about [halt / retry_max] times
   each, so a run's cost grows linearly with [halt]. *)
let max_halt = 604_800.

let validate_config c =
  if c.clients <= 0 then invalid_arg "Distribution: clients must be positive";
  if c.clients > max_clients then
    invalid_arg (Printf.sprintf "Distribution: clients must be at most %d" max_clients);
  if c.caches <= 0 then invalid_arg "Distribution: caches must be positive";
  if c.caches > max_caches then
    invalid_arg (Printf.sprintf "Distribution: caches must be at most %d" max_caches);
  if c.halt < 0. then invalid_arg "Distribution: negative halt";
  if not (Float.is_finite c.halt) then invalid_arg "Distribution: halt must be finite";
  if c.halt > max_halt then
    invalid_arg (Printf.sprintf "Distribution: halt must be at most %.0f s" max_halt)

(* Same conventions as [Runenv.Spec.canonical]: %d for ints, %h for a
   lossless float image.  Embedded whole into the spec's canonical
   form, so any distribution change flips the spec digest. *)
let canonical_config c =
  let b = Buffer.create 128 in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  let d x = Buffer.add_string b (Printf.sprintf "%d;" x) in
  d c.clients;
  d c.caches;
  d cohorts_per_cache;
  f c.halt;
  f fetch_spread;
  f retry_initial;
  f retry_multiplier;
  f retry_max;
  f client_timeout;
  f cache_bandwidth_bits_per_sec;
  Buffer.add_string b (if c.diffs then "diffs;" else "full;");
  Buffer.contents b

type outcome = {
  clients : int;
  caches : int;
  cohorts : int;
  available_at : float;
  time_to_90pct_fresh : float option;
  time_to_full_recovery : float option;
  bytes_served : int;
  bytes_per_cache : float;
  bytes_per_cache_max : int;
  full_fetches : int;
  diff_fetches : int;
  failed_attempts : int;
}

let run (c : config) ~available_at ~full_bytes ~diff_bytes ~horizon =
  validate_config c;
  if full_bytes <= 0 then invalid_arg "Distribution.run: full_bytes must be positive";
  if available_at < 0. then invalid_arg "Distribution.run: negative available_at";
  let rng = Rng.of_string_seed ("distribution|" ^ canonical_config c) in
  let eng = Engine.create () in
  let n_cohorts = c.caches * cohorts_per_cache in
  (* Remainder clients go one-per-cohort to the first few cohorts so
     sizes sum exactly to [c.clients]. *)
  let base = c.clients / n_cohorts and rem = c.clients mod n_cohorts in
  let cohort_size i = base + if i < rem then 1 else 0 in
  (* Caches mirror the document from upstream: fetchable once their
     own full-document download completes, with a little jitter. *)
  let upstream = 8. *. float_of_int full_bytes /. cache_bandwidth_bits_per_sec in
  let ready =
    Array.init c.caches (fun _ -> available_at +. Rng.float rng 5. +. upstream)
  in
  let busy_until = Array.map (fun t -> t) ready in
  let bytes_cache = Array.make c.caches 0 in
  let per_client_bytes =
    match diff_bytes with Some d when c.diffs -> d | _ -> full_bytes
  in
  let serving_diffs = match diff_bytes with Some _ when c.diffs -> true | _ -> false in
  let fresh = ref 0 in
  let need90 = ((9 * c.clients) + 9) / 10 in
  let t90 = ref None and tfull = ref None in
  let full_fetches = ref 0 and diff_fetches = ref 0 and failed = ref 0 in
  let rec attempt cohort ~backoff () =
    let size = cohort_size cohort in
    let cache = cohort mod c.caches in
    let now = Engine.now eng in
    let retry () =
      incr_failed size;
      (* Jittered backoff (x0.75..1.25) keeps cohorts from
         re-synchronizing on the exact same retry slot. *)
      let delay = backoff *. (0.75 +. Rng.float rng 0.5) in
      let backoff = Float.min retry_max (backoff *. retry_multiplier) in
      if now +. delay <= horizon then
        ignore (Engine.schedule eng ~at:(now +. delay) (attempt cohort ~backoff))
    in
    if now < ready.(cache) then retry ()
    else begin
      let start = Float.max now busy_until.(cache) in
      if start -. now > client_timeout then retry ()
      else begin
        let bytes = size * per_client_bytes in
        let transfer = 8. *. float_of_int bytes /. cache_bandwidth_bits_per_sec in
        busy_until.(cache) <- start +. transfer;
        bytes_cache.(cache) <- bytes_cache.(cache) + bytes;
        if serving_diffs then diff_fetches := !diff_fetches + size
        else full_fetches := !full_fetches + size;
        let finish = busy_until.(cache) in
        ignore
          (Engine.schedule eng ~at:finish (fun () ->
               fresh := !fresh + size;
               let t = Engine.now eng -. available_at in
               if !t90 = None && !fresh >= need90 then t90 := Some t;
               if !tfull = None && !fresh >= c.clients then tfull := Some t))
      end
    end
  and incr_failed size = failed := !failed + size in
  (* Cohorts schedule their first attempt uniformly over the fetch
     window, which opens when the outage began — during a halt they
     fail against still-empty caches and wind up their backoff, so
     availability meets a population already in retry-storm mode. *)
  let window_open = Float.max 0. (available_at -. c.halt) in
  for cohort = 0 to n_cohorts - 1 do
    if cohort_size cohort > 0 then begin
      let at = window_open +. Rng.float rng fetch_spread in
      if at <= horizon then
        ignore (Engine.schedule eng ~at (attempt cohort ~backoff:retry_initial))
    end
  done;
  Engine.run eng ~until:horizon;
  let bytes_served = Array.fold_left ( + ) 0 bytes_cache in
  let bytes_per_cache_max = Array.fold_left max 0 bytes_cache in
  {
    clients = c.clients;
    caches = c.caches;
    cohorts = n_cohorts;
    available_at;
    time_to_90pct_fresh = !t90;
    time_to_full_recovery = !tfull;
    bytes_served;
    bytes_per_cache = float_of_int bytes_served /. float_of_int c.caches;
    bytes_per_cache_max;
    full_fetches = !full_fetches;
    diff_fetches = !diff_fetches;
    failed_attempts = !failed;
  }
