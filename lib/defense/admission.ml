type config = { rate : float; burst : int; backlog : int }

let default = { rate = 2.; burst = 32; backlog = 64 }

let validate c =
  if not (c.rate > 0.) then
    invalid_arg "Defense.Admission.validate: rate must be positive";
  if c.burst < 1 then
    invalid_arg "Defense.Admission.validate: burst must be at least 1";
  if c.backlog < 0 then
    invalid_arg "Defense.Admission.validate: backlog must be non-negative"

(* Same conventions as [Fault.canonical]: lossless %h floats, one tag
   character, ';' separators. *)
let canonical c =
  Printf.sprintf "a%h;%d;%d;" c.rate c.burst c.backlog

let pp ppf c =
  Format.fprintf ppf "admission[rate=%g/s,burst=%d,backlog=%d]" c.rate c.burst
    c.backlog

(* Virtual scheduling (GCRA): one theoretical-arrival-time cursor per
   (dst, src) pair.  A message at [now] conforms when
   [now >= tat - tolerance] with [tolerance = (burst - 1) / rate]; a
   conforming message advances the cursor by one token period.  The
   arithmetic is pure float compare-and-add — no RNG, no global state —
   so the verdict stream is a function of the arrival order alone. *)
type t = {
  config : config;
  period : float; (* seconds per token, 1 / rate *)
  tolerance : float; (* burst allowance, (burst - 1) * period *)
  n : int;
  tat : float array; (* n*n theoretical arrival times *)
  queued : int array; (* n*n deferred messages holding a slot *)
}

let instantiate config ~n =
  validate config;
  if n <= 0 then invalid_arg "Defense.Admission.instantiate: n must be positive";
  {
    config;
    period = 1. /. config.rate;
    tolerance = float_of_int (config.burst - 1) /. config.rate;
    n;
    tat = Array.make (n * n) 0.;
    queued = Array.make (n * n) 0;
  }

type verdict = Admit | Defer of float | Reject

let decide t ~now ~dst ~src =
  let i = (dst * t.n) + src in
  let tat = t.tat.(i) in
  if now >= tat -. t.tolerance then begin
    (* Conforming: spend one token.  [max] keeps idle pairs from
       banking more than [burst] tokens of credit. *)
    t.tat.(i) <- Float.max tat now +. t.period;
    Admit
  end
  else if t.queued.(i) < t.config.backlog then begin
    (* Over budget but the bounded backlog has room: the message holds
       a slot and is granted exactly at its conform time.  Reserving
       the cursor here keeps the queue FIFO — later messages of the
       pair get strictly later grants. *)
    t.queued.(i) <- t.queued.(i) + 1;
    t.tat.(i) <- tat +. t.period;
    Defer (tat -. t.tolerance)
  end
  else Reject

let drain t ~dst ~src =
  let i = (dst * t.n) + src in
  if t.queued.(i) <= 0 then invalid_arg "Defense.Admission.drain: empty backlog";
  t.queued.(i) <- t.queued.(i) - 1

let queued t ~dst ~src = t.queued.((dst * t.n) + src)
