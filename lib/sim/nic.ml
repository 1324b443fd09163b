(* Breakpoints live in a pair of parallel arrays sorted by time (the
   append-in-order invariant makes them sorted for free), each grown by
   one slot per breakpoint.  The active segment for a time [t] is the
   HIGHEST index with [times.(i) <= t] — among duplicate times the
   latest-appended entry wins.  A NIC holds two breakpoints per attack
   window, so one forward scan finds it. *)

type t = {
  base_rate : float; (* bytes per second before the first breakpoint *)
  mutable times : float array;
  mutable rates : float array; (* bytes per second *)
  mutable busy_until : Simtime.t;
}

let bytes_rate bits = bits /. 8.

let create ~bits_per_sec () =
  if bits_per_sec < 0. then invalid_arg "Nic.create: negative rate";
  {
    base_rate = bytes_rate bits_per_sec;
    times = [||];
    rates = [||];
    busy_until = Simtime.zero;
  }

let n_bp t = Array.length t.times

let last_breakpoint_time t = if n_bp t = 0 then Simtime.zero else t.times.(n_bp t - 1)

let set_rate t ~from ~bits_per_sec =
  if bits_per_sec < 0. then invalid_arg "Nic.set_rate: negative rate";
  if from < last_breakpoint_time t then
    invalid_arg "Nic.set_rate: breakpoints must be appended in time order";
  t.times <- Array.append t.times [| from |];
  t.rates <- Array.append t.rates [| bytes_rate bits_per_sec |]

(* Highest index with [times.(i) <= time], or -1 for the base rate. *)
let segment t time =
  let i = ref (-1) in
  while !i + 1 < n_bp t && t.times.(!i + 1) <= time do incr i done;
  !i

let seg_rate t i = if i < 0 then t.base_rate else t.rates.(i)

let byte_rate_at t time = seg_rate t (segment t time)
let rate_at t time = byte_rate_at t time *. 8.

let limit_window t ~start ~stop ~bits_per_sec =
  if stop < start then invalid_arg "Nic.limit_window: stop before start";
  let restored = byte_rate_at t stop *. 8. in
  set_rate t ~from:start ~bits_per_sec;
  set_rate t ~from:stop ~bits_per_sec:restored

(* Walk the piecewise-constant schedule consuming [bytes] from
   [start]; returns the completion time.  The
   arithmetic (capacity per segment, the final division) matches the
   list-walk reference in the tests operation for operation, so
   completion times are bit-identical. *)
let finish_at t ~start ~bytes =
  let i = ref (segment t start) in
  let time = ref start in
  let remaining = ref (float_of_int bytes) in
  let result = ref Simtime.never in
  let running = ref (!remaining > 0.) in
  if not !running then result := !time;
  while !running do
    let rate = seg_rate t !i in
    if !i + 1 >= n_bp t then begin
      result := (if rate <= 0. then Simtime.never else !time +. (!remaining /. rate));
      running := false
    end
    else begin
      let change = t.times.(!i + 1) in
      if rate <= 0. then begin
        time := change;
        incr i;
        while !i + 1 < n_bp t && t.times.(!i + 1) <= !time do incr i done
      end
      else begin
        let capacity = rate *. (change -. !time) in
        if !remaining <= capacity then begin
          result := !time +. (!remaining /. rate);
          running := false
        end
        else begin
          remaining := !remaining -. capacity;
          time := change;
          incr i;
          while !i + 1 < n_bp t && t.times.(!i + 1) <= !time do incr i done
        end
      end
    end
  done;
  !result

(* Completion time of [bytes] queued behind everything reserved. *)
let finish_time t ~now ~bytes =
  let start = Float.max now t.busy_until in
  if Simtime.is_infinite start then Simtime.never
  else finish_at t ~start ~bytes

let transfer_time t ~now ~bytes =
  if bytes < 0 then invalid_arg "Nic.transfer_time: negative size";
  finish_time t ~now ~bytes

let reserve t ~now ~bytes =
  if bytes < 0 then invalid_arg "Nic.reserve: negative size";
  let finish = finish_time t ~now ~bytes in
  t.busy_until <- finish;
  finish

let busy_until t = t.busy_until
