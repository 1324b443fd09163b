(* Breakpoints live in a pair of parallel arrays sorted by time (the
   append-in-order invariant makes them sorted for free) instead of the
   previous reversed cons-list, which every rate lookup walked end to
   end.  The active segment for a time [t] is the HIGHEST index with
   [times.(i) <= t] — among duplicate times the latest-appended entry
   wins, exactly the newest-first semantics of the old list.

   [cursor] caches the active segment of the last committed
   reservation.  Reservation start times are monotone ([start = max now
   busy_until] and [busy_until] never decreases), so the reserve path
   only ever scans the array forward from the cursor: a whole attack
   window's worth of [limit_window] breakpoints is crossed once,
   amortized O(1) per reserve.  Non-committing lookups ([rate_at],
   [transfer_time] at planner-chosen times) may look anywhere, so they
   fall back to binary search and leave the cursor alone.  Appends keep
   the cursor valid: new breakpoints land strictly at or after every
   existing one. *)

type t = {
  base_rate : float; (* bytes per second before the first breakpoint *)
  mutable times : float array;
  mutable rates : float array; (* bytes per second *)
  mutable n_bp : int;
  mutable cursor : int; (* active segment of the last reserve; -1 = base *)
  mutable busy_until : Simtime.t;
}

let bytes_rate bits = bits /. 8.

let create ~bits_per_sec () =
  if bits_per_sec < 0. then invalid_arg "Nic.create: negative rate";
  {
    base_rate = bytes_rate bits_per_sec;
    times = [||];
    rates = [||];
    n_bp = 0;
    cursor = -1;
    busy_until = Simtime.zero;
  }

let last_breakpoint_time t = if t.n_bp = 0 then Simtime.zero else t.times.(t.n_bp - 1)

let set_rate t ~from ~bits_per_sec =
  if bits_per_sec < 0. then invalid_arg "Nic.set_rate: negative rate";
  if from < last_breakpoint_time t then
    invalid_arg "Nic.set_rate: breakpoints must be appended in time order";
  if t.n_bp = Array.length t.times then begin
    let fresh = max 8 (2 * t.n_bp) in
    let times = Array.make fresh 0. and rates = Array.make fresh 0. in
    Array.blit t.times 0 times 0 t.n_bp;
    Array.blit t.rates 0 rates 0 t.n_bp;
    t.times <- times;
    t.rates <- rates
  end;
  t.times.(t.n_bp) <- from;
  t.rates.(t.n_bp) <- bytes_rate bits_per_sec;
  t.n_bp <- t.n_bp + 1

(* Highest index with [times.(i) <= time], or -1: binary search, no
   cursor movement. *)
let seg_search t time =
  let lo = ref (-1) and hi = ref (t.n_bp - 1) in
  (* invariant: times.(lo) <= time < times.(hi + 1) conceptually *)
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.times.(mid) <= time then lo := mid else hi := mid - 1
  done;
  !lo

(* Active segment starting the scan at [hint] when [time] is not
   behind it. *)
let seg_from t ~hint time =
  if t.n_bp = 0 then -1
  else begin
    let i = ref (if hint >= 0 && hint < t.n_bp && t.times.(hint) <= time then hint else seg_search t time) in
    while !i + 1 < t.n_bp && t.times.(!i + 1) <= time do incr i done;
    !i
  end

let seg_rate t i = if i < 0 then t.base_rate else t.rates.(i)

let byte_rate_at t time = seg_rate t (seg_from t ~hint:(-1) time)
let rate_at t time = byte_rate_at t time *. 8.

let limit_window t ~start ~stop ~bits_per_sec =
  if stop < start then invalid_arg "Nic.limit_window: stop before start";
  let restored = byte_rate_at t stop *. 8. in
  set_rate t ~from:start ~bits_per_sec;
  set_rate t ~from:stop ~bits_per_sec:restored

(* Walk the piecewise-constant schedule consuming [bytes] starting at
   [start]; returns the completion time and the segment it lands in.
   The arithmetic (capacity per segment, the final division) matches
   the old list walk operation for operation, so completion times are
   bit-identical. *)
let finish_in_segments t ~seg ~start ~bytes =
  let i = ref seg in
  let time = ref start in
  let remaining = ref (float_of_int bytes) in
  let result = ref Simtime.never in
  let running = ref (!remaining > 0.) in
  if not !running then result := !time;
  while !running do
    let rate = seg_rate t !i in
    if !i + 1 >= t.n_bp then begin
      result := (if rate <= 0. then Simtime.never else !time +. (!remaining /. rate));
      running := false
    end
    else begin
      let change = t.times.(!i + 1) in
      if rate <= 0. then begin
        time := change;
        incr i;
        while !i + 1 < t.n_bp && t.times.(!i + 1) <= !time do incr i done
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
          while !i + 1 < t.n_bp && t.times.(!i + 1) <= !time do incr i done
        end
      end
    end
  done;
  (!result, !i)

let transfer_time t ~now ~bytes =
  if bytes < 0 then invalid_arg "Nic.transfer_time: negative size";
  let start = Float.max now t.busy_until in
  if Simtime.is_infinite start then Simtime.never
  else
    let seg = seg_from t ~hint:(-1) start in
    fst (finish_in_segments t ~seg ~start ~bytes)

let reserve t ~now ~bytes =
  if bytes < 0 then invalid_arg "Nic.transfer_time: negative size";
  let start = Float.max now t.busy_until in
  if Simtime.is_infinite start then begin
    t.busy_until <- Simtime.never;
    Simtime.never
  end
  else begin
    let seg = seg_from t ~hint:t.cursor start in
    let finish, seg' = finish_in_segments t ~seg ~start ~bytes in
    t.cursor <- seg';
    t.busy_until <- finish;
    finish
  end

let busy_until t = t.busy_until
