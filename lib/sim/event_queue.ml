(* Struct-of-arrays binary heap.  The comparison key (time, key) lives
   in two parallel scalar arrays — an unboxed [float array] for times
   and an [int array] for the caller's tie-break keys — so sift
   comparisons read flat memory instead of chasing a pointer to a boxed
   entry record per slot.  Payloads sit in a third parallel array that
   the sifts move in lock-step but never inspect. *)

type 'a t = {
  mutable times : float array;
  mutable keys : int array;
  mutable payloads : 'a array;
  mutable size : int;
  dummy : 'a; (* fills every slot that holds no queued payload *)
}

let create ~dummy = { times = [||]; keys = [||]; payloads = [||]; size = 0; dummy }

(* Does slot [i]'s key precede the explicit key [(time, key)]? *)
let precedes_key q i time key =
  q.times.(i) < time || (q.times.(i) = time && q.keys.(i) < key)

let grow q =
  let capacity = Array.length q.times in
  if q.size = capacity then begin
    let fresh = max 16 (capacity * 2) in
    let times = Array.make fresh 0. in
    let keys = Array.make fresh 0 in
    let payloads = Array.make fresh q.dummy in
    Array.blit q.times 0 times 0 q.size;
    Array.blit q.keys 0 keys 0 q.size;
    Array.blit q.payloads 0 payloads 0 q.size;
    q.times <- times;
    q.keys <- keys;
    q.payloads <- payloads
  end

(* Hole-based sifts: walk the hole to its final position moving keys
   one way, then write the carried entry once — one store per level
   instead of a three-array swap per level. *)

let sift_up q i time key payload =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if precedes_key q parent time key then continue := false
    else begin
      q.times.(!i) <- q.times.(parent);
      q.keys.(!i) <- q.keys.(parent);
      q.payloads.(!i) <- q.payloads.(parent);
      i := parent
    end
  done;
  q.times.(!i) <- time;
  q.keys.(!i) <- key;
  q.payloads.(!i) <- payload

let sift_down q time key payload =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    if l >= q.size then continue := false
    else begin
      (* smaller of the two children *)
      let c =
        if r < q.size && precedes_key q r q.times.(l) q.keys.(l) then r else l
      in
      if precedes_key q c time key then begin
        q.times.(!i) <- q.times.(c);
        q.keys.(!i) <- q.keys.(c);
        q.payloads.(!i) <- q.payloads.(c);
        i := c
      end
      else continue := false
    end
  done;
  q.times.(!i) <- time;
  q.keys.(!i) <- key;
  q.payloads.(!i) <- payload

let push_keyed q ~time ~key payload =
  if Float.is_nan time || Simtime.is_infinite time then
    invalid_arg "Event_queue.push_keyed: time must be finite";
  grow q;
  q.size <- q.size + 1;
  sift_up q (q.size - 1) time key payload

(* Remove the root, re-heapifying with the last slot's entry.  The
   vacated slot gets the dummy, as every spare slot has since [grow]
   made it, so the array never keeps a popped payload alive. *)
let pop_if_before q ~horizon =
  if q.size = 0 || q.times.(0) > horizon then q.dummy
  else begin
    let payload = q.payloads.(0) in
    q.size <- q.size - 1;
    let lt = q.times.(q.size) and lk = q.keys.(q.size) and lp = q.payloads.(q.size) in
    q.payloads.(q.size) <- q.dummy;
    if q.size > 0 then sift_down q lt lk lp;
    payload
  end

let size q = q.size
