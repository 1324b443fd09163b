(* Struct-of-arrays binary heap.  The comparison key (time, seq) lives
   in two parallel scalar arrays — an unboxed [float array] for times
   and an [int array] for the FIFO tie-break — so sift comparisons read
   flat memory instead of chasing a pointer to a boxed entry record per
   slot.  Payloads sit in a third parallel array that the sifts move in
   lock-step but never inspect. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

(* Does slot [i]'s key precede the explicit key [(time, seq)]? *)
let precedes_key q i time seq =
  q.times.(i) < time || (q.times.(i) = time && q.seqs.(i) < seq)

let grow q payload =
  let capacity = Array.length q.times in
  if q.size = capacity then begin
    let fresh = max 16 (capacity * 2) in
    let times = Array.make fresh 0. in
    let seqs = Array.make fresh 0 in
    let payloads = Array.make fresh payload in
    Array.blit q.times 0 times 0 q.size;
    Array.blit q.seqs 0 seqs 0 q.size;
    Array.blit q.payloads 0 payloads 0 q.size;
    q.times <- times;
    q.seqs <- seqs;
    q.payloads <- payloads
  end

(* Hole-based sifts: walk the hole to its final position moving keys
   one way, then write the carried entry once — one store per level
   instead of a three-array swap per level. *)

let sift_up q i time seq payload =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if precedes_key q parent time seq then continue := false
    else begin
      q.times.(!i) <- q.times.(parent);
      q.seqs.(!i) <- q.seqs.(parent);
      q.payloads.(!i) <- q.payloads.(parent);
      i := parent
    end
  done;
  q.times.(!i) <- time;
  q.seqs.(!i) <- seq;
  q.payloads.(!i) <- payload

let sift_down q time seq payload =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    if l >= q.size then continue := false
    else begin
      (* smaller of the two children *)
      let c =
        if r < q.size && precedes_key q r q.times.(l) q.seqs.(l) then r else l
      in
      if precedes_key q c time seq then begin
        q.times.(!i) <- q.times.(c);
        q.seqs.(!i) <- q.seqs.(c);
        q.payloads.(!i) <- q.payloads.(c);
        i := c
      end
      else continue := false
    end
  done;
  q.times.(!i) <- time;
  q.seqs.(!i) <- seq;
  q.payloads.(!i) <- payload

let push q ~time payload =
  if Float.is_nan time || Simtime.is_infinite time then
    invalid_arg "Event_queue.push: time must be finite";
  let seq = q.next_seq in
  q.next_seq <- q.next_seq + 1;
  grow q payload;
  q.size <- q.size + 1;
  sift_up q (q.size - 1) time seq payload

(* Like [push] but with a caller-chosen tie-break key instead of the
   queue's own insertion counter.  The engine derives keys from
   (creator node, per-creator counter), which makes the pop order at
   equal times independent of the global push order. *)
let push_keyed q ~time ~key payload =
  if Float.is_nan time || Simtime.is_infinite time then
    invalid_arg "Event_queue.push: time must be finite";
  grow q payload;
  q.size <- q.size + 1;
  sift_up q (q.size - 1) time key payload

(* Remove the root, re-heapifying with the last slot's entry.  The
   vacated slot keeps the popped payload (it is a value the caller now
   owns, so the array never retains a payload longer than the pop that
   freed it). *)
let pop_root q =
  let time = q.times.(0) and payload = q.payloads.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    let lt = q.times.(q.size) and ls = q.seqs.(q.size) and lp = q.payloads.(q.size) in
    q.payloads.(q.size) <- payload;
    sift_down q lt ls lp
  end;
  (time, payload)

let pop q =
  if q.size = 0 then None
  else
    let time, payload = pop_root q in
    Some (time, payload)

let pop_if_before q ~horizon ~default =
  if q.size = 0 || q.times.(0) > horizon then default
  else snd (pop_root q)

let size q = q.size
let is_empty q = q.size = 0
