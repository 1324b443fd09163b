(* One record per event; its handle is the record itself.

   Determinism: equal-time events pop in ascending (creator, counter)
   key order, where the creator is the node owning the event that
   scheduled them and the counter is per-creator.  The keys fix the
   order of same-instant events — and with it every fault draw and
   tie in the committed outputs — by what each node did, not by the
   order the queue happened to see the pushes (DESIGN.md §7). *)

(* Tie-break key: (creator + 1) in the high bits, the creator's event
   counter below.  38 bits of counter per creator, creator ids to 2^24
   — the key stays a positive OCaml int. *)
let key_seq_bits = 38

type event = {
  time : Simtime.t;
  owner : int; (* node the event belongs to; -1 for none *)
  action : unit -> unit;
  mutable cancelled : bool;
}

type handle = event

(* The queue's dummy: what [Event_queue.pop_if_before] returns when
   nothing is due. *)
let none = { time = Simtime.zero; owner = -1; action = ignore; cancelled = true }

type t = {
  mutable clock : Simtime.t;
  queue : event Event_queue.t;
  mutable cur_owner : int; (* owner of the executing event; -1 outside *)
  nodes : int; (* owner range [-1, nodes); 0 = unchecked *)
  mutable counters : int array; (* per-creator event counters, slot = creator+1 *)
}

let create ?(nodes = 0) () =
  if nodes < 0 then invalid_arg "Engine.create: negative nodes";
  {
    clock = Simtime.zero;
    queue = Event_queue.create ~dummy:none;
    cur_owner = -1;
    nodes;
    counters = Array.make (nodes + 1) 0;
  }

let now t = t.clock

(* Engines created with [nodes = 0] accept any owner, so their creator
   slots may outgrow the preallocated [nodes + 1]. *)
let ensure_counters t slot =
  if slot >= Array.length t.counters then begin
    let fresh = Array.make (max (slot + 1) (2 * Array.length t.counters)) 0 in
    Array.blit t.counters 0 fresh 0 (Array.length t.counters);
    t.counters <- fresh
  end

(* The next (creator, counter) key of the executing event's owner. *)
let next_key t =
  let slot = t.cur_owner + 1 in
  ensure_counters t slot;
  let seq = t.counters.(slot) in
  t.counters.(slot) <- seq + 1;
  (slot lsl key_seq_bits) lor seq

let schedule t ?owner ~at action =
  let owner = match owner with Some o -> o | None -> t.cur_owner in
  let key = next_key t in
  if at < t.clock then invalid_arg "Engine.schedule: time is in the past";
  if owner < -1 || (t.nodes > 0 && owner >= t.nodes) then
    invalid_arg "Engine.schedule: owner out of range";
  let ev = { time = at; owner; action; cancelled = false } in
  Event_queue.push_keyed t.queue ~time:at ~key ev;
  ev

let schedule_in t ?owner ~after action =
  if after < 0. then invalid_arg "Engine.schedule_in: negative delay";
  schedule t ?owner ~at:(Simtime.add t.clock after) action

(* A fired event is out of the queue, so marking it is a no-op too. *)
let cancel _t ev = ev.cancelled <- true

let run ?until t =
  let horizon = Option.value until ~default:Simtime.never in
  let rec loop () =
    let ev = Event_queue.pop_if_before t.queue ~horizon in
    if ev != none then begin
      (* A cancelled event still advances the clock to its slot, like
         any popped event. *)
      t.clock <- ev.time;
      if not ev.cancelled then begin
        t.cur_owner <- ev.owner;
        ev.action ()
      end;
      loop ()
    end
  in
  loop ();
  t.cur_owner <- -1;
  match until with
  | Some u when t.clock < u && not (Simtime.is_infinite u) -> t.clock <- u
  | _ -> ()

let pending t = Event_queue.size t.queue
