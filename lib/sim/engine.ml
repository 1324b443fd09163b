(* Pooled event cells.

   [schedule] draws a reusable cell from a free list, the queue holds
   cell indices (immediate ints), and a handle packs (generation,
   index) so [cancel] is a safe O(1) no-op on stale handles.

   Determinism: equal-time events pop in ascending (creator, counter)
   key order, where the creator is the node owning the event that
   scheduled them and the counter is per-creator.  The keys fix the
   order of same-instant events — and with it every fault draw and
   tie in the committed outputs — by what each node did, not by the
   order the queue happened to see the pushes (DESIGN.md §7). *)

let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1

(* Tie-break key: (creator + 1) in the high bits, the creator's event
   counter below.  38 bits of counter per creator, creator ids to 2^24
   — the key stays a positive OCaml int. *)
let key_seq_bits = 38

type cell = {
  mutable time : Simtime.t;
  mutable gen : int;
  mutable state : int; (* 0 free, 1 scheduled, 2 cancelled *)
  mutable kind : int; (* -1: run [action]; >= 0: registered callback id *)
  mutable arg : int;
  mutable owner : int; (* node the event belongs to; -1 for none *)
  mutable action : unit -> unit;
  mutable next_free : int; (* free-list link, -1 ends the list *)
}

let st_free = 0
let st_scheduled = 1
let st_cancelled = 2
let nop () = ()

type handle = int
type callback = int

type t = {
  mutable clock : Simtime.t;
  queue : int Event_queue.t;
  mutable cells : cell array;
  mutable n_cells : int;
  mutable free_head : int;
  mutable cur_owner : int; (* owner of the executing event; -1 outside *)
  nodes : int; (* owner range [-1, nodes); 0 = unchecked *)
  mutable counters : int array; (* per-creator event counters, slot = creator+1 *)
  mutable callbacks : (int -> unit) array;
  mutable n_callbacks : int;
}

let create ?(nodes = 0) () =
  if nodes < 0 then invalid_arg "Engine.create: negative nodes";
  {
    clock = Simtime.zero;
    queue = Event_queue.create ();
    cells = [||];
    n_cells = 0;
    free_head = -1;
    cur_owner = -1;
    nodes;
    counters = Array.make (nodes + 1) 0;
    callbacks = [||];
    n_callbacks = 0;
  }

let now t = t.clock

let register_callback t f =
  if t.n_callbacks = Array.length t.callbacks then begin
    let fresh = Array.make (max 4 (2 * t.n_callbacks)) f in
    Array.blit t.callbacks 0 fresh 0 t.n_callbacks;
    t.callbacks <- fresh
  end;
  t.callbacks.(t.n_callbacks) <- f;
  t.n_callbacks <- t.n_callbacks + 1;
  t.n_callbacks - 1

(* Take a cell off the free list, allocating one only at a new
   high-water mark of outstanding events. *)
let acquire t =
  if t.free_head >= 0 then begin
    let idx = t.free_head in
    t.free_head <- t.cells.(idx).next_free;
    idx
  end
  else begin
    if t.n_cells = Array.length t.cells then begin
      let dummy =
        { time = 0.; gen = 0; state = st_free; kind = -1; arg = 0; owner = -1;
          action = nop; next_free = -1 }
      in
      let fresh = Array.make (max 16 (2 * t.n_cells)) dummy in
      Array.blit t.cells 0 fresh 0 t.n_cells;
      t.cells <- fresh
    end;
    let idx = t.n_cells in
    if idx > idx_mask then failwith "Engine: event pool exhausted";
    t.cells.(idx) <-
      { time = 0.; gen = 0; state = st_free; kind = -1; arg = 0; owner = -1;
        action = nop; next_free = -1 };
    t.n_cells <- t.n_cells + 1;
    idx
  end

let release t idx =
  let cell = t.cells.(idx) in
  cell.gen <- cell.gen + 1;
  cell.state <- st_free;
  cell.action <- nop;
  cell.next_free <- t.free_head;
  t.free_head <- idx

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

let enqueue t ~at ~owner ~key ~kind ~arg action =
  if at < t.clock then invalid_arg "Engine.schedule: time is in the past";
  if owner < -1 || (t.nodes > 0 && owner >= t.nodes) then
    invalid_arg "Engine.schedule: owner out of range";
  let idx = acquire t in
  let cell = t.cells.(idx) in
  cell.time <- at;
  cell.state <- st_scheduled;
  cell.kind <- kind;
  cell.arg <- arg;
  cell.owner <- owner;
  cell.action <- action;
  (match Event_queue.push_keyed t.queue ~time:at ~key idx with
  | () -> ()
  | exception e ->
      release t idx;
      raise e);
  (cell.gen lsl idx_bits) lor idx

let default_owner t owner =
  match owner with Some o -> o | None -> t.cur_owner

let schedule t ?owner ~at action =
  let owner = default_owner t owner in
  enqueue t ~at ~owner ~key:(next_key t) ~kind:(-1) ~arg:0 action

let schedule_in t ?owner ~after action =
  if after < 0. then invalid_arg "Engine.schedule_in: negative delay";
  schedule t ?owner ~at:(Simtime.add t.clock after) action

let schedule_call t ?owner ~at callback arg =
  let owner = default_owner t owner in
  enqueue t ~at ~owner ~key:(next_key t) ~kind:callback ~arg nop

let cancel t h =
  let idx = h land idx_mask in
  if idx < t.n_cells then begin
    let cell = t.cells.(idx) in
    if cell.gen = h lsr idx_bits && cell.state = st_scheduled then
      cell.state <- st_cancelled
  end

let dispatch t idx =
  let cell = t.cells.(idx) in
  (* A cancelled event still advances the clock to its slot, like any
     popped event. *)
  t.clock <- cell.time;
  let state = cell.state and kind = cell.kind and arg = cell.arg in
  let owner = cell.owner in
  let action = cell.action in
  (* Release before dispatch: the cell may be reacquired by events the
     dispatched code schedules, and the generation bump makes any
     handle still pointing here stale — cancelling a fired event stays
     a no-op. *)
  release t idx;
  if state = st_scheduled then begin
    t.cur_owner <- owner;
    if kind >= 0 then t.callbacks.(kind) arg else action ()
  end

let run ?until t =
  let horizon = Option.value until ~default:Simtime.never in
  let rec loop () =
    let idx = Event_queue.pop_if_before t.queue ~horizon ~default:(-1) in
    if idx >= 0 then begin
      dispatch t idx;
      loop ()
    end
  in
  loop ();
  t.cur_owner <- -1;
  match until with
  | Some u when t.clock < u && not (Simtime.is_infinite u) -> t.clock <- u
  | _ -> ()

let pending t = Event_queue.size t.queue
