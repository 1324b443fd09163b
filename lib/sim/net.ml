(* Every message in flight is a slot in a struct-of-arrays pool, and
   the whole egress→arrival→finish chain runs through ONE engine
   callback (the trampoline): each event is (callback, flight index),
   so a send allocates no closures.  A flight's [stage] tells the
   trampoline what the next step is; slots recycle through a free list
   and only grow at a new high-water mark of concurrently in-flight
   messages.  A recycled slot keeps its last payload until reuse — the
   payloads are the simulation's own documents, alive elsewhere, so
   nothing leaks beyond the run. *)

let stage_self = 0 (* deliver locally, no bandwidth cost *)
let stage_arrival = 1 (* reserve ingress on the receiver's NIC *)
let stage_finish = 2 (* ingress done: deliver *)
let stage_finish_expired = 3 (* ingress done but past the deadline: drop *)
let stage_admitted = 4 (* deferred by admission control, token granted *)

(* The stage field carries one flag bit above the 3-bit stage: a
   fault-injected duplicate delivers its payload twice at finish. *)
let flag_duplicate = 8
let stage_of bits = bits land 7

type 'm t = {
  engine : Engine.t;
  topology : Topology.t;
  nics : Nic.t array; (* one shared NIC per node: egress and ingress *)
  stats : Stats.t;
  mutable interned : string list; (* newest first *)
  mutable fault : Fault.t option; (* installed injector, if any *)
  mutable admission : Defense.Admission.t option;
  mutable rotation : Defense.Rotation.t option;
  mutable handler : (dst:int -> src:int -> 'm -> unit) option;
  mutable trampoline : Engine.callback option;
  mutable obs_on : bool; (* record delivery latencies (one test per delivery) *)
  (* Delivery-latency histograms indexed [dst node][interned label id],
     sized only when telemetry is enabled.  [obs_metrics] merges each
     label's row in node order, which fixes the float summation order
     of the merged sums. *)
  mutable lat : Obs.Metrics.histogram array array;
  (* The flight pool. *)
  mutable fl_msg : 'm array;
  mutable fl_src : int array;
  mutable fl_dst : int array;
  mutable fl_size : int array;
  mutable fl_stage : int array;
  mutable fl_label : Stats.label array; (* interned label, for drop accounting *)
  mutable fl_sent_at : float array;
  mutable fl_deadline : float array; (* nan: no deadline *)
  mutable fl_next : int array; (* free-list links *)
  mutable fl_len : int;
  mutable fl_free : int;
}

let n t = Array.length t.nics
let engine t = t.engine

let stats t = t.stats

let ensure_lat t =
  let nlabels = List.length t.interned in
  Array.iteri
    (fun node row ->
      let cur = Array.length row in
      if nlabels > cur then
        t.lat.(node) <-
          Array.init nlabels (fun i ->
              if i < cur then row.(i) else Obs.Metrics.histogram_create ()))
    t.lat

let intern t name =
  if not (List.mem name t.interned) then t.interned <- name :: t.interned;
  let id = Stats.intern t.stats name in
  if t.obs_on then ensure_lat t;
  id

let enable_obs t =
  t.obs_on <- true;
  if Array.length t.lat <> n t then
    t.lat <- Array.make (n t) [||];
  ensure_lat t

let obs_metrics t =
  let reg = Obs.Metrics.create () in
  (* Oldest-first replay gives label ids in interning order; merge each
     id's per-node histograms under the label's name, in node order. *)
  List.iteri
    (fun id name ->
      let h = Obs.Metrics.histogram reg ("delivery-latency/" ^ name) in
      Array.iter
        (fun row ->
          if id < Array.length row then
            Obs.Metrics.merge_histogram ~into:h row.(id))
        t.lat)
    (List.rev t.interned);
  reg

(* Called at the instant a labelled message reaches its handler. *)
let observe_latency t ~dst ~label ~sent_at =
  if label <> Stats.no_label then begin
    let id = Stats.label_id label in
    let row = t.lat.(dst) in
    if id >= 0 && id < Array.length row then
      Obs.Metrics.observe row.(id) (Engine.now t.engine -. sent_at)
  end

let check_node t id name =
  if id < 0 || id >= n t then invalid_arg ("Net." ^ name ^ ": node out of range")

let nic t id =
  check_node t id "nic";
  t.nics.(id)

let set_handler t f = t.handler <- Some f

let set_fault t fault =
  Fault.bind fault ~n:(n t);
  t.fault <- Some fault

let fault t = t.fault

let set_defense t plan =
  Defense.Plan.validate ~n:(n t) plan;
  (match plan.Defense.Plan.admission with
  | None -> t.admission <- None
  | Some c ->
      let a = Defense.Admission.instantiate c in
      Defense.Admission.bind a ~n:(n t);
      t.admission <- Some a);
  t.rotation <-
    Option.map
      (fun c -> Defense.Rotation.instantiate c ~n:(n t))
      plan.Defense.Plan.rotation

(* Whether [node] is rotated out (quiet) right now. *)
let quiet_now t node =
  match t.rotation with
  | None -> false
  | Some r -> Defense.Rotation.quiet r ~node ~now:(Engine.now t.engine)

let deliver t ~dst ~src msg =
  match t.handler with
  | None -> failwith "Net.deliver: no handler installed"
  | Some f -> f ~dst ~src msg

let alloc_flight t msg =
  if t.fl_free < 0 then begin
    (* grow the pool, seeding fresh slots with the message at hand *)
    let cap = Array.length t.fl_src in
    let fresh = max 16 (2 * cap) in
    let grow_int a = let b = Array.make fresh 0 in Array.blit a 0 b 0 t.fl_len; b in
    let grow_float a = let b = Array.make fresh nan in Array.blit a 0 b 0 t.fl_len; b in
    let msgs = Array.make fresh msg in
    Array.blit t.fl_msg 0 msgs 0 t.fl_len;
    t.fl_msg <- msgs;
    t.fl_src <- grow_int t.fl_src;
    t.fl_dst <- grow_int t.fl_dst;
    t.fl_size <- grow_int t.fl_size;
    t.fl_stage <- grow_int t.fl_stage;
    t.fl_label <-
      (let b = Array.make fresh Stats.no_label in
       Array.blit t.fl_label 0 b 0 t.fl_len;
       b);
    t.fl_sent_at <- grow_float t.fl_sent_at;
    t.fl_deadline <- grow_float t.fl_deadline;
    t.fl_next <- grow_int t.fl_next;
    for i = cap to fresh - 1 do
      t.fl_next.(i) <- (if i + 1 < fresh then i + 1 else -1)
    done;
    t.fl_free <- cap;
    t.fl_len <- fresh
  end;
  let fl = t.fl_free in
  t.fl_free <- t.fl_next.(fl);
  t.fl_msg.(fl) <- msg;
  fl

let release_flight t fl =
  t.fl_next.(fl) <- t.fl_free;
  t.fl_free <- fl

(* Whether [node] is inside an injected crash window right now. *)
let crashed_now t node =
  match t.fault with
  | None -> false
  | Some fa -> Fault.crashed fa ~node ~now:(Engine.now t.engine)

let trampoline t fl =
  let bits = t.fl_stage.(fl) in
  let stage = stage_of bits in
  if stage = stage_self then begin
    let src = t.fl_src.(fl) and dst = t.fl_dst.(fl) and msg = t.fl_msg.(fl) in
    let label = t.fl_label.(fl) and sent_at = t.fl_sent_at.(fl) in
    release_flight t fl;
    if crashed_now t dst then Stats.record_drop t.stats ~node:dst ~label
    else if quiet_now t dst then Stats.record_reject t.stats ~node:dst ~label
    else begin
      if t.obs_on then observe_latency t ~dst ~label ~sent_at;
      deliver t ~dst ~src msg
    end
  end
  else if stage = stage_arrival || stage = stage_admitted then begin
    let dst = t.fl_dst.(fl) and size = t.fl_size.(fl) in
    let arrival = Engine.now t.engine in
    (* Admission control runs BEFORE the ingress reservation: a
       turned-away message never costs the receiver bandwidth.  A
       deferred message re-enters here under [stage_admitted] — its
       token is granted, it only releases its backlog slot and falls
       through to the NIC. *)
    let verdict =
      match t.admission with
      | None -> Defense.Admission.Admit
      | Some a ->
          if stage = stage_admitted then begin
            Defense.Admission.drain a ~dst ~src:t.fl_src.(fl);
            Defense.Admission.Admit
          end
          else Defense.Admission.decide a ~now:arrival ~dst ~src:t.fl_src.(fl)
    in
    match verdict with
    | Defense.Admission.Reject ->
        Stats.record_reject t.stats ~node:dst ~label:t.fl_label.(fl);
        release_flight t fl
    | Defense.Admission.Defer grant_at ->
        t.fl_stage.(fl) <- stage_admitted lor (bits land flag_duplicate);
        (match t.trampoline with
        | Some cb ->
            ignore (Engine.schedule_call t.engine ~owner:dst ~at:grant_at cb fl)
        | None -> assert false)
    | Defense.Admission.Admit -> (
        (* Reserve the receiver's NIC at arrival, so ingress
           reservations happen in arrival order, not send order. *)
        let finish = Nic.reserve t.nics.(dst) ~now:arrival ~bytes:size in
        if Simtime.is_infinite finish then begin
          Stats.record_drop t.stats ~node:dst ~label:t.fl_label.(fl);
          release_flight t fl
        end
        else begin
          let deadline = t.fl_deadline.(fl) in
          let expired =
            (not (Float.is_nan deadline)) && finish -. t.fl_sent_at.(fl) > deadline
          in
          t.fl_stage.(fl) <-
            (if expired then stage_finish_expired else stage_finish)
            lor (bits land flag_duplicate);
          match t.trampoline with
          | Some cb ->
              ignore (Engine.schedule_call t.engine ~owner:dst ~at:finish cb fl)
          | None -> assert false
        end)
  end
  else begin
    (* stage_finish / stage_finish_expired *)
    let dst = t.fl_dst.(fl) and label = t.fl_label.(fl) in
    Stats.record_received t.stats ~node:dst ~bytes:t.fl_size.(fl);
    if stage = stage_finish_expired then begin
      Stats.record_drop t.stats ~node:dst ~label;
      release_flight t fl
    end
    else if crashed_now t dst then begin
      (* The receiver is inside a crash window when ingress completes:
         the message reached a dead node. *)
      Stats.record_drop t.stats ~node:dst ~label;
      release_flight t fl
    end
    else if quiet_now t dst then begin
      (* The receiver rotated out while ingress was in progress: the
         bytes were spent (the attacker's budget is wasted on a quiet
         target) but nothing is served. *)
      Stats.record_reject t.stats ~node:dst ~label;
      release_flight t fl
    end
    else begin
      let src = t.fl_src.(fl) and msg = t.fl_msg.(fl) in
      let duplicate = bits land flag_duplicate <> 0 in
      if t.obs_on then observe_latency t ~dst ~label ~sent_at:t.fl_sent_at.(fl);
      release_flight t fl;
      deliver t ~dst ~src msg;
      if duplicate then deliver t ~dst ~src msg
    end
  end

let the_trampoline t =
  match t.trampoline with Some cb -> cb | None -> assert false

let create ~engine ~topology ~bits_per_sec () =
  let n = Topology.n topology in
  let t =
    {
      engine;
      topology;
      nics = Array.init n (fun _ -> Nic.create ~bits_per_sec ());
      stats = Stats.create ~n;
      interned = [];
      fault = None;
      admission = None;
      rotation = None;
      handler = None;
      trampoline = None;
      obs_on = false;
      lat = [||];
      fl_msg = [||];
      fl_src = [||];
      fl_dst = [||];
      fl_size = [||];
      fl_stage = [||];
      fl_label = [||];
      fl_sent_at = [||];
      fl_deadline = [||];
      fl_next = [||];
      fl_len = 0;
      fl_free = -1;
    }
  in
  t.trampoline <- Some (Engine.register_callback engine (fun fl -> trampoline t fl));
  t

(* Put a message in flight: its next stage fires at [at], owned by the
   receiver. *)
let post t ~src ~dst ~size ~stage ~label ~sent_at ~deadline ~at msg =
  let fl = alloc_flight t msg in
  t.fl_src.(fl) <- src;
  t.fl_dst.(fl) <- dst;
  t.fl_size.(fl) <- size;
  t.fl_stage.(fl) <- stage;
  t.fl_label.(fl) <- label;
  t.fl_sent_at.(fl) <- sent_at;
  t.fl_deadline.(fl) <- deadline;
  ignore (Engine.schedule_call t.engine ~owner:dst ~at (the_trampoline t) fl)

(* Internal send with sentinel-encoded optionals: [label] is an
   interned id or [Stats.no_label], [deadline] is NaN for none.  The
   caller has validated the node ids. *)
let send_msg t ~src ~dst ~size ~label ~deadline msg =
  let now = Engine.now t.engine in
  if (match t.fault with Some fa -> Fault.crashed fa ~node:src ~now | None -> false)
  then
    (* A down node transmits nothing: no bytes charged, the message
       simply never existed on the wire. *)
    Stats.record_drop t.stats ~node:dst ~label
  else if quiet_now t src then
    (* A rotated-out authority goes quiet: nothing transmitted, no
       bytes charged, accounted as a defense reject rather than a
       fault drop. *)
    Stats.record_reject t.stats ~node:dst ~label
  else if src = dst then
    (* Local delivery: no bandwidth cost, but still asynchronous so
       handlers never reenter the caller. *)
    post t ~src ~dst ~size ~stage:stage_self ~label ~sent_at:now ~deadline ~at:now msg
  else begin
    Stats.record_send t.stats ~node:src ~bytes:size ~label;
    (* Link-fault verdict at send time: the injector's draws are keyed
       per (src, dst, message number), so the verdict depends only on
       the message's place in its link's send sequence. *)
    let decision =
      match t.fault with
      | None -> Fault.pass
      | Some fa -> Fault.decide fa ~now ~src ~dst
    in
    let egress_done = Nic.reserve t.nics.(src) ~now ~bytes:size in
    if Simtime.is_infinite egress_done then
      Stats.record_drop t.stats ~node:dst ~label
    else if decision.Fault.drop then
      (* Lost in the network after transmission: egress was charged,
         no arrival is scheduled. *)
      Stats.record_drop t.stats ~node:dst ~label
    else begin
      let arrival =
        Simtime.add egress_done (Topology.latency t.topology ~src ~dst)
        +. decision.Fault.extra_delay
      in
      let stage =
        stage_arrival lor if decision.Fault.duplicate then flag_duplicate else 0
      in
      post t ~src ~dst ~size ~stage ~label ~sent_at:now ~deadline ~at:arrival msg
    end
  end

let send t ~src ~dst ~size ?label ?deadline msg =
  check_node t src "send";
  check_node t dst "send";
  if size < 0 then invalid_arg "Net.send: negative size";
  let label = match label with None -> Stats.no_label | Some l -> l in
  let deadline = match deadline with None -> nan | Some d -> d in
  send_msg t ~src ~dst ~size ~label ~deadline msg

let broadcast t ~src ~size ?label ?deadline msg =
  check_node t src "broadcast";
  if size < 0 then invalid_arg "Net.send: negative size";
  let label = match label with None -> Stats.no_label | Some l -> l in
  let deadline = match deadline with None -> nan | Some d -> d in
  (* One validated pass: n-1 unicasts in ascending id order whose
     egress reservations walk the source NIC's rate schedule once,
     monotonically (the NIC cursor makes the batch a single sweep). *)
  for dst = 0 to n t - 1 do
    if dst <> src then send_msg t ~src ~dst ~size ~label ~deadline msg
  done

let limit_node t ~node ~start ~stop ~bits_per_sec =
  check_node t node "limit_node";
  Nic.limit_window t.nics.(node) ~start ~stop ~bits_per_sec

(* Periodic telemetry probes, one recurring event per node.  Each probe
   samples the node's NIC backlog (drain time of everything already
   reserved); node 0 additionally samples the engine's queue depth.
   Probes are ordinary owned events with ordinary tie-break keys, read
   state and change nothing — so enabling them perturbs no simulation
   outcome. *)
let install_probes t ~events ~interval ~stop =
  if not (interval > 0.) then
    invalid_arg "Net.install_probes: interval must be positive";
  let engine = t.engine in
  let rec probe node () =
    let now = Engine.now engine in
    let backlog = Float.max 0. (Nic.busy_until t.nics.(node) -. now) in
    Obs.Events.sample events ~node ~track:"nic-backlog" ~time:now ~value:backlog;
    if node = 0 then
      Obs.Events.sample events ~node ~track:"queue-depth" ~time:now
        ~value:(float_of_int (Engine.pending engine));
    let next = now +. interval in
    if next <= stop then
      ignore (Engine.schedule engine ~owner:node ~at:next (probe node))
  in
  for node = 0 to n t - 1 do
    ignore (Engine.schedule engine ~owner:node ~at:Simtime.zero (probe node))
  done
