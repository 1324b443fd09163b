(* A message in flight is one immutable record.  Egress is reserved at
   send time; the arrival, the ingress finish and a self-send's local
   delivery are ordinary engine events owned by the receiver. *)

type 'm flight = {
  src : int;
  dst : int;
  size : int;
  label : Stats.label option;
  sent_at : float;
  deadline : Simtime.t option;
  duplicate : bool; (* fault-injected: deliver the payload twice *)
  msg : 'm;
}

type 'm t = {
  engine : Engine.t;
  topology : Topology.t;
  nics : Nic.t array; (* one shared NIC per node: egress and ingress *)
  stats : Stats.t;
  mutable fault : Fault.t option; (* installed injector, if any *)
  mutable admission : Defense.Admission.t option;
  mutable rotation : Defense.Rotation.t option;
  mutable handler : (dst:int -> src:int -> 'm -> unit) option;
  mutable obs_on : bool; (* record delivery latencies (one test per delivery) *)
  (* Delivery-latency histograms: per label name, one row with a
     histogram per destination, made at the label's first delivery.
     [obs_metrics] merges a row in node order, which fixes the float
     summation order of the merged sums. *)
  lat : (string, Obs.Metrics.histogram array) Hashtbl.t;
}

let n t = Array.length t.nics
let engine t = t.engine

let stats t = t.stats

let enable_obs t = t.obs_on <- true

let obs_metrics t =
  let reg = Obs.Metrics.create () in
  List.iter
    (fun name ->
      let h = Obs.Metrics.histogram reg ("delivery-latency/" ^ name) in
      match Hashtbl.find_opt t.lat name with
      | Some row -> Array.iter (Obs.Metrics.merge_histogram ~into:h) row
      | None -> ())
    (Stats.label_names t.stats);
  reg

(* Called at the instant a message reaches its handler. *)
let observe_latency t fl =
  match fl.label with
  | None -> ()
  | Some label ->
      let name = Stats.label_name label in
      let row =
        match Hashtbl.find t.lat name with
        | row -> row
        | exception Not_found ->
            let row = Array.init (n t) (fun _ -> Obs.Metrics.histogram_create ()) in
            Hashtbl.add t.lat name row;
            row
      in
      Obs.Metrics.observe row.(fl.dst) (Engine.now t.engine -. fl.sent_at)

let check_node t id name =
  if id < 0 || id >= n t then invalid_arg ("Net." ^ name ^ ": node out of range")

let set_handler t f = t.handler <- Some f

let set_fault t plan = t.fault <- Some (Fault.instantiate plan ~n:(n t))

let set_defense t plan =
  Defense.Plan.validate ~n:(n t) plan;
  t.admission <-
    Option.map
      (fun c -> Defense.Admission.instantiate c ~n:(n t))
      plan.Defense.Plan.admission;
  t.rotation <-
    Option.map
      (fun c -> Defense.Rotation.instantiate c ~n:(n t))
      plan.Defense.Plan.rotation

let quiet t node =
  match t.rotation with
  | None -> false
  | Some r -> Defense.Rotation.quiet r ~node ~now:(Engine.now t.engine)

let deliver t ~dst ~src msg =
  match t.handler with
  | None -> failwith "Net.deliver: no handler installed"
  | Some f -> f ~dst ~src msg

(* Whether [node] is inside an injected crash window right now. *)
let crashed_now t node =
  match t.fault with
  | None -> false
  | Some fa -> Fault.crashed fa ~node ~now:(Engine.now t.engine)

(* The end of every delivery: a receiver inside a crash window drops
   the message, a rotated-out one turns it away (for a remote message
   the bytes were spent, wasting the attacker's budget on a quiet
   target), and otherwise the handler gets it, twice for a
   fault-injected duplicate. *)
let hand_over t fl =
  let dst = fl.dst in
  if crashed_now t dst then Stats.record_drop t.stats ~node:dst ~label:fl.label
  else if quiet t dst then Stats.record_reject t.stats ~node:dst ~label:fl.label
  else begin
    if t.obs_on then observe_latency t fl;
    deliver t ~dst ~src:fl.src fl.msg;
    if fl.duplicate then deliver t ~dst ~src:fl.src fl.msg
  end

(* Ingress done: charge the receiver's bytes, then drop the message if
   its deadline passed or hand it over. *)
let finish t fl ~expired =
  Stats.record_received t.stats ~node:fl.dst ~bytes:fl.size;
  if expired then Stats.record_drop t.stats ~node:fl.dst ~label:fl.label
  else hand_over t fl

(* The message reaches the receiver.  Admission control runs BEFORE
   the ingress reservation: a turned-away message never costs the
   receiver bandwidth.  A deferred message comes back [~admitted] at
   its grant instant — its token is granted, it only releases its
   backlog slot and goes on to the NIC. *)
let rec arrive t fl ~admitted =
  let dst = fl.dst in
  let arrival = Engine.now t.engine in
  let verdict =
    match t.admission with
    | None -> Defense.Admission.Admit
    | Some a ->
        if admitted then begin
          Defense.Admission.drain a ~dst ~src:fl.src;
          Defense.Admission.Admit
        end
        else Defense.Admission.decide a ~now:arrival ~dst ~src:fl.src
  in
  match verdict with
  | Defense.Admission.Reject -> Stats.record_reject t.stats ~node:dst ~label:fl.label
  | Defense.Admission.Defer grant_at ->
      ignore
        (Engine.schedule t.engine ~owner:dst ~at:grant_at (fun () ->
             arrive t fl ~admitted:true))
  | Defense.Admission.Admit ->
      (* Reserve the receiver's NIC at arrival, so ingress
         reservations happen in arrival order, not send order. *)
      let done_at = Nic.reserve t.nics.(dst) ~now:arrival ~bytes:fl.size in
      if Simtime.is_infinite done_at then
        Stats.record_drop t.stats ~node:dst ~label:fl.label
      else begin
        let expired =
          match fl.deadline with Some d -> done_at -. fl.sent_at > d | None -> false
        in
        ignore
          (Engine.schedule t.engine ~owner:dst ~at:done_at (fun () ->
               finish t fl ~expired))
      end

let create ~engine ~topology ~bits_per_sec () =
  let n = Topology.n topology in
  {
    engine;
    topology;
    nics = Array.init n (fun _ -> Nic.create ~bits_per_sec ());
    stats = Stats.create ~n;
    fault = None;
    admission = None;
    rotation = None;
    handler = None;
    obs_on = false;
    lat = Hashtbl.create 8;
  }

(* The caller has validated the node ids. *)
let send_msg t ~src ~dst ~size ~label ~deadline msg =
  let now = Engine.now t.engine in
  if crashed_now t src then
    (* A down node transmits nothing: no bytes charged, the message
       simply never existed on the wire. *)
    Stats.record_drop t.stats ~node:dst ~label
  else if quiet t src then
    (* A rotated-out authority goes quiet: nothing transmitted, no
       bytes charged, accounted as a defense reject rather than a
       fault drop. *)
    Stats.record_reject t.stats ~node:dst ~label
  else if src = dst then
    (* Local delivery: no bandwidth cost, but still asynchronous so
       handlers never reenter the caller.  A self-send is never a
       duplicate. *)
    let fl = { src; dst; size; label; sent_at = now; deadline; duplicate = false; msg } in
    ignore (Engine.schedule t.engine ~owner:dst ~at:now (fun () -> hand_over t fl))
  else begin
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
      (* A NIC at zero rate forever never transmits: no bytes charged. *)
      Stats.record_drop t.stats ~node:dst ~label
    else begin
      Stats.record_send t.stats ~node:src ~bytes:size ~label;
      if decision.Fault.drop then
        (* Lost in the network after transmission: egress was charged,
           no arrival is scheduled. *)
        Stats.record_drop t.stats ~node:dst ~label
      else begin
        let arrival =
          Simtime.add egress_done (Topology.latency t.topology ~src ~dst)
          +. decision.Fault.extra_delay
        in
        let fl =
          { src; dst; size; label; sent_at = now; deadline;
            duplicate = decision.Fault.duplicate; msg }
        in
        ignore
          (Engine.schedule t.engine ~owner:dst ~at:arrival (fun () ->
               arrive t fl ~admitted:false))
      end
    end
  end

let send t ~src ~dst ~size ?label ?deadline msg =
  check_node t src "send";
  check_node t dst "send";
  if size < 0 then invalid_arg "Net.send: negative size";
  send_msg t ~src ~dst ~size ~label ~deadline msg

let broadcast t ~src ~size ?label ?deadline msg =
  check_node t src "broadcast";
  if size < 0 then invalid_arg "Net.broadcast: negative size";
  (* One validated pass: n-1 unicasts in ascending id order. *)
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
