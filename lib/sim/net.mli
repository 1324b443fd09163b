(** Point-to-point message network over NICs and a latency matrix.

    Delivery of a [size]-byte message from [src] to [dst]:
    FIFO egress serialization on [src]'s NIC, then propagation latency,
    then FIFO ingress serialization on [dst]'s NIC (reserved in arrival
    order).  Each node has a single NIC shared by both directions,
    modelling a DDoS-saturated access link whose residual capacity is
    one budget (the per-node bandwidth the paper's Shadow runs
    configure).  Channels are reliable by default: a message outlives a
    DDoS window and drains when bandwidth returns, modelling TCP
    retransmission — the partial-synchrony "eventual delivery"
    abstraction.  Without an installed {!Fault} injector, a message is
    dropped only if a NIC's rate is zero with no future breakpoint; a
    sender whose NIC never transmits the message is charged nothing
    for it.

    {!set_fault} interposes a fault injector on the send and delivery
    paths: loss, partitions, jitter, duplication, and crash windows
    then apply to every protocol built on the network (DESIGN.md §8).

    The payload type ['m] is chosen by the protocol layered on top. *)

type 'm t

val create :
  engine:Engine.t ->
  topology:Topology.t ->
  bits_per_sec:float ->
  unit ->
  'm t
(** All NICs start at the given uniform rate; per-node adjustments go
    through {!limit_node}. *)

val n : 'm t -> int
val engine : 'm t -> Engine.t

val stats : 'm t -> Stats.t
(** The network's traffic statistics — read them after {!Engine.run}
    returns.  The table is the network's own, not a copy: a network
    serves one run, so nothing records into it once its run is
    over. *)

val set_handler : 'm t -> (dst:int -> src:int -> 'm -> unit) -> unit
(** Install the delivery callback.  Must be set before any delivery
    fires; the last installed handler wins. *)

val set_fault : 'm t -> Fault.plan -> unit
(** Install a fault injector for the plan, sized for this network;
    install before the first send so the injector's per-link RNG
    streams cover the whole run.  Semantics per message
    (fault windows are checked against the send instant for link
    faults, the delivery instant for receiver crashes):
    {ul
    {- a crashed sender transmits nothing (no bytes charged);}
    {- a dropped or partitioned message is charged to the sender's
       egress but never arrives;}
    {- jitter adds extra propagation latency;}
    {- a duplicated message is delivered twice at the same instant;}
    {- a message finishing ingress at a crashed receiver is
       discarded.}}
    Every loss is counted via {!Stats.record_drop} under the message's
    label. *)

val set_defense : 'm t -> Defense.Plan.t -> unit
(** Install a defense plan through the same interposition seam as
    {!set_fault}; install before the first send, alongside the fault
    injector.  Semantics per message:
    {ul
    {- {b admission} ({!Defense.Admission}): checked at the delivery
       stage, {e before} ingress bandwidth is reserved on the
       receiver's NIC.  Over-budget messages queue up to the bounded
       backlog (delayed to their token's refill instant, FIFO per
       (receiver, sender) pair), further messages are turned away
       without costing the receiver bandwidth.  Self-sends are
       exempt — they never touch a NIC.}
    {- {b rotation} ({!Defense.Rotation}): a rotated-out node's sends
       are suppressed at send time (no bytes charged); messages
       completing ingress at a rotated-out node are discarded after
       the bytes were spent (the sender's budget is wasted on a quiet
       target).}}
    Every turned-away message is counted via {!Stats.record_reject}
    under the message's label — never mixed into the fault-drop
    counters.  Raises [Invalid_argument] on a plan invalid for this
    network's size. *)

val quiet : 'm t -> int -> bool
(** Whether the installed rotation defense has rotated the node out
    now; [false] without one. *)

val send :
  'm t ->
  src:int ->
  dst:int ->
  size:int ->
  ?label:Stats.label ->
  ?deadline:Simtime.t ->
  'm ->
  unit
(** Enqueue a message.  Self-sends deliver after a scheduling tick with
    no bandwidth cost.  [label] is a label of this network's {!stats}
    ({!Stats.label}).  [deadline] models a transport-level
    connection timeout (Tor's directory client): if delivery would
    complete more than [deadline] seconds after the send, the message
    is dropped — the bytes are still charged to both NICs, as they were
    transmitted into the flood.  Raises [Invalid_argument] on bad node
    ids or a negative size. *)

val broadcast :
  'm t -> src:int -> size:int -> ?label:Stats.label -> ?deadline:Simtime.t -> 'm -> unit
(** [broadcast] sends to every node except [src] (ascending id order,
    one egress reservation each, as n-1 unicasts — Tor has no
    multicast).  Raises [Invalid_argument] on a bad source id or a
    negative size. *)

val limit_node :
  'm t -> node:int -> start:Simtime.t -> stop:Simtime.t -> bits_per_sec:float -> unit
(** Cap [node]'s NIC during a window; the DDoS primitive. *)

(** {1 Telemetry} *)

val enable_obs : 'm t -> unit
(** Start recording per-label delivery latencies (send instant to
    handler invocation) into per-(destination, label) histograms.  Off
    by default; the hot path then pays one boolean test per delivery.
    A label's histograms are made at its first delivery, so a label
    made after this call is recorded like any other. *)

val obs_metrics : 'm t -> Obs.Metrics.t
(** Snapshot of the telemetry metrics: one
    ["delivery-latency/<label>"] histogram per label of {!stats},
    delivered to or not, merged over destinations in node order.  Take
    it after {!Engine.run} returns.  Every histogram is empty when
    {!enable_obs} was never called. *)

val install_probes :
  'm t -> events:Obs.Events.t -> interval:Simtime.t -> stop:Simtime.t -> unit
(** Schedule one recurring probe per node, every [interval] sim seconds
    from time 0 through [stop], recording a ["nic-backlog"] sample (how
    far the node's NIC is booked past now, in seconds) and — on node 0
    — a ["queue-depth"] sample of the engine's pending events.  Probes
    are read-only and keyed like ordinary events, so they never change
    simulation outcomes.  Raises [Invalid_argument] if
    [interval <= 0]. *)
