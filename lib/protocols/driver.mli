(** The run skeleton of the three directory-protocol drivers
    ({!Current_v3}, {!Sync_ic} and the paper's protocol).  A driver
    keeps its message type and sizes, its per-node state, its handlers
    and its round schedule; the skeleton owns simulator setup,
    telemetry, start-up by behaviour, the consensus-signature exchange
    and its two messages on the wire, result assembly and rounds 3–4
    of the lock-step schedule.

    Setup-time events all have creator [-1], so same-instant ones pop
    in the order they were scheduled (DESIGN.md §7).  {!Make.setup}
    makes the labels and starts telemetry, whose t = 0 probes tie with
    the start-up events, before the driver schedules anything; the
    driver then calls {!Make.start}, schedules its own rounds and hands
    over to {!Make.lockstep}, or, if event-driven, to {!Make.run} with
    its own spans.  Nothing here allocates per message beyond the one
    block that carries a driver's message on the wire. *)

module type PROTOCOL = sig
  type msg

  val name : string
  (** Result name. *)

  val msg_size : msg -> int
  val deadline : msg -> Tor_sim.Simtime.t option

  val sig_label : string
  (** Label of a pushed consensus signature. *)

  val sig_answer_label : string
  (** Label of a consensus signature sent in answer to a request
      ({!Make.request_signatures}).  Requests are labelled
      ["sig-request"]; the skeleton sizes its signature messages as
      {!Wire.signature_bytes} plus {!Wire.control_bytes} and a request
      as {!Wire.request_bytes}, with no deadline. *)
end

module Make (P : PROTOCOL) : sig
  type t
  (** One run: its engine, network, trace, spans and probe samples,
      and each node's signature round. *)

  val setup : ?round_seconds:Tor_sim.Simtime.t -> Runenv.t -> labels:string array -> t
  (** Build the run's own engine and network, install the
      environment's attacks, faults and defenses, make [labels] and
      the signature labels, and, if [env.telemetry] is set, enable the
      net's latency histograms and install the periodic probes (every
      5 sim seconds until the stop).  With [round_seconds] the run is
      lock-step and stops after four rounds (or at the horizon, if
      earlier); without, it stops at the horizon. *)

  val engine : t -> Tor_sim.Engine.t

  val labels : t -> Tor_sim.Stats.label array
  (** The labels made from [labels], in the order passed to {!setup}. *)

  val rounds : t -> Siground.t array
  (** Each node's signature round. *)

  val need : t -> int
  (** {!Runenv.majority}. *)

  val now : t -> Tor_sim.Simtime.t

  val log :
    t -> ?node:int -> Tor_sim.Trace.level -> ('a, Format.formatter, unit, unit) format4 -> 'a
  (** Log into the run's trace at the current time. *)

  val awake : t -> int -> bool
  (** Whether the node processes events now: [false] for [Silent]
      always, for [Crashed] inside its window, and for a node the
      rotation defense has rotated out ({!Tor_sim.Net.quiet}).  The
      handler guard, the lock-step round actions and v3's fetch
      retries ask it. *)

  val send : t -> src:int -> dst:int -> label:Tor_sim.Stats.label -> P.msg -> unit
  val broadcast : t -> src:int -> label:Tor_sim.Stats.label -> P.msg -> unit

  val split_broadcast :
    t -> src:int -> label:Tor_sim.Stats.label -> even:P.msg -> odd:P.msg -> unit
  (** An equivocator's broadcast: [even] to even-numbered peers, [odd]
      to the rest. *)

  val handle : t -> (dst:int -> src:int -> P.msg -> unit) -> unit
  (** Install the delivery handler; it sees only the driver's messages
      reaching an {!awake} node.  An awake node keeps a pushed
      consensus signature that matches its document (in a lock-step
      run the stop, four rounds in, is the cutoff) and answers a
      request with its own signature, if it signed. *)

  val start : t -> (int -> Dirdoc.Vote.t option -> unit) -> unit
  (** Schedule every node's start at t = 0: [f id None] for an honest
      or crashed node (one down at t = 0 starts when it recovers),
      [f id (Some variant)] for an equivocator, [variant] being its
      vote minus one relay ({!Dirdoc.Aggregate.variant}, built once per
      population).  A silent node's start does nothing. *)

  val sign : t -> node:int -> Dirdoc.Vote.t list -> unit
  (** Aggregate the votes, sign the document and push the signature. *)

  val request_signatures : t -> node:int -> bool
  (** If the node signed but lacks a signature majority, ask every peer
      for its signature and return [true]. *)

  val span :
    ?complete:bool ->
    t ->
    node:int ->
    phase:string ->
    start:Tor_sim.Simtime.t ->
    stop:Tor_sim.Simtime.t ->
    unit
  (** Record one phase span of the run ([complete] defaults to [true]). *)

  val run :
    t ->
    network_time:(int -> Tor_sim.Simtime.t -> Tor_sim.Simtime.t) ->
    spans:(Tor_sim.Simtime.t -> unit) ->
    Runenv.run_result
  (** Run to the stop, call [spans run_end] so the driver records its
      phase spans from each node's final state with {!span}, and
      assemble the result; [network_time id d] is the latency metric of
      node [id], which decided at [d].  With telemetry, the result's
      [obs] holds the ["time-to-decision"] histogram, built from each
      node's [decided_at], next to the net's latency histograms, and
      the probe samples. *)

  val lockstep :
    t ->
    held:(int -> Dirdoc.Vote.t list) ->
    vote_spans:(int -> bool) ->
    last_vote_at:(int -> Tor_sim.Simtime.t) ->
    Runenv.run_result
  (** Schedule rounds 3–4 and {!run}.  Round 3: an awake node
      aggregates [held id] and signs, or logs that it holds too few
      votes ([held] runs once per awake node there, so a driver may log
      in it).  Round 4: an awake node short of signatures re-requests
      them.  After the run, [vote_spans id] records a participating
      node's vote-phase spans and says whether it ended them holding a
      vote majority; the skeleton adds the aggregation and
      signature-exchange spans.  Network time is the last vote arrival
      plus the signature-round time. *)
end
