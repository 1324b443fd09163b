(** The run skeleton of the three directory-protocol drivers
    ({!Current_v3}, {!Sync_ic} and the paper's protocol).  A driver
    keeps its message type and sizes, its per-node state, its handlers
    and its round schedule; the skeleton owns simulator setup, start-up
    by behaviour, the consensus-signature exchange, result assembly and
    rounds 3–4 of the lock-step schedule.

    Setup-time events all have creator [-1], so same-instant ones pop
    in the order they were scheduled (DESIGN.md §7).  {!Make.setup}
    makes the labels and starts telemetry, whose t = 0 probes tie with
    the start-up events, before the driver schedules anything; the
    driver then calls {!Make.start}, schedules its own rounds and hands
    over to {!Make.lockstep}, or, if event-driven, to {!Make.run} with
    its own spans.  Nothing here allocates per message. *)

module type PROTOCOL = sig
  type msg

  val name : string
  (** Result name. *)

  val msg_size : msg -> int
  val deadline : msg -> Tor_sim.Simtime.t option

  val sig_push : Crypto.Digest32.t -> Crypto.Signature.t -> msg
  (** A consensus signature, pushed or sent on request. *)

  val sig_request : msg

  val sig_label : string
  (** Label of a pushed signature. *)

  val sig_answer_label : string
  (** Label of a signature sent in answer to {!sig_request}. *)
end

module Make (P : PROTOCOL) : sig
  type t = {
    env : Runenv.t;
    engine : Tor_sim.Engine.t;
    net : P.msg Tor_sim.Net.t;
    trace : Tor_sim.Trace.t;
    events : Obs.Events.t;  (** the run's phase spans, see {!span} *)
    tel : Obs.Events.t option;  (** probe samples, iff telemetry is on *)
    labels : Tor_sim.Stats.label array;  (** as passed to {!setup} *)
    rounds : Siground.t array;  (** each node's signatures *)
    need : int;  (** {!Runenv.majority} *)
    round_seconds : Tor_sim.Simtime.t;
    stop : Tor_sim.Simtime.t;
    memo : Dirdoc.Aggregate.Memo.t;
        (** the memo of [env.votes], shared by every run over that population *)
    lbl_sig : Tor_sim.Stats.label;
    lbl_sig_request : Tor_sim.Stats.label;
    lbl_sig_answer : Tor_sim.Stats.label;
  }

  val setup : ?round_seconds:Tor_sim.Simtime.t -> Runenv.t -> labels:string array -> t
  (** Build the run's own engine and network, install the
      environment's attacks, faults and defenses, make [labels] and
      the signature labels, and start telemetry.  With [round_seconds]
      the run is lock-step and stops after four rounds (or at the
      horizon, if earlier); without, it stops at the horizon. *)

  val now : t -> Tor_sim.Simtime.t

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
  (** Install the delivery handler; it sees only messages reaching an
      {!awake} node. *)

  val start : t -> (int -> Dirdoc.Vote.t option -> unit) -> unit
  (** Schedule every node's start at t = 0: [f id None] for an honest
      or crashed node (one down at t = 0 starts when it recovers),
      [f id (Some variant)] for an equivocator, [variant] being its
      vote minus one relay ({!Dirdoc.Aggregate.variant}, built once per
      population).  A silent node's start does nothing. *)

  val store_signature :
    t -> node:int -> Crypto.Digest32.t -> Crypto.Signature.t -> unit
  (** Keep a pushed signature that matches the node's document (in a
      lock-step run the stop, four rounds in, is the cutoff). *)

  val answer_signature_request : t -> node:int -> src:int -> unit
  (** Send the node's own signature to [src], if it signed. *)

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
      node [id], which decided at [d]. *)

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
