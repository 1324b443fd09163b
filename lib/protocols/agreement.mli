(** The pluggable agreement layer (paper §5.2.2: "we can utilize any
    view-based consensus protocol, such as PBFT, Tendermint, or
    HotStuff").

    {!Hotstuff}, {!Tendermint} and {!Pbft} all satisfy {!S}; the core
    protocol is a functor over it, so the dissemination and aggregation
    sub-protocols run unchanged over any of the three.  Besides the
    interface, this module holds what the engines share: the callbacks
    record the host wires, the fault bound and quorum, the leader
    schedule, broadcast-to-all and the per-key signer table.  Each
    engine keeps its own state record and state machine, and checks its
    certificates with {!Crypto.Signature.certifies}. *)

(** Environment the host protocol provides to an engine whose wire
    messages have type ['m].  The engine owns no clock, network, or
    scheduler of its own: its view timers run on the host's simulator
    engine, and every other effect goes through these callbacks. *)
type ('v, 'm) callbacks = {
  engine : Tor_sim.Engine.t;
      (** the run's engine, for the view timers *)
  send : dst:int -> 'm -> unit;
      (** unicast; [dst] may equal the node itself *)
  validate : 'v -> bool;  (** external validity (Section 5.2.1 proofs) *)
  value_digest : 'v -> Crypto.Digest32.t;
  proposal : unit -> 'v option;
      (** the value this authority proposes when it leads ([None]
          while not yet ready) *)
  decide : view:int -> 'v -> unit;  (** commit notification, fired once *)
  on_view : view:int -> unit;
      (** fired on entering each view; the dissemination sub-protocol
          hooks this to send its PROPOSAL to the view's leader *)
  log : string -> unit;
}

val fault_bound : n:int -> int
(** ⌊(n−1)/3⌋: the largest [f] with [n >= 3f + 1]. *)

val quorum : n:int -> int
(** [n - fault_bound ~n]: the certificate size of every engine. *)

val leader : n:int -> view:int -> int
(** Round-robin leader schedule: [view mod n]. *)

val broadcast : ('v, 'm) callbacks -> n:int -> 'm -> unit
(** Send to every node, the sender included, in id order. *)

val signers : ('k, (int, 'a) Hashtbl.t) Hashtbl.t -> 'k -> (int, 'a) Hashtbl.t
(** [signers table key]: the signer table (signer id → what it sent)
    stored under [key], created empty on first use. *)

module type S = sig
  type 'v t
  (** One authority's engine instance, carrying values of type ['v]. *)

  type 'v msg
  (** Engine wire messages, opaque to the transport. *)

  val name : string
  (** Engine name, used in traces and reports. *)

  val create :
    keyring:Crypto.Keyring.t ->
    n:int ->
    id:int ->
    view_timeout:Tor_sim.Simtime.t ->
    ('v, 'v msg) callbacks ->
    'v t
  (** [view_timeout] is the pacemaker's per-view timer.  Raises
      [Invalid_argument] if [n < 4] (partial synchrony needs
      n >= 3f + 1 with f >= 1). *)

  val start : 'v t -> unit
  (** Begin view 0.  Call once, after the transport is wired. *)

  val handle : 'v t -> src:int -> 'v msg -> unit
  (** Deliver an incoming engine message.  Malformed or stale messages
      are ignored. *)

  val notify_ready : 'v t -> unit
  (** Tell the engine that [proposal] may now return a value (the
      dissemination phase completed); a leader waiting to propose
      retries. *)

  val decided : 'v t -> 'v option
  (** The committed value, once [decide] fired. *)

  val current_view : 'v t -> int

  val msg_size : value_size:('v -> int) -> 'v msg -> int
  (** Wire size of a message given a value-size function, for the
      byte-accounted transport. *)
end
