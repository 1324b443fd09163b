(** Token-gated admission control at the authority NIC.

    Onion Pass (SNIPPETS.md #3) rate-limits directory requests with
    out-of-band anonymous tokens: a client spends a token per request,
    so a flood without tokens is turned away before it costs the
    authority bandwidth.  This module models the enforcement side of
    that scheme — the token grants themselves stay out of band — as a
    per-(receiver, sender) token bucket checked by {!Net} at message
    arrival, {e before} ingress bandwidth is reserved.

    Over-budget traffic is queued up to a bounded backlog (each queued
    message is granted at its token's refill instant, FIFO per pair)
    and rejected once the backlog is full.  Rejections are accounted
    separately from fault drops ({!Stats.record_reject}), so a chaos
    verdict can tell defense behavior from injected faults.

    The implementation is the virtual-scheduling form of the generic
    cell rate algorithm: one theoretical-arrival-time cursor per pair,
    pure float arithmetic, no randomness.  Verdicts depend only on the
    arrival order at the receiver, which the engine's tie-break keys
    fix, so defended runs replay bit for bit. *)

type config = {
  rate : float;  (** token refill rate per (dst, src) pair, tokens/s *)
  burst : int;  (** bucket capacity: back-to-back messages admitted cold *)
  backlog : int;  (** queued (deferred) messages tolerated per pair *)
}

val default : config
(** Generous defaults (2 tokens/s, burst 32, backlog 64): benign
    directory traffic — one vote push plus fetch retries every 20 s —
    never trips them; duplication storms do. *)

val validate : config -> unit
(** Raises [Invalid_argument] unless [rate > 0], [burst >= 1] and
    [backlog >= 0]. *)

val canonical : config -> string
(** Canonical serialization ([%h] floats), feeding
    {!Plan.canonical}. *)

val pp : Format.formatter -> config -> unit

(** {1 Runtime} *)

type t
(** An instantiated bucket array.  One instance serves exactly one
    run; {!Net.set_defense} creates it. *)

val instantiate : config -> n:int -> t
(** Validates the config and sizes the per-pair cursors for an
    [n]-node network (all buckets start full).  Raises
    [Invalid_argument] on an invalid config or [n <= 0]. *)

type verdict =
  | Admit  (** within budget: proceed to the NIC *)
  | Defer of float
      (** over budget, backlog slot taken: re-present the message at
          the returned absolute time (its token's refill instant) *)
  | Reject  (** backlog full: turn the message away *)

val decide : t -> now:float -> dst:int -> src:int -> verdict
(** Verdict for one message from [src] arriving at [dst] at [now].
    [Admit] and [Defer] both consume one token of the pair's budget. *)

val drain : t -> dst:int -> src:int -> unit
(** Release the backlog slot of a deferred message; called exactly
    once when its grant fires.  Raises [Invalid_argument] if the
    pair's backlog is empty. *)

val queued : t -> dst:int -> src:int -> int
(** Deferred messages currently holding a slot for the pair. *)
