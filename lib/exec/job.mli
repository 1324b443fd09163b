(** One simulation as a value: a protocol choice plus the serializable
    parameter spec that deterministically rebuilds its environment.

    Jobs are what the {!Pool} executes.  {!key} combines the protocol
    name with {!Runenv.Spec.digest}, so two jobs with the same key are
    byte-identical simulations and two different simulations always
    have different keys. *)

type protocol = Current | Synchronous | Ours
(** The three directory protocols of the evaluation: the deployed v3
    protocol, Luo et al.'s synchronous interactive consistency, and
    the paper's partial-synchrony protocol.
    [Torpartial.Experiments.protocol] re-exports this type. *)

val protocol_name : protocol -> string

val protocol_of_name : string -> protocol option
(** Accepts the same spellings as the CLI ([sync], [partial], ...). *)

type t = { protocol : protocol; spec : Protocols.Runenv.Spec.t }

val key : t -> string
(** Stable job identity: [protocol_name ^ ":" ^ Spec.digest]. *)

(** Summary of a finished job — the deterministic, domain-portable
    slice of a [run_result] that every sweep consumer
    (Figures 7/10/11, the CLI, the determinism tests) reads. *)
type outcome = {
  key : string;                      (** {!key} of the job that ran *)
  success : bool;                    (** {!Protocols.Runenv.success} *)
  success_latency : float option;    (** Figure 10 metric *)
  decided_at_latest : float option;  (** Figure 11 metric *)
  total_bytes : int;                 (** bytes on the simulated wire *)
}

val outcome : t -> Protocols.Runenv.report -> outcome
(** Project a full experiment {!Protocols.Runenv.report} down to the
    sweep slice, stamped with this job's {!key}. *)
