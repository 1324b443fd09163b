(** A composable defense configuration: admission control, rotation,
    both, or neither.

    A plan is a serializable value that rides in
    [Runenv.Spec.defense], participates in the spec digest, and is
    installed on the network ({!Net.set_defense}) and the run
    environment each run, exactly like a fault plan, so defense-off
    specs behave byte-identically to a world without the defense
    layer. *)

type t = {
  admission : Admission.config option;
  rotation : Rotation.config option;
}

val none : t
val admission_only : t
(** {!Admission.default} alone. *)

val rotation_only : t
(** {!Rotation.default} alone. *)

val both : t
(** Both defaults composed. *)

val is_empty : t -> bool

val preset : string -> t option
(** ["none"], ["admission"], ["rotation"], ["both"] — the
    [torda-sim chaos --defense] vocabulary. *)

val validate : n:int -> t -> unit
(** Raises [Invalid_argument] on an invalid member config. *)

val canonical : t -> string
(** Canonical serialization; structurally equal plans serialize
    identically.  Feeds [Runenv.Spec.canonical] so defenses
    participate in job digests. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, e.g.
    [admission[rate=2/s,burst=32,backlog=64] rotate[out=1,epoch=150s,seed=mptc]]. *)
