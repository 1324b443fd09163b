(** Per-node traffic accounting.

    Table 1 of the paper compares protocols by communication
    complexity; these counters measure actual bytes on the simulated
    wire, optionally broken down by message label.

    A label is one record per name, holding that name's counts.  A
    protocol looks each label up once at setup ({!label}) and passes
    the record with every send, so recording a labelled message is a
    field update on it, with no lookup by name. *)

type t

type label
(** A message label's counts, valid for the {!t} that made it. *)

val create : n:int -> t

val n : t -> int

val label : t -> string -> label
(** The label of a name, made on first use: one name gives one label. *)

val label_name : label -> string

val label_names : t -> string list
(** Every label made with {!label}, recorded or not, sorted. *)

val record_send : t -> node:int -> bytes:int -> label:label option -> unit
(** Count a message [node] transmitted, under its label ([None] for
    unlabelled traffic).  Allocation-free, for the network hot path. *)

val record_received : t -> node:int -> bytes:int -> unit

val record_drop : t -> node:int -> label:label option -> unit
(** Count one lost message: [node] is the intended recipient ([-1]
    when unattributable), [label] the message's label.
    Allocation-free, like {!record_send}. *)

val record_reject : t -> node:int -> label:label option -> unit
(** Count one message turned away by a defense (admission control,
    rotation quiet period) — deliberately separate from
    {!record_drop}, so verdicts can tell defense behavior from
    injected faults.  Same conventions as {!record_drop}. *)

val bytes_sent : t -> int -> int
val bytes_received : t -> int -> int
val messages_sent : t -> int -> int

val dropped : t -> int
(** Total messages lost, whatever the cause (dead NIC, transport
    deadline, injected fault). *)

val dropped_at : t -> int -> int
(** Messages lost on their way to a node. *)

val rejected : t -> int
(** Total messages turned away by a defense ([0] when no defense is
    installed); never included in {!dropped}. *)

val rejected_at : t -> int -> int
(** Defense-rejected messages addressed to a node. *)

val total_bytes_sent : t -> int
(** Sum over all nodes; the paper's communication-complexity metric. *)

val label_bytes : t -> string -> int
(** Bytes attributed to a message label ([0] for unknown labels). *)

val labels : t -> (string * int) list
(** Labels recorded at least once, with their byte counts, sorted by
    label. *)

val label_dropped : t -> string -> int
(** Messages dropped under a label ([0] for unknown labels). *)

val dropped_labels : t -> (string * int) list
(** Labels with at least one dropped message, with their drop counts,
    sorted by label. *)

val label_rejected : t -> string -> int
(** Messages defense-rejected under a label ([0] for unknown
    labels). *)

val rejected_labels : t -> (string * int) list
(** Labels with at least one defense-rejected message, with their
    reject counts, sorted by label. *)
