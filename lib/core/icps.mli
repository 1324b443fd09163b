(** Interactive Consistency under Partial Synchrony (Definition 5.1).

    The functionality the paper introduces: each of [n] nodes starts
    with a value; every correct node outputs the same length-[n]
    vector whose entries are values or [⊥], with

    + {b Termination} — every correct node outputs;
    + {b Agreement} — correct nodes output identical vectors;
    + {b Value Validity} — a correct node's own slot holds its input
      or [⊥], and specifically its input when GST = 0;
    + {b Common Set Validity} — at least [n - f] slots are non-[⊥].

    This module holds the vector type and pure property checkers the
    property-based tests run against protocol outputs. *)

type 'a vector = 'a option array
(** Output vector: [None] is ⊥. *)

val non_bot : 'a vector -> int
(** [|V|_{≠⊥}] — the number of non-empty entries. *)

val agreement : equal:('a -> 'a -> bool) -> 'a vector list -> bool
(** All vectors equal component-wise (vacuously true for [<= 1]). *)

val value_validity :
  equal:('a -> 'a -> bool) -> inputs:'a array -> who:int -> 'a vector -> bool
(** Node [who]'s own slot is its input or ⊥. *)

val value_validity_gst_zero :
  equal:('a -> 'a -> bool) -> inputs:'a array -> who:int -> 'a vector -> bool
(** The stronger GST = 0 form: the slot must hold the input. *)

val common_set_validity : f:int -> 'a vector -> bool
(** [non_bot v >= Array.length v - f]. *)
