(** JSON values and their text: the one writer behind the Perfetto
    trace export and the bench report. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in the order given *)

val to_string : t -> string
(** RFC 8259 text, without a trailing newline.  Strings and member
    names escape ["\""], ["\\"] and bytes below 0x20 (as [\u00XX]),
    copy valid UTF-8 and write each invalid sequence as U+FFFD.  Finite
    floats get six decimals; NaN and the infinities are [null].  The
    outer two levels put each member on a line of its own, indented
    two spaces per level; deeper values stay inline, as
    [{"k": v, "k2": [a, b]}]. *)
