(** Minimal UTC calendar formatting for dir-spec timestamps
    ("YYYY-MM-DD HH:MM:SS"), with no dependency on the C library's
    timezone database so simulations stay deterministic. *)

val to_string : float -> string
(** [to_string epoch] renders POSIX seconds as UTC.  Fractional
    seconds are truncated. *)

val of_string : string -> (float, string) result
(** Parse ["YYYY-MM-DD HH:MM:SS"] back to POSIX seconds.  Every field
    is plain decimal digits and the date must exist, so whatever parses
    renders back to the same text through {!to_string}. *)

val days_from_civil : year:int -> month:int -> day:int -> int
(** Days since 1970-01-01 (proleptic Gregorian); negative before the
    epoch.  Exposed for the calendar tests. *)

val civil_from_days : int -> int * int * int
(** Inverse of {!days_from_civil}: [(year, month, day)]. *)
