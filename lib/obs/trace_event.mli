(** Chrome trace-event JSON export, loadable in Perfetto
    (https://ui.perfetto.dev) or chrome://tracing.

    Phase spans become ["X"] (complete) events and counter samples
    become ["C"] (counter) events, all under pid 0 with one thread per
    node, named ["authority N"], so Perfetto renders one track per
    node with its phase bars and a separate counter track per (track,
    node) pair.  Timestamps are sim time converted to microseconds (the
    unit the format mandates).  A non-finite sample value (the NIC
    backlog of a zero-bandwidth link) is written as [null]. *)

val to_string : spans:Events.span list -> samples:Events.sample list -> string
(** One complete JSON document ([{"traceEvents": [...]}]), written by
    {!Json.to_string} and ending in a newline. *)
