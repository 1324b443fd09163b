(** Sim-time phase spans and counter samples.

    The accessors sort with comparators over *every* field, so the
    streams depend only on what was recorded, not in what order: every
    driver records its spans after the run, and the order in which it
    walks its nodes and phases does not show in the stream. *)

type span = {
  node : int;
  phase : string;
  start : float;  (** sim seconds *)
  stop : float;
  complete : bool;
      (** [false] when the phase never finished — the run ended (or the
          node stalled) with the phase still open. *)
}

type sample = {
  node : int;
  track : string;  (** counter name, e.g. ["nic-backlog"] *)
  time : float;
  value : float;
}

type t

val create : unit -> t

val span :
  t ->
  node:int ->
  phase:string ->
  start:float ->
  stop:float ->
  complete:bool ->
  unit

val sample : t -> node:int -> track:string -> time:float -> value:float -> unit

val spans : t -> span list
(** All spans, sorted by (start, node, phase, stop, complete). *)

val samples : t -> sample list
(** All samples, sorted by (time, node, track, value). *)
