(** Tor-style simulation log.

    Protocols emit log records that the Figure 1 reproduction formats
    exactly like a directory authority's log ("[notice] We're missing
    votes from 5 authorities ..."). *)

type level = Notice | Info | Warn

type record = {
  time : Simtime.t;
  node : int option; (* None for network-level records *)
  level : level;
  text : string;
}

type t

val create : unit -> t

val log : t -> time:Simtime.t -> ?node:int -> level -> string -> unit

val logf :
  t -> time:Simtime.t -> ?node:int -> level -> ('a, Format.formatter, unit, unit) format4 -> 'a

val records : t -> record list
(** All records, by a stable (time, node) sort: records with equal
    (time, node) keep their emission order. *)

val for_node : t -> int -> record list
(** Records emitted by one node, oldest first. *)

val render : record -> string
(** One Tor-style log line: ["Jan 01 01:24:30.011 \[notice\] ..."]. *)

val iter : ?node:int -> t -> (record -> unit) -> unit
(** Visit records in exactly the order of {!records} (optionally one
    node's).  [dump] and [torda-sim log] are built on it. *)

val dump : ?node:int -> t -> string
(** All (or one node's) records rendered, newline-separated. *)
