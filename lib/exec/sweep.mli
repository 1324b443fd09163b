(** Declarative sweep specs: a grid of protocols x bandwidths x relay
    counts over a base {!Protocols.Runenv.Spec.t}, compiled to a flat
    job list for the {!Pool}.  The Figure 10 evaluation grid is
    [make ~bandwidths_mbit:[50.; 20.; 10.; 1.; 0.5]
      ~relay_counts:[1000; ...; 10000] ()]. *)

type t = {
  protocols : Job.protocol list;
  bandwidths_mbit : float list;
  relay_counts : int list;
  base : Protocols.Runenv.Spec.t;
      (** seed, attacks, behaviors, horizon, ... shared by every cell *)
}

val make :
  ?protocols:Job.protocol list ->
  ?bandwidths_mbit:float list ->
  ?relay_counts:int list ->
  ?base:Protocols.Runenv.Spec.t ->
  unit ->
  t
(** Defaults: all three protocols, 250 Mbit/s, 1000 relays,
    [Spec.default] base. *)

(** One grid point, with the axis values that produced its job (so
    consumers need not recover them from the spec). *)
type cell = {
  protocol : Job.protocol;
  bandwidth_mbit : float;
  n_relays : int;
  job : Job.t;
}

val cells : t -> cell list
(** Protocol-major, then bandwidth, then relay count — the iteration
    order of the sequential code it replaces, so outputs line up. *)

val jobs : t -> Job.t list
(** [cells] without the axis labels. *)
