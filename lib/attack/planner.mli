(** Attack planning: turn a measured bandwidth requirement into a
    stressor budget and a sustained-outage cost.

    Ties the Figure 7 sweep to the Section 4.3 cost table: given the
    minimum bandwidth the directory protocol needs at the current relay
    count, the attacker floods each target with the rest of its link
    and repeats the attack every hour.  Tor clients reject consensus
    documents older than 3 h, so a sustained attack takes the whole
    network down after three failed runs. *)

type plan = {
  n_relays : int;
  required_mbit_per_sec : float;  (** protocol's need per authority *)
  flood_mbit_per_sec : float;     (** attack traffic per target *)
  instance : Cost.instance;
  usd_per_month : float;
}

val make : n_relays:int -> required_mbit_per_sec:float -> unit -> plan
(** The {!Cost.break_one_run} instance for the requirement: 5 targets
    on 250 Mbit/s links, 300 s per run.  Raises [Invalid_argument] if
    the requirement exceeds the link (the protocol could not run at
    all — no attack needed). *)

val hours_to_network_down : float
(** 3.0 — consensus documents expire 3 h after generation; consecutive
    failures beyond this halt the network. *)

val pp : Format.formatter -> plan -> unit
