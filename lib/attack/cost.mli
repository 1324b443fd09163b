(** The attack cost model of Section 4.3.

    Costs follow Jansen et al.'s measurement of DDoS-for-hire stressor
    services: flooding one target with 1 Mbit/s of attack traffic for
    one hour costs $0.00074 (amortized).  The paper's headline numbers
    reproduce exactly: $0.074 to break one hourly consensus run and
    $53.28/month to keep Tor down. *)

val usd_per_mbit_per_hour : float
(** 0.00074 — Jansen et al.'s amortized stressor price. *)

val flood_usd : mbit_per_sec:float -> targets:int -> seconds:float -> float
(** Cost of flooding [targets] hosts at [mbit_per_sec] each for a
    duration.  Raises [Invalid_argument] on negative inputs. *)

type instance = {
  required_mbit_per_sec : float;  (** protocol's need per authority *)
  targets : int;             (** authorities attacked (5 of 9) *)
  flood_mbit_per_sec : float;(** per-target attack traffic *)
  seconds : float;           (** attack duration per consensus run *)
  usd : float;               (** cost of breaking one run *)
}

val break_one_run : ?required_mbit_per_sec:float -> unit -> instance
(** The paper's attack instance: flood each of 5 authorities with
    [link - required] for 300 s over a 250 Mbit/s link; the default
    requirement of 10 Mbit/s gives 240 Mbit/s ⇒ $0.074.  Raises
    [Invalid_argument] if the requirement exceeds the link. *)

val monthly_usd : instance -> float
(** Breaking every hourly run for 30 days: [usd × 24 × 30]
    ⇒ $53.28/month for the default instance. *)

val hours_to_network_down : float
(** 3.0 — consensus documents expire 3 h after generation, so a
    sustained attack takes the whole network down after three failed
    runs. *)

val pp : n_relays:int -> Format.formatter -> instance -> unit
(** One line for a network of [n_relays]: the requirement, the flood
    that denies it, and the per-run and monthly costs. *)

val jansen_bridges_monthly_usd : float
(** $17,000/month — Jansen et al.'s estimate for attacking Tor's
    bridges, for the Related-Work comparison. *)

val jansen_scanners_monthly_usd : float
(** $2,800/month — likewise for the bandwidth scanners. *)
