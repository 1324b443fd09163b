(** DDoS attack scenarios against the directory authorities
    (Section 4).

    The attack model is the one the paper (and Jansen et al.) use in
    Shadow: a stressor flood consumes the target's link, leaving a
    residual bandwidth for the directory protocol.  Knocking out a
    majority of the 9 authorities for the first two protocol rounds
    (300 s) is enough to stop consensus generation. *)

val authority_link_bits_per_sec : float
(** 250 Mbit/s — the authority link capacity reported in the 2021
    incident (gitlab issue #33018) and by bandwidth measurements. *)

val ddos_residual_bits_per_sec : float
(** 0.5 Mbit/s — bandwidth left to a node under a stressor flood
    (Jansen et al., the dashed line of Figure 7). *)

val majority_targets : n:int -> int list
(** The smallest majority of authorities ([⌊n/2⌋ + 1] of them —
    5 of 9), lowest ids first. *)

val bandwidth_attack :
  ?start:Tor_sim.Simtime.t ->
  ?stop:Tor_sim.Simtime.t ->
  ?residual_bits_per_sec:float ->
  n:int ->
  unit ->
  Protocols.Runenv.attack list
(** The paper's attack: flood the {!majority_targets} during the
    window (default the vote window, [0, 300 s)), leaving the residual
    (default {!ddos_residual_bits_per_sec}).  Raises
    [Invalid_argument] on a window that stops before it starts. *)

val knockout :
  ?start:Tor_sim.Simtime.t ->
  ?stop:Tor_sim.Simtime.t ->
  n:int ->
  unit ->
  Protocols.Runenv.attack list
(** The Figure 11 scenario: the {!majority_targets} fully offline
    (zero residual) during the window; their traffic drains when it
    ends. *)
