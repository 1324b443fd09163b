(** The end-to-end outage experiment: "five minutes of DDoS brings
    down Tor".

    Simulates a day of hourly consensus runs.  Under the paper's
    attack policy the stressor floods 5 of 9 authorities for the first
    300 s of every hour ($0.074 each).  Each hour's directory-protocol
    run is actually simulated; a client then tracks the newest
    document it can verify and the dir-spec freshness rules decide
    when circuit building stops: three consecutive failures expire the
    last valid consensus and the network goes dark (the January 2021
    incident, sustained).

    Running the same timeline over the paper's protocol shows the
    mitigation: every hourly run still produces a consensus (a few
    seconds after each flood ends), so clients never lose service. *)

type attack_policy =
  | No_attack
  | Hourly_flood  (** 5 authorities, 300 s, 0.5 Mbit/s residual, every hour *)

type hour = {
  index : int;                (** hour number, 0-based *)
  consensus_produced : bool;  (** did this hour's run succeed? *)
  client_usable : bool;       (** can clients build circuits at hour end? *)
  client_status : Torclient.Directory.freshness option;
      (** freshness of the newest document the client holds *)
}

type timeline = {
  protocol : Experiments.protocol;
  policy : attack_policy;
  hours : hour list;
  dark_hours : int;  (** hours during which clients could not build circuits *)
  attacker_usd : float;  (** total stressor spend over the timeline *)
}

val run :
  ?hours:int ->
  protocol:Experiments.protocol ->
  policy:attack_policy ->
  unit ->
  timeline
(** [hours] defaults to 12; every hour runs at 2,000 relays.  Every
    hour re-runs the directory protocol in its own simulation (fresh
    votes, same seed lineage) and feeds any produced consensus to a
    client. *)

val first_dark_hour : timeline -> int option
(** The first hour at whose end clients could no longer build
    circuits; [None] if the network stayed up.  Under [Hourly_flood]
    against the current protocol this is hour 3 — the 3-hour validity
    horizon of the last pre-attack consensus. *)
