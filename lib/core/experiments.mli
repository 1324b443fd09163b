(** Experiment harnesses for every table and figure in the paper's
    evaluation.  Each function runs the relevant simulations and
    returns plain data; `bench/main.exe` formats the rows, and the
    property tests reuse the same entry points.  DESIGN.md §4 maps
    each experiment to its paper counterpart. *)

type protocol = Exec.Job.protocol = Current | Synchronous | Ours
(** Re-export of {!Exec.Job.protocol}, so experiment code and the
    sweep engine share one protocol enum. *)

val protocol_name : protocol -> string

val run : protocol -> Protocols.Runenv.t -> Protocols.Runenv.report
(** The single execution path: the CLI, scenario files, the benches,
    the chaos harness, and the sweep pool all run simulations through
    here and consume the same structured {!Protocols.Runenv.report}.
    When the environment carries a
    {!Protocols.Runenv.Spec.t.distribution} config and the agreement
    run succeeds, the majority-signed document is handed to the
    {!Torclient.Distribution} tier and the report's [distribution]
    field carries the client-side metrics.  The full download is the
    document's {!Dirdoc.Consensus.text_size}; with diff serving, the
    served delta is {!Torclient.Consdiff.wire_size} against a
    synthesized previous-hour document, so neither size builds or
    hashes text.  After a failed run nothing reaches the caches, so
    the field is [None]. *)

val run_job : Exec.Job.t -> Exec.Job.outcome
(** Execute one sweep job through {!run}, on a fresh environment built
    from its spec with the shared vote population
    ({!votes_for_spec}). *)

val votes_for_spec : Protocols.Runenv.Spec.t -> Dirdoc.Vote.t array
(** The vote population [Runenv.of_spec] would generate for this spec,
    from a process-wide domain-safe cache keyed by exactly the
    vote-relevant spec fields (seed, n, n_relays, valid_after,
    divergence) — unrelated fields (attacks, bandwidth, horizon, ...)
    share the same entry.  Feed the result back through
    [Runenv.of_spec ~votes] (as {!run_job} does internally) or
    {!Exec.Campaign.map}'s [?votes] to skip vote generation, the
    dominant setup cost of large-population runs. *)

val run_jobs : ?jobs:int -> Exec.Job.t list -> Exec.Job.outcome list
(** [run_jobs ~jobs l] maps {!run_job} over [l] on an [jobs]-domain
    {!Exec.Pool} (default 1 = sequential), preserving order.  Results
    are byte-identical for every [jobs] value: each job rebuilds its
    environment from its own spec, and outcomes are reassembled in
    input order. *)

val default_seed : string
(** Seed used by every experiment ("torpartial"); change it to check
    seed-independence. *)

val default_relay_counts : int list
(** 1000-10000 in steps of 1000 — the x-axis of Figures 7 and 10. *)

val default_bandwidths : float list
(** 50, 20, 10, 1, 0.5 Mbit/s — the bandwidth settings of Figure 10. *)

(** {1 Figure 1 — authority log under attack} *)

val fig1 : unit -> string
(** Run the current protocol at 8,000 relays with 5 authorities
    flooded during the vote window and return an unattacked
    authority's Tor-style log — the Figure 1 reproduction. *)

(** {1 Figure 6 — relay census} *)

val fig6 : unit -> (string * float) list * float
(** Monthly relay-count series (Sep 2022 - Oct 2024) and its mean
    (recentred to the paper's 7141.79). *)

(** {1 Figure 7 — bandwidth requirement} *)

val fig7 : ?jobs:int -> unit -> (int * float) list
(** For each of {!default_relay_counts}, binary-search the minimum
    bandwidth (Mbit/s, to 0.1 Mbit/s precision) the 5 attacked
    authorities need for the current protocol to still succeed.
    [jobs] parallelizes across relay counts; each probe is one fresh
    run, and a binary search never probes a bandwidth twice. *)

(** {1 Figure 10 — latency under bandwidth constraints} *)

type fig10_cell = {
  protocol : protocol;
  bandwidth_mbit : float;
  n_relays : int;
  latency : float option; (** None = failed to produce a consensus *)
}

val fig10 : ?jobs:int -> unit -> fig10_cell list
(** The full grid of Figure 10: all three protocols at every
    {!default_bandwidths} x {!default_relay_counts} combination (150
    independent cells).  The grid is compiled to an {!Exec.Sweep} job
    list and executed on [jobs] domains through {!run_jobs}; cell
    order and values are identical for every [jobs]. *)

(** {1 Figure 11 — recovery from a 5-minute knockout} *)

type fig11_row = { protocol : protocol; total_latency : float option }

val fig11 : ?jobs:int -> unit -> fig11_row list
(** 8,000 relays; 5 authorities fully offline for the first 300 s,
    250 Mbit/s otherwise.  For the lock-step baselines the run fails and the
    fallback applies: 2100 s (25 min wait for the next scheduled run
    plus the 10-minute protocol), the constant the paper reports. *)

val baseline_fallback_seconds : float
(** 2100 s. *)

(** {1 Table 1 — communication complexity} *)

type table1_row = {
  protocol : protocol;
  n : int;
  n_relays : int;
  total_bytes : int;    (** measured bytes on the simulated wire *)
  bytes_by_label : (string * int) list;
}

val table1 : unit -> table1_row list
(** Measured traffic for each protocol while sweeping [n] over 5, 7, 9
    and 13 at 1000 relays, and the document size over 1000, 2000 and
    4000 relays at fixed [n = 9]; the bench prints these next to the
    asymptotic formulas of Table 1. *)

(** {1 Table 2 — round complexity} *)

type table2_row = {
  sub_protocol : string;
  rounds : int;          (** structural rounds, as in Table 2 *)
}

val table2 : unit -> table2_row list * float
(** The structural round counts (dissemination 2, agreement 5,
    aggregation 2) plus an empirical check: the good-case decision
    time of our protocol on a uniform-latency network divided by the
    one-way latency — which should be close to the total round
    count. *)

(** {1 Section 4.3 — attack cost} *)

val cost_rows : unit -> (string * float) list
(** Named cost figures: one-run cost, monthly cost, and the Jansen et
    al. comparison points. *)

(** {1 Complexity fits (Table 1 verification)} *)

val table1_fits : table1_row list -> (protocol * Tor_sim.Summary.fit) list
(** Power-law fit of total bytes against [n] (at fixed document size)
    per protocol; the slope is the measured exponent to compare with
    Table 1's d-term (current/ours ≈ 2, synchronous ≈ 3). *)

(** {1 Ablations (design-choice sweeps from DESIGN.md §5)} *)

val recovery_vs_view_timeout : unit -> (float * float option) list
(** Figure 11 scenario at 2,000 relays swept over the HotStuff
    pacemaker timeout (1, 5, 15 and 30 s): recovery latency after the
    attack ends, per timeout setting. *)

val latency_vs_doc_timeout : unit -> (float * float option) list
(** Happy-path-with-2-silent-authorities latency at 1,000 relays swept
    over the dissemination wait Δ (30, 150 and 300 s): with silent
    authorities, a node may not see all n documents and must wait Δ
    before proposing with n - f, so Δ bounds the latency directly. *)

type engine_row = {
  engine : string;         (** agreement engine name *)
  scenario : string;       (** "healthy" or "knockout" *)
  engine_latency : float option;
  agreement_bytes : int;   (** bytes attributed to agreement messages *)
}

val agreement_engines : unit -> engine_row list
(** The paper's §5.2.2 pluggability claim, measured at 1,000 relays:
    the same dissemination/aggregation sub-protocols over HotStuff
    (linear, leader-relayed votes), Tendermint, and PBFT (both
    all-to-all), in the healthy and 300 s-knockout scenarios. *)

val consdiff_savings : unit -> (int * float) list
(** Per consensus hour (hours 1-4) over a churning population of
    2,000 relays: the fraction of client download saved by fetching a
    consensus diff instead of the full document (Tor's consdiff
    mechanism). *)
