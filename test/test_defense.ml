(* Defense toolbox: token-bucket admission boundaries, the rotation
   schedule, plan canonicalization and digest participation, and the
   end-to-end invariants — defense-off runs identical to undefended
   runs, defended runs bit-identical across worker counts. *)

open Tor_sim
module R = Protocols.Runenv
module E = Torpartial.Experiments

(* --- Admission: GCRA boundaries ------------------------------------------ *)

(* rate 1 msg/s, burst 4, backlog 2: period 1 s, tolerance 3 s. *)
let bucket ?(backlog = 2) () =
  Defense.Admission.instantiate { Defense.Admission.rate = 1.; burst = 4; backlog } ~n:2

let verdict =
  let pp ppf = function
    | Defense.Admission.Admit -> Format.pp_print_string ppf "Admit"
    | Defense.Admission.Defer t -> Format.fprintf ppf "Defer %g" t
    | Defense.Admission.Reject -> Format.pp_print_string ppf "Reject"
  in
  Alcotest.testable pp ( = )

let test_admission_burst_at_capacity () =
  let a = bucket () in
  (* Exactly [burst] messages admitted back-to-back at t=0; the next
     two land in the backlog with grant times one period apart; the
     one after overflows. *)
  for i = 1 to 4 do
    Alcotest.check verdict
      (Printf.sprintf "burst message %d" i)
      Defense.Admission.Admit
      (Defense.Admission.decide a ~now:0. ~dst:1 ~src:0)
  done;
  Alcotest.check verdict "burst + 1 defers to t=1" (Defense.Admission.Defer 1.)
    (Defense.Admission.decide a ~now:0. ~dst:1 ~src:0);
  Alcotest.check verdict "burst + 2 defers to t=2" (Defense.Admission.Defer 2.)
    (Defense.Admission.decide a ~now:0. ~dst:1 ~src:0);
  Alcotest.check verdict "backlog full rejects" Defense.Admission.Reject
    (Defense.Admission.decide a ~now:0. ~dst:1 ~src:0);
  (* Other (dst, src) pairs have their own cursors. *)
  Alcotest.check verdict "independent pair unaffected" Defense.Admission.Admit
    (Defense.Admission.decide a ~now:0. ~dst:0 ~src:1)

let test_admission_refill_on_window_edge () =
  let a = bucket ~backlog:0 () in
  for _ = 1 to 4 do
    ignore (Defense.Admission.decide a ~now:0. ~dst:1 ~src:0)
  done;
  (* After a full burst at t=0 the next conforming instant is exactly
     one period later — just below it still rejects. *)
  Alcotest.check verdict "just below the edge" Defense.Admission.Reject
    (Defense.Admission.decide a ~now:0.999999 ~dst:1 ~src:0);
  Alcotest.check verdict "exactly on the edge" Defense.Admission.Admit
    (Defense.Admission.decide a ~now:1. ~dst:1 ~src:0)

let test_admission_backlog_drain () =
  let a = bucket () in
  for _ = 1 to 4 do
    ignore (Defense.Admission.decide a ~now:0. ~dst:1 ~src:0)
  done;
  ignore (Defense.Admission.decide a ~now:0. ~dst:1 ~src:0);
  ignore (Defense.Admission.decide a ~now:0. ~dst:1 ~src:0);
  Alcotest.(check int) "two queued" 2 (Defense.Admission.queued a ~dst:1 ~src:0);
  Defense.Admission.drain a ~dst:1 ~src:0;
  Defense.Admission.drain a ~dst:1 ~src:0;
  Alcotest.(check int) "drained" 0 (Defense.Admission.queued a ~dst:1 ~src:0);
  Alcotest.check_raises "over-drain is a bug"
    (Invalid_argument "Defense.Admission.drain: empty backlog") (fun () ->
      Defense.Admission.drain a ~dst:1 ~src:0)

let test_admission_validate () =
  List.iter
    (fun (config, n) ->
      match Defense.Admission.instantiate config ~n with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      ({ Defense.Admission.rate = 0.; burst = 1; backlog = 0 }, 2);
      ({ Defense.Admission.rate = 1.; burst = 0; backlog = 0 }, 2);
      ({ Defense.Admission.rate = 1.; burst = 1; backlog = -1 }, 2);
      (Defense.Admission.default, 0);
    ]

(* --- Rotation: schedule properties --------------------------------------- *)

let rot_config = { Defense.Rotation.seed = "test"; out = 2; epoch = 100. }

let test_rotation_schedule () =
  List.iter
    (fun epoch ->
      let out = Defense.Rotation.out_nodes rot_config ~n:9 ~epoch in
      Alcotest.(check int)
        (Printf.sprintf "epoch %d: |out| = out" epoch)
        2 (List.length out);
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d: distinct, in range" epoch)
        true
        (List.for_all (fun i -> i >= 0 && i < 9) out
        && List.length (List.sort_uniq compare out) = 2);
      Alcotest.(check (list int))
        (Printf.sprintf "epoch %d: schedule is pure" epoch)
        out
        (Defense.Rotation.out_nodes rot_config ~n:9 ~epoch))
    [ 0; 1; 2; 17 ];
  (* Different epochs draw different subsets somewhere in the first
     few — a constant schedule would defend nothing. *)
  let subsets =
    List.map
      (fun e -> Defense.Rotation.out_nodes rot_config ~n:9 ~epoch:e)
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "subsets vary across epochs" true
    (List.length (List.sort_uniq compare subsets) > 1)

let test_rotation_epoch_edges () =
  Alcotest.(check int) "just below the edge" 0
    (Defense.Rotation.epoch_of rot_config ~now:99.999);
  Alcotest.(check int) "exactly on the edge" 1
    (Defense.Rotation.epoch_of rot_config ~now:100.);
  (* The memoized instance agrees with the pure predicate across the
     epochs it caches through. *)
  let t = Defense.Rotation.instantiate rot_config ~n:9 in
  List.iter
    (fun now ->
      for node = 0 to 8 do
        Alcotest.(check bool)
          (Printf.sprintf "quiet(%d, %g) memo == pure" node now)
          (Defense.Rotation.quiet_at rot_config ~n:9 ~node ~now)
          (Defense.Rotation.quiet t ~node ~now)
      done)
    [ 0.; 50.; 99.999; 100.; 250.; 1000. ]

let test_rotation_validate () =
  List.iter
    (fun config ->
      match Defense.Rotation.validate ~n:9 config with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "expected Invalid_argument")
    [
      { Defense.Rotation.seed = "x"; out = 9; epoch = 100. };
      { Defense.Rotation.seed = "x"; out = -1; epoch = 100. };
      { Defense.Rotation.seed = "x"; out = 1; epoch = 0. };
    ]

(* --- Plan: presets and digest participation ------------------------------ *)

let test_plan_presets () =
  Alcotest.(check bool) "none is empty" true
    (Defense.Plan.is_empty Defense.Plan.none);
  List.iter
    (fun (name, expected) ->
      match (Defense.Plan.preset name, expected) with
      | Some got, Some want ->
          Alcotest.(check bool) name true (got = want)
      | None, None -> ()
      | _ -> Alcotest.fail ("preset " ^ name))
    [
      ("none", Some Defense.Plan.none);
      ("admission", Some Defense.Plan.admission_only);
      ("rotation", Some Defense.Plan.rotation_only);
      ("both", Some Defense.Plan.both);
      ("bogus", None);
    ]

let spec_with defense = { R.Spec.default with R.Spec.defense }

let test_spec_digest_distinct () =
  (* The defense member participates in the spec digest: every preset
     (and the absent field) pins a distinct digest, so no defended
     result can be mistaken for an undefended one. *)
  let digests =
    List.map
      (fun d -> R.Spec.digest (spec_with d))
      [
        None;
        Some Defense.Plan.none;
        Some Defense.Plan.admission_only;
        Some Defense.Plan.rotation_only;
        Some Defense.Plan.both;
      ]
  in
  Alcotest.(check int) "all digests distinct" 5
    (List.length (List.sort_uniq compare digests))

let test_plan_canonical_roundtrip_stability () =
  (* Canonical strings are the digest preimage: distinct configs must
     not collide textually. *)
  let canon =
    List.map Defense.Plan.canonical
      [
        Defense.Plan.none;
        Defense.Plan.admission_only;
        Defense.Plan.rotation_only;
        Defense.Plan.both;
        {
          Defense.Plan.admission = Some { Defense.Admission.rate = 2.; burst = 31; backlog = 64 };
          rotation = None;
        };
        {
          Defense.Plan.admission = None;
          rotation = Some { Defense.Rotation.seed = "mptc"; out = 1; epoch = 101. };
        };
      ]
  in
  Alcotest.(check int) "canonical strings distinct" 6
    (List.length (List.sort_uniq compare canon))

(* --- Stats: reject accounting -------------------------------------------- *)

let test_stats_rejected_counters () =
  let s = Stats.create ~n:3 in
  let vote = Some (Stats.label s "vote") in
  Stats.record_reject s ~node:1 ~label:vote;
  Stats.record_reject s ~node:1 ~label:vote;
  Stats.record_reject s ~node:2 ~label:None;
  Alcotest.(check int) "rejected total" 3 (Stats.rejected s);
  Alcotest.(check int) "rejected at node 1" 2 (Stats.rejected_at s 1);
  Alcotest.(check int) "rejected by label" 2 (Stats.label_rejected s "vote");
  Alcotest.(check int) "dropped untouched" 0 (Stats.dropped s);
  Alcotest.(check (list (pair string int))) "rejected labels"
    [ ("vote", 2) ] (Stats.rejected_labels s)

(* --- End-to-end invariants ------------------------------------------------ *)

let summary (r : R.report) =
  let auth (a : R.authority_result) =
    ( (match a.R.consensus with
      | Some c -> Crypto.Digest32.hex (Dirdoc.Consensus.digest c)
      | None -> "none"),
      a.R.signatures,
      a.R.decided_at,
      a.R.network_time )
  in
  let stats = r.R.result.R.stats in
  ( (r.R.protocol, r.R.success, r.R.agreement, r.R.success_latency),
    ( r.R.total_bytes,
      r.R.dropped,
      r.R.rejected,
      Stats.dropped_labels stats,
      Stats.rejected_labels stats ),
    Array.to_list (Array.map auth r.R.result.R.per_authority),
    List.map Trace.render (Trace.records r.R.result.R.trace) )

let base_spec = { R.Spec.default with R.Spec.n_relays = 400; horizon = 600. }

(* An admission config tight enough to actually defer and reject
   directory traffic in a 9-authority run, so the defended paths (the
   backlog, the granted re-arrival, the reject accounting) are the
   ones under test — the Onion Pass defaults never trip on benign
   load. *)
let tight_defense =
  {
    Defense.Plan.admission =
      Some { Defense.Admission.rate = 0.05; burst = 2; backlog = 4 };
    rotation = Some { Defense.Rotation.seed = "test"; out = 1; epoch = 100. };
  }

let test_defense_off_identical () =
  (* An explicit empty plan must not perturb the simulation: same
     bytes, same trace, same verdicts as the absent field. *)
  let off = summary (E.run E.Current (R.of_spec (spec_with None))) in
  let empty =
    summary (E.run E.Current (R.of_spec (spec_with (Some Defense.Plan.none))))
  in
  Alcotest.(check bool) "empty plan == no plan" true (off = empty)

let test_defended_run_rejects () =
  let spec = { base_spec with R.Spec.defense = Some tight_defense } in
  let r = E.run E.Current (R.of_spec spec) in
  Alcotest.(check bool) "defended run turns traffic away" true (r.R.rejected > 0);
  let undefended = E.run E.Current (R.of_spec base_spec) in
  Alcotest.(check int) "undefended run rejects nothing" 0 undefended.R.rejected

let test_defended_jobs_invariant () =
  (* A defended campaign gives the same runs on one worker as on two:
     which domain runs a plan, and what ran there before, never changes
     the result. *)
  let defended = { base_spec with R.Spec.defense = Some tight_defense } in
  let plans =
    List.map
      (fun attacks -> Exec.Campaign.plan_of_spec { defended with R.Spec.attacks })
      [ []; Attack.Ddos.knockout ~n:9 (); Attack.Ddos.bandwidth_attack ~n:9 () ]
  in
  List.iter
    (fun protocol ->
      let eval ctx plan = summary (E.run protocol (Exec.Campaign.env_of ctx plan)) in
      let one = Exec.Campaign.map ~jobs:1 ~base:defended eval plans in
      let two = Exec.Campaign.map ~jobs:2 ~base:defended eval plans in
      Alcotest.(check int) "one result per plan" (List.length plans) (List.length one);
      Alcotest.(check bool) "defended: jobs=2 == jobs=1" true (two = one))
    [ E.Current; E.Ours ]

let suite =
  [
    ("admission: burst exactly at capacity", `Quick, test_admission_burst_at_capacity);
    ("admission: refill on the window edge", `Quick, test_admission_refill_on_window_edge);
    ("admission: backlog overflow and drain", `Quick, test_admission_backlog_drain);
    ("admission: config validation", `Quick, test_admission_validate);
    ("rotation: schedule properties", `Quick, test_rotation_schedule);
    ("rotation: epoch edges and memoization", `Quick, test_rotation_epoch_edges);
    ("rotation: config validation", `Quick, test_rotation_validate);
    ("plan: presets", `Quick, test_plan_presets);
    ("plan: spec digests distinct per defense", `Quick, test_spec_digest_distinct);
    ("plan: canonical strings distinct", `Quick, test_plan_canonical_roundtrip_stability);
    ("stats: rejected counters", `Quick, test_stats_rejected_counters);
    ("e2e: empty plan == no plan", `Quick, test_defense_off_identical);
    ("e2e: defended run rejects, undefended does not", `Quick, test_defended_run_rejects);
    ("e2e: defended run bit-identical across worker counts", `Quick,
      test_defended_jobs_invariant);
  ]
