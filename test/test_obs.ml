(* Telemetry: histogram bucketing/merging, the network's by-label
   registry snapshot, the JSON writer and the Chrome trace-event
   export, log iteration,
   and end-to-end telemetry — every protocol's
   run records spans, probes and delivery histograms, and a rerun
   reproduces them bit for bit. *)

module R = Protocols.Runenv
module E = Torpartial.Experiments
module M = Obs.Metrics

(* --- histograms ---------------------------------------------------------- *)

let test_histogram_basics () =
  let h = M.histogram_create () in
  Alcotest.(check int) "empty count" 0 (M.count h);
  Alcotest.(check bool) "empty percentile nan" true
    (Float.is_nan (M.percentile h 0.5));
  List.iter (M.observe h) [ 0.010; 0.020; 0.030; 0.040; 0.100 ];
  Alcotest.(check int) "count" 5 (M.count h);
  Alcotest.(check (float 1e-9)) "sum exact" 0.2 (M.sum h);
  Alcotest.(check (float 1e-9)) "min exact" 0.010 (M.min_value h);
  Alcotest.(check (float 1e-9)) "max exact" 0.100 (M.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 0.04 (M.mean h);
  (* Percentiles are bucket upper bounds clamped to the observed range:
     p0+ sits at the exact min, p100 at the exact max, and the median's
     bound lies between the true median and its bucket edge. *)
  Alcotest.(check (float 1e-9)) "p100 is exact max" 0.100 (M.percentile h 1.0);
  let p50 = M.percentile h 0.5 in
  Alcotest.(check bool) "p50 upper-bounds the median" true
    (p50 >= 0.030 && p50 <= 0.030 *. (10. ** (1. /. 16.)));
  (* Edge behavior: negatives clamp to 0 (underflow bucket), tiny
     values land in the underflow bucket, huge ones in the top bucket —
     no exception, exact min/max still tracked. *)
  let e = M.histogram_create () in
  M.observe e (-1.);
  M.observe e 1e-9;
  M.observe e 1e12;
  Alcotest.(check int) "edges counted" 3 (M.count e);
  Alcotest.(check (float 0.)) "clamped min" 0. (M.min_value e);
  Alcotest.(check (float 0.)) "huge max exact" 1e12 (M.max_value e)

let test_histogram_merge_overlapping () =
  (* Two histograms with overlapping buckets must merge to exactly the
     histogram a single instance would have recorded for the union —
     the property the per-destination latency tables rely on. *)
  let values_a = [ 0.001; 0.010; 0.010; 0.500; 3.0 ] in
  let values_b = [ 0.010; 0.020; 0.500; 0.500; 100.0 ] in
  let a = M.histogram_create () and b = M.histogram_create () in
  let one = M.histogram_create () in
  List.iter (M.observe a) values_a;
  List.iter (M.observe b) values_b;
  List.iter (M.observe one) (values_a @ values_b);
  let m = M.histogram_create () in
  M.merge_histogram ~into:m a;
  M.merge_histogram ~into:m b;
  Alcotest.(check string) "merge == single recording" (M.render one) (M.render m);
  (* Merge order is irrelevant. *)
  let m' = M.histogram_create () in
  M.merge_histogram ~into:m' b;
  M.merge_histogram ~into:m' a;
  Alcotest.(check string) "merge commutes" (M.render m) (M.render m')

let test_registry_merge () =
  (* The network keeps one delivery histogram per (destination, label)
     and its registry snapshot merges them by label name, destinations
     in node order: the same histograms, bit for bit, as merging the
     per-destination recordings by hand. *)
  let module S = Tor_sim in
  let engine = S.Engine.create () in
  let topology = S.Topology.uniform ~n:3 ~latency:0.01 in
  let net = S.Net.create ~engine ~topology ~bits_per_sec:1e6 () in
  let label = S.Stats.label (S.Net.stats net) in
  let vote = label "vote" and sig_ = label "sig" in
  ignore (label "idle" : S.Stats.label);
  S.Net.enable_obs net;
  let by_hand = Hashtbl.create 8 in
  let recorded ~dst label =
    match Hashtbl.find_opt by_hand (dst, label) with
    | Some h -> h
    | None ->
        let h = M.histogram_create () in
        Hashtbl.replace by_hand (dst, label) h;
        h
  in
  (* Every message is sent at time 0, so its delivery latency is the
     delivery instant. *)
  S.Net.set_handler net (fun ~dst ~src:_ label ->
      if label <> "unlabelled" then
        M.observe (recorded ~dst label) (S.Engine.now engine));
  S.Net.broadcast net ~src:0 ~size:1_000 ~label:vote "vote";
  S.Net.broadcast net ~src:1 ~size:3_000 ~label:vote "vote";
  S.Net.send net ~src:2 ~dst:0 ~size:500 ~label:sig_ "sig";
  S.Net.send net ~src:1 ~dst:0 ~size:700 ~label:sig_ "sig";
  S.Net.send net ~src:0 ~dst:2 ~size:900 "unlabelled";
  S.Engine.run engine;
  let expected label =
    let h = M.histogram_create () in
    for dst = 0 to 2 do
      Option.iter (M.merge_histogram ~into:h) (Hashtbl.find_opt by_hand (dst, label))
    done;
    M.render h
  in
  let reg = S.Net.obs_metrics net in
  Alcotest.(check (list string)) "one histogram per label"
    [ "delivery-latency/idle"; "delivery-latency/sig"; "delivery-latency/vote" ]
    (List.map fst (M.histograms reg));
  List.iter
    (fun (label, deliveries) ->
      match M.find_histogram reg ("delivery-latency/" ^ label) with
      | None -> Alcotest.fail ("missing histogram for " ^ label)
      | Some h ->
          Alcotest.(check int) (label ^ ": deliveries") deliveries (M.count h);
          Alcotest.(check string) (label ^ ": merged by name, in node order")
            (expected label) (M.render h))
    [ ("vote", 4); ("sig", 2); ("idle", 0) ];
  Alcotest.(check bool) "unknown name" true
    (M.find_histogram reg "delivery-latency/nope" = None)

(* A label made after telemetry started records its deliveries like
   any other: the histograms are made at a label's first delivery. *)
let test_registry_late_label () =
  let module S = Tor_sim in
  let engine = S.Engine.create () in
  let topology = S.Topology.uniform ~n:3 ~latency:0.01 in
  let net = S.Net.create ~engine ~topology ~bits_per_sec:1e6 () in
  S.Net.enable_obs net;
  let late = S.Stats.label (S.Net.stats net) "late" in
  S.Net.set_handler net (fun ~dst:_ ~src:_ () -> ());
  S.Net.broadcast net ~src:0 ~size:1_000 ~label:late ();
  S.Net.send net ~src:1 ~dst:1 ~size:1_000 ~label:late ();
  S.Engine.run engine;
  match M.find_histogram (S.Net.obs_metrics net) "delivery-latency/late" with
  | None -> Alcotest.fail "missing histogram for a label made after enable_obs"
  | Some h -> Alcotest.(check int) "three deliveries" 3 (M.count h)

(* --- trace-event export -------------------------------------------------- *)

let test_trace_event_json () =
  let events = Obs.Events.create () in
  Obs.Events.span events ~node:1 ~phase:"agreement" ~start:0.5 ~stop:2.5
    ~complete:true;
  Obs.Events.span events ~node:0 ~phase:"dissemination" ~start:0. ~stop:1.5
    ~complete:false;
  Obs.Events.sample events ~node:0 ~track:"nic-backlog" ~time:1.0 ~value:0.25;
  (* A zero-bandwidth NIC's backlog is infinite. *)
  Obs.Events.sample events ~node:1 ~track:"nic-backlog" ~time:1.0 ~value:infinity;
  let spans = Obs.Events.spans events in
  (* The accessor sorts on every field, not by recording order. *)
  Alcotest.(check int) "both spans" 2 (List.length spans);
  Alcotest.(check string) "sorted by start" "dissemination"
    (List.hd spans).Obs.Events.phase;
  let json =
    Obs.Trace_event.to_string ~spans ~samples:(Obs.Events.samples events)
  in
  let contains needle =
    let n = String.length needle and len = String.length json in
    let rec go i = i + n <= len && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "has complete events" true (contains "\"ph\": \"X\"");
  Alcotest.(check bool) "has counter events" true (contains "\"ph\": \"C\"");
  Alcotest.(check bool) "has thread metadata" true (contains "\"thread_name\"");
  (* Sim seconds to trace microseconds. *)
  Alcotest.(check bool) "span start in us" true (contains "\"ts\": 500000.000");
  Alcotest.(check bool) "span duration in us" true (contains "\"dur\": 2000000.000");
  Alcotest.(check bool) "counter named per node" true
    (contains "\"name\": \"nic-backlog (node 0)\"");
  Alcotest.(check bool) "incomplete span flagged" true
    (contains "\"complete\": false");
  Alcotest.(check bool) "threads named per authority" true
    (contains "\"args\": {\"name\": \"authority 1\"}");
  Alcotest.(check bool) "infinite sample written as null" true
    (contains "\"args\": {\"value\": null}")

(* --- JSON writer ------------------------------------------------------------ *)

let test_json_strings () =
  let written s = Obs.Json.to_string (String s) in
  (* Quote and backslash escaped, control bytes as \u00XX, UTF-8 copied,
     an invalid byte replaced by U+FFFD. *)
  Alcotest.(check string) "escapes" ({|"q\"b\\c\u0001t\u0009é|} ^ "\xef\xbf\xbd\"")
    (written "q\"b\\c\x01t\té\xff");
  Alcotest.(check string) "member names escaped" {|{
  "a\"b": "\u001f"
}|}
    (Obs.Json.to_string (Obj [ ("a\"b", String "\x1f") ]))

let test_json_numbers_and_layout () =
  let open Obs.Json in
  Alcotest.(check string) "non-finite floats are null" {|[
  null,
  null,
  null,
  0.250000,
  -3,
  true,
  null
]|}
    (to_string
       (List
          [
            Float nan; Float infinity; Float neg_infinity; Float 0.25; Int (-3); Bool true;
            Null;
          ]));
  (* The outer two levels go one member per line; deeper values and
     empty containers stay inline. *)
  Alcotest.(check string) "layout" {|{
  "a": {
    "b": [1, {"c": [], "d": [2.000000, "x"]}],
    "e": {}
  },
  "f": []
}|}
    (to_string
       (Obj
          [
            ( "a",
              Obj
                [
                  ( "b",
                    List [ Int 1; Obj [ ("c", List []); ("d", List [ Float 2.; String "x" ]) ] ] );
                  ("e", Obj []);
                ] );
            ("f", List []);
          ]))

(* --- log iteration --------------------------------------------------------- *)

let test_trace_iter_matches_records () =
  let t = Tor_sim.Trace.create () in
  (* Six records per instant, nodes out of order and one node twice, so
     the (time, node) sort has real ties to break. *)
  for i = 0 to 29 do
    Tor_sim.Trace.log t
      ~time:(float_of_int (i / 6))
      ~node:(7 * i mod 5) Tor_sim.Trace.Notice
      (Printf.sprintf "record %d" i)
  done;
  let via_iter = ref [] in
  Tor_sim.Trace.iter t (fun r -> via_iter := r :: !via_iter);
  Alcotest.(check (list string)) "iter order == records order"
    (List.map Tor_sim.Trace.render (Tor_sim.Trace.records t))
    (List.map Tor_sim.Trace.render (List.rev !via_iter));
  let node2 = ref [] in
  Tor_sim.Trace.iter ~node:2 t (fun r -> node2 := r :: !node2);
  Alcotest.(check (list string)) "node filter == for_node"
    (List.map Tor_sim.Trace.render (Tor_sim.Trace.for_node t 2))
    (List.map Tor_sim.Trace.render (List.rev !node2));
  Alcotest.(check string) "dump built on iter"
    (String.concat "\n"
       (List.map Tor_sim.Trace.render (Tor_sim.Trace.records t)))
    (Tor_sim.Trace.dump t)

(* --- end-to-end telemetry ------------------------------------------------ *)

let obs_spec = { R.Spec.default with R.Spec.n_relays = 400; horizon = 600. }

let run_obs spec protocol =
  let env = { (R.of_spec spec) with R.telemetry = true } in
  let report = E.run protocol env in
  match R.report_obs report with
  | Some o -> (report, o)
  | None -> Alcotest.fail "telemetry on but no obs in the result"

(* Everything a run with telemetry records: histograms in canonical
   text form, every span field, and every probe sample. *)
let obs_summary ((report : R.report), (o : R.obs)) =
  ( List.map (fun (name, h) -> (name, M.render h)) (M.histograms o.R.metrics),
    report.R.result.R.spans,
    o.R.samples )

let check_obs ~name spec protocol =
  let base = obs_summary (run_obs spec protocol) in
  let hists, spans, samples = base in
  Alcotest.(check bool) (name ^ ": has spans") true (spans <> []);
  Alcotest.(check bool) (name ^ ": has probes") true (samples <> []);
  Alcotest.(check bool)
    (name ^ ": has delivery histograms")
    true
    (List.exists
       (fun (n, _) -> String.length n > 17 && String.sub n 0 17 = "delivery-latency/")
       hists);
  Alcotest.(check bool) (name ^ ": rerun reproduces telemetry") true
    (obs_summary (run_obs spec protocol) = base);
  (* Spans are recorded in every run: telemetry off gives the same. *)
  let plain = E.run protocol (R.of_spec spec) in
  Alcotest.(check bool) (name ^ ": same spans with telemetry off") true
    (plain.R.result.R.spans = spans)

let test_obs_ours () = check_obs ~name:"ours" obs_spec E.Ours
let test_obs_current () = check_obs ~name:"current" obs_spec E.Current
let test_obs_sync () = check_obs ~name:"synchronous" obs_spec E.Synchronous

let test_report_accessors () =
  let report, _ = run_obs obs_spec E.Ours in
  (* Every decided authority contributes one time-to-decision
     observation. *)
  let decided =
    Array.to_list report.R.result.R.per_authority
    |> List.filter (fun (a : R.authority_result) -> a.R.decided_at <> None)
    |> List.length
  in
  (match R.time_to_decision report with
  | None -> Alcotest.fail "time-to-decision histogram missing"
  | Some h ->
      Alcotest.(check int) "one observation per decision" decided (M.count h);
      Alcotest.(check bool) "decisions happened" true (decided > 0));
  (match R.delivery_latency report "document" with
  | None -> Alcotest.fail "document delivery histogram missing"
  | Some h -> Alcotest.(check bool) "documents delivered" true (M.count h > 0));
  Alcotest.(check bool) "unknown label" true
    (R.delivery_latency report "no-such-label" = None);
  (* All phases a healthy partial-synchrony run goes through, each
     complete on every participating node. *)
  let phases =
    List.sort_uniq String.compare
      (List.map (fun (s : Obs.Events.span) -> s.Obs.Events.phase) report.R.result.R.spans)
  in
  Alcotest.(check (list string)) "phase taxonomy"
    [ "aggregation"; "agreement"; "dissemination"; "signature-exchange" ]
    phases;
  Alcotest.(check bool) "healthy run: all spans complete" true
    (List.for_all (fun (s : Obs.Events.span) -> s.Obs.Events.complete)
       report.R.result.R.spans);
  (* Telemetry off: no obs, accessors all None. *)
  let plain = E.run E.Ours (R.of_spec obs_spec) in
  Alcotest.(check bool) "off: no obs" true (R.report_obs plain = None);
  Alcotest.(check bool) "off: no histogram" true
    (R.time_to_decision plain = None)

(* A failing run is diagnosable: the deployed protocol under the
   paper's flood never decides, and the stalled-phase reducer names
   the phase its incomplete spans are stuck in, with telemetry on or
   off.  A healthy run diagnoses as None. *)
let test_stalled_phase () =
  let flood_spec =
    (* Past the relay count where the flood defeats the deployed
       protocol (the paper's Figure 10 failure point). *)
    { obs_spec with
      R.Spec.n_relays = 10_000;
      attacks = Attack.Ddos.bandwidth_attack ~n:9 ();
    }
  in
  let plain_env = R.of_spec flood_spec in
  let env = { plain_env with R.telemetry = true } in
  let report = E.run E.Current env in
  Alcotest.(check bool) "flooded run fails" false report.R.success;
  (match R.stalled_phase env report with
  | None -> Alcotest.fail "failed run should name a stalled phase"
  | Some phase ->
      Alcotest.(check bool) "phase is non-empty" true (phase <> ""));
  Alcotest.(check (option string)) "same phase with telemetry off"
    (R.stalled_phase env report)
    (R.stalled_phase plain_env (E.run E.Current plain_env));
  let healthy_env = R.of_spec obs_spec in
  let healthy = E.run E.Ours healthy_env in
  Alcotest.(check bool) "healthy run: no stalled phase" true
    (R.stalled_phase healthy_env healthy = None)

let suite =
  [
    ("histogram: bucketing and percentiles", `Quick, test_histogram_basics);
    ("histogram: overlapping merge", `Quick, test_histogram_merge_overlapping);
    ("registry: merge by name", `Quick, test_registry_merge);
    ("registry: label made after enable_obs", `Quick, test_registry_late_label);
    ("trace-event: JSON export", `Quick, test_trace_event_json);
    ("json: string escapes", `Quick, test_json_strings);
    ("json: numbers and layout", `Quick, test_json_numbers_and_layout);
    ("trace: iter matches records", `Quick, test_trace_iter_matches_records);
    ("telemetry bit-identical (ours)", `Quick, test_obs_ours);
    ("telemetry bit-identical (current)", `Quick, test_obs_current);
    ("telemetry bit-identical (synchronous)", `Quick, test_obs_sync);
    ("report: telemetry accessors", `Quick, test_report_accessors);
    ("report: stalled-phase diagnosis", `Quick, test_stalled_phase);
  ]
