(* Tests for the discrete-event simulator: event ordering, the NIC
   bandwidth model (incl. DDoS windows and deadlines), determinism. *)

open Tor_sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

(* --- Simtime ---------------------------------------------------------------- *)

let test_simtime () =
  checkf "minutes" 300. (Simtime.minutes 5.);
  checkf "ms" 0.15 (Simtime.ms 150.);
  checkb "never" true (Simtime.is_infinite Simtime.never);
  Alcotest.(check string) "pp" "02:30.000" (Format.asprintf "%a" Simtime.pp 150.);
  Alcotest.(check string) "tor log epoch" "Jan 01 01:00:00.000"
    (Format.asprintf "%a" Simtime.pp_tor_log 0.);
  Alcotest.(check string) "tor log" "Jan 01 01:24:30.011"
    (Format.asprintf "%a" Simtime.pp_tor_log 1470.011)

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.of_string_seed "seed" and d = Rng.of_string_seed "seed" in
  Alcotest.(check int64) "string seed" (Rng.next_int64 c) (Rng.next_int64 d)

(* The first draws of two seeded streams: every seeded output of the
   simulator rests on them. *)
let test_rng_pinned () =
  let stream name rng ~int64s ~ints ~floats ~gaussians =
    List.iter
      (fun x -> Alcotest.(check int64) (name ^ " next_int64") x (Rng.next_int64 rng))
      int64s;
    List.iter
      (fun (bound, x) -> checki (Printf.sprintf "%s int %d" name bound) x (Rng.int rng bound))
      ints;
    List.iter
      (fun (bound, x) ->
        Alcotest.(check string) (name ^ " float") x (Printf.sprintf "%h" (Rng.float rng bound)))
      floats;
    List.iter
      (fun x ->
        Alcotest.(check string) (name ^ " gaussian") x
          (Printf.sprintf "%h" (Rng.gaussian rng ~mean:1.0 ~stddev:0.1)))
      gaussians
  in
  stream "create 42" (Rng.create 42L)
    ~int64s:[ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    ~ints:[ (16, 10); (100, 25); (1_000_000, 494531); (max_int, 2014432356388812462) ]
    ~floats:
      [ (1., "0x1.99ec6bdd3d3c5p-1"); (1., "0x1.5c16e1dc2cf5ep-2"); (1., "0x1.3ca9ae7052feep-1");
        (3., "0x1.3abaadbecc229p-1") ]
    ~gaussians:[ "0x1.c3523c54dbeap-1"; "0x1.e23ec296be15p-1" ];
  stream "seed" (Rng.of_string_seed "seed")
    ~int64s:[ 7740802136191044996L; 3383118583332635694L; -4444316353233106688L ]
    ~ints:[ (16, 0); (100, 16); (1_000_000, 434731); (max_int, 899963038431769198) ]
    ~floats:
      [ (1., "0x1.fb97d28d15daep-2"); (1., "0x1.bd6da152c657p-2"); (1., "0x1.4373320add0bp-4");
        (3., "0x1.63b699c8800e9p-1") ]
    ~gaussians:[ "0x1.053665889ec47p+0"; "0x1.3df8719eaffaep+0" ]

(* An integer draw allocates nothing: 10,000 each of [int], [range] and
   [bool] stay under 64 minor words, which leaves room only for the
   boxed floats [Gc.minor_words] itself returns. *)
let test_rng_draw_allocates_nothing () =
  let rng = Rng.create 42L in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Rng.int rng 100 : int);
    ignore (Rng.range rng ~min:1 ~max:6 : int);
    ignore (Rng.bool rng : bool)
  done;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "%.0f minor words for 30,000 draws" words) true (words < 64.)

let test_rng_split () =
  let a = Rng.create 1L in
  let child = Rng.split a in
  checkb "child differs from parent stream" true
    (Rng.next_int64 child <> Rng.next_int64 a)

let qcheck_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair (int_range 1 1000) small_int)
    (fun (bound, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let qcheck_rng_range =
  QCheck.Test.make ~name:"rng range inclusive" ~count:200
    QCheck.(pair (pair (int_range (-50) 50) (int_range 0 100)) small_int)
    (fun ((min, extra), seed) ->
      let max = min + extra in
      let rng = Rng.create (Int64.of_int seed) in
      let v = Rng.range rng ~min ~max in
      v >= min && v <= max)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 7L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_gaussian () =
  let rng = Rng.create 9L in
  let k = 20_000 in
  let sum = ref 0. in
  for _ = 1 to k do
    sum := !sum +. Rng.gaussian rng ~mean:5. ~stddev:2.
  done;
  let mean = !sum /. float_of_int k in
  checkb "gaussian mean near 5" true (Float.abs (mean -. 5.) < 0.1)

let test_rng_errors () =
  let rng = Rng.create 0L in
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick rng ([] : int list)))

(* --- Event queue ------------------------------------------------------------ *)

(* Drain [q] through [pop_if_before] with no horizon, up to its
   [dummy]. *)
let drain q ~dummy =
  let rec go acc =
    let x = Event_queue.pop_if_before q ~horizon:infinity in
    if x == dummy then List.rev acc else go (x :: acc)
  in
  go []

let test_queue_order () =
  let dummy = "-" in
  let q = Event_queue.create ~dummy in
  Event_queue.push_keyed q ~time:3. ~key:0 "c";
  Event_queue.push_keyed q ~time:1. ~key:1 "a";
  Event_queue.push_keyed q ~time:2. ~key:2 "b";
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (drain q ~dummy);
  checki "empty" 0 (Event_queue.size q)

(* A drained queue holds none of its payloads: after 40 pushes (the
   arrays grew to 64 slots on the way), a full drain and a major
   collection, no payload is reachable, although the queue is. *)
let test_queue_releases_payloads () =
  let dummy = ref (-1) in
  let q = Event_queue.create ~dummy in
  let weak = Weak.create 40 in
  for i = 0 to 39 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Event_queue.push_keyed q ~time:(float_of_int i) ~key:i payload
  done;
  checki "drained in order" 40 (List.length (drain q ~dummy));
  Gc.full_major ();
  for i = 0 to 39 do
    checkb (Printf.sprintf "payload %d released" i) false (Weak.check weak i)
  done;
  checki "queue still reachable" 0 (Event_queue.size q)

let test_queue_invalid_time () =
  let q = Event_queue.create ~dummy:() in
  let invalid = Invalid_argument "Event_queue.push_keyed: time must be finite" in
  Alcotest.check_raises "infinite" invalid (fun () ->
      Event_queue.push_keyed q ~time:infinity ~key:0 ());
  Alcotest.check_raises "nan" invalid (fun () -> Event_queue.push_keyed q ~time:nan ~key:0 ())

let qcheck_queue_sorted =
  QCheck.Test.make ~name:"event queue pops sorted" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 100) (float_range 0. 1000.))
    (fun times ->
      let q = Event_queue.create ~dummy:None in
      List.iteri (fun key t -> Event_queue.push_keyed q ~time:t ~key (Some t)) times;
      let out = List.map Option.get (drain q ~dummy:None) in
      out = List.sort Float.compare times)

(* Interleaved push/pop stress against a sorted-list model: exercises
   the vacated-slot handling in [pop_if_before] under repeated
   fill/drain cycles, with coarse times forcing ties that the
   (scrambled, distinct) keys must order. *)
let qcheck_queue_interleaved =
  QCheck.Test.make ~name:"event queue interleaved push/pop matches model"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 0 300) (pair bool (int_range 0 20)))
    (fun ops ->
      let none = (nan, -1) in
      let q = Event_queue.create ~dummy:none in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let pop_both () =
        let got = Event_queue.pop_if_before q ~horizon:infinity in
        match !model with
        | [] -> if got != none then ok := false
        | expected :: rest ->
            if got != none && got = expected then model := rest
            else begin
              ok := false;
              model := []
            end
      in
      List.iter
        (fun (is_pop, t) ->
          if is_pop then pop_both ()
          else begin
            let t = float_of_int t and key = !seq * 7919 mod 10007 in
            Event_queue.push_keyed q ~time:t ~key (t, key);
            model := List.merge compare [ (t, key) ] !model;
            incr seq
          end)
        ops;
      while Event_queue.size q > 0 || !model <> [] do
        pop_both ()
      done;
      !ok)

(* --- Engine -------------------------------------------------------------- *)

let test_engine_order_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now e) :: !log in
  ignore (Engine.schedule e ~at:2. (note "b"));
  ignore (Engine.schedule e ~at:1. (note "a"));
  ignore (Engine.schedule_in e ~after:3. (note "c"));
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.))))
    "ordered with clock" [ ("a", 1.); ("b", 2.); ("c", 3.) ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:1. (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  checkb "cancelled event did not fire" false !fired

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~at:1. (fun () -> incr fired));
  ignore (Engine.schedule e ~at:10. (fun () -> incr fired));
  Engine.run ~until:5. e;
  checki "only events before horizon" 1 !fired;
  checkf "clock at horizon" 5. (Engine.now e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.schedule e ~at:1. (fun () ->
         order := "outer" :: !order;
         ignore (Engine.schedule_in e ~after:1. (fun () -> order := "inner" :: !order))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "inner"; "outer" ] !order

let test_engine_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:5. (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time is in the past")
    (fun () -> ignore (Engine.schedule e ~at:1. (fun () -> ())));
  Alcotest.check_raises "not finite"
    (Invalid_argument "Event_queue.push_keyed: time must be finite") (fun () ->
      ignore (Engine.schedule e ~at:infinity (fun () -> ())));
  let bounded = Engine.create ~nodes:2 () in
  Alcotest.check_raises "owner out of range"
    (Invalid_argument "Engine.schedule: owner out of range") (fun () ->
      ignore (Engine.schedule bounded ~owner:2 ~at:1. (fun () -> ())))

(* Cancelling a handle whose event already fired, or cancelling twice,
   does nothing: later events still fire. *)
let test_engine_stale_cancel () =
  let e = Engine.create () in
  let fired = ref 0 in
  (* Fire one event, keep its (now stale) handle. *)
  let stale = Engine.schedule e ~at:1. (fun () -> incr fired) in
  Engine.run e;
  checki "first fired" 1 !fired;
  let fresh = Engine.schedule e ~at:2. (fun () -> incr fired) in
  Engine.cancel e stale;
  (* stale: must be a no-op *)
  Engine.run e;
  checki "stale cancel did not kill the next event" 2 !fired;
  Engine.cancel e fresh;
  (* fired: also a no-op *)
  (* Cancelling twice is a no-op too. *)
  let h = Engine.schedule e ~at:3. (fun () -> incr fired) in
  Engine.cancel e h;
  Engine.cancel e h;
  Engine.run e;
  checki "double cancel" 2 !fired

(* Schedule/cancel churn: every non-cancelled event fires exactly once,
   cancelled ones never do (cancelling twice included), and the queue
   drains to zero. *)
let test_engine_churn () =
  let e = Engine.create () in
  let rng = Rng.create 3L in
  let fired = ref 0 in
  let expected = ref 0 in
  for round = 0 to 99 do
    let base = float_of_int round +. 1. in
    let handles =
      List.init 50 (fun k ->
          Engine.schedule e
            ~at:(base +. (float_of_int k /. 1000.))
            (fun () -> incr fired))
    in
    let cancelled =
      List.filter (fun _ -> Rng.int rng 2 = 0) handles
    in
    List.iter (fun h -> Engine.cancel e h) cancelled;
    (* cancel some twice — still inert *)
    List.iteri (fun i h -> if i land 1 = 0 then Engine.cancel e h) cancelled;
    expected := !expected + 50 - List.length cancelled;
    Engine.run e
  done;
  checki "every non-cancelled event fired exactly once" !expected !fired;
  checki "no events leaked in the queue" 0 (Engine.pending e)

(* Cancelled events still advance the clock to their scheduled time:
   the husk is popped, not skipped. *)
let test_engine_cancelled_advances_clock () =
  let e = Engine.create () in
  let h = Engine.schedule e ~at:7. (fun () -> ()) in
  Engine.cancel e h;
  checki "the cancelled husk still counts as pending" 1 (Engine.pending e);
  Engine.run e;
  checkf "clock reaches the cancelled event's time" 7. (Engine.now e)

let test_queue_push_keyed_order () =
  let dummy = "-" in
  let q = Event_queue.create ~dummy in
  (* Equal times pop in key order, independent of push order. *)
  Event_queue.push_keyed q ~time:1. ~key:30 "c";
  Event_queue.push_keyed q ~time:1. ~key:10 "a";
  Event_queue.push_keyed q ~time:0.5 ~key:99 "first";
  Event_queue.push_keyed q ~time:1. ~key:20 "b";
  Alcotest.(check (list string)) "key order at equal times"
    [ "first"; "a"; "b"; "c" ] (drain q ~dummy)

(* Same-instant events pop in ascending (creator, per-creator counter)
   order, where the creator is the owner of the event that scheduled
   them — not in the order they were scheduled.  Nodes 2, 0 and 1 (in
   that order), then an ownerless event, each schedule work for t = 5;
   insertion order would run x, y1, y2, z, w. *)
let test_engine_creator_tie_break () =
  let e = Engine.create ~nodes:3 () in
  let order = ref [] in
  let note tag () = order := tag :: !order in
  let at_five tags () =
    List.iter (fun tag -> ignore (Engine.schedule e ~at:5. (note tag))) tags
  in
  ignore (Engine.schedule e ~owner:2 ~at:1. (at_five [ "x" ]));
  ignore (Engine.schedule e ~owner:0 ~at:2. (at_five [ "y1"; "y2" ]));
  ignore (Engine.schedule e ~owner:1 ~at:3. (at_five [ "z" ]));
  ignore (Engine.schedule e ~at:4. (at_five [ "w" ]));
  Engine.run e;
  Alcotest.(check (list string)) "ascending (creator, counter)"
    [ "w"; "y1"; "y2"; "z"; "x" ] (List.rev !order)

let test_queue_pop_if_before () =
  let q = Event_queue.create ~dummy:(-1) in
  checki "empty yields the dummy" (-1) (Event_queue.pop_if_before q ~horizon:10.);
  Event_queue.push_keyed q ~time:1. ~key:0 100;
  Event_queue.push_keyed q ~time:5. ~key:1 200;
  Event_queue.push_keyed q ~time:9. ~key:2 300;
  checki "pops earliest" 100 (Event_queue.pop_if_before q ~horizon:10.);
  checki "pops next" 200 (Event_queue.pop_if_before q ~horizon:5.);
  checki "beyond horizon stays queued" (-1) (Event_queue.pop_if_before q ~horizon:8.999);
  checki "still there" 1 (Event_queue.size q);
  checki "exact horizon pops" 300 (Event_queue.pop_if_before q ~horizon:9.);
  checki "drained" (-1) (Event_queue.pop_if_before q ~horizon:infinity)

(* --- NIC ---------------------------------------------------------------- *)

let test_nic_basic_rate () =
  (* 1 Mbit/s = 125 kB/s; 125 kB takes 1 s. *)
  let nic = Nic.create ~bits_per_sec:1e6 () in
  checkf "transfer time" 1. (Nic.transfer_time nic ~now:0. ~bytes:125_000);
  checkf "fifo accumulates" 2.
    (let _ = Nic.reserve nic ~now:0. ~bytes:125_000 in
     Nic.reserve nic ~now:0. ~bytes:125_000)

let test_nic_zero_rate_forever () =
  let nic = Nic.create ~bits_per_sec:0. () in
  checkb "never finishes" true
    (Simtime.is_infinite (Nic.transfer_time nic ~now:0. ~bytes:1))

let test_nic_window_stall () =
  (* Rate zero during [0, 10); transfer enqueued at t=0 completes at
     10 + size/rate once the window lifts. *)
  let nic = Nic.create ~bits_per_sec:1e6 () in
  Nic.limit_window nic ~start:0. ~stop:10. ~bits_per_sec:0.;
  checkf "drains after window" 11. (Nic.reserve nic ~now:0. ~bytes:125_000)

let test_nic_window_partial () =
  (* 2 s worth of bytes at full rate, but the second half of the
     transfer crosses into a half-rate window. *)
  let nic = Nic.create ~bits_per_sec:1e6 () in
  Nic.limit_window nic ~start:1. ~stop:100. ~bits_per_sec:0.5e6;
  (* 250 kB: 125 kB in the first second, the rest at half rate = 2 s. *)
  checkf "split across rates" 3. (Nic.reserve nic ~now:0. ~bytes:250_000)

let test_nic_window_restores () =
  let nic = Nic.create ~bits_per_sec:1e6 () in
  Nic.limit_window nic ~start:5. ~stop:10. ~bits_per_sec:0.1e6;
  checkf "before" 1e6 (Nic.rate_at nic 0.);
  checkf "inside" 0.1e6 (Nic.rate_at nic 7.);
  checkf "after" 1e6 (Nic.rate_at nic 12.)

let test_nic_breakpoint_order () =
  let nic = Nic.create ~bits_per_sec:1e6 () in
  Nic.set_rate nic ~from:10. ~bits_per_sec:2e6;
  Alcotest.check_raises "out of order"
    (Invalid_argument "Nic.set_rate: breakpoints must be appended in time order")
    (fun () -> Nic.set_rate nic ~from:5. ~bits_per_sec:1e6)

(* Reference list-walk model of the rate schedule: a newest-first
   association of breakpoints, scanned end to end per lookup.  The
   arithmetic per segment matches the NIC op for op, so results must be
   EXACTLY equal (float 0.). *)
module Nic_reference = struct
  type t = {
    base : float; (* bytes/s *)
    mutable bps_newest_first : (float * float) list; (* from, bytes/s *)
    mutable busy_until : float;
  }

  let create ~bits_per_sec = { base = bits_per_sec /. 8.; bps_newest_first = []; busy_until = 0. }

  let set_rate t ~from ~bits_per_sec =
    t.bps_newest_first <- (from, bits_per_sec /. 8.) :: t.bps_newest_first

  let rate_at t time =
    let rec go = function
      | [] -> t.base
      | (from, r) :: rest -> if from <= time then r else go rest
    in
    go t.bps_newest_first

  (* Next breakpoint strictly after [time], or none. *)
  let next_change t time =
    List.fold_left
      (fun acc (from, _) ->
        if from > time then
          match acc with Some c when c <= from -> acc | _ -> Some from
        else acc)
      None t.bps_newest_first

  let finish_at t ~start ~bytes =
    let rec walk time remaining =
      if remaining <= 0. then time
      else
        let rate = rate_at t time in
        match next_change t time with
        | None -> if rate <= 0. then Simtime.never else time +. (remaining /. rate)
        | Some change ->
            if rate <= 0. then walk change remaining
            else
              let capacity = rate *. (change -. time) in
              if remaining <= capacity then time +. (remaining /. rate)
              else walk change (remaining -. capacity)
    in
    walk start (float_of_int bytes)

  let reserve t ~now ~bytes =
    let start = Float.max now t.busy_until in
    if Simtime.is_infinite start then begin
      t.busy_until <- Simtime.never;
      Simtime.never
    end
    else begin
      let finish = finish_at t ~start ~bytes in
      t.busy_until <- finish;
      finish
    end
end

let exactf = Alcotest.check (Alcotest.float 0.)

(* Drive the NIC and the list-walk reference through the same
   randomized schedule-and-reserve history; every reservation and every
   planner lookup must agree bit for bit.  Covers duplicate breakpoint
   times (newest wins), zero-rate windows, boundary-sharing windows, and
   [transfer_time] probes at earlier times than the last reservation. *)
let test_nic_matches_reference () =
  let rng = Rng.create 77L in
  for _trial = 1 to 50 do
    let base = float_of_int (1 + Rng.int rng 100) *. 1e5 in
    let nic = Nic.create ~bits_per_sec:base () in
    let reference = Nic_reference.create ~bits_per_sec:base in
    (* A random breakpoint schedule appended in time order; some times
       repeat so the newest-duplicate rule is exercised. *)
    let time = ref 0. in
    for _ = 1 to 1 + Rng.int rng 12 do
      time := !time +. float_of_int (Rng.int rng 20);
      let rate = if Rng.int rng 4 = 0 then 0. else float_of_int (Rng.int rng 100) *. 1e5 in
      Nic.set_rate nic ~from:!time ~bits_per_sec:rate;
      Nic_reference.set_rate reference ~from:!time ~bits_per_sec:rate
    done;
    (* Reservations at nondecreasing [now]s (the engine guarantee). *)
    let now = ref 0. in
    for _ = 1 to 30 do
      now := !now +. float_of_int (Rng.int rng 15);
      let bytes = Rng.int rng 2_000_000 in
      (* A planner probe at an arbitrary (possibly earlier) time first:
         must not disturb the committed reservations. *)
      let probe_at = float_of_int (Rng.int rng 200) in
      let expected_probe =
        let start = Float.max probe_at (Nic_reference.(reference.busy_until)) in
        if Simtime.is_infinite start then Simtime.never
        else Nic_reference.finish_at reference ~start ~bytes
      in
      exactf "transfer_time matches reference" expected_probe
        (Nic.transfer_time nic ~now:probe_at ~bytes);
      exactf "rate_at matches reference"
        (Nic_reference.rate_at reference probe_at *. 8.)
        (Nic.rate_at nic probe_at);
      exactf "reserve matches reference"
        (Nic_reference.reserve reference ~now:!now ~bytes)
        (Nic.reserve nic ~now:!now ~bytes)
    done
  done

let test_nic_window_edge_cases () =
  (* Zero-length window: restores instantly, transfer unaffected. *)
  let nic = Nic.create ~bits_per_sec:1e6 () in
  Nic.limit_window nic ~start:5. ~stop:5. ~bits_per_sec:0.;
  checkf "zero-length window restores" 1e6 (Nic.rate_at nic 5.);
  checkf "transfer through it" 8. (Nic.transfer_time nic ~now:0. ~bytes:1_000_000);
  (* Boundary-sharing windows: the second may start exactly where the
     first stopped. *)
  let nic2 = Nic.create ~bits_per_sec:1e6 () in
  Nic.limit_window nic2 ~start:0. ~stop:10. ~bits_per_sec:0.5e6;
  Nic.limit_window nic2 ~start:10. ~stop:20. ~bits_per_sec:0.25e6;
  checkf "first window" 0.5e6 (Nic.rate_at nic2 5.);
  checkf "second window" 0.25e6 (Nic.rate_at nic2 15.);
  checkf "restored after both" 1e6 (Nic.rate_at nic2 25.);
  (* Duplicate times: the latest-appended breakpoint wins. *)
  let nic3 = Nic.create ~bits_per_sec:1e6 () in
  Nic.set_rate nic3 ~from:10. ~bits_per_sec:2e6;
  Nic.set_rate nic3 ~from:10. ~bits_per_sec:4e6;
  checkf "newest duplicate wins" 4e6 (Nic.rate_at nic3 10.);
  checkf "before unchanged" 1e6 (Nic.rate_at nic3 9.)

(* --- Stats --------------------------------------------------------------- *)

let test_stats () =
  let s = Stats.create ~n:3 in
  let vote = Some (Stats.label s "vote") in
  Stats.record_send s ~node:0 ~bytes:100 ~label:vote;
  Stats.record_send s ~node:0 ~bytes:50 ~label:vote;
  Stats.record_send s ~node:1 ~bytes:10 ~label:None;
  Stats.record_received s ~node:2 ~bytes:100;
  checki "bytes sent" 150 (Stats.bytes_sent s 0);
  checki "messages" 2 (Stats.messages_sent s 0);
  checki "total" 160 (Stats.total_bytes_sent s);
  checki "label" 150 (Stats.label_bytes s "vote");
  checki "unknown label" 0 (Stats.label_bytes s "nope");
  checki "received" 100 (Stats.bytes_received s 2)

(* One record per label name: looking a name up twice gives the same
   label, and only recorded labels are listed, by name. *)
let test_stats_interning () =
  let s = Stats.create ~n:2 in
  let vote = Stats.label s "vote" in
  checkb "one name, one label" true (vote == Stats.label s "vote");
  let sig_ = Stats.label s "sig" in
  checkb "distinct names, distinct labels" true (vote != sig_);
  Alcotest.(check string) "label name" "sig" (Stats.label_name sig_);
  Stats.record_send s ~node:0 ~bytes:100 ~label:(Some vote);
  Stats.record_send s ~node:1 ~bytes:40 ~label:(Some (Stats.label s "vote"));
  Stats.record_send s ~node:0 ~bytes:7 ~label:None;
  checki "label bytes" 140 (Stats.label_bytes s "vote");
  checki "unlabelled traffic still counted" 147 (Stats.bytes_sent s 0 + Stats.bytes_sent s 1);
  Alcotest.(check (list string)) "every label made, sorted" [ "sig"; "vote" ]
    (Stats.label_names s);
  Alcotest.(check (list (pair string int)))
    "labels lists recorded only" [ ("vote", 140) ] (Stats.labels s);
  Stats.record_send s ~node:0 ~bytes:5 ~label:(Some sig_);
  Alcotest.(check (list (pair string int)))
    "sorted by name" [ ("sig", 5); ("vote", 140) ] (Stats.labels s)

(* --- Trace --------------------------------------------------------------- *)

let test_trace () =
  let t = Trace.create () in
  Trace.log t ~time:0.011 ~node:3 Trace.Notice "hello";
  Trace.logf t ~time:1. Trace.Warn "count %d" 7;
  Alcotest.(check int) "records" 2 (List.length (Trace.records t));
  Alcotest.(check int) "node filter" 1 (List.length (Trace.for_node t 3));
  Alcotest.(check string) "render" "Jan 01 01:00:00.011 [notice] hello"
    (Trace.render (List.hd (Trace.records t)));
  let contains ~needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "dump contains warn" true (contains ~needle:"[warn] count 7" (Trace.dump t))

(* --- Topology ---------------------------------------------------------------- *)

let test_topology () =
  let t = Topology.uniform ~n:4 ~latency:0.05 in
  checkf "uniform" 0.05 (Topology.latency t ~src:0 ~dst:3);
  checkf "self" 0. (Topology.latency t ~src:2 ~dst:2);
  let rng = Rng.create 5L in
  let r = Topology.realistic ~n:9 ~rng in
  for i = 0 to 8 do
    for j = 0 to 8 do
      let l = Topology.latency r ~src:i ~dst:j in
      checkb "symmetric" true (l = Topology.latency r ~src:j ~dst:i);
      if i <> j then checkb "in range" true (l >= 0.005 && l <= 0.150)
    done
  done;
  Alcotest.check_raises "bad matrix" (Invalid_argument "Topology.of_matrix: not square")
    (fun () -> ignore (Topology.of_matrix [| [| 0. |]; [| 0.; 0. |] |]))

(* --- Net ---------------------------------------------------------------- *)

let make_net ?(n = 3) ?(bits_per_sec = 1e9) ?(latency = 0.01) () =
  let engine = Engine.create () in
  let topology = Topology.uniform ~n ~latency in
  let net = Net.create ~engine ~topology ~bits_per_sec () in
  (engine, net)

let test_net_delivery_time () =
  let engine, net = make_net ~bits_per_sec:1e6 ~latency:0.5 () in
  let arrived = ref [] in
  Net.set_handler net (fun ~dst ~src msg -> arrived := (dst, src, msg, Engine.now engine) :: !arrived);
  (* 125 kB at 1 Mbit/s: 1 s egress + 0.5 s latency + 1 s ingress. *)
  Net.send net ~src:0 ~dst:1 ~size:125_000 "m";
  Engine.run engine;
  match !arrived with
  | [ (1, 0, "m", t) ] -> checkf "delivery time" 2.5 t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_net_deadline_drop () =
  let engine, net = make_net ~bits_per_sec:1e6 ~latency:0.5 () in
  let arrived = ref 0 in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> incr arrived);
  Net.send net ~src:0 ~dst:1 ~size:125_000 ~deadline:1. "slow";
  Net.send net ~src:0 ~dst:1 ~size:100 ~deadline:10. "fast";
  Engine.run engine;
  checki "slow dropped, fast delivered" 1 !arrived;
  checki "dropped counted" 1 (Stats.dropped (Net.stats net))

let test_net_self_send () =
  let engine, net = make_net () in
  let got = ref false in
  Net.set_handler net (fun ~dst ~src _ -> if dst = 0 && src = 0 then got := true);
  Net.send net ~src:0 ~dst:0 ~size:1_000_000 "self";
  Engine.run engine;
  checkb "self-delivery" true !got;
  checki "no bandwidth charged" 0 (Stats.bytes_sent (Net.stats net) 0)

let test_net_broadcast () =
  let engine, net = make_net ~n:5 () in
  let count = ref 0 in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> incr count);
  Net.broadcast net ~src:2 ~size:10 "b";
  Engine.run engine;
  checki "n-1 deliveries" 4 !count;
  checki "n-1 sends" 4 (Stats.messages_sent (Net.stats net) 2)

let test_net_limit_node () =
  let engine, net = make_net ~bits_per_sec:1e6 ~latency:0. () in
  Net.limit_node net ~node:1 ~start:0. ~stop:10. ~bits_per_sec:0.;
  let times = ref [] in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> times := Engine.now engine :: !times);
  (* Receiver offline: ingress stalls until the window lifts. *)
  Net.send net ~src:0 ~dst:1 ~size:125_000 "m";
  Engine.run engine;
  (match !times with
  | [ t ] -> checkb "delivered after window" true (t >= 10.)
  | _ -> Alcotest.fail "expected one delivery")

let test_net_determinism () =
  let run () =
    let engine, net = make_net ~n:4 ~bits_per_sec:1e6 ~latency:0.02 () in
    let log = ref [] in
    Net.set_handler net (fun ~dst ~src msg ->
        log := (dst, src, msg, Engine.now engine) :: !log;
        if msg < 3 then Net.broadcast net ~src:dst ~size:(1000 * (msg + 1)) (msg + 1));
    Net.broadcast net ~src:0 ~size:500 0;
    Engine.run engine;
    !log
  in
  checkb "identical runs" true (run () = run ())

(* --- Fault injection -------------------------------------------------------- *)

let fault_plan faults = { Fault.seed = "test"; faults }

let with_fault ?(n = 3) ?(bits_per_sec = 1e9) ?(latency = 0.01) faults =
  let engine, net = make_net ~n ~bits_per_sec ~latency () in
  Net.set_fault net (fault_plan faults);
  (engine, net)

let test_fault_drop_window () =
  (* Certain loss inside [10, 20): the window is half-open, judged at
     send time. *)
  let engine, net =
    with_fault [ { Fault.kind = Fault.Drop { src = 0; dst = 1; prob = 1. }; start = 10.; stop = 20. } ]
  in
  let arrived = ref [] in
  Net.set_handler net (fun ~dst:_ ~src:_ msg -> arrived := msg :: !arrived);
  List.iter
    (fun (at, msg) ->
      ignore
        (Engine.schedule engine ~at (fun () -> Net.send net ~src:0 ~dst:1 ~size:10 msg)))
    [ (9.99, "before"); (10., "at-start"); (15., "inside"); (20., "at-stop") ];
  Engine.run engine;
  checkb "half-open window" true (List.sort compare !arrived = [ "at-stop"; "before" ]);
  checki "drops counted" 2 (Stats.dropped (Net.stats net))

let test_fault_drop_never () =
  let engine, net =
    with_fault [ { Fault.kind = Fault.Drop { src = Fault.any; dst = Fault.any; prob = 0. }; start = 0.; stop = 100. } ]
  in
  let arrived = ref 0 in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> incr arrived);
  for _ = 1 to 20 do
    Net.send net ~src:0 ~dst:1 ~size:10 ()
  done;
  Engine.run engine;
  checki "p=0 never drops" 20 !arrived

let test_fault_partition_bidirectional () =
  let engine, net =
    with_fault [ { Fault.kind = Fault.Partition { a = 0; b = 1 }; start = 0.; stop = 100. } ]
  in
  let arrived = ref [] in
  Net.set_handler net (fun ~dst ~src _ -> arrived := (src, dst) :: !arrived);
  Net.send net ~src:0 ~dst:1 ~size:10 ();
  Net.send net ~src:1 ~dst:0 ~size:10 ();
  Net.send net ~src:0 ~dst:2 ~size:10 ();
  Net.send net ~src:2 ~dst:1 ~size:10 ();
  Engine.run engine;
  checkb "only the cut link lost" true
    (List.sort compare !arrived = [ (0, 2); (2, 1) ])

let test_fault_delay () =
  let run faults =
    let engine, net = with_fault ~latency:0.5 faults in
    let times = ref [] in
    Net.set_handler net (fun ~dst:_ ~src:_ _ -> times := Engine.now engine :: !times);
    for _ = 1 to 5 do
      Net.send net ~src:0 ~dst:1 ~size:10 ()
    done;
    Engine.run engine;
    List.rev !times
  in
  let base = run [] in
  let jitter =
    [ { Fault.kind = Fault.Delay { src = 0; dst = 1; max_extra = 2. }; start = 0.; stop = 100. } ]
  in
  let delayed = run jitter in
  List.iter2
    (fun b d -> checkb "within [0, max_extra)" true (d >= b && d < b +. 2.))
    base delayed;
  checkb "jitter replays bit-identically" true (run jitter = delayed)

let test_fault_duplicate () =
  let engine, net =
    with_fault [ { Fault.kind = Fault.Duplicate { src = 0; dst = 1; prob = 1. }; start = 0.; stop = 100. } ]
  in
  let times = ref [] in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> times := Engine.now engine :: !times);
  Net.send net ~src:0 ~dst:1 ~size:10 ();
  Engine.run engine;
  match !times with
  | [ t1; t2 ] -> checkf "same arrival instant" t1 t2
  | l -> Alcotest.failf "expected two deliveries, got %d" (List.length l)

let test_fault_crash () =
  let engine, net =
    with_fault ~latency:0.01
      [ { Fault.kind = Fault.Crash { node = 1 }; start = 5.; stop = 15. } ]
  in
  let arrived = ref [] in
  Net.set_handler net (fun ~dst ~src:_ msg -> arrived := (dst, msg) :: !arrived);
  (* Sender crashed: nothing leaves, not even bytes. *)
  ignore
    (Engine.schedule engine ~at:6. (fun () -> Net.send net ~src:1 ~dst:0 ~size:10 "from-crashed"));
  (* Receiver crashed at delivery time: sent at 4.999, arrives > 5. *)
  ignore
    (Engine.schedule engine ~at:4.999 (fun () ->
         Net.send net ~src:0 ~dst:1 ~size:10 "into-crash"));
  (* After recovery both directions work again. *)
  ignore
    (Engine.schedule engine ~at:15. (fun () -> Net.send net ~src:1 ~dst:0 ~size:10 "recovered"));
  Engine.run engine;
  checkb "only the post-recovery message survives" true
    (!arrived = [ (0, "recovered") ]);
  (* Only the post-recovery send is charged; the in-window send cost
     nothing. *)
  checki "crashed sender sends no bytes" 10 (Stats.bytes_sent (Net.stats net) 1);
  checki "both casualties counted" 2 (Stats.dropped (Net.stats net))

let test_fault_drop_labels () =
  let engine, net =
    with_fault [ { Fault.kind = Fault.Drop { src = 0; dst = 1; prob = 1. }; start = 0.; stop = 100. } ]
  in
  let lbl = Stats.label (Net.stats net) "vote" in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 ~size:10 ~label:lbl ();
  Net.send net ~src:0 ~dst:2 ~size:10 ~label:lbl ();
  Engine.run engine;
  let stats = Net.stats net in
  checki "per-label drop count" 1 (Stats.label_dropped stats "vote");
  checki "per-node drop count" 1 (Stats.dropped_at stats 1);
  checkb "dropped_labels lists the label" true (Stats.dropped_labels stats = [ ("vote", 1) ])

let test_fault_determinism () =
  (* Probabilistic faults replay identically: the RNG stream is keyed
     off the plan alone and consumed in simulated-event order. *)
  let faults =
    [
      { Fault.kind = Fault.Drop { src = Fault.any; dst = Fault.any; prob = 0.5 }; start = 0.; stop = 50. };
      { Fault.kind = Fault.Duplicate { src = Fault.any; dst = Fault.any; prob = 0.3 }; start = 0.; stop = 50. };
      { Fault.kind = Fault.Delay { src = Fault.any; dst = Fault.any; max_extra = 1. }; start = 0.; stop = 50. };
    ]
  in
  let run () =
    let engine, net = with_fault ~n:4 faults in
    let log = ref [] in
    Net.set_handler net (fun ~dst ~src msg ->
        log := (dst, src, msg, Engine.now engine) :: !log;
        if msg < 2 then Net.broadcast net ~src:dst ~size:(100 * (msg + 1)) (msg + 1));
    Net.broadcast net ~src:0 ~size:50 0;
    Engine.run engine;
    !log
  in
  checkb "identical faulty runs" true (run () = run ())

let test_fault_per_link_keying () =
  (* A message's draws are keyed by its place in its own link's send
     sequence: the payloads each link delivers must not depend on how
     sends on different links interleave. *)
  let drop =
    [ { Fault.kind = Fault.Drop { src = Fault.any; dst = Fault.any; prob = 0.5 }; start = 0.; stop = 100. } ]
  in
  let run sends =
    let engine, net = with_fault ~n:4 drop in
    let arrived = Array.make 4 [] in
    Net.set_handler net (fun ~dst ~src:_ msg -> arrived.(dst) <- msg :: arrived.(dst));
    List.iter (fun (src, dst, msg) -> Net.send net ~src ~dst ~size:10 msg) sends;
    Engine.run engine;
    (List.sort compare arrived.(1), List.sort compare arrived.(3))
  in
  let link src dst k = (src, dst, k) in
  let in_turn = run (List.init 20 (link 0 1) @ List.init 20 (link 2 3)) in
  let alternating =
    run (List.concat (List.init 20 (fun k -> [ link 0 1 k; link 2 3 k ])))
  in
  let on_01, on_23 = in_turn in
  checkb "each link loses some and delivers some" true
    (List.for_all (fun l -> l <> [] && List.length l < 20) [ on_01; on_23 ]);
  checkb "0->1 delivers the same payloads in both orders" true (on_01 = fst alternating);
  checkb "2->3 delivers the same payloads in both orders" true (on_23 = snd alternating)

let test_fault_plan_validate () =
  let fault kind = { Fault.kind; start = 0.; stop = 1. } in
  Fault.validate ~n:3 (fault_plan [ fault (Fault.Drop { src = Fault.any; dst = 2; prob = 0.5 }) ]);
  let invalid msg plan =
    match Fault.validate ~n:3 plan with
    | () -> Alcotest.failf "%s: expected Invalid_argument" msg
    | exception Invalid_argument _ -> ()
  in
  invalid "endpoint out of range" (fault_plan [ fault (Fault.Crash { node = 3 }) ]);
  invalid "probability out of range"
    (fault_plan [ fault (Fault.Drop { src = 0; dst = 1; prob = 1.5 }) ]);
  invalid "window stops before start"
    (fault_plan [ { Fault.kind = Fault.Partition { a = 0; b = 1 }; start = 2.; stop = 1. } ]);
  (* Canonical form is stable and digest-worthy: equal plans digest
     equal, any field change changes it. *)
  let p1 = fault_plan [ fault (Fault.Drop { src = 0; dst = 1; prob = 0.5 }) ] in
  let p2 = fault_plan [ fault (Fault.Drop { src = 0; dst = 1; prob = 0.5 }) ] in
  let p3 = fault_plan [ fault (Fault.Drop { src = 0; dst = 1; prob = 0.25 }) ] in
  checkb "equal plans digest equal" true (Fault.digest p1 = Fault.digest p2);
  checkb "prob change changes digest" false (Fault.digest p1 = Fault.digest p3)

(* --- Net delivery rules under faults and defenses --------------------------- *)

(* A duplicated message that admission defers still delivers twice, at
   its grant instant plus ingress.  1000 B/s NICs, 1000-byte messages,
   0.5 s latency; one token per 4 s with no burst headroom: "a" arrives
   at 1.5 and is admitted (ingress done at 2.5), "b" arrives at 2.5 and
   is granted at 5.5 (ingress done at 6.5). *)
let test_net_deferred_duplicate () =
  let engine, net =
    with_fault ~n:2 ~bits_per_sec:8e3 ~latency:0.5
      [ { Fault.kind = Fault.Duplicate { src = 0; dst = 1; prob = 1. }; start = 0.; stop = 100. } ]
  in
  Net.set_defense net
    {
      Defense.Plan.admission = Some { Defense.Admission.rate = 0.25; burst = 1; backlog = 4 };
      rotation = None;
    };
  let log = ref [] in
  Net.set_handler net (fun ~dst:_ ~src:_ msg -> log := (msg, Engine.now engine) :: !log);
  Net.send net ~src:0 ~dst:1 ~size:1000 "a";
  Net.send net ~src:0 ~dst:1 ~size:1000 "b";
  Engine.run engine;
  Alcotest.(check (list (pair string (float 0.))))
    "each message twice, the deferred one at grant + ingress"
    [ ("a", 2.5); ("a", 2.5); ("b", 6.5); ("b", 6.5) ]
    (List.rev !log);
  checki "ingress charged once per message" 2000 (Stats.bytes_received (Net.stats net) 1);
  checki "nothing rejected" 0 (Stats.rejected (Net.stats net))

(* A self-send to a crashed node is a drop, to a rotated-out node a
   reject; neither is delivered or charges bytes. *)
let test_net_self_send_crash_and_rotation () =
  let engine, net =
    with_fault [ { Fault.kind = Fault.Crash { node = 0 }; start = 0.; stop = 10. } ]
  in
  let delivered = ref 0 in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> incr delivered);
  Net.send net ~src:0 ~dst:0 ~size:100 "crashed";
  Engine.run engine;
  let stats = Net.stats net in
  checki "crashed: not delivered" 0 !delivered;
  checki "crashed: one drop" 1 (Stats.dropped stats);
  checki "crashed: no reject" 0 (Stats.rejected stats);
  checki "crashed: no bytes" 0 (Stats.bytes_sent stats 0 + Stats.bytes_received stats 0);
  let engine, net = make_net () in
  let rotation = { Defense.Rotation.seed = "self"; out = 1; epoch = 100. } in
  Net.set_defense net { Defense.Plan.admission = None; rotation = Some rotation };
  let quiet = List.hd (Defense.Rotation.out_nodes rotation ~n:3 ~epoch:0) in
  let delivered = ref 0 in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> incr delivered);
  Net.send net ~src:quiet ~dst:quiet ~size:100 "quiet";
  Engine.run engine;
  let stats = Net.stats net in
  checki "rotated out: not delivered" 0 !delivered;
  checki "rotated out: one reject" 1 (Stats.rejected stats);
  checki "rotated out: no drop" 0 (Stats.dropped stats);
  checki "rotated out: no bytes"
    0 (Stats.bytes_sent stats quiet + Stats.bytes_received stats quiet)

(* A message past its deadline was still transmitted into the flood:
   the receiver pays its ingress bytes, then the message counts as one
   drop. *)
let test_net_deadline_charges_ingress () =
  let engine, net = make_net ~bits_per_sec:1e6 ~latency:0.5 () in
  let delivered = ref 0 in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> incr delivered);
  let label = Stats.label (Net.stats net) "doc" in
  Net.send net ~src:0 ~dst:1 ~size:125_000 ~label ~deadline:1. "late";
  Engine.run engine;
  let stats = Net.stats net in
  checki "not delivered" 0 !delivered;
  checki "ingress bytes charged" 125_000 (Stats.bytes_received stats 1);
  checki "one drop" 1 (Stats.dropped stats);
  checki "dropped under its label" 1 (Stats.label_dropped stats "doc")

(* A NIC at zero rate forever never transmits: the send is one drop
   and charges the sender nothing, under its label too. *)
let test_net_dead_nic_charges_nothing () =
  let engine, net = make_net ~bits_per_sec:0. () in
  Net.set_handler net (fun ~dst:_ ~src:_ _ -> Alcotest.fail "delivered");
  let label = Stats.label (Net.stats net) "doc" in
  Net.send net ~src:0 ~dst:1 ~size:1_000 ~label "lost";
  Engine.run engine;
  let stats = Net.stats net in
  checki "no bytes sent" 0 (Stats.bytes_sent stats 0);
  checki "no message sent" 0 (Stats.messages_sent stats 0);
  checki "no label bytes" 0 (Stats.label_bytes stats "doc");
  checki "one drop" 1 (Stats.dropped stats);
  checki "dropped under its label" 1 (Stats.label_dropped stats "doc")

(* --- Summary --------------------------------------------------------------- *)

let test_summary_linear_fit () =
  let fit = Summary.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ] in
  checkf "slope" 2. fit.Summary.slope;
  checkf "intercept" 1. fit.Summary.intercept;
  checkf "perfect r2" 1. fit.Summary.r_squared

let test_summary_power_law () =
  (* y = 4 x^3 exactly. *)
  let points = List.map (fun x -> (x, 4. *. (x ** 3.))) [ 2.; 4.; 8.; 16. ] in
  let fit = Summary.power_law_fit points in
  checkb "recovers exponent 3" true (Float.abs (fit.Summary.slope -. 3.) < 1e-9);
  Alcotest.check_raises "rejects nonpositive"
    (Invalid_argument "Summary.power_law_fit: coordinates must be positive") (fun () ->
      ignore (Summary.power_law_fit [ (0., 1.); (1., 2.) ]))

let suite =
  [
    ("simtime", `Quick, test_simtime);
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng pinned draws", `Quick, test_rng_pinned);
    ("rng integer draws allocate nothing", `Quick, test_rng_draw_allocates_nothing);
    ("rng split", `Quick, test_rng_split);
    QCheck_alcotest.to_alcotest qcheck_rng_bounds;
    QCheck_alcotest.to_alcotest qcheck_rng_range;
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("rng gaussian mean", `Slow, test_rng_gaussian);
    ("rng errors", `Quick, test_rng_errors);
    ("event queue ordering", `Quick, test_queue_order);
    ("event queue invalid time", `Quick, test_queue_invalid_time);
    ("event queue releases popped payloads", `Quick, test_queue_releases_payloads);
    QCheck_alcotest.to_alcotest qcheck_queue_sorted;
    QCheck_alcotest.to_alcotest qcheck_queue_interleaved;
    ("engine order and clock", `Quick, test_engine_order_and_clock);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine horizon", `Quick, test_engine_horizon);
    ("engine nested scheduling", `Quick, test_engine_nested_schedule);
    ("engine rejects past events", `Quick, test_engine_past_raises);
    ("engine stale cancel is a no-op", `Quick, test_engine_stale_cancel);
    ("engine schedule/cancel churn", `Quick, test_engine_churn);
    ("engine cancelled event advances clock", `Quick, test_engine_cancelled_advances_clock);
    ("event queue pop_if_before", `Quick, test_queue_pop_if_before);
    ("event queue keyed push order", `Quick, test_queue_push_keyed_order);
    ("engine same-instant creator tie-break", `Quick, test_engine_creator_tie_break);
    ("nic basic rate", `Quick, test_nic_basic_rate);
    ("nic zero rate forever", `Quick, test_nic_zero_rate_forever);
    ("nic stalls through offline window", `Quick, test_nic_window_stall);
    ("nic split across rate change", `Quick, test_nic_window_partial);
    ("nic window restores rate", `Quick, test_nic_window_restores);
    ("nic breakpoint ordering", `Quick, test_nic_breakpoint_order);
    ("nic matches list-walk reference", `Quick, test_nic_matches_reference);
    ("nic window edge cases", `Quick, test_nic_window_edge_cases);
    ("stats counters", `Quick, test_stats);
    ("stats label interning", `Quick, test_stats_interning);
    ("trace", `Quick, test_trace);
    ("topology", `Quick, test_topology);
    ("net delivery time", `Quick, test_net_delivery_time);
    ("net deadline drop", `Quick, test_net_deadline_drop);
    ("net self send", `Quick, test_net_self_send);
    ("net broadcast", `Quick, test_net_broadcast);
    ("net limit node", `Quick, test_net_limit_node);
    ("net determinism", `Quick, test_net_determinism);
    ("fault drop window half-open", `Quick, test_fault_drop_window);
    ("fault drop p=0", `Quick, test_fault_drop_never);
    ("fault partition bidirectional", `Quick, test_fault_partition_bidirectional);
    ("fault delay jitter", `Quick, test_fault_delay);
    ("fault duplicate", `Quick, test_fault_duplicate);
    ("fault crash window", `Quick, test_fault_crash);
    ("fault drop labels", `Quick, test_fault_drop_labels);
    ("fault determinism", `Quick, test_fault_determinism);
    ("fault draws keyed per link", `Quick, test_fault_per_link_keying);
    ("fault plan validation + digest", `Quick, test_fault_plan_validate);
    ("net deferred duplicate delivers twice", `Quick, test_net_deferred_duplicate);
    ("net self send to crashed or quiet node", `Quick, test_net_self_send_crash_and_rotation);
    ("net deadline drop charges ingress", `Quick, test_net_deadline_charges_ingress);
    ("net dead nic charges nothing", `Quick, test_net_dead_nic_charges_nothing);
    ("summary linear fit", `Quick, test_summary_linear_fit);
    ("summary power-law fit", `Quick, test_summary_power_law);
  ]
