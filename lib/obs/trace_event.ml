open Json

let us t = Float (t *. 1e6)

let to_string ~spans ~samples =
  let event ph name ?tid fields args =
    let tid = Option.fold ~none:[] ~some:(fun n -> [ ("tid", Int n) ]) tid in
    Obj
      ((("ph", String ph) :: ("name", String name) :: ("pid", Int 0) :: tid)
      @ fields @ [ ("args", Obj args) ])
  in
  (* One named thread per node that appears in either stream. *)
  let thread node =
    event "M" "thread_name" ~tid:node []
      [ ("name", String (Printf.sprintf "authority %d" node)) ]
  in
  let nodes =
    List.sort_uniq Int.compare
      (List.map (fun (s : Events.span) -> s.node) spans
      @ List.map (fun (s : Events.sample) -> s.node) samples)
  in
  let span (s : Events.span) =
    event "X" s.phase ~tid:s.node
      [ ("cat", String "phase"); ("ts", us s.start);
        ("dur", us (Float.max 0. (s.stop -. s.start))) ]
      [ ("complete", Bool s.complete) ]
  in
  let sample (s : Events.sample) =
    event "C" (Printf.sprintf "%s (node %d)" s.track s.node) ~tid:s.node
      [ ("ts", us s.time) ]
      [ ("value", Float s.value) ]
  in
  let events =
    (event "M" "process_name" [] [ ("name", String "torda-sim") ] :: List.map thread nodes)
    @ List.map span spans @ List.map sample samples
  in
  Json.to_string (Obj [ ("displayTimeUnit", String "ms"); ("traceEvents", List events) ]) ^ "\n"
