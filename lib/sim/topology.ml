type t = { n : int; delays : Simtime.t array array }

let n t = t.n

let latency t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Topology.latency: node out of range";
  t.delays.(src).(dst)

let uniform ~n ~latency =
  if n <= 0 then invalid_arg "Topology.uniform: n must be positive";
  if latency < 0. then invalid_arg "Topology.uniform: negative latency";
  let delays =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else latency))
  in
  { n; delays }

let realistic ~n ~rng =
  if n <= 0 then invalid_arg "Topology.realistic: n must be positive";
  let delays = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let sample = Rng.gaussian rng ~mean:0.045 ~stddev:0.025 in
      let clamped = Float.max 0.005 (Float.min 0.150 sample) in
      delays.(i).(j) <- clamped;
      delays.(j).(i) <- clamped
    done
  done;
  { n; delays }

let of_matrix m =
  let n = Array.length m in
  if n = 0 then invalid_arg "Topology.of_matrix: empty matrix";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Topology.of_matrix: not square";
      Array.iter (fun d -> if d < 0. then invalid_arg "Topology.of_matrix: negative delay") row)
    m;
  let delays =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then 0. else Float.max m.(i).(j) m.(j).(i)))
  in
  { n; delays }
