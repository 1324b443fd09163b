(* Fixed histogram geometry, shared by every instance so any two
   histograms merge bucket-for-bucket.  Bucket 0 collects values below
   [lo]; bucket [1 + floor (log10 (v / lo) * per_decade)] holds the
   rest, clamped at the top.  14 decades above 1e-6 reaches 1e8 —
   comfortably past any sim-time latency (horizons are hours). *)

let lo = 1e-6
let per_decade = 16
let decades = 14
let n_buckets = 1 + (decades * per_decade)

(* Exact aggregates live in a float array rather than mutable record
   fields: OCaml boxes every store to a mutable float field of a mixed
   record, and [observe] runs once per delivered message. *)
let agg_sum = 0

let agg_min = 1

let agg_max = 2

type histogram = { buckets : int array; mutable n : int; agg : float array }

let histogram_create () =
  { buckets = Array.make n_buckets 0;
    n = 0;
    agg = [| 0.; infinity; neg_infinity |] }

let bucket_of v =
  if v < lo then 0
  else
    let i = 1 + int_of_float (Float.log10 (v /. lo) *. float_of_int per_decade) in
    if i >= n_buckets then n_buckets - 1 else i

let bucket_upper i =
  if i = 0 then lo
  else lo *. (10. ** (float_of_int i /. float_of_int per_decade))

let observe h v =
  let v = if v < 0. then 0. else v in
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.n <- h.n + 1;
  h.agg.(agg_sum) <- h.agg.(agg_sum) +. v;
  if v < h.agg.(agg_min) then h.agg.(agg_min) <- v;
  if v > h.agg.(agg_max) then h.agg.(agg_max) <- v

let count h = h.n
let sum h = h.agg.(agg_sum)
let min_value h = if h.n = 0 then nan else h.agg.(agg_min)
let max_value h = if h.n = 0 then nan else h.agg.(agg_max)
let mean h = if h.n = 0 then nan else h.agg.(agg_sum) /. float_of_int h.n

let percentile h q =
  if h.n = 0 then nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.n)) in
      if r < 1 then 1 else if r > h.n then h.n else r
    in
    let seen = ref 0 and i = ref 0 in
    while !seen < rank && !i < n_buckets do
      seen := !seen + h.buckets.(!i);
      incr i
    done;
    let upper = bucket_upper (!i - 1) in
    Float.min (Float.max upper h.agg.(agg_min)) h.agg.(agg_max)
  end

let merge_histogram ~into src =
  for i = 0 to n_buckets - 1 do
    into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
  done;
  into.n <- into.n + src.n;
  into.agg.(agg_sum) <- into.agg.(agg_sum) +. src.agg.(agg_sum);
  if src.agg.(agg_min) < into.agg.(agg_min) then
    into.agg.(agg_min) <- src.agg.(agg_min);
  if src.agg.(agg_max) > into.agg.(agg_max) then
    into.agg.(agg_max) <- src.agg.(agg_max)

let render h =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "n=%d sum=%h min=%h max=%h" h.n
                           h.agg.(agg_sum)
                           (if h.n = 0 then nan else h.agg.(agg_min))
                           (if h.n = 0 then nan else h.agg.(agg_max)));
  for i = 0 to n_buckets - 1 do
    if h.buckets.(i) > 0 then
      Buffer.add_string buf (Printf.sprintf " b%d:%d" i h.buckets.(i))
  done;
  Buffer.contents buf

(* Registry: histograms by name, matched exactly. *)

type t = (string, histogram) Hashtbl.t

let create () = Hashtbl.create 16

let histogram t name =
  match Hashtbl.find_opt t name with
  | Some h -> h
  | None ->
      let h = histogram_create () in
      Hashtbl.add t name h;
      h

let find_histogram t name = Hashtbl.find_opt t name

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
