type span = {
  node : int;
  phase : string;
  start : float;
  stop : float;
  complete : bool;
}

type sample = { node : int; track : string; time : float; value : float }

type t = { mutable spans : span list; mutable samples : sample list }

let create () = { spans = []; samples = [] }

let span t ~node ~phase ~start ~stop ~complete =
  t.spans <- { node; phase; start; stop; complete } :: t.spans

let sample t ~node ~track ~time ~value =
  t.samples <- { node; track; time; value } :: t.samples

(* Full-field comparators: the sort result depends only on the items,
   not on the order they were recorded in, so the order in which a
   driver walks its nodes and phases after the run never shows.
   Duplicates are kept — they compare equal and the sort is a
   permutation either way. *)

let compare_span (a : span) (b : span) =
  match Float.compare a.start b.start with
  | 0 -> (
      match Int.compare a.node b.node with
      | 0 -> (
          match String.compare a.phase b.phase with
          | 0 -> (
              match Float.compare a.stop b.stop with
              | 0 -> Bool.compare a.complete b.complete
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let compare_sample (a : sample) (b : sample) =
  match Float.compare a.time b.time with
  | 0 -> (
      match Int.compare a.node b.node with
      | 0 -> (
          match String.compare a.track b.track with
          | 0 -> Float.compare a.value b.value
          | c -> c)
      | c -> c)
  | c -> c

let spans t = List.sort compare_span t.spans
let samples t = List.sort compare_sample t.samples
