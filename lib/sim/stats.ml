type label = {
  name : string;
  mutable bytes : int;
  mutable drops : int;
  mutable rejects : int;
  mutable recorded : bool; (* sent, dropped or rejected at least once *)
}

(* Messages lost, or turned away by a defense: a total and a count per
   intended recipient.  The per-label counts live on the labels. *)
type tally = { mutable total : int; at : int array }

type t = {
  bytes_sent : int array;
  bytes_received : int array;
  messages_sent : int array;
  dropped : tally;
  (* Defense rejects (admission turn-aways, rotation quiet periods)
     are counted apart from [dropped] so verdicts never conflate what
     a defense did with what an injected fault did. *)
  rejected : tally;
  labels : (string, label) Hashtbl.t;
}

let tally ~n = { total = 0; at = Array.make n 0 }

let create ~n =
  {
    bytes_sent = Array.make n 0;
    bytes_received = Array.make n 0;
    messages_sent = Array.make n 0;
    dropped = tally ~n;
    rejected = tally ~n;
    labels = Hashtbl.create 16;
  }

let n t = Array.length t.bytes_sent

let label t name =
  match Hashtbl.find_opt t.labels name with
  | Some l -> l
  | None ->
      let l = { name; bytes = 0; drops = 0; rejects = 0; recorded = false } in
      Hashtbl.add t.labels name l;
      l

let label_name l = l.name

let record_send t ~node ~bytes ~label =
  t.bytes_sent.(node) <- t.bytes_sent.(node) + bytes;
  t.messages_sent.(node) <- t.messages_sent.(node) + 1;
  match label with
  | None -> ()
  | Some l ->
      l.bytes <- l.bytes + bytes;
      l.recorded <- true

let record_received t ~node ~bytes =
  t.bytes_received.(node) <- t.bytes_received.(node) + bytes

let count tally ~node =
  tally.total <- tally.total + 1;
  if node >= 0 then tally.at.(node) <- tally.at.(node) + 1

let record_drop t ~node ~label =
  count t.dropped ~node;
  match label with
  | None -> ()
  | Some l ->
      l.drops <- l.drops + 1;
      l.recorded <- true

let record_reject t ~node ~label =
  count t.rejected ~node;
  match label with
  | None -> ()
  | Some l ->
      l.rejects <- l.rejects + 1;
      l.recorded <- true

let bytes_sent t node = t.bytes_sent.(node)
let bytes_received t node = t.bytes_received.(node)
let messages_sent t node = t.messages_sent.(node)
let dropped t = t.dropped.total
let dropped_at t node = t.dropped.at.(node)
let rejected t = t.rejected.total
let rejected_at t node = t.rejected.at.(node)
let total_bytes_sent t = Array.fold_left ( + ) 0 t.bytes_sent

let by_name t field name =
  match Hashtbl.find_opt t.labels name with Some l -> field l | None -> 0

let label_bytes t = by_name t (fun l -> l.bytes)
let label_dropped t = by_name t (fun l -> l.drops)
let label_rejected t = by_name t (fun l -> l.rejects)

(* The labels [keep] selects, with [field], sorted by name. *)
let table t field keep =
  Hashtbl.fold (fun name l acc -> if keep l then (name, field l) :: acc else acc) t.labels []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let label_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.labels [] |> List.sort String.compare

let labels t = table t (fun l -> l.bytes) (fun l -> l.recorded)
let dropped_labels t = table t (fun l -> l.drops) (fun l -> l.drops > 0)
let rejected_labels t = table t (fun l -> l.rejects) (fun l -> l.rejects > 0)
