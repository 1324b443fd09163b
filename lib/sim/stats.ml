type label = int

let no_label = -1
let label_id l = l

(* Messages lost, or turned away by a defense: a total, a count per
   intended recipient and a count per interned label. *)
type tally = {
  mutable total : int;
  at : int array;
  mutable by_label : int array;
}

type t = {
  bytes_sent : int array;
  bytes_received : int array;
  messages_sent : int array;
  dropped : tally;
  (* Defense rejects (admission turn-aways, rotation quiet periods)
     are counted apart from [dropped] so verdicts never conflate what
     a defense did with what an injected fault did. *)
  rejected : tally;
  (* Interned labels: dense ids into parallel arrays.  The per-send
     accounting is then one array add — the old string-keyed [Hashtbl]
     probe (hashing the label on every send) is paid once, at
     [intern]. *)
  intern_table : (string, int) Hashtbl.t;
  mutable label_names : string array;
  mutable label_bytes : int array;
  mutable label_used : bool array; (* recorded at least once *)
  mutable n_labels : int;
}

let tally ~n = { total = 0; at = Array.make n 0; by_label = [||] }

let create ~n =
  {
    bytes_sent = Array.make n 0;
    bytes_received = Array.make n 0;
    messages_sent = Array.make n 0;
    dropped = tally ~n;
    rejected = tally ~n;
    intern_table = Hashtbl.create 16;
    label_names = [||];
    label_bytes = [||];
    label_used = [||];
    n_labels = 0;
  }

let n t = Array.length t.bytes_sent

let intern t name =
  match Hashtbl.find_opt t.intern_table name with
  | Some id -> id
  | None ->
      let id = t.n_labels in
      if id = Array.length t.label_names then begin
        let grow a x = Array.init (max 8 (2 * id)) (fun i -> if i < id then a.(i) else x) in
        t.label_names <- grow t.label_names "";
        t.label_bytes <- grow t.label_bytes 0;
        t.label_used <- grow t.label_used false;
        t.dropped.by_label <- grow t.dropped.by_label 0;
        t.rejected.by_label <- grow t.rejected.by_label 0
      end;
      t.label_names.(id) <- name;
      t.n_labels <- id + 1;
      Hashtbl.replace t.intern_table name id;
      id

let interned t = Array.sub t.label_names 0 t.n_labels

(* Allocation-free, for the network hot path: [label] is either an
   interned id or [no_label]. *)
let record_send t ~node ~bytes ~label =
  t.bytes_sent.(node) <- t.bytes_sent.(node) + bytes;
  t.messages_sent.(node) <- t.messages_sent.(node) + 1;
  if label >= 0 then begin
    t.label_bytes.(label) <- t.label_bytes.(label) + bytes;
    t.label_used.(label) <- true
  end

let record_received t ~node ~bytes =
  t.bytes_received.(node) <- t.bytes_received.(node) + bytes

(* Allocation-free: [node] is the intended recipient (or [-1] when
   unattributable), [label] an interned id or [no_label]. *)
let count t tally ~node ~label =
  tally.total <- tally.total + 1;
  if node >= 0 then tally.at.(node) <- tally.at.(node) + 1;
  if label >= 0 then begin
    tally.by_label.(label) <- tally.by_label.(label) + 1;
    t.label_used.(label) <- true
  end

let record_drop t ~node ~label = count t t.dropped ~node ~label
let record_reject t ~node ~label = count t t.rejected ~node ~label

let bytes_sent t node = t.bytes_sent.(node)
let bytes_received t node = t.bytes_received.(node)
let messages_sent t node = t.messages_sent.(node)
let dropped t = t.dropped.total
let dropped_at t node = t.dropped.at.(node)
let rejected t = t.rejected.total
let rejected_at t node = t.rejected.at.(node)
let total_bytes_sent t = Array.fold_left ( + ) 0 t.bytes_sent

let by_name t counts name =
  match Hashtbl.find_opt t.intern_table name with Some id -> counts.(id) | None -> 0

let label_bytes t name = by_name t t.label_bytes name
let label_dropped t name = by_name t t.dropped.by_label name
let label_rejected t name = by_name t t.rejected.by_label name

(* The labels [keep] selects, with their counts, sorted by name. *)
let table t counts keep =
  List.init t.n_labels Fun.id
  |> List.filter keep
  |> List.map (fun id -> (t.label_names.(id), counts.(id)))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Only labels recorded at least once appear. *)
let labels t = table t t.label_bytes (fun id -> t.label_used.(id))
let tally_labels t tally = table t tally.by_label (fun id -> tally.by_label.(id) > 0)
let dropped_labels t = tally_labels t t.dropped
let rejected_labels t = tally_labels t t.rejected
