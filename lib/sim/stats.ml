type label = int

let no_label = -1
let label_id l = l

type t = {
  bytes_sent : int array;
  bytes_received : int array;
  messages_sent : int array;
  mutable dropped : int;
  dropped_at : int array; (* per intended recipient *)
  (* Defense rejects (admission turn-aways, rotation quiet periods)
     are counted apart from [dropped] so verdicts never conflate what
     a defense did with what an injected fault did. *)
  mutable rejected : int;
  rejected_at : int array; (* per intended recipient *)
  (* Interned labels: dense ids into parallel arrays.  The per-send
     accounting is then one array add — the old string-keyed [Hashtbl]
     probe (hashing the label on every send) is paid once, at
     [intern]. *)
  intern_table : (string, int) Hashtbl.t;
  mutable label_names : string array;
  mutable label_counts : int array;
  mutable label_drops : int array; (* dropped messages per label *)
  mutable label_rejected : int array; (* defense-rejected messages per label *)
  mutable label_used : bool array; (* recorded at least once *)
  mutable n_labels : int;
}

let create ~n =
  {
    bytes_sent = Array.make n 0;
    bytes_received = Array.make n 0;
    messages_sent = Array.make n 0;
    dropped = 0;
    dropped_at = Array.make n 0;
    rejected = 0;
    rejected_at = Array.make n 0;
    intern_table = Hashtbl.create 16;
    label_names = [||];
    label_counts = [||];
    label_drops = [||];
    label_rejected = [||];
    label_used = [||];
    n_labels = 0;
  }

let n t = Array.length t.bytes_sent

let intern t name =
  match Hashtbl.find_opt t.intern_table name with
  | Some id -> id
  | None ->
      if t.n_labels = Array.length t.label_names then begin
        let fresh = max 8 (2 * t.n_labels) in
        let names = Array.make fresh "" in
        let counts = Array.make fresh 0 in
        let drops = Array.make fresh 0 in
        let rejects = Array.make fresh 0 in
        let used = Array.make fresh false in
        Array.blit t.label_names 0 names 0 t.n_labels;
        Array.blit t.label_counts 0 counts 0 t.n_labels;
        Array.blit t.label_drops 0 drops 0 t.n_labels;
        Array.blit t.label_rejected 0 rejects 0 t.n_labels;
        Array.blit t.label_used 0 used 0 t.n_labels;
        t.label_names <- names;
        t.label_counts <- counts;
        t.label_drops <- drops;
        t.label_rejected <- rejects;
        t.label_used <- used
      end;
      let id = t.n_labels in
      t.label_names.(id) <- name;
      t.label_counts.(id) <- 0;
      t.label_drops.(id) <- 0;
      t.label_rejected.(id) <- 0;
      t.label_used.(id) <- false;
      t.n_labels <- t.n_labels + 1;
      Hashtbl.replace t.intern_table name id;
      id

(* Allocation-free, for the network hot path: [label] is either an
   interned id or [no_label]. *)
let record_send t ~node ~bytes ~label =
  t.bytes_sent.(node) <- t.bytes_sent.(node) + bytes;
  t.messages_sent.(node) <- t.messages_sent.(node) + 1;
  if label >= 0 then begin
    t.label_counts.(label) <- t.label_counts.(label) + bytes;
    t.label_used.(label) <- true
  end

let record_received t ~node ~bytes =
  t.bytes_received.(node) <- t.bytes_received.(node) + bytes

(* Allocation-free drop accounting: [node] is the intended recipient
   (or [-1] when unattributable), [label] an interned id or
   [no_label]. *)
let record_drop t ~node ~label =
  t.dropped <- t.dropped + 1;
  if node >= 0 then t.dropped_at.(node) <- t.dropped_at.(node) + 1;
  if label >= 0 then begin
    t.label_drops.(label) <- t.label_drops.(label) + 1;
    t.label_used.(label) <- true
  end

(* Allocation-free reject accounting, mirroring [record_drop]: [node]
   is the intended recipient (or [-1]), [label] an interned id or
   [no_label]. *)
let record_reject t ~node ~label =
  t.rejected <- t.rejected + 1;
  if node >= 0 then t.rejected_at.(node) <- t.rejected_at.(node) + 1;
  if label >= 0 then begin
    t.label_rejected.(label) <- t.label_rejected.(label) + 1;
    t.label_used.(label) <- true
  end

let bytes_sent t node = t.bytes_sent.(node)
let bytes_received t node = t.bytes_received.(node)
let messages_sent t node = t.messages_sent.(node)
let dropped t = t.dropped
let dropped_at t node = t.dropped_at.(node)
let rejected t = t.rejected
let rejected_at t node = t.rejected_at.(node)
let total_bytes_sent t = Array.fold_left ( + ) 0 t.bytes_sent

let label_bytes t name =
  match Hashtbl.find_opt t.intern_table name with
  | Some id -> t.label_counts.(id)
  | None -> 0

let label_dropped t name =
  match Hashtbl.find_opt t.intern_table name with
  | Some id -> t.label_drops.(id)
  | None -> 0

let label_rejected t name =
  match Hashtbl.find_opt t.intern_table name with
  | Some id -> t.label_rejected.(id)
  | None -> 0

let labels t =
  let acc = ref [] in
  (* Only labels actually recorded appear, exactly as the old
     string-keyed table only held recorded labels. *)
  for id = t.n_labels - 1 downto 0 do
    if t.label_used.(id) then acc := (t.label_names.(id), t.label_counts.(id)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let dropped_labels t =
  let acc = ref [] in
  for id = t.n_labels - 1 downto 0 do
    if t.label_drops.(id) > 0 then
      acc := (t.label_names.(id), t.label_drops.(id)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let rejected_labels t =
  let acc = ref [] in
  for id = t.n_labels - 1 downto 0 do
    if t.label_rejected.(id) > 0 then
      acc := (t.label_names.(id), t.label_rejected.(id)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc
