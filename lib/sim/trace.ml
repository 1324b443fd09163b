type level = Notice | Info | Warn

type record = { time : Simtime.t; node : int option; level : level; text : string }

(* Newest first; [records] restores emission order and then sorts. *)
type t = { mutable records : record list }

let create () = { records = [] }

let log t ~time ?node level text =
  t.records <- { time; node; level; text } :: t.records

let logf t ~time ?node level fmt =
  Format.kasprintf (fun text -> log t ~time ?node level text) fmt

let node_key r = match r.node with None -> -1 | Some id -> id

let records t =
  List.stable_sort
    (fun a b ->
      match Float.compare a.time b.time with
      | 0 -> Int.compare (node_key a) (node_key b)
      | c -> c)
    (List.rev t.records)

let for_node t node =
  List.filter (fun r -> r.node = Some node) (records t)

let level_string = function Notice -> "notice" | Info -> "info" | Warn -> "warn"

let render r =
  Format.asprintf "%a [%s] %s" Simtime.pp_tor_log r.time (level_string r.level) r.text

let iter ?node t f =
  let wanted r = match node with None -> true | Some id -> r.node = Some id in
  List.iter (fun r -> if wanted r then f r) (records t)

let dump ?node t =
  let buf = Buffer.create 256 in
  iter ?node t (fun r ->
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (render r));
  Buffer.contents buf
