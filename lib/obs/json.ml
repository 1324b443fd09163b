type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      (match s.[i] with
      | _ when not (Uchar.utf_decode_is_valid d) -> Buffer.add_utf_8_uchar buf Uchar.rep
      | ('"' | '\\') as c -> Buffer.add_char buf '\\'; Buffer.add_char buf c
      | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | _ -> Buffer.add_substring buf s i (Uchar.utf_decode_length d));
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.add_char buf '"'

let rec add buf depth = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  (* Six decimals, as both documents always had: CI compares the bench
     report with the committed BENCH_micro.json as written. *)
  | Float x when Float.is_finite x -> Printf.bprintf buf "%.6f" x
  | Float _ -> Buffer.add_string buf "null"
  | String s -> add_string buf s
  | List items -> add_items buf depth '[' ']' (List.map (fun v -> (None, v)) items)
  | Obj members -> add_items buf depth '{' '}' (List.map (fun (k, v) -> (Some k, v)) members)

and add_items buf depth opening closing items =
  let newline d = if depth < 2 then Buffer.add_string buf ("\n" ^ String.make (2 * d) ' ') in
  Buffer.add_char buf opening;
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_string buf (if depth < 2 then "," else ", ");
      newline (depth + 1);
      Option.iter (fun k -> add_string buf k; Buffer.add_string buf ": ") key;
      add buf (depth + 1) v)
    items;
  if items <> [] then newline depth;
  Buffer.add_char buf closing

let to_string v =
  let buf = Buffer.create 4096 in
  add buf 0 v;
  Buffer.contents buf
