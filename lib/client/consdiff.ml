type command =
  | Delete of { start : int; stop : int }
  | Replace of { start : int; stop : int; lines : string list }
  | Insert of { after : int; lines : string list }

type t = {
  base_digest : Crypto.Digest32.t;
  target_digest : Crypto.Digest32.t;
  commands : command list;
}

(* Directory documents are structured: a header, one block per relay
   introduced by an "r " line (blocks sorted by fingerprint), then a
   footer.  Diffing merges the two block sequences by key in one pass —
   O(n + m) — rather than running a generic LCS over 10^5 lines. *)

type block = { key : string; lines : string list; start : int (* 1-indexed *) }

let header_key = "\x00header"
let footer_key = "\x7ffooter"

(* Entry blocks are keyed by the fingerprint, the third token of both
   vote and consensus "r" lines. *)
let block_key line =
  match String.split_on_char ' ' line with
  | "r" :: _nickname :: fingerprint :: _ -> "r|" ^ fingerprint
  | _ -> "r|" ^ line

let is_r_line line = String.length line >= 2 && line.[0] = 'r' && line.[1] = ' '

let split_lines text = Array.of_list (String.split_on_char '\n' text)

let split_blocks lines =
  let n = Array.length lines in
  let boundaries = ref [ (0, header_key) ] in
  let in_footer = ref false in
  for i = 0 to n - 1 do
    if not !in_footer then
      if is_r_line lines.(i) then boundaries := (i, block_key lines.(i)) :: !boundaries
      else if lines.(i) = "directory-footer" then begin
        boundaries := (i, footer_key) :: !boundaries;
        in_footer := true
      end
  done;
  let rec build = function
    | [] -> []
    | (start_idx, key) :: rest ->
        let stop_idx = match rest with [] -> n | (next, _) :: _ -> next in
        if stop_idx > start_idx then
          {
            key;
            lines = Array.to_list (Array.sub lines start_idx (stop_idx - start_idx));
            start = start_idx + 1;
          }
          :: build rest
        else build rest
  in
  build (List.rev !boundaries)

let doc_digest text = Crypto.Digest32.of_string text

let diff ~base ~target =
  let base_lines = split_lines base in
  let n_base = Array.length base_lines in
  (* Merge both sorted block sequences, emitting edits in ascending
     base-line order. *)
  let rec merge bs ts acc =
    match (bs, ts) with
    | [], [] -> List.rev acc
    | b :: bs', [] ->
        merge bs' [] (Delete { start = b.start; stop = b.start + List.length b.lines - 1 } :: acc)
    | [], t :: ts' -> merge [] ts' (Insert { after = n_base; lines = t.lines } :: acc)
    | b :: bs', t :: ts' ->
        if String.equal b.key t.key then
          let stop = b.start + List.length b.lines - 1 in
          if b.lines = t.lines then merge bs' ts' acc
          else merge bs' ts' (Replace { start = b.start; stop; lines = t.lines } :: acc)
        else if String.compare b.key t.key < 0 then
          merge bs' ts
            (Delete { start = b.start; stop = b.start + List.length b.lines - 1 } :: acc)
        else merge bs ts' (Insert { after = b.start - 1; lines = t.lines } :: acc)
  in
  let commands =
    merge (split_blocks base_lines) (split_blocks (split_lines target)) []
  in
  { base_digest = doc_digest base; target_digest = doc_digest target; commands }

let patch ~base t =
  if not (Crypto.Digest32.equal (doc_digest base) t.base_digest) then
    Error "diff does not apply to this base document"
  else begin
    let base_lines = split_lines base in
    let n = Array.length base_lines in
    let out = Buffer.create (String.length base) in
    let first = ref true in
    let push line =
      if !first then first := false else Buffer.add_char out '\n';
      Buffer.add_string out line
    in
    let pos = ref 1 in
    let error = ref None in
    let copy_until k =
      if k < !pos then error := Some "diff commands out of order"
      else
        while !pos < k do
          push base_lines.(!pos - 1);
          incr pos
        done
    in
    let apply = function
      | Delete { start; stop } ->
          if start < 1 || stop > n || stop < start then error := Some "delete out of range"
          else begin
            copy_until start;
            pos := stop + 1
          end
      | Replace { start; stop; lines } ->
          if start < 1 || stop > n || stop < start then error := Some "replace out of range"
          else begin
            copy_until start;
            List.iter push lines;
            pos := stop + 1
          end
      | Insert { after; lines } ->
          if after < 0 || after > n then error := Some "insert out of range"
          else begin
            copy_until (after + 1);
            List.iter push lines
          end
    in
    List.iter (fun cmd -> if !error = None then apply cmd) t.commands;
    match !error with
    | Some e -> Error e
    | None ->
        copy_until (n + 1);
        let result = Buffer.contents out in
        if Crypto.Digest32.equal (doc_digest result) t.target_digest then Ok result
        else Error "patched document does not match the target digest"
  end

let wire_size t =
  let command_size = function
    | Delete _ -> 16
    | Replace { lines; _ } | Insert { lines; _ } ->
        List.fold_left (fun acc l -> acc + String.length l + 1) 16 lines
  in
  (2 * Crypto.Digest32.wire_size)
  + 32
  + List.fold_left (fun acc c -> acc + command_size c) 0 t.commands

let savings ~base ~target =
  let d = diff ~base ~target in
  Float.max 0. (1. -. (float_of_int (wire_size d) /. float_of_int (String.length target)))
