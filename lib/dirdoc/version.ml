(* [text] is the canonical rendering, built once when the value is made:
   votes, consensuses and descriptor digests hash it for every relay,
   and a population holds only a few distinct versions. *)
type t = {
  major : int;
  minor : int;
  micro : int;
  patch : int;
  tag : string option;
  text : string;
}

let make ?tag major minor micro patch =
  if major < 0 || minor < 0 || micro < 0 || patch < 0 then
    invalid_arg "Version.make: negative component";
  let base = Printf.sprintf "%d.%d.%d.%d" major minor micro patch in
  let text = match tag with None -> base | Some tag -> base ^ "-" ^ tag in
  { major; minor; micro; patch; tag; text }

let to_string v = v.text

(* Plain decimal digits only: no sign, base prefix or underscore. *)
let decimal s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then int_of_string_opt s
  else None

let of_string s =
  let body, tag =
    match String.index_opt s '-' with
    | None -> (s, None)
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  match List.map decimal (String.split_on_char '.' body) with
  | [ Some major; Some minor; Some micro; Some patch ] -> Ok (make ?tag major minor micro patch)
  | [ _; _; _; _ ] -> Error (Printf.sprintf "bad version components in %S" s)
  | _ -> Error (Printf.sprintf "bad version format %S" s)

(* Version-spec ordering: numeric on components; a tagged version
   (e.g. -alpha) precedes the untagged release of the same number. *)
let compare a b =
  let c = Int.compare a.major b.major in
  if c <> 0 then c
  else
    let c = Int.compare a.minor b.minor in
    if c <> 0 then c
    else
      let c = Int.compare a.micro b.micro in
      if c <> 0 then c
      else
        let c = Int.compare a.patch b.patch in
        if c <> 0 then c
        else
          match (a.tag, b.tag) with
          | None, None -> 0
          | None, Some _ -> 1
          | Some _, None -> -1
          | Some x, Some y -> String.compare x y

let equal a b = compare a b = 0
