type t = { major : int; minor : int; micro : int; patch : int; tag : string option }

let make ?tag major minor micro patch =
  if major < 0 || minor < 0 || micro < 0 || patch < 0 then
    invalid_arg "Version.make: negative component";
  { major; minor; micro; patch; tag }

let to_string v =
  let base = Printf.sprintf "%d.%d.%d.%d" v.major v.minor v.micro v.patch in
  match v.tag with None -> base | Some tag -> base ^ "-" ^ tag

(* Byte-identical to [to_string], written straight into the sink. *)
let feed sink v =
  Crypto.Sink.feed_int sink v.major;
  Crypto.Sink.feed_char sink '.';
  Crypto.Sink.feed_int sink v.minor;
  Crypto.Sink.feed_char sink '.';
  Crypto.Sink.feed_int sink v.micro;
  Crypto.Sink.feed_char sink '.';
  Crypto.Sink.feed_int sink v.patch;
  match v.tag with
  | None -> ()
  | Some tag ->
      Crypto.Sink.feed_char sink '-';
      Crypto.Sink.feed_str sink tag

let of_string s =
  let body, tag =
    match String.index_opt s '-' with
    | None -> (s, None)
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  match String.split_on_char '.' body with
  | [ a; b; c; d ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some major, Some minor, Some micro, Some patch
        when major >= 0 && minor >= 0 && micro >= 0 && patch >= 0 ->
          Ok { major; minor; micro; patch; tag }
      | _ -> Error (Printf.sprintf "bad version components in %S" s))
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
let max a b = if compare a b >= 0 then a else b
