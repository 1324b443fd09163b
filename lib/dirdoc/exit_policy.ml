type policy = Accept | Reject

(* [text] is the canonical summary, built once when the value is made:
   votes and consensuses hash it for every relay, and Figure 2's
   tie-break compares it. *)
type t = { policy : policy; ranges : (int * int) list; text : string }

let normalize ranges =
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) ranges in
  let rec merge = function
    | [] -> []
    | [ r ] -> [ r ]
    | (lo1, hi1) :: (lo2, hi2) :: rest ->
        if lo2 <= hi1 + 1 then merge ((lo1, Stdlib.max hi1 hi2) :: rest)
        else (lo1, hi1) :: merge ((lo2, hi2) :: rest)
  in
  merge sorted

let range_to_string (lo, hi) =
  if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi

let make policy ranges =
  if ranges = [] then invalid_arg "Exit_policy.make: empty range list";
  List.iter
    (fun (lo, hi) ->
      if lo < 1 || hi > 65535 || lo > hi then
        invalid_arg "Exit_policy.make: port range out of bounds")
    ranges;
  let ranges = normalize ranges in
  let keyword = match policy with Accept -> "accept" | Reject -> "reject" in
  { policy; ranges; text = keyword ^ " " ^ String.concat "," (List.map range_to_string ranges) }

let accept_all = make Accept [ (1, 65535) ]
let reject_all = make Reject [ (1, 65535) ]

let policy t = t.policy
let ranges t = t.ranges
let to_string t = t.text

(* Plain decimal digits only: no sign, base prefix or underscore. *)
let decimal s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then int_of_string_opt s
  else None

let parse_range s =
  match String.index_opt s '-' with
  | None -> Option.map (fun p -> (p, p)) (decimal s)
  | Some i -> (
      let lo = String.sub s 0 i and hi = String.sub s (i + 1) (String.length s - i - 1) in
      match (decimal lo, decimal hi) with
      | Some lo, Some hi -> Some (lo, hi)
      | _ -> None)

let of_string s =
  match String.split_on_char ' ' s with
  | [ keyword; body ] -> (
      let policy =
        match keyword with
        | "accept" -> Some Accept
        | "reject" -> Some Reject
        | _ -> None
      in
      match policy with
      | None -> Error (Printf.sprintf "bad exit policy keyword in %S" s)
      | Some policy -> (
          let parts = String.split_on_char ',' body in
          let parsed = List.map parse_range parts in
          if List.exists Option.is_none parsed then
            Error (Printf.sprintf "bad port range in %S" s)
          else
            let ranges = List.filter_map Fun.id parsed in
            match make policy ranges with
            | t -> Ok t
            | exception Invalid_argument m -> Error m))
  | _ -> Error (Printf.sprintf "bad exit policy format %S" s)

(* Aggregation compares the policies of one relay's listings across
   votes, which are usually one shared value. *)
let compare a b = if a == b then 0 else String.compare a.text b.text
let equal a b = compare a b = 0
