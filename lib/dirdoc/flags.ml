type flag =
  | Authority
  | BadExit
  | Exit
  | Fast
  | Guard
  | HSDir
  | MiddleOnly
  | NoEdConsensus
  | Running
  | Stable
  | StaleDesc
  | V2Dir
  | Valid

(* Bitset representation: cheap set operations over 10k-relay votes. *)
type t = int

let bit = function
  | Authority -> 1 lsl 0
  | BadExit -> 1 lsl 1
  | Exit -> 1 lsl 2
  | Fast -> 1 lsl 3
  | Guard -> 1 lsl 4
  | HSDir -> 1 lsl 5
  | MiddleOnly -> 1 lsl 6
  | NoEdConsensus -> 1 lsl 7
  | Running -> 1 lsl 8
  | Stable -> 1 lsl 9
  | StaleDesc -> 1 lsl 10
  | V2Dir -> 1 lsl 11
  | Valid -> 1 lsl 12

let all =
  [ Authority; BadExit; Exit; Fast; Guard; HSDir; MiddleOnly; NoEdConsensus;
    Running; Stable; StaleDesc; V2Dir; Valid ]

let empty = 0
let add f t = t lor bit f
let remove f t = t land lnot (bit f)
let mem f t = t land bit f <> 0
let of_list flags = List.fold_left (fun acc f -> add f acc) empty flags
let to_list t = List.filter (fun f -> mem f t) all

let cardinal t =
  let rec count acc v = if v = 0 then acc else count (acc + (v land 1)) (v lsr 1) in
  count 0 t

let equal = Int.equal

let flag_to_string = function
  | Authority -> "Authority"
  | BadExit -> "BadExit"
  | Exit -> "Exit"
  | Fast -> "Fast"
  | Guard -> "Guard"
  | HSDir -> "HSDir"
  | MiddleOnly -> "MiddleOnly"
  | NoEdConsensus -> "NoEdConsensus"
  | Running -> "Running"
  | Stable -> "Stable"
  | StaleDesc -> "StaleDesc"
  | V2Dir -> "V2Dir"
  | Valid -> "Valid"

let flag_of_string s = List.find_opt (fun f -> flag_to_string f = s) all

let to_string t = String.concat " " (List.map flag_to_string (to_list t))

(* Byte-identical to [to_string], written straight into the sink. *)
let feed sink t =
  let first = ref true in
  List.iter
    (fun f ->
      if mem f t then begin
        if !first then first := false else Crypto.Sink.feed_char sink ' ';
        Crypto.Sink.feed_str sink (flag_to_string f)
      end)
    all

let of_string s =
  let words = String.split_on_char ' ' s |> List.filter (fun w -> w <> "") in
  let rec build acc = function
    | [] -> Ok acc
    | w :: rest -> (
        match flag_of_string w with
        | Some f -> build (add f acc) rest
        | None -> Error (Printf.sprintf "unknown flag %S" w))
  in
  build empty words

let pp ppf t = Format.pp_print_string ppf (to_string t)
