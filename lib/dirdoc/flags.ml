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

(* Bitset representation: cheap set operations over 10k-relay votes.
   A flag's bit is its index in dir-spec (alphabetical) order. *)
type t = int

let index = function
  | Authority -> 0
  | BadExit -> 1
  | Exit -> 2
  | Fast -> 3
  | Guard -> 4
  | HSDir -> 5
  | MiddleOnly -> 6
  | NoEdConsensus -> 7
  | Running -> 8
  | Stable -> 9
  | StaleDesc -> 10
  | V2Dir -> 11
  | Valid -> 12

let all =
  [ Authority; BadExit; Exit; Fast; Guard; HSDir; MiddleOnly; NoEdConsensus;
    Running; Stable; StaleDesc; V2Dir; Valid ]

(* Each flag's dir-spec name, by bit. *)
let names =
  [| "Authority"; "BadExit"; "Exit"; "Fast"; "Guard"; "HSDir"; "MiddleOnly";
     "NoEdConsensus"; "Running"; "Stable"; "StaleDesc"; "V2Dir"; "Valid" |]

let bit f = 1 lsl index f
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

let majority sets k =
  let result = ref empty in
  for b = 0 to Array.length names - 1 do
    let yes = ref 0 in
    for i = 0 to k - 1 do
      yes := !yes + ((sets.(i) lsr b) land 1)
    done;
    if 2 * !yes > k then result := !result lor (1 lsl b)
  done;
  !result

let flag_to_string f = names.(index f)
let flag_of_string s = List.find_opt (fun f -> flag_to_string f = s) all

let to_string t = String.concat " " (List.map flag_to_string (to_list t))

(* Byte-identical to [to_string], written straight into the sink: one
   pass over the bits, with no list and no closure. *)
let feed sink t =
  let first = ref true in
  for b = 0 to Array.length names - 1 do
    if t land (1 lsl b) <> 0 then begin
      if !first then first := false else Crypto.Sink.feed_char sink ' ';
      Crypto.Sink.feed_str sink names.(b)
    end
  done

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
