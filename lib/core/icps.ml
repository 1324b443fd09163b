type 'a vector = 'a option array

let non_bot v =
  Array.fold_left (fun acc e -> match e with Some _ -> acc + 1 | None -> acc) 0 v

let entries_equal equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> equal x y
  | None, Some _ | Some _, None -> false

let vectors_equal equal a b =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a || (entries_equal equal a.(i) b.(i) && go (i + 1))
  in
  go 0

let agreement ~equal = function
  | [] -> true
  | first :: rest -> List.for_all (vectors_equal equal first) rest

let value_validity ~equal ~inputs ~who v =
  match v.(who) with None -> true | Some x -> equal x inputs.(who)

let value_validity_gst_zero ~equal ~inputs ~who v =
  match v.(who) with None -> false | Some x -> equal x inputs.(who)

let common_set_validity ~f v = non_bot v >= Array.length v - f
