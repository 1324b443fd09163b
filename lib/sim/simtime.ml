type t = float

let zero = 0.
let minutes m = m *. 60.
let ms m = m /. 1000.
let add = Stdlib.( +. )
let ( +. ) = Stdlib.( +. )
let is_infinite t = t = infinity
let never = infinity

let pp ppf t =
  if is_infinite t then Format.pp_print_string ppf "never"
  else
    let total_ms = int_of_float (Float.round (t *. 1000.)) in
    let m = total_ms / 60_000 in
    let s = total_ms mod 60_000 / 1000 in
    let milli = total_ms mod 1000 in
    Format.fprintf ppf "%02d:%02d.%03d" m s milli

(* Tor logs wall-clock time; anchor the simulation start at 01:00:00 on
   Jan 01, the top of a consensus hour. *)
let pp_tor_log ppf t =
  let total_ms = int_of_float (Float.round ((t +. 3600.) *. 1000.)) in
  let h = total_ms / 3_600_000 in
  let m = total_ms mod 3_600_000 / 60_000 in
  let s = total_ms mod 60_000 / 1000 in
  let milli = total_ms mod 1000 in
  Format.fprintf ppf "Jan 01 %02d:%02d:%02d.%03d" h m s milli
