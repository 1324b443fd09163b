(* Civil-date conversion after Howard Hinnant's algorithms: exact over
   the full proleptic Gregorian calendar, branch-light, and easy to
   property-test against a naive day-counting loop. *)

let days_from_civil ~year ~month ~day =
  let year = if month <= 2 then year - 1 else year in
  let era = (if year >= 0 then year else year - 399) / 400 in
  let yoe = year - (era * 400) in
  let mp = (month + 9) mod 12 in
  let doy = ((153 * mp) + 2) / 5 + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let year = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let day = doy - (((153 * mp) + 2) / 5) + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = if month <= 2 then year + 1 else year in
  (year, month, day)

let to_string epoch =
  let total = int_of_float (Float.floor epoch) in
  let days = if total >= 0 then total / 86400 else (total - 86399) / 86400 in
  let secs = total - (days * 86400) in
  let year, month, day = civil_from_days days in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" year month day (secs / 3600)
    (secs mod 3600 / 60) (secs mod 60)

(* Every field is plain decimal digits between fixed separators, and
   the date must be one the calendar has: [days_from_civil] folds a
   day or month out of range into a later or earlier date, so the
   round trip through [civil_from_days] rejects it. *)
let of_string s =
  let fail () = Error (Printf.sprintf "bad timestamp %S" s) in
  let digits pos len =
    let field = String.sub s pos len in
    if String.for_all (fun c -> c >= '0' && c <= '9') field then Some (int_of_string field)
    else None
  in
  let separated =
    String.length s = 19
    && s.[4] = '-' && s.[7] = '-' && s.[10] = ' ' && s.[13] = ':' && s.[16] = ':'
  in
  if not separated then fail ()
  else
    match (digits 0 4, digits 5 2, digits 8 2, digits 11 2, digits 14 2, digits 17 2) with
    | Some year, Some month, Some day, Some h, Some m, Some sec
      when h < 24 && m < 60 && sec < 60 ->
        let days = days_from_civil ~year ~month ~day in
        if civil_from_days days <> (year, month, day) then fail ()
        else Ok (float_of_int ((days * 86400) + (h * 3600) + (m * 60) + sec))
    | _ -> fail ()
