type fit = { slope : float; intercept : float; r_squared : float }

let linear_fit points =
  if List.length points < 2 then invalid_arg "Summary.linear_fit: need >= 2 points";
  let k = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. points in
  let denom = (k *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Summary.linear_fit: zero x variance";
  let slope = ((k *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. k in
  let y_mean = sy /. k in
  let ss_tot = List.fold_left (fun a (_, y) -> a +. ((y -. y_mean) ** 2.)) 0. points in
  let ss_res =
    List.fold_left
      (fun a (x, y) -> a +. ((y -. (intercept +. (slope *. x))) ** 2.))
      0. points
  in
  let r_squared = if ss_tot < 1e-12 then 1. else 1. -. (ss_res /. ss_tot) in
  { slope; intercept; r_squared }

let power_law_fit points =
  List.iter
    (fun (x, y) ->
      if x <= 0. || y <= 0. then
        invalid_arg "Summary.power_law_fit: coordinates must be positive")
    points;
  linear_fit (List.map (fun (x, y) -> (log x, log y)) points)
