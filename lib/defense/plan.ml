type t = {
  admission : Admission.config option;
  rotation : Rotation.config option;
}

let none = { admission = None; rotation = None }
let admission_only = { admission = Some Admission.default; rotation = None }
let rotation_only = { admission = None; rotation = Some Rotation.default }
let both = { admission = Some Admission.default; rotation = Some Rotation.default }

let is_empty p = p.admission = None && p.rotation = None

let preset = function
  | "none" -> Some none
  | "admission" -> Some admission_only
  | "rotation" -> Some rotation_only
  | "both" -> Some both
  | _ -> None

let validate ~n p =
  Option.iter Admission.validate p.admission;
  Option.iter (Rotation.validate ~n) p.rotation

(* Same conventions as [Fault.canonical]: each defense contributes its
   own tagged chunk, an absent defense the one-character placeholder —
   so structurally equal plans serialize identically and any
   configuration change moves the digest. *)
let canonical p =
  let buf = Buffer.create 64 in
  (match p.admission with
  | None -> Buffer.add_string buf "-;"
  | Some a -> Buffer.add_string buf (Admission.canonical a));
  (match p.rotation with
  | None -> Buffer.add_string buf "-;"
  | Some r -> Buffer.add_string buf (Rotation.canonical r));
  Buffer.contents buf

let pp ppf p =
  if is_empty p then Format.pp_print_string ppf "(no defenses)"
  else begin
    Option.iter (Admission.pp ppf) p.admission;
    if p.admission <> None && p.rotation <> None then
      Format.pp_print_char ppf ' ';
    Option.iter (Rotation.pp ppf) p.rotation
  end
