(* See agreement.mli for the interface documentation. *)

type ('v, 'm) callbacks = {
  engine : Tor_sim.Engine.t;
  send : dst:int -> 'm -> unit;
  validate : 'v -> bool;
  value_digest : 'v -> Crypto.Digest32.t;
  proposal : unit -> 'v option;
  decide : view:int -> 'v -> unit;
  on_view : view:int -> unit;
  log : string -> unit;
}

let fault_bound ~n = (n - 1) / 3
let quorum ~n = n - fault_bound ~n
let leader ~n ~view = view mod n

let broadcast cb ~n msg =
  for dst = 0 to n - 1 do
    cb.send ~dst msg
  done

let signers table key =
  match Hashtbl.find_opt table key with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.add table key h;
      h

module type S = sig
  type 'v t
  type 'v msg

  val name : string

  val create :
    keyring:Crypto.Keyring.t ->
    n:int ->
    id:int ->
    view_timeout:Tor_sim.Simtime.t ->
    ('v, 'v msg) callbacks ->
    'v t

  val start : 'v t -> unit
  val handle : 'v t -> src:int -> 'v msg -> unit
  val notify_ready : 'v t -> unit
  val decided : 'v t -> 'v option
  val current_view : 'v t -> int
  val msg_size : value_size:('v -> int) -> 'v msg -> int
end
