module Runenv = Protocols.Runenv

type t = {
  protocols : Job.protocol list;
  bandwidths_mbit : float list;
  relay_counts : int list;
  base : Runenv.Spec.t;
}

let make ?(protocols = [ Job.Current; Job.Synchronous; Job.Ours ])
    ?(bandwidths_mbit = [ 250. ]) ?(relay_counts = [ 1000 ])
    ?(base = Runenv.Spec.default) () =
  { protocols; bandwidths_mbit; relay_counts; base }

type cell = {
  protocol : Job.protocol;
  bandwidth_mbit : float;
  n_relays : int;
  job : Job.t;
}

let cells t =
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun bandwidth_mbit ->
          List.map
            (fun n_relays ->
              let spec =
                {
                  t.base with
                  Runenv.Spec.bandwidth_bits_per_sec = bandwidth_mbit *. 1e6;
                  n_relays;
                }
              in
              { protocol; bandwidth_mbit; n_relays; job = { Job.protocol; spec } })
            t.relay_counts)
        t.bandwidths_mbit)
    t.protocols

let jobs t = List.map (fun c -> c.job) (cells t)
