(* Test driver: one alcotest run over every suite. *)

let () =
  Alcotest.run "torpartial"
    [
      ("crypto", Test_crypto.suite);
      ("sim", Test_sim.suite);
      ("dirdoc", Test_dirdoc.suite);
      ("protocols", Test_protocols.suite);
      ("core", Test_core.suite);
      ("exec", Test_exec.suite);
      ("defense", Test_defense.suite);
      ("obs", Test_obs.suite);
      ("client", Test_client.suite);
      ("attack", Test_attack.suite);
    ]
