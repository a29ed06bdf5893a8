let () =
  Alcotest.run "sepe_sqed"
    [
      ("obs", Test_obs.suite);
      ("diff", Test_diff.suite);
      ("session", Test_session.suite);
      ("detection", Test_detection.suite);
      ("bv", Test_bv.suite);
      ("sat", Test_sat.suite);
      ("simplify", Test_simplify.suite);
      ("par", Test_par.suite);
      ("resil", Test_resil.suite);
      ("smt", Test_smt.suite);
      ("aig", Test_aig.suite);
      ("rtl", Test_rtl.suite);
      ("isa", Test_isa.suite);
      ("proc", Test_proc.suite);
      ("qed", Test_qed.suite);
      ("synth", Test_synth.suite);
      ("export", Test_export.suite);
      ("bmc", Test_bmc.suite);
      ("portfolio", Test_portfolio.suite);
    ]
