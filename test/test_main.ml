let () =
  Alcotest.run "tensorlib"
    [ ("linalg", Test_linalg.suite);
      ("ir", Test_ir.suite);
      ("stt", Test_stt.suite);
      ("search", Test_search.suite);
      ("sweep", Test_sweep.suite);
      ("hw", Test_hw.suite);
      ("sim-backends", Test_sim_backends.suite);
      ("templates", Test_templates.suite);
      ("models", Test_models.suite);
      ("features", Test_features.suite);
      ("workloads-ext", Test_workloads_ext.suite);
      ("metrics", Test_metrics.suite);
      ("parse", Test_parse.suite);
      ("dse-fast", Test_dse_fast.suite);
      ("misc", Test_misc.suite);
      ("lint", Test_lint.suite);
      ("fault", Test_fault.suite);
      ("obs", Test_obs.suite);
      ("coverage", Test_coverage.suite);
      ("absint", Test_absint.suite);
      ("compile", Test_compile.suite);
      ("store", Test_store.suite);
      ("resil", Test_resil.suite) ]
