let () =
  Alcotest.run "factor-windows"
    [
      ("arith", Test_arith.suite);
      ("util", Test_util.suite);
      ("window", Test_window.suite);
      ("interval", Test_interval.suite);
      ("coverage", Test_coverage.suite);
      ("order", Test_order.suite);
      ("obs", Test_obs.suite);
      ("agg", Test_agg.suite);
      ("swag", Test_swag.suite);
      ("wcg", Test_wcg.suite);
      ("factor", Test_factor.suite);
      ("slicing", Test_slicing.suite);
      ("slicing-exec", Test_slicing_exec.suite);
      ("plan", Test_plan.suite);
      ("sql", Test_sql.suite);
      ("engine", Test_engine.suite);
      ("workload", Test_workload.suite);
      ("differential", Test_differential.suite);
      ("core", Test_core.suite);
      ("integration", Test_integration.suite);
      ("predicate", Test_predicate.suite);
      ("tools", Test_tools.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("snap", Test_snap.suite);
      ("spill", Test_spill.suite);
      ("batch", Test_batch.suite);
      ("serve", Test_serve.suite);
    ]
