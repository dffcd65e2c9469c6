let () =
  Alcotest.run "cxxlookup"
    [ ("bitset", Test_bitset.suite);
      ("chg", Test_chg.suite);
      ("path", Test_path.suite);
      ("spec", Test_spec.suite);
      ("sgraph", Test_sgraph.suite);
      ("engine", Test_engine.suite);
      ("baselines", Test_baselines.suite);
      ("mro", Test_mro.suite);
      ("frontend", Test_frontend.suite);
      ("frontend-more", Test_more_frontend.suite);
      ("scopes", Test_scopes.suite);
      ("layout", Test_layout.suite);
      ("rf_ops", Test_rf_ops.suite);
      ("incremental", Test_incremental.suite);
      ("serialize", Test_serialize.suite);
      ("codec", Test_codec.suite);
      ("runtime", Test_runtime.suite);
      ("analysis", Test_analysis.suite);
      ("lint", Test_lint.suite);
      ("workload", Test_workload.suite);
      ("slicing", Test_slicing.suite);
      ("telemetry", Test_telemetry.suite);
      ("observability", Test_observability.suite);
      ("service", Test_service.suite);
      ("store", Test_store.suite);
      ("net", Test_net.suite);
      ("cluster", Test_cluster.suite);
      ("packed", Test_packed.suite);
      ("raw", Test_raw.suite);
      ("properties", Test_props.suite) ]
