let () =
  Alcotest.run "haf"
    (Test_sim.suite @ Test_net.suite @ Test_net_backends.suite @ Test_gcs.suite @ Test_core.suite
   @ Test_framework.suite @ Test_services.suite @ Test_stats.suite
   @ Test_analysis.suite @ Test_experiments.suite
   @ Test_gcs_units.suite @ Test_framework_more.suite @ Test_manager.suite
   @ Test_soak.suite @ Test_lint.suite @ Test_deep_lint.suite
   @ Test_store.suite @ Test_chaos.suite @ Test_monitor_incr.suite
   @ Test_explore.suite)
