let () =
  Alcotest.run "accals"
    (Test_bitvec.suite @ Test_network.suite @ Test_circuits.suite
   @ Test_metrics.suite @ Test_io.suite @ Test_lac.suite @ Test_esterr.suite
   @ Test_mis.suite @ Test_core.suite @ Test_baselines.suite @ Test_twolevel.suite
   @ Test_datapath.suite @ Test_extensions.suite @ Test_aig.suite
   @ Test_analysis.suite @ Test_dsp.suite @ Test_refactor.suite @ Test_fuzz.suite
   @ Test_runtime.suite @ Test_resilience.suite @ Test_sigdb.suite
   @ Test_audit.suite @ Test_telemetry.suite @ Test_server.suite
   @ Test_observe.suite @ Test_sha256.suite @ Test_structure.suite)
