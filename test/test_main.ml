let () =
  Alcotest.run "s3"
    [ Test_prng.tests;
      Test_stats.tests;
      Test_table.tests;
      Test_lp.tests;
      Test_packing.tests;
      Test_solver_stress.tests;
      Test_planning_core.tests;
      Test_gf256.tests;
      Test_matrix.tests;
      Test_reed_solomon.tests;
      Test_codec.tests;
      Test_topology.tests;
      Test_placement.tests;
      Test_cluster.tests;
      Test_workload.tests;
      Test_profile.tests;
      Test_pipeline.tests;
      Test_integrity.tests;
      Test_core.tests;
      Test_algorithms.tests;
      Test_sim.tests;
      Test_fault.tests;
      Test_detector.tests;
      Test_incremental.tests;
      Test_phase2.tests;
      Test_integration.tests;
      Test_properties.tests;
      Test_report.tests;
      Test_par.tests;
      Test_edge_cases.tests;
      Test_lint.tests
    ]
