(* Aggregated test runner: one alcotest binary covering every library. *)

let () =
  Alcotest.run "tupelo"
    [
      ("value", Test_value.suite);
      ("schema", Test_schema.suite);
      ("row", Test_row.suite);
      ("relation", Test_relation.suite);
      ("database", Test_database.suite);
      ("algebra", Test_algebra.suite);
      ("csv", Test_csv.suite);
      ("sql", Test_sql.suite);
      ("aggregate", Test_aggregate.suite);
      ("tnf", Test_tnf.suite);
      ("fira", Test_fira.suite);
      ("search", Test_search.suite);
      ("parallel", Test_parallel.suite);
      ("telemetry", Test_telemetry.suite);
      ("differential", Test_differential.suite);
      ("heuristics", Test_heuristics.suite);
      ("tupelo", Test_tupelo.suite);
      ("workloads", Test_workloads.suite);
      ("server", Test_server.suite);
      ("fuzz", Test_fuzz.suite);
      ("anytime", Test_anytime.suite);
      ("golden", Test_golden.suite);
      ("algebra.mapping", Test_mapping_algebra.suite);
      ("server.cache", Test_server_cache.suite);
      ("migrate", Test_migrate.suite);
      ("properties", Test_props.suite);
      ("intern", Test_intern.suite);
    ]
