//! Query-language integration tests: parse → validate → execute paths,
//! including the interface restrictions Privid imposes on analysts.

use privid::query::{QueryError, Schema, SensitivityContext, TableProfile};
use privid::{parse_query, Aggregation, ChunkProcessor, PrivacyPolicy, PrividError, QueryService, Relation};
use privid::{SceneConfig, SceneGenerator, UniqueEntrantProcessor};

#[test]
fn textual_and_programmatic_queries_agree_on_sensitivity() {
    // The same statement built via the parser and via the builder API must
    // yield identical sensitivities.
    let text = parse_query("SELECT AVG(range(speed, 30, 60)) FROM tableA;").unwrap();
    let built =
        privid::SelectStatement::simple(Aggregation::avg("speed", 30.0, 60.0), Relation::table("tableA"));
    let mut ctx = SensitivityContext::new();
    ctx.register(
        "tableA",
        TableProfile { max_rows_per_chunk: 10, chunk_secs: 5.0, rho_secs: 30.0, k: 2, num_chunks: 1000 },
    );
    let s_text = ctx.statement_sensitivities(&text.selects[0], 1).unwrap();
    let s_built = ctx.statement_sensitivities(&built, 1).unwrap();
    assert_eq!(s_text, s_built);
}

#[test]
fn listing1_schema_roundtrip() {
    let q = parse_query(
        r#"PROCESS c USING model.py TIMEOUT 1 sec PRODUCING 10 ROWS
           WITH SCHEMA (plate:STRING="", color:STRING="", speed:NUMBER=0) INTO tableA;"#,
    )
    .unwrap();
    assert_eq!(q.processes[0].schema, Schema::listing1());
    assert_eq!(q.processes[0].timeout_secs, 1.0);
}

#[test]
fn interface_restrictions_are_enforced_end_to_end() {
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.1)).generate();
    let sys = QueryService::new();
    sys.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 10.0)).expect("camera/processor registration must succeed");
    sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");

    // SUM without a declared range is refused by the sensitivity calculator.
    let missing_range = "
        SPLIT campus BEGIN 0 END 5 min BY TIME 10 sec STRIDE 0 sec INTO c;
        PROCESS c USING proc TIMEOUT 1 sec PRODUCING 5 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
        SELECT SUM(count) FROM t CONSUMING 1.0;";
    match sys.execute_text(1, missing_range) {
        Err(PrividError::Query(QueryError::MissingConstraint(msg))) => assert!(msg.contains("range")),
        other => panic!("expected a missing-constraint error, got {other:?}"),
    }

    // GROUP BY over an analyst column without keys is rejected at parse time.
    let no_keys = "
        SPLIT campus BEGIN 0 END 5 min BY TIME 10 sec STRIDE 0 sec INTO c;
        PROCESS c USING proc TIMEOUT 1 sec PRODUCING 5 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
        SELECT COUNT(*) FROM t GROUP BY count CONSUMING 1.0;";
    assert!(matches!(sys.execute_text(1, no_keys), Err(PrividError::Query(QueryError::Unsupported(_)))));

    // The outer SELECT must aggregate.
    assert!(parse_query("SELECT plate FROM tableA;").is_err());
}

#[test]
fn explicit_keys_control_the_number_of_releases_not_the_data() {
    // Even keys absent from the data produce (noisy) releases, so the set of
    // released values never leaks which keys exist (the [58] requirement).
    let scene = SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.1)).generate();
    let sys = QueryService::new();
    sys.register_camera("campus", scene, PrivacyPolicy::new(60.0, 2, 10.0)).expect("camera/processor registration must succeed");
    sys.register_processor("proc", || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>).expect("camera/processor registration must succeed");
    let q = r#"
        SPLIT campus BEGIN 0 END 5 min BY TIME 10 sec STRIDE 0 sec INTO c;
        PROCESS c USING proc TIMEOUT 1 sec PRODUCING 5 ROWS WITH SCHEMA (count:NUMBER=0) INTO t;
        SELECT COUNT(*) FROM t GROUP BY count WITH KEYS [1, 2, 777] CONSUMING 0.9;"#;
    let result = sys.execute_text(2, q).unwrap();
    assert_eq!(result.releases.len(), 3);
    let ghost = result.releases.iter().find(|r| r.group_key.as_deref() == Some("777")).unwrap();
    assert_eq!(ghost.raw.as_number().unwrap(), 0.0);
    // It still gets noise like every other release.
    assert!(ghost.noise_scale > 0.0);
}

#[test]
fn join_sensitivity_is_enforced_not_assumed() {
    // §6.3's priming attack: the sensitivity of a join must be the sum of the
    // two tables' sensitivities. Verify through the public API.
    let mut ctx = SensitivityContext::new();
    ctx.register("t1", TableProfile { max_rows_per_chunk: 10, chunk_secs: 5.0, rho_secs: 30.0, k: 2, num_chunks: 100 });
    ctx.register("t2", TableProfile { max_rows_per_chunk: 10, chunk_secs: 5.0, rho_secs: 30.0, k: 2, num_chunks: 100 });
    let parsed = parse_query("SELECT COUNT(*) FROM t1 JOIN t2 ON plate;").unwrap();
    let s = ctx.statement_sensitivities(&parsed.selects[0], 1).unwrap();
    assert_eq!(s[0], 2.0 * 10.0 * 2.0 * 7.0, "join sensitivity adds, never takes the min");
}

#[test]
fn duration_suffixes_and_comments_parse() {
    let q = parse_query(
        "-- weekly standing query\n\
         SPLIT cam BEGIN 0 END 7 days BY TIME 30 sec STRIDE 30 sec INTO c; /* sparse sampling */",
    )
    .unwrap();
    assert_eq!(q.splits[0].end_secs, 7.0 * 86_400.0);
    assert_eq!(q.splits[0].stride_secs, 30.0);
}
