//! The concurrent serving layer, end to end: N analysts hammering one
//! `QueryService` must receive bit-for-bit the releases a serial replay of
//! the same (seed, query) set produces, with ε debited exactly once per
//! admitted query and repeated PROCESS prologs served from the chunk cache.

use privid::{
    ChunkProcessor, Parallelism, PrivacyPolicy, PrividError, QueryResult, QueryService, Scene, SceneConfig,
    SceneGenerator, UniqueEntrantProcessor,
};

/// Shared PROCESS prolog: analysts 0, 1 and 2 re-process the same chunks.
const SHARED_PROLOG: &str = "
    SPLIT campus BEGIN 0 END 900 BY TIME 10 sec STRIDE 0 sec INTO chunks;
    PROCESS chunks USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
        WITH SCHEMA (count:NUMBER=0) INTO people;";

fn analyst_queries() -> Vec<(u64, String)> {
    vec![
        (101, format!("{SHARED_PROLOG} SELECT COUNT(*) FROM people CONSUMING 0.5;")),
        (202, format!("{SHARED_PROLOG} SELECT SUM(range(count, 0, 50)) FROM people CONSUMING 0.25;")),
        (303, format!("{SHARED_PROLOG} SELECT AVG(range(count, 0, 50)) FROM people CONSUMING 0.125;")),
        (
            404,
            "SPLIT campus BEGIN 900 END 1500 BY TIME 10 sec STRIDE 0 sec INTO c;
             PROCESS c USING person_counter TIMEOUT 1 sec PRODUCING 20 ROWS
                 WITH SCHEMA (count:NUMBER=0) INTO people;
             SELECT COUNT(*) FROM people CONSUMING 0.5;"
                .to_string(),
        ),
        (
            505,
            "SPLIT campus BEGIN 0 END 300 BY TIME 5 sec STRIDE 0 sec INTO c;
             PROCESS c USING person_counter TIMEOUT 1 sec PRODUCING 10 ROWS
                 WITH SCHEMA (count:NUMBER=0) INTO people;
             SELECT COUNT(*) FROM people GROUP BY chunk BIN 60 sec CONSUMING 0.6;"
                .to_string(),
        ),
        (606, format!("{SHARED_PROLOG} SELECT COUNT(*) FROM people CONSUMING 0.5;")),
    ]
}

fn scene() -> Scene {
    SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.5)).generate()
}

fn service() -> QueryService {
    // Fixed(2) keeps total thread fan-out (analysts × engine workers) sane on
    // small CI machines; determinism holds at any setting.
    let service = QueryService::builder().parallelism(Parallelism::Fixed(2)).build().expect("in-memory service builds");
    service.register_camera("campus", scene(), PrivacyPolicy::new(60.0, 2, 20.0)).expect("camera/processor registration must succeed");
    service.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");
    service
}

#[test]
fn concurrent_analysts_match_serial_replay_bit_for_bit() {
    let queries = analyst_queries();
    assert!(queries.len() >= 4, "the scenario must exercise at least 4 concurrent analysts");

    // Serial replay: one analyst at a time against a fresh service.
    let serial_svc = service();
    let serial: Vec<QueryResult> =
        queries.iter().map(|(seed, q)| serial_svc.execute_text(*seed, q).unwrap()).collect();

    // Concurrent run: every analyst on its own thread, one shared service.
    let concurrent_svc = service();
    let concurrent: Vec<QueryResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|(seed, q)| {
                let svc = &concurrent_svc;
                scope.spawn(move || svc.execute_text(*seed, q).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("analyst thread panicked")).collect()
    });

    for (i, (s, c)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(s, c, "analyst {i}: concurrent result must be bit-for-bit identical to serial replay");
    }

    // ε accounting: every query admitted exactly once, nothing double-debited.
    // Frames [0, 300) are touched by the 0.5 + 0.25 + 0.125 + 0.6 + 0.5 queries.
    let spent_front = 20.0 - concurrent_svc.remaining_budget("campus", 100.0).unwrap();
    assert!((spent_front - 1.975).abs() < 1e-9, "frames in [0, 300): {spent_front} ε spent");
    // Frames [300, 900) miss the 0.6 GROUP BY query.
    let spent_mid = 20.0 - concurrent_svc.remaining_budget("campus", 600.0).unwrap();
    assert!((spent_mid - 1.375).abs() < 1e-9, "frames in [300, 900): {spent_mid} ε spent");
    // Frames [900, 1500) only see analyst 404.
    let spent_back = 20.0 - concurrent_svc.remaining_budget("campus", 1200.0).unwrap();
    assert!((spent_back - 0.5).abs() < 1e-9, "frames in [900, 1500): {spent_back} ε spent");
    // Both passes debit identically.
    for at in [100.0, 600.0, 1200.0, 1700.0] {
        assert_eq!(
            serial_svc.remaining_budget("campus", at),
            concurrent_svc.remaining_budget("campus", at),
            "serial and concurrent ledgers agree at {at} s"
        );
    }

    // Cache: the serial pass provably hit (three analysts share a prolog)…
    let serial_stats = serial_svc.cache_stats();
    assert!(serial_stats.hits >= 3, "shared prologs must be served from cache: {serial_stats:?}");
    assert_eq!(serial_stats.misses, 3, "three distinct PROCESS identities");
    // …and the concurrent pass measured at least one hit too: even if racing
    // analysts all missed, this follow-up query is served from cache.
    let warm = concurrent_svc
        .execute_text(707, &format!("{SHARED_PROLOG} SELECT COUNT(*) FROM people CONSUMING 0.1;"))
        .unwrap();
    assert_eq!(warm.releases.len(), 1);
    let stats = concurrent_svc.cache_stats();
    assert!(stats.hits >= 1, "concurrent service must measure cache hits: {stats:?}");
}

#[test]
fn contended_budget_admits_each_epsilon_at_most_once() {
    // 8 analysts race 0.5-ε queries against a 2.0-ε budget: exactly 4 win.
    // (Which four is arrival order — like a real deployment — but accounting
    // must be exact regardless.)
    let service = QueryService::builder().parallelism(Parallelism::Fixed(1)).build().expect("in-memory service builds");
    service.register_camera("campus", scene(), PrivacyPolicy::new(60.0, 2, 2.0)).expect("camera/processor registration must succeed");
    service.register_processor("person_counter", || {
        Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>
    }).expect("camera/processor registration must succeed");
    let query = format!("{SHARED_PROLOG} SELECT COUNT(*) FROM people CONSUMING 0.5;");
    let outcomes: Vec<Result<QueryResult, PrividError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (svc, q) = (&service, &query);
                scope.spawn(move || svc.execute_text(i, q))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let admitted = outcomes.iter().filter(|r| r.is_ok()).count();
    assert_eq!(admitted, 4, "2.0 budget / 0.5 per query admits exactly 4");
    for r in &outcomes {
        if let Err(e) = r {
            assert!(matches!(e, PrividError::BudgetExhausted { .. }), "losers see BudgetExhausted, got {e:?}");
        }
    }
    assert!(service.remaining_budget("campus", 450.0).unwrap().abs() < 1e-9, "window budget exactly exhausted");
}
