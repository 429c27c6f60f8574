//! # privid-sandbox
//!
//! Isolated execution of analyst-provided chunk processors.
//!
//! In the paper, `PROCESS` executables are arbitrary binaries run inside an
//! isolated environment whose contract (Appendix B) is what makes the
//! sensitivity bound of §6.3 sound:
//!
//! 1. the output for chunk *i* depends only on chunk *i* (no cross-chunk
//!    state, no network, no shared files),
//! 2. each instantiation produces at most `max_rows` rows matching the
//!    declared schema, or the schema's default row if it crashes or exceeds
//!    its fixed time budget,
//! 3. nothing about the execution other than those rows (time, resource
//!    usage) is observable to the analyst.
//!
//! Here "executables" are implementations of the [`ChunkProcessor`] trait and
//! the isolated environment is the [`sandbox`] harness, which enforces the
//! same contract: a fresh processor instance per chunk (no state), panics and
//! simulated timeouts replaced by default rows, row caps and schema coercion
//! applied before anything reaches the intermediate table, and a fixed
//! *charged* execution time regardless of actual behaviour. The [`fault`]
//! module provides adversarial processors (row flooders, crashers, slow
//! processors, cross-chunk cheaters) used to test that the contract holds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod fault;
pub mod processor;
pub mod sandbox;

pub use builtin::{
    CarTableProcessor, DirectionFilterProcessor, RedLightProcessor, TaxiShiftProcessor, TreeBloomProcessor,
    UniqueEntrantProcessor,
};
pub use fault::{CrashingProcessor, MalformedRowProcessor, RowFloodProcessor, SlowProcessor, StatefulCheater};
pub use processor::{ChunkProcessor, ProcessorFactory};
pub use sandbox::{run_chunk, ChunkOutcome, SandboxSpec, SandboxedOutput};
