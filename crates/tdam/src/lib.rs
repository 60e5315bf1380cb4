//! FeFET-based time-domain associative memory (TD-AM) for multi-bit
//! similarity computation — the core contribution of the DATE 2024 paper.
//!
//! # Architecture
//!
//! The TD-AM compares a multi-bit query vector `Q` against `M` stored
//! vectors `D_1..D_M` in parallel. Each row is a *delay chain* of `N`
//! cascaded delay stages; stage `j` of row `i` compares query element
//! `q_j` with stored element `D_{i,j}` using a 2-FeFET in-memory-computing
//! cell ([`cell`]). A *match* leaves the stage at its intrinsic inverter
//! delay `d_INV`; a *mismatch* discharges the cell's match node, turning on
//! a PMOS switch that attaches a load capacitor to the stage output and
//! adds `d_C`. The accumulated pulse delay is therefore linear in the
//! number of mismatching elements — a quantitative Hamming distance in the
//! time domain:
//!
//! ```text
//! d_tot = 2·N·d_INV + N_mis·d_C
//! ```
//!
//! The 2-step operation scheme ([`chain`]) processes the pulse's rising
//! edge through even stages (odd stages deactivated) and the falling edge
//! through odd stages, sidestepping the PMOS/NMOS speed mismatch and edge
//! degradation of naive inverter chains without paying for buffers.
//!
//! # Modules
//!
//! - [`encoding`] — multi-bit element encoding and Hamming distance
//! - [`cell`] — the 2-FeFET multi-bit IMC cell (behavioral + netlist)
//! - [`stage`] — the variable-capacitance delay stage (behavioral + netlist)
//! - [`chain`] — delay chains and the 2-step operation scheme
//! - [`chain_circuit`] — full circuit-level chain simulation (Fig. 4)
//! - [`array`](mod@array) — the M×N TD-AM array with parallel search
//! - [`tdc`] — time-to-digital conversion (counter sensing model)
//! - [`timing`] — calibrated stage timing/energy model (analytic or
//!   extracted from circuit simulation)
//! - [`calibration`] — multi-point circuit extraction with bilinear
//!   interpolation for sweep-grade lookups
//! - [`energy`] — search energy accounting
//! - [`monte_carlo`] — V_TH-variation Monte Carlo (Fig. 6)
//! - [`engine`] — the [`engine::SimilarityEngine`] trait shared with the
//!   baseline designs of Table I, including the batched
//!   [`engine::SimilarityEngine::search_batch`] serving path
//! - [`parallel`] — the scoped-thread worker pool with deterministic
//!   seeded work splitting behind every batched/parallel code path
//! - [`area`] — cell/stage/array footprint estimates (F² + MOM caps)
//! - [`faults`] — cell-level fault injection (stuck, drifted) and its
//!   effect on decoding
//! - [`resilience`] — array-scale fault detection, write-verify repair
//!   with spare-row remapping, graceful degradation, and seeded parallel
//!   fault campaigns
//! - [`runtime`] — the fault-tolerant serving runtime: per-batch deadline
//!   budgets with partial results, panic isolation (with seeded panic
//!   injection), health probes with a circuit breaker, and a
//!   packed-kernel → behavioral → degraded backend fallback chain
//! - [`store`] — durable state: CRC-checksummed checkpoint snapshots with
//!   atomic commit, a write-ahead journal of post-checkpoint mutations,
//!   warm-start recovery that falls back to the last good generation, and
//!   a seeded crash-injection campaign
//! - [`serve`] — the sharded network front-end: row-range scatter-gather
//!   top-k (bit-identical to brute force), bounded-queue admission
//!   control with explicit load shedding, probe-gated warm-standby
//!   failover, and the chaos hooks the simulator drives
//! - [`clock`] — the wall/virtual time abstraction every deadline,
//!   backoff wait, flush window, and scrub tick reads
//! - [`corpus`] — million-row two-tier search: a seeded coarse centroid
//!   pre-filter picks `nprobe` candidate shards, the exact packed tier
//!   re-ranks them, and an LRU cache with a resident-byte budget keeps
//!   only hot shard snapshots compiled
//! - [`sim`] — deterministic full-system simulation, the one chaos
//!   harness: a whole deployment on virtual time with seed-scheduled
//!   network, disk and device faults (aging, drift, stuck cells, wear
//!   churn) and worker panics, judged against independent oracles, with
//!   seed replay and greedy schedule shrinking
//! - [`margins`] — sensing-margin feasibility of 1–4-bit precision under
//!   variation (the paper's "higher-precision potential" analysis)
//! - [`power`] — idle static (leakage) power, the flip side of the
//!   "no DC current" time-domain argument
//! - [`throughput`] — pipelined search cycle time and queries/second
//!
//! # Examples
//!
//! Single-query search:
//!
//! ```
//! use tdam::array::TdamArray;
//! use tdam::config::ArrayConfig;
//! use tdam::engine::SimilarityEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ArrayConfig::paper_default().with_stages(8).with_rows(2);
//! let mut am = TdamArray::new(cfg)?;
//! am.store(0, &[0, 1, 2, 3, 3, 2, 1, 0])?;
//! am.store(1, &[0, 0, 0, 0, 0, 0, 0, 0])?;
//! let outcome = TdamArray::search(&am, &[0, 1, 2, 3, 3, 2, 1, 1])?;
//! assert_eq!(outcome.best_row(), Some(0));
//! assert_eq!(outcome.rows[0].chain.mismatches, 1);
//! # Ok(())
//! # }
//! ```
//!
//! Batched serving — store rows, answer a whole batch in one call (the
//! stored rows are packed into the bit-sliced kernel and the queries
//! fan out across worker threads), then read each query's best row:
//!
//! ```
//! use tdam::config::ArrayConfig;
//! use tdam::{BatchQuery, SimilarityEngine, TdamArray};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ArrayConfig::paper_default().with_stages(4).with_rows(2);
//! let mut am = TdamArray::new(cfg)?;
//! am.store(0, &[0, 1, 2, 3])?;
//! am.store(1, &[3, 3, 0, 0])?;
//! let mut batch = BatchQuery::new(4);
//! batch.push(&[0, 1, 2, 2])?; // close to row 0
//! batch.push(&[3, 3, 0, 1])?; // close to row 1
//! let result = am.search_batch(&batch)?;
//! assert_eq!(result.best_rows(), vec![Some(0), Some(1)]);
//! # Ok(())
//! # }
//! ```

// Default builds carry zero unsafe. The `simd` feature needs exactly one
// exception — the `core::arch` intrinsic calls in `packed::simd`, which
// carries its own `#[allow(unsafe_code)]` plus a module-level safety
// contract — so the crate drops from `forbid` to `deny` only there.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod area;
pub mod array;
pub mod calibration;
pub mod cell;
pub mod chain;
pub mod chain_circuit;
pub mod clock;
pub mod config;
pub mod corpus;
pub mod encoding;
pub mod energy;
pub mod engine;
pub mod faults;
pub mod margins;
pub mod monte_carlo;
pub mod packed;
pub mod parallel;
pub mod power;
pub mod resilience;
pub mod runtime;
pub mod serve;
pub mod sim;
pub mod stage;
pub mod store;
pub mod tdc;
pub mod throughput;
pub mod timing;

pub use array::{CompiledSnapshot, SearchOutcome, TdamArray};
pub use chain::DelayChain;
pub use config::{ArrayConfig, TechParams};
pub use corpus::{CorpusBuilder, CorpusConfig, CorpusEngine, CorpusTierStatus};
pub use encoding::Encoding;
pub use engine::{BatchQuery, BatchResult, SearchMetrics, SimilarityEngine};
pub use packed::{PackedArray, PackedDecision, PackedScratch};
pub use runtime::{BackendKind, BatchOutcome, QueryOutcome, ResilientEngine, RuntimeConfig};
pub use serve::{
    cluster_layout, FrontEnd, ServeClient, ServeConfig, ServeError, ShardMap, ShardedService,
    ShedReason, TopK,
};
pub use store::{
    run_crash_chaos, CheckpointStore, CrashChaosConfig, CrashChaosReport, DeploymentState,
    DurableEngine, JournalOp, RecoveryReport, StoreError,
};
pub use timing::StageTiming;

/// Errors from TD-AM construction and operation.
#[derive(Debug, Clone, PartialEq)]
pub enum TdamError {
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Which parameter.
        what: &'static str,
    },
    /// A vector element exceeds the encoding's value range.
    ValueOutOfRange {
        /// Offending element value.
        value: u8,
        /// Number of representable levels.
        levels: u8,
    },
    /// A vector has the wrong number of elements for the array.
    LengthMismatch {
        /// Elements provided.
        got: usize,
        /// Elements expected (stages per chain).
        expected: usize,
    },
    /// A row index is out of bounds.
    RowOutOfBounds {
        /// Requested row.
        row: usize,
        /// Number of rows.
        rows: usize,
    },
    /// Write-verify programming failed to converge on a target threshold
    /// even after the retry policy's escalation was exhausted.
    WriteVerify {
        /// Target threshold voltage, volts.
        target: f64,
        /// Best threshold the device reached, volts.
        achieved: f64,
    },
    /// A parallel worker thread panicked or was lost.
    Worker,
    /// A compiled snapshot no longer matches the array it was built
    /// from: the array was reprogrammed (or had faults injected) after
    /// compilation. Recompiling fixes it — serving from the stale planes
    /// would silently return wrong bits.
    StaleCompile {
        /// Array generation the snapshot was compiled at.
        compiled: u64,
        /// The array's current generation.
        current: u64,
    },
    /// An underlying circuit simulation failed.
    Circuit(tdam_ckt::CktError),
}

/// The serving-layer error taxonomy: how a failure should be handled by
/// a runtime that wants to keep answering queries (see [`runtime`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorClass {
    /// Retrying the same operation may succeed: lost workers (panics),
    /// stale compiled snapshots (recompile), circuit convergence failures.
    Transient,
    /// The hardware completed the operation but with reduced fidelity
    /// (e.g. a device exhausted write-verify escalation): serving can
    /// continue with the degradation surfaced to the caller.
    Degraded,
    /// Deterministic caller or configuration bugs: no retry will fix a
    /// shape mismatch, an out-of-range value, or a malformed netlist.
    Permanent,
}

impl TdamError {
    /// Classifies this error for the serving runtime's retry/degrade
    /// decisions (see [`ErrorClass`]).
    pub fn class(&self) -> ErrorClass {
        match self {
            Self::Worker | Self::StaleCompile { .. } => ErrorClass::Transient,
            Self::WriteVerify { .. } => ErrorClass::Degraded,
            Self::Circuit(e) => match e.class() {
                tdam_ckt::FailureClass::Transient => ErrorClass::Transient,
                tdam_ckt::FailureClass::Permanent => ErrorClass::Permanent,
            },
            Self::InvalidConfig { .. }
            | Self::ValueOutOfRange { .. }
            | Self::LengthMismatch { .. }
            | Self::RowOutOfBounds { .. } => ErrorClass::Permanent,
        }
    }

    /// Whether a bounded retry can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl core::fmt::Display for TdamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            Self::ValueOutOfRange { value, levels } => {
                write!(
                    f,
                    "element value {value} out of range for {levels}-level encoding"
                )
            }
            Self::LengthMismatch { got, expected } => {
                write!(
                    f,
                    "vector length {got} does not match chain length {expected}"
                )
            }
            Self::RowOutOfBounds { row, rows } => {
                write!(f, "row {row} out of bounds (array has {rows} rows)")
            }
            Self::WriteVerify { target, achieved } => write!(
                f,
                "write-verify failed: target V_TH {target:.3} V, achieved {achieved:.3} V"
            ),
            Self::Worker => write!(f, "a parallel worker thread failed"),
            Self::StaleCompile { compiled, current } => write!(
                f,
                "compiled snapshot is stale: compiled at generation \
                 {compiled}, array is at generation {current}"
            ),
            Self::Circuit(e) => write!(f, "circuit simulation failed: {e}"),
        }
    }
}

impl std::error::Error for TdamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tdam_ckt::CktError> for TdamError {
    fn from(e: tdam_ckt::CktError) -> Self {
        Self::Circuit(e)
    }
}
