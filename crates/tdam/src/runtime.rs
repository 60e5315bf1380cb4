//! Fault-tolerant serving runtime: deadlines, panic isolation, health
//! probes, and backend fallback chains.
//!
//! The batched serving surface of [`crate::engine`] is all-or-nothing: a
//! single poisoned query, a transient circuit-convergence failure, or a
//! compiled snapshot gone stale after an in-place reprogram fails the
//! whole batch. This module keeps the array *answering*:
//!
//! 1. **Partial results** — [`ResilientEngine::serve`] returns a
//!    [`BatchOutcome`] with one [`QueryOutcome`] per slot (`Ok` /
//!    `TimedOut` / `Failed`), never failing sibling queries for one
//!    slot's problem. Per-batch deadlines ([`DeadlinePolicy`]) bound the
//!    work; expired slots come back `TimedOut` at their correct indices.
//! 2. **Panic isolation** — slots are fanned out through
//!    [`crate::parallel::run_chunked_partial`], which catches a panicking
//!    query in its own slot while siblings complete.
//! 3. **Health probes + circuit breaker** — between batches the engine
//!    replays the known-answer reference rows of
//!    [`crate::resilience::ResilientArray`]; consecutive misses trip a
//!    [`CircuitBreaker`] that demotes serving along the fallback chain
//!    packed kernel → behavioral model → fault-masked degraded mode
//!    ([`BackendKind`]), runs detection + repair, and promotes back once
//!    the references answer again. Reprogramming bumps the array
//!    [generation](crate::array::TdamArray::generation), so stale
//!    compiled snapshots are invalidated and recompiled automatically
//!    instead of serving wrong bits.
//! 4. **Retry with backoff** — failed slots whose error classifies as
//!    [`ErrorClass::Transient`] (lost workers, stale compiles, circuit
//!    non-convergence) are retried a bounded number of times with
//!    exponential backoff; `Permanent` errors fail fast.
//!
//! [`Guarded`] provides the same slot-isolation contract for any
//! [`SimilarityEngine`] (including the Table I baselines), and
//! [`ChaosInjection`] arms seeded worker panics; the deterministic
//! simulation ([`crate::sim`]) injects them, with stuck cells, into a
//! whole serving deployment. Served results are thread-count invariant
//! and, under a deterministic deadline policy (anything but
//! [`DeadlinePolicy::WallClock`]), bit-identical for a fixed seed.
//!
//! # Examples
//!
//! ```
//! use tdam::config::ArrayConfig;
//! use tdam::resilience::ResilienceConfig;
//! use tdam::runtime::{ResilientEngine, RuntimeConfig};
//! use tdam::BatchQuery;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ArrayConfig::paper_default().with_stages(8).with_rows(2);
//! let mut engine =
//!     ResilientEngine::new(cfg, ResilienceConfig::default(), RuntimeConfig::default())?;
//! engine.store(0, &[0, 1, 2, 3, 3, 2, 1, 0])?;
//! engine.store(1, &[3, 3, 3, 3, 0, 0, 0, 0])?;
//! let mut batch = BatchQuery::new(8);
//! batch.push(&[0, 1, 2, 3, 3, 2, 1, 1])?;
//! let outcome = engine.serve(&batch)?;
//! assert_eq!(outcome.best_rows(), vec![Some(0)]);
//! assert!((outcome.availability() - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::array::CompiledSnapshot;
use crate::clock::Clock;
use crate::config::ArrayConfig;
use crate::engine::{BatchQuery, SearchMetrics, SimilarityEngine};
use crate::parallel::{mix_seed, run_chunked_partial};
use crate::resilience::{
    DegradationLevel, ResilienceConfig, ResilientArray, ResilientOutcome, RowHealth, WriteReport,
};
use crate::{ErrorClass, TdamError};
use serde::{Deserialize, Serialize};

/// How much work a batch may spend before remaining slots expire.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DeadlinePolicy {
    /// No deadline: every slot is served (the default).
    #[default]
    None,
    /// Wall-clock budget for the whole batch. Slots that have not
    /// *started* when the budget expires return [`QueryOutcome::TimedOut`].
    /// Inherently nondeterministic — use [`DeadlinePolicy::QueryBudget`]
    /// for reproducible campaigns.
    WallClock(Duration),
    /// Serve at most this many slots (in slot order), expiring the rest.
    /// A deterministic stand-in for a wall-clock budget: the expired set
    /// is a pure function of the batch, so tests can assert exact slot
    /// indices.
    QueryBudget(usize),
}

/// Bounded retry with exponential backoff for [`ErrorClass::Transient`]
/// failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Additional attempts after the first (0 disables retry).
    pub max_retries: usize,
    /// Backoff before the first retry; doubles per retry round.
    /// `Duration::ZERO` retries immediately (use in deterministic tests).
    pub backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(10),
        }
    }
}

impl RetryConfig {
    /// The backoff before retry round `round` (0-based), doubling each
    /// round and clamped to the cap.
    fn backoff_for(&self, round: usize) -> Duration {
        let factor = 1u32 << round.min(16) as u32;
        (self.backoff * factor).min(self.backoff_cap)
    }
}

/// Configuration of the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Per-batch deadline budget.
    pub deadline: DeadlinePolicy,
    /// Transient-failure retry policy.
    pub retry: RetryConfig,
    /// Replay the known-answer reference probes every this many batches
    /// (1 = before every batch; 0 disables health monitoring).
    pub health_interval: usize,
    /// Consecutive health-probe misses before the breaker trips and a
    /// full detection + repair cycle runs (minimum 1).
    pub breaker_threshold: usize,
    /// Worker threads for the batch fan-out (`None` = all cores).
    pub threads: Option<usize>,
    /// Background retention scrub period on the engine's clock (`None`
    /// disables scrubbing). When due, a serve first runs
    /// [`crate::resilience::ResilientArray::scrub_margins`], healing
    /// margin-drifted rows before a decode flips. Clock-driven, so a
    /// simulated deployment scrubs on virtual time.
    pub scrub_interval: Option<Duration>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            deadline: DeadlinePolicy::None,
            retry: RetryConfig::default(),
            health_interval: 1,
            breaker_threshold: 1,
            threads: None,
            scrub_interval: None,
        }
    }
}

/// Which backend along the fallback chain answered a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// The compiled fast path ([`crate::array::CompiledSnapshot`]),
    /// served through the bit-sliced packed kernel ([`crate::packed`]):
    /// decisions (winners, decoded distances) exactly match the
    /// behavioral model; reconstructed delays carry the documented ulp
    /// bound.
    Packed,
    /// The full behavioral model — serving while the breaker is open on
    /// the compiled path (health miss pending repair).
    Behavioral,
    /// Fault-masked degraded mode: repair left residual damage (masked
    /// columns, under-counting or dead rows), results are still ranked
    /// but flagged [`DegradationLevel::Degraded`].
    DegradedMasked,
}

impl BackendKind {
    /// The one-byte tag that names this backend on the serve wire and in
    /// checkpoints. The mapping is part of both formats and never changes.
    pub fn tag(self) -> u8 {
        match self {
            Self::Packed => 0,
            Self::Behavioral => 1,
            Self::DegradedMasked => 2,
        }
    }

    /// The backend a tag names, or `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Self::Packed),
            1 => Some(Self::Behavioral),
            2 => Some(Self::DegradedMasked),
            _ => None,
        }
    }
}

/// The outcome of one query slot.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The slot was answered.
    Ok(SearchMetrics),
    /// The slot expired under the batch's [`DeadlinePolicy`].
    TimedOut,
    /// The slot failed after exhausting its retries.
    Failed {
        /// The final error.
        error: TdamError,
        /// Its taxonomy class.
        class: ErrorClass,
    },
}

impl QueryOutcome {
    /// The answered metrics, if any.
    pub fn ok(&self) -> Option<&SearchMetrics> {
        match self {
            Self::Ok(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the slot was answered.
    pub fn is_ok(&self) -> bool {
        matches!(self, Self::Ok(_))
    }
}

/// Per-slot results of one served batch: the partial-result replacement
/// for the all-or-nothing `Result<BatchResult>` of
/// [`SimilarityEngine::search_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One outcome per query, in batch order.
    pub slots: Vec<QueryOutcome>,
    /// The backend that answered this batch.
    pub backend: BackendKind,
    /// The array's degradation level at serve time.
    pub degradation: DegradationLevel,
    /// Retry attempts spent on this batch (across all slots).
    pub retries: usize,
}

impl BatchOutcome {
    /// Fraction of slots answered (`Ok`); 1.0 for an empty batch.
    pub fn availability(&self) -> f64 {
        if self.slots.is_empty() {
            return 1.0;
        }
        self.answered() as f64 / self.slots.len() as f64
    }

    /// Number of answered slots.
    pub fn answered(&self) -> usize {
        self.slots.iter().filter(|s| s.is_ok()).count()
    }

    /// Number of expired slots.
    pub fn timed_out(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, QueryOutcome::TimedOut))
            .count()
    }

    /// Number of failed slots.
    pub fn failed(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, QueryOutcome::Failed { .. }))
            .count()
    }

    /// Per-slot best rows (`None` for unanswered slots or slots whose
    /// answer ranked no row).
    pub fn best_rows(&self) -> Vec<Option<usize>> {
        self.slots
            .iter()
            .map(|s| s.ok().and_then(|m| m.best_row))
            .collect()
    }
}

/// Counts consecutive health-probe misses; trips at the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    pub(crate) misses: usize,
    pub(crate) threshold: usize,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive misses.
    pub fn new(threshold: usize) -> Self {
        Self {
            misses: 0,
            threshold: threshold.max(1),
        }
    }

    /// Records a passed probe, closing the breaker.
    pub fn record_success(&mut self) {
        self.misses = 0;
    }

    /// Records a missed probe; returns whether the breaker is now open.
    pub fn record_failure(&mut self) -> bool {
        self.misses += 1;
        self.is_open()
    }

    /// Whether the breaker has tripped.
    pub fn is_open(&self) -> bool {
        self.misses >= self.threshold
    }
}

/// Serving statistics accumulated across batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Batches served.
    pub batches: usize,
    /// Query slots seen.
    pub queries: usize,
    /// Slots answered.
    pub answered: usize,
    /// Slots expired by a deadline.
    pub timed_out: usize,
    /// Slots failed after retries.
    pub failed: usize,
    /// Retry attempts spent.
    pub retries: usize,
    /// Backoff sleeps actually taken between retry rounds (zero-backoff
    /// deterministic configs retry without sleeping and don't count).
    pub backoff_waits: usize,
    /// Circuit-breaker trips: health-miss streaks that reached the
    /// breaker threshold and forced a detection + repair cycle.
    pub breaker_trips: usize,
    /// Compiled snapshots rebuilt after invalidation.
    pub recompiles: usize,
    /// Health probes run.
    pub health_checks: usize,
    /// Health probes missed.
    pub health_misses: usize,
    /// Full detection + repair cycles run.
    pub repairs: usize,
    /// Backend demotions along the fallback chain.
    pub demotions: usize,
    /// Backend promotions back toward the compiled path.
    pub promotions: usize,
    /// Logical row writes accepted through the tracked write path
    /// ([`ResilientEngine::store`]).
    pub user_writes: usize,
    /// Physical row programs those writes cost: the target row plus any
    /// wear-triggered refresh-rewrites. `physical_writes / user_writes`
    /// is the write amplification.
    pub physical_writes: usize,
    /// Hot logical rows rotated onto a fresh physical row by the wear
    /// leveler before their program-cycle budget was exhausted.
    pub wear_rotations: usize,
    /// Sibling rows refresh-rewritten after their accumulated program
    /// disturb crossed the policy budget.
    pub refresh_rewrites: usize,
    /// Stale snapshots refreshed surgically (per-row repack of only the
    /// dirty rows) instead of recompiled from scratch.
    pub incremental_repacks: usize,
    /// Rows repacked across all incremental refreshes.
    pub rows_repacked: usize,
    /// Snapshot publications through the epoch holder — full compiles,
    /// incremental refreshes, and standby adoptions alike.
    pub epoch_swaps: usize,
    /// Background retention-scrub passes run (clock-driven ticks).
    pub scrub_ticks: usize,
    /// Live rows margin-probed across all scrub passes.
    pub scrub_probes: usize,
    /// Margin-drifted rows healed by a scrub's refresh rewrite before
    /// their decode flipped.
    pub scrub_heals: usize,
    /// Corpus-tier shard-snapshot cache hits (probe found the shard
    /// already resident).
    pub corpus_cache_hits: usize,
    /// Corpus-tier shard-snapshot cache misses (probe had to page the
    /// shard's packed planes in).
    pub corpus_cache_misses: usize,
    /// Corpus-tier shard snapshots evicted to stay under the
    /// resident-byte budget.
    pub corpus_cache_evictions: usize,
    /// Cumulative microseconds spent paging corpus-tier shard snapshots
    /// in on cache misses: one copy of the shard's stored lane planes
    /// each. The name dates from when a miss recompiled the shard from
    /// its codes; it is kept for wire and store compatibility.
    pub corpus_compile_micros: usize,
}

/// The payload of every panic [`ChaosInjection`] injects, so a panic
/// hook can keep quiet about injected panics and still report real ones.
pub const INJECTED_PANIC: &str = "chaos: injected worker panic";

/// Deterministic fault/panic injection for chaos testing: whether a slot
/// panics is a pure function of `(seed, batch, slot, attempt)`, so a
/// campaign replays bit-identically and a retried slot can succeed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosInjection {
    /// Injection stream seed.
    pub seed: u64,
    /// Per-(slot, attempt) panic probability in `[0, 1]`.
    pub panic_rate: f64,
}

impl ChaosInjection {
    /// Whether the given slot's attempt should panic.
    pub fn should_panic(&self, batch: u64, slot: u64, attempt: u64) -> bool {
        if self.panic_rate <= 0.0 {
            return false;
        }
        let h = mix_seed(mix_seed(self.seed, batch), mix_seed(slot, attempt));
        (h as f64 / u64::MAX as f64) < self.panic_rate
    }
}

/// Epoch-swapped snapshot holder: an atomically swappable
/// [`CompiledSnapshot`] with per-epoch refcounting through [`Arc`].
///
/// A batch *pins* the current epoch by cloning the `Arc` out of the
/// holder ([`EpochSnapshots::acquire`]) and serves every slot — retries
/// included — against that frozen snapshot via
/// [`CompiledSnapshot::search_packed_unchecked`]. Publishing a successor
/// ([`EpochSnapshots::publish`]) swaps the holder's pointer and bumps
/// the epoch counter; in-flight batches keep the previous epoch alive
/// through their own handles and drain it when the last handle drops.
/// A reprogram landing mid-batch can therefore neither tear a read nor
/// fail slots with [`TdamError::StaleCompile`] — the batch answers on
/// the epoch it started on, and the *next* batch sees the new one.
#[derive(Debug, Default)]
pub struct EpochSnapshots {
    current: RwLock<Option<Arc<CompiledSnapshot>>>,
    epoch: AtomicU64,
}

impl EpochSnapshots {
    /// An empty holder: epoch 0, nothing published.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch number — how many snapshots have been
    /// published through this holder.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current epoch: clones the published snapshot handle
    /// (`None` when nothing has been published yet). The snapshot stays
    /// alive — its epoch undrained — until the handle drops.
    pub fn acquire(&self) -> Option<Arc<CompiledSnapshot>> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Publishes `snap` as the new current epoch and returns the new
    /// epoch number. Handles pinning the previous epoch are unaffected;
    /// they drain as they drop.
    pub fn publish(&self, snap: Arc<CompiledSnapshot>) -> u64 {
        let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
        *cur = Some(snap);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Unpublishes and returns the current snapshot for surgical reuse:
    /// the caller refreshes only the dirty rows (cloning first when
    /// in-flight readers still pin it) and republishes.
    pub(crate) fn take(&self) -> Option<Arc<CompiledSnapshot>> {
        self.current
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// How many in-flight handles pin the *current* epoch beyond the
    /// holder's own. Drained previous epochs are invisible here — their
    /// memory was reclaimed when their last handle dropped.
    pub fn in_flight(&self) -> usize {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |a| Arc::strong_count(a) - 1)
    }
}

/// The fault-tolerant serving engine: a [`ResilientArray`] wrapped with
/// packed-kernel serving, health monitoring, a circuit breaker over the
/// backend fallback chain, per-batch deadlines, slot-isolated panics,
/// and bounded transient retry.
///
/// On a healthy backend, served results are **bit-identical** to
/// [`ResilientArray::search`] on the bare array (see `tests/chaos.rs`).
#[derive(Debug)]
pub struct ResilientEngine {
    pub(crate) array: ResilientArray,
    pub(crate) cfg: RuntimeConfig,
    pub(crate) epochs: Arc<EpochSnapshots>,
    /// Physical rows whose contents changed since the published
    /// snapshot was last synced. `Some(set)` means every content change
    /// went through the tracked write path and the next refresh can be
    /// surgical; `None` means untracked mutations may have happened
    /// (direct array access, repair) and the next refresh must be a
    /// full recompile.
    pub(crate) dirty: Option<BTreeSet<usize>>,
    pub(crate) backend: BackendKind,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) batches_since_check: usize,
    pub(crate) chaos: Option<ChaosInjection>,
    pub(crate) stats: RuntimeStats,
    /// Time source for deadlines, backoff waits, and scrub scheduling:
    /// the wall clock in production, a [`crate::clock::SimClock`] under
    /// deterministic simulation.
    pub(crate) clock: Clock,
    /// Virtual/wall instant of the last retention scrub (`None` until
    /// the first serve on a scrub-enabled config).
    pub(crate) last_scrub: Option<crate::clock::Timestamp>,
}

impl ResilientEngine {
    /// Builds the runtime over a fresh resilient array.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from [`ResilientArray::new`].
    pub fn new(
        data: ArrayConfig,
        resilience: ResilienceConfig,
        cfg: RuntimeConfig,
    ) -> Result<Self, TdamError> {
        Ok(Self::wrap(ResilientArray::new(data, resilience)?, cfg))
    }

    /// Wraps an existing (possibly already-populated) resilient array.
    pub fn wrap(array: ResilientArray, cfg: RuntimeConfig) -> Self {
        let breaker = CircuitBreaker::new(cfg.breaker_threshold);
        Self {
            array,
            cfg,
            epochs: Arc::new(EpochSnapshots::new()),
            dirty: None,
            backend: BackendKind::Packed,
            breaker,
            batches_since_check: 0,
            chaos: None,
            stats: RuntimeStats::default(),
            clock: Clock::default(),
            last_scrub: None,
        }
    }

    /// Enables deterministic panic injection (chaos testing).
    pub fn with_chaos(mut self, chaos: ChaosInjection) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Replaces the time source (a [`crate::clock::SimClock`] handle
    /// puts every deadline, backoff wait, and scrub tick on virtual
    /// time).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The engine's time source.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The wrapped array.
    pub fn array(&self) -> &ResilientArray {
        &self.array
    }

    /// Mutable access to the wrapped array, e.g. for fault injection.
    /// Content mutations bump the array generation, so any held compiled
    /// snapshot is invalidated and rebuilt on the next serve. Because
    /// the engine cannot see *which* rows the caller touches, this also
    /// voids the surgical-refresh bookkeeping: the next refresh is a
    /// full recompile, never a partial patch over unknown changes.
    pub fn array_mut(&mut self) -> &mut ResilientArray {
        self.dirty = None;
        &mut self.array
    }

    /// The backend currently serving.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The epoch-swapped snapshot holder this engine publishes through.
    pub fn epochs(&self) -> &EpochSnapshots {
        &self.epochs
    }

    /// A shared handle to the epoch holder. Standby promotion publishes
    /// the successor's snapshot through the *predecessor's* holder so
    /// traffic swaps over exactly like any other epoch swap: in-flight
    /// batches drain on the predecessor's snapshot.
    pub fn epoch_handle(&self) -> Arc<EpochSnapshots> {
        Arc::clone(&self.epochs)
    }

    /// The currently published compiled snapshot, if any.
    pub fn snapshot(&self) -> Option<Arc<CompiledSnapshot>> {
        self.epochs.acquire()
    }

    /// Serving statistics so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The runtime configuration this engine serves under.
    pub fn runtime_config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Stores a vector at a logical row through the tracked,
    /// wear-leveled write path.
    ///
    /// The write is leveled by [`ResilientArray::store`] — hot rows
    /// rotate onto spares, disturb-exhausted siblings are
    /// refresh-rewritten — and every physical row it touched lands in
    /// the dirty set, so the next [`ResilientEngine::serve`] refreshes
    /// the compiled snapshot surgically (O(rows touched), not O(array))
    /// and publishes it as a new epoch.
    ///
    /// # Errors
    ///
    /// As [`ResilientArray::store`].
    pub fn store(&mut self, row: usize, values: &[u8]) -> Result<WriteReport, TdamError> {
        let report = self.array.store(row, values)?;
        self.stats.user_writes += 1;
        self.stats.physical_writes += report.physical_writes();
        if report.rotated {
            self.stats.wear_rotations += 1;
        }
        self.stats.refresh_rewrites += report.refreshed.len();
        if let Some(dirty) = self.dirty.as_mut() {
            dirty.insert(report.physical);
            dirty.extend(report.refreshed.iter().copied());
        }
        Ok(report)
    }

    /// Adopts a predecessor's epoch holder (standby promotion): this
    /// engine's current snapshot, if any, is published through the
    /// adopted holder, so traffic swaps from the predecessor to this
    /// engine exactly like any other epoch swap — in-flight batches
    /// drain on the predecessor's pinned snapshot.
    pub(crate) fn adopt_epochs(&mut self, epochs: Arc<EpochSnapshots>) {
        if let Some(snap) = self.epochs.take() {
            epochs.publish(snap);
            self.stats.epoch_swaps += 1;
        }
        self.epochs = epochs;
    }

    /// Ensures the published snapshot matches the array's current
    /// generation. A stale snapshot whose staleness is fully accounted
    /// for by tracked row writes is refreshed surgically: the published
    /// `Arc` is taken back (clone-on-write when in-flight batches still
    /// pin it) and only the dirty rows are repacked. Anything else —
    /// no snapshot yet, or untracked mutations — recompiles from
    /// scratch. Either way the result is published as a new epoch;
    /// in-flight batches drain on the old one.
    fn ensure_snapshot(&mut self) {
        if self
            .epochs
            .acquire()
            .is_some_and(|s| s.is_fresh(self.array.array()))
        {
            return;
        }
        let previous = self.epochs.take();
        let had_snapshot = previous.is_some();
        let next = match (previous, self.dirty.take()) {
            (Some(arc), Some(rows)) if !rows.is_empty() => {
                let mut snap = Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone());
                let repacked = snap.refresh_rows(self.array.array(), rows.iter().copied());
                self.stats.incremental_repacks += 1;
                self.stats.rows_repacked += repacked;
                snap
            }
            _ => self.array.array().compile_snapshot(),
        };
        if had_snapshot {
            self.stats.recompiles += 1;
        }
        self.epochs.publish(Arc::new(next));
        self.stats.epoch_swaps += 1;
        self.dirty = Some(BTreeSet::new());
    }

    /// Whether a detection report carries anything *new*: suspects that
    /// are not already tolerated as [`RowHealth::Degraded`] /
    /// [`RowHealth::Dead`] (those are permanently flagged in every served
    /// outcome's degradation summary — re-repairing them every probe
    /// would burn write endurance for nothing).
    fn has_new_damage(&self, report: &crate::resilience::DetectionReport) -> bool {
        if !report.reference_ok || !report.suspect_stages.is_empty() {
            return true;
        }
        report.suspect_rows.iter().any(|&r| {
            !matches!(
                self.array.health()[r],
                RowHealth::Degraded | RowHealth::Dead
            )
        })
    }

    /// Runs the periodic health probe and drives the breaker / fallback
    /// chain: the known-answer probes (reference rows first, then every
    /// data row) are replayed; new damage demotes to the behavioral
    /// backend, and an open breaker runs full detection + repair and
    /// promotes back — to the compiled path, or to fault-masked degraded
    /// mode when damage remains.
    fn health_check(&mut self) -> Result<(), TdamError> {
        self.stats.health_checks += 1;
        let report = self.array.check()?;
        if !self.has_new_damage(&report) {
            self.breaker.record_success();
            self.promote();
            return Ok(());
        }
        self.stats.health_misses += 1;
        if self.backend == BackendKind::Packed {
            // Never keep serving the fast path past a probe miss: the
            // packed planes encode the same damaged rows.
            self.backend = BackendKind::Behavioral;
            self.stats.demotions += 1;
        }
        if self.breaker.record_failure() {
            self.stats.breaker_trips += 1;
            self.array.repair(&report)?;
            // Repair rewrites rows outside the tracked write path —
            // the next snapshot refresh must be a full recompile.
            self.dirty = None;
            self.stats.repairs += 1;
            let after = self.array.check()?;
            if !self.has_new_damage(&after) {
                self.breaker.record_success();
                self.promote();
            } else {
                // Repair could not restore the probes; serve whatever
                // still answers, flagged as degraded.
                if self.backend != BackendKind::DegradedMasked {
                    self.backend = BackendKind::DegradedMasked;
                    self.stats.demotions += 1;
                }
            }
        }
        Ok(())
    }

    /// Runs the clock-driven background retention scrub when due: a
    /// margin probe-and-refresh pass that heals drifted rows before
    /// they flip a decode. The first serve arms the timer; each
    /// subsequent serve compares the clock against the configured
    /// period, so on a [`crate::clock::SimClock`] the scrub cadence is
    /// part of the deterministic simulation state.
    fn maybe_scrub(&mut self) -> Result<(), TdamError> {
        let Some(interval) = self.cfg.scrub_interval else {
            return Ok(());
        };
        let now = self.clock.now();
        match self.last_scrub {
            None => {
                self.last_scrub = Some(now);
                Ok(())
            }
            Some(last) if now.saturating_duration_since(last) >= interval => {
                self.last_scrub = Some(now);
                self.scrub_now()
            }
            Some(_) => Ok(()),
        }
    }

    /// Runs one retention-scrub pass immediately (the periodic tick
    /// calls this when due; tests and the simulator may force it).
    ///
    /// # Errors
    ///
    /// Propagates probe/search failures from the scrub pass.
    pub fn scrub_now(&mut self) -> Result<(), TdamError> {
        let report = self.array.scrub_margins()?;
        self.stats.scrub_ticks += 1;
        self.stats.scrub_probes += report.probed;
        self.stats.scrub_heals += report.healed.len();
        self.stats.physical_writes += report.healed.len();
        if !report.healed.is_empty() {
            // The scrub rewrote exactly these physical rows: keep the
            // snapshot refresh surgical instead of voiding tracking.
            if let Some(dirty) = self.dirty.as_mut() {
                dirty.extend(report.healed.iter().copied());
            }
        }
        Ok(())
    }

    /// Moves the backend back up the chain after a passed health probe.
    fn promote(&mut self) {
        let target = if self.array.degradation().level == DegradationLevel::Degraded {
            BackendKind::DegradedMasked
        } else {
            BackendKind::Packed
        };
        if self.backend != target {
            // Any move that reaches the compiled path is a promotion;
            // Packed → DegradedMasked (references pass but damage
            // remains, e.g. masked columns) is a demotion.
            if target == BackendKind::Packed {
                self.stats.promotions += 1;
            } else {
                self.stats.demotions += 1;
            }
            self.backend = target;
        }
    }

    /// Serves one slot once (no retry): the chaos hook may panic here —
    /// isolated by the caller's `run_chunked_partial` — then the query
    /// runs through the current backend.
    fn serve_slot(
        &self,
        snapshot: Option<&CompiledSnapshot>,
        batch: &BatchQuery,
        slot: usize,
        attempt: usize,
    ) -> Result<ResilientOutcome, TdamError> {
        if let Some(chaos) = &self.chaos {
            if chaos.should_panic(self.stats.batches as u64, slot as u64, attempt as u64) {
                std::panic::panic_any(INJECTED_PANIC);
            }
        }
        let query = batch.get(slot);
        match (self.backend, snapshot) {
            (BackendKind::Packed, Some(snap)) => {
                // Packed bit-sliced kernel on the epoch-pinned snapshot:
                // winners and decoded distances are exactly those of the
                // behavioral model (the health probes and the chaos
                // judge compare decisions), delays carry the packed
                // reconstruction contract. Serving is *unchecked*
                // against the live generation: the batch answers on the
                // epoch it pinned at entry, so a reprogram landing
                // mid-batch cannot fail slots with a StaleCompile.
                let out = snap.search_packed_unchecked(query)?;
                Ok(self.array.resolve_outcome(&out))
            }
            _ => self.array.search(query),
        }
    }

    /// Answers a batch with per-slot outcomes: runs the health probe if
    /// due, revalidates/rebuilds the compiled snapshot, fans the slots
    /// out with panic isolation, applies the deadline policy, and retries
    /// transient per-slot failures with bounded backoff.
    ///
    /// # Errors
    ///
    /// Only batch-level problems fail the call: a batch whose width does
    /// not match the array ([`TdamError::LengthMismatch`]), or an error
    /// inside the health/repair machinery itself. Per-query problems
    /// always come back as slots.
    pub fn serve(&mut self, batch: &BatchQuery) -> Result<BatchOutcome, TdamError> {
        if batch.width() != self.array.width() {
            return Err(TdamError::LengthMismatch {
                got: batch.width(),
                expected: self.array.width(),
            });
        }
        self.maybe_scrub()?;
        if self.cfg.health_interval > 0 {
            self.batches_since_check += 1;
            if self.batches_since_check >= self.cfg.health_interval {
                self.batches_since_check = 0;
                self.health_check()?;
            }
        }
        if self.backend == BackendKind::Packed {
            self.ensure_snapshot();
        }
        // Pin the current epoch for the whole batch (retries included):
        // slots never observe a snapshot swap mid-flight.
        let mut pinned = match self.backend {
            BackendKind::Packed => self.epochs.acquire(),
            _ => None,
        };

        let n = batch.len();
        let started = self.clock.now();
        let mut slots: Vec<Option<QueryOutcome>> = vec![None; n];
        let mut retries = 0usize;

        // Deadline: decide which slots run at all (QueryBudget), or set
        // the wall-clock horizon checked before each slot starts.
        let budget = match self.cfg.deadline {
            DeadlinePolicy::QueryBudget(q) => q.min(n),
            _ => n,
        };
        for slot in slots.iter_mut().skip(budget) {
            *slot = Some(QueryOutcome::TimedOut);
        }
        let horizon = match self.cfg.deadline {
            DeadlinePolicy::WallClock(d) => Some(d),
            _ => None,
        };

        let mut pending: Vec<usize> = (0..budget).collect();
        let mut attempt = 0usize;
        while !pending.is_empty() {
            let this = &*self;
            let snap = pinned.as_deref();
            let outcomes =
                run_chunked_partial::<_, TdamError, _>(pending.len(), self.cfg.threads, |k| {
                    if let Some(d) = horizon {
                        if this.clock.elapsed(started) >= d {
                            return Ok(None);
                        }
                    }
                    this.serve_slot(snap, batch, pending[k], attempt).map(Some)
                });
            let mut next = Vec::new();
            let mut saw_stale = false;
            for (k, outcome) in outcomes.into_iter().enumerate() {
                let slot = pending[k];
                slots[slot] = Some(match outcome {
                    Ok(Some(out)) => QueryOutcome::Ok(out.metrics()),
                    Ok(None) => QueryOutcome::TimedOut,
                    Err(e) if e.is_transient() && attempt < self.cfg.retry.max_retries => {
                        saw_stale |= matches!(e, TdamError::StaleCompile { .. });
                        next.push(slot);
                        retries += 1;
                        continue;
                    }
                    Err(e) => QueryOutcome::Failed {
                        class: e.class(),
                        error: e,
                    },
                });
            }
            if next.is_empty() {
                break;
            }
            // A StaleCompile is transient *and actionable*: re-sync the
            // snapshot and re-pin before retrying, otherwise every
            // retry round would replay the same stale epoch and exhaust
            // its budget for nothing.
            if saw_stale {
                self.ensure_snapshot();
                pinned = match self.backend {
                    BackendKind::Packed => self.epochs.acquire(),
                    _ => None,
                };
            }
            let backoff = self.cfg.retry.backoff_for(attempt);
            if !backoff.is_zero() {
                self.stats.backoff_waits += 1;
                self.clock.sleep(backoff);
            }
            pending = next;
            attempt += 1;
        }

        let slots: Vec<QueryOutcome> = slots
            .into_iter()
            .map(|s| {
                s.unwrap_or(QueryOutcome::Failed {
                    error: TdamError::Worker,
                    class: ErrorClass::Transient,
                })
            })
            .collect();
        let outcome = BatchOutcome {
            degradation: self.array.degradation().level,
            backend: self.backend,
            retries,
            slots,
        };
        self.stats.batches += 1;
        self.stats.queries += n;
        self.stats.answered += outcome.answered();
        self.stats.timed_out += outcome.timed_out();
        self.stats.failed += outcome.failed();
        self.stats.retries += retries;
        Ok(outcome)
    }
}

impl SimilarityEngine for ResilientEngine {
    fn name(&self) -> &str {
        "Resilient TD-AM serving runtime"
    }

    fn is_quantitative(&self) -> bool {
        true
    }

    fn rows(&self) -> usize {
        self.array.data_rows()
    }

    fn width(&self) -> usize {
        SimilarityEngine::width(&self.array)
    }

    fn bits_per_element(&self) -> u8 {
        self.array.bits_per_element()
    }

    fn store(&mut self, row: usize, values: &[u8]) -> Result<(), TdamError> {
        ResilientEngine::store(self, row, values).map(|_| ())
    }

    fn search(&mut self, query: &[u8]) -> Result<SearchMetrics, TdamError> {
        // Singles route through the same epoch holder as batches (so a
        // [`Guarded`]-wrapped engine also serves epoch-pinned off the
        // compiled path), with the behavioral model as the fallback
        // whenever the backend is demoted.
        if self.backend == BackendKind::Packed {
            self.ensure_snapshot();
            if let Some(snap) = self.epochs.acquire() {
                let out = snap.search_packed_unchecked(query)?;
                return Ok(self.array.resolve_outcome(&out).metrics());
            }
        }
        Ok(ResilientArray::search(&self.array, query)?.metrics())
    }
}

/// Slot isolation, deadlines, and transient retry for **any**
/// [`SimilarityEngine`] — the trait-level counterpart of
/// [`ResilientEngine`] used for the Table I baselines, which have no
/// compiled path or reference rows to monitor.
///
/// Queries run sequentially (the trait's `search` takes `&mut self`),
/// each wrapped in `catch_unwind` so a panicking query yields a
/// [`QueryOutcome::Failed`] slot instead of unwinding out of the batch.
/// A panicked engine is assumed to remain structurally usable (its state
/// is plain data, not lock-guarded); the panic is still surfaced in the
/// slot.
#[derive(Debug)]
pub struct Guarded<E> {
    engine: E,
    cfg: RuntimeConfig,
    clock: Clock,
}

impl<E: SimilarityEngine> Guarded<E> {
    /// Wraps an engine.
    pub fn new(engine: E, cfg: RuntimeConfig) -> Self {
        Self {
            engine,
            cfg,
            clock: Clock::default(),
        }
    }

    /// Replaces the time source for deadlines and backoff waits.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the wrapped engine.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Unwraps the engine.
    pub fn into_inner(self) -> E {
        self.engine
    }

    /// Answers a batch with per-slot outcomes under the deadline and
    /// retry policy. Never fails the batch: malformed queries surface as
    /// [`QueryOutcome::Failed`] slots with [`ErrorClass::Permanent`].
    pub fn serve(&mut self, batch: &BatchQuery) -> BatchOutcome {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let n = batch.len();
        let started = self.clock.now();
        let budget = match self.cfg.deadline {
            DeadlinePolicy::QueryBudget(q) => q.min(n),
            _ => n,
        };
        let mut retries = 0usize;
        let mut slots = Vec::with_capacity(n);
        for slot in 0..n {
            if slot >= budget {
                slots.push(QueryOutcome::TimedOut);
                continue;
            }
            if let DeadlinePolicy::WallClock(d) = self.cfg.deadline {
                if self.clock.elapsed(started) >= d {
                    slots.push(QueryOutcome::TimedOut);
                    continue;
                }
            }
            let mut attempt = 0usize;
            let outcome = loop {
                let engine = &mut self.engine;
                let query = batch.get(slot);
                let result = catch_unwind(AssertUnwindSafe(|| engine.search(query)))
                    .unwrap_or(Err(TdamError::Worker));
                match result {
                    Ok(m) => break QueryOutcome::Ok(m),
                    Err(e) if e.is_transient() && attempt < self.cfg.retry.max_retries => {
                        retries += 1;
                        let backoff = self.cfg.retry.backoff_for(attempt);
                        if !backoff.is_zero() {
                            self.clock.sleep(backoff);
                        }
                        attempt += 1;
                    }
                    Err(e) => {
                        break QueryOutcome::Failed {
                            class: e.class(),
                            error: e,
                        }
                    }
                }
            };
            slots.push(outcome);
        }
        BatchOutcome {
            slots,
            backend: BackendKind::Behavioral,
            degradation: DegradationLevel::Nominal,
            retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::resilience::WearPolicy;

    fn zero_retry_backoff() -> RetryConfig {
        RetryConfig {
            max_retries: 3,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    fn engine(rows: usize, stages: usize) -> ResilientEngine {
        let cfg = ArrayConfig::paper_default()
            .with_rows(rows)
            .with_stages(stages);
        let rt = RuntimeConfig {
            retry: zero_retry_backoff(),
            threads: Some(2),
            ..RuntimeConfig::default()
        };
        ResilientEngine::new(cfg, ResilienceConfig::default(), rt).unwrap()
    }

    fn ramp(stages: usize, phase: usize) -> Vec<u8> {
        (0..stages).map(|j| ((j + phase) % 4) as u8).collect()
    }

    fn ramp_batch(stages: usize, n: usize) -> BatchQuery {
        let rows: Vec<Vec<u8>> = (0..n).map(|k| ramp(stages, k)).collect();
        BatchQuery::from_rows(&rows).unwrap()
    }

    #[test]
    fn healthy_serving_is_bit_identical_to_bare_array() {
        let mut eng = engine(4, 16);
        for r in 0..4 {
            eng.store(r, &ramp(16, r)).unwrap();
        }
        let batch = ramp_batch(16, 6);
        let outcome = eng.serve(&batch).unwrap();
        assert_eq!(outcome.backend, BackendKind::Packed);
        assert_eq!(outcome.degradation, DegradationLevel::Nominal);
        assert_eq!(outcome.availability(), 1.0);
        for (slot, q) in outcome.slots.iter().enumerate() {
            let bare = eng.array().search(batch.get(slot)).unwrap().metrics();
            assert_eq!(q, &QueryOutcome::Ok(bare), "slot {slot}");
        }
    }

    #[test]
    fn query_budget_expires_exactly_the_tail() {
        let mut eng = engine(2, 8);
        eng.store(0, &ramp(8, 0)).unwrap();
        let mut cfg = eng.cfg;
        cfg.deadline = DeadlinePolicy::QueryBudget(3);
        eng.cfg = cfg;
        let outcome = eng.serve(&ramp_batch(8, 5)).unwrap();
        assert_eq!(outcome.answered(), 3);
        assert_eq!(outcome.timed_out(), 2);
        for (slot, q) in outcome.slots.iter().enumerate() {
            if slot < 3 {
                assert!(q.is_ok(), "slot {slot} within budget must answer");
            } else {
                assert_eq!(q, &QueryOutcome::TimedOut, "slot {slot} past budget");
            }
        }
    }

    #[test]
    fn wall_clock_zero_budget_times_everything_out() {
        let mut eng = engine(2, 8);
        eng.store(0, &ramp(8, 0)).unwrap();
        eng.cfg.deadline = DeadlinePolicy::WallClock(Duration::ZERO);
        let outcome = eng.serve(&ramp_batch(8, 4)).unwrap();
        assert_eq!(outcome.timed_out(), 4);
        assert_eq!(outcome.availability(), 0.0);
    }

    #[test]
    fn injected_panics_are_retried_and_recovered() {
        let mut eng = engine(2, 8).with_chaos(ChaosInjection {
            seed: 7,
            panic_rate: 0.4,
        });
        eng.cfg.retry.max_retries = 8;
        eng.store(0, &ramp(8, 0)).unwrap();
        eng.store(1, &ramp(8, 1)).unwrap();
        // With retries keyed by attempt, a slot that panics on attempt 0
        // serves on a later attempt; 8 rounds make exhaustion (0.4^9)
        // vanishingly rare, and the fixed seed makes it deterministic.
        let mut total_retries = 0;
        for _ in 0..8 {
            let outcome = eng.serve(&ramp_batch(8, 8)).unwrap();
            assert_eq!(
                outcome.availability(),
                1.0,
                "retry must absorb injected panics"
            );
            total_retries += outcome.retries;
        }
        assert!(total_retries > 0, "chaos at 40% must have injected panics");
        assert_eq!(eng.stats().retries, total_retries);
    }

    #[test]
    fn panic_without_retry_fails_only_its_slot() {
        let mut eng = engine(2, 8).with_chaos(ChaosInjection {
            seed: 3,
            panic_rate: 0.35,
        });
        eng.cfg.retry.max_retries = 0;
        eng.store(0, &ramp(8, 0)).unwrap();
        let mut saw_failure = false;
        for _ in 0..8 {
            let outcome = eng.serve(&ramp_batch(8, 8)).unwrap();
            for q in &outcome.slots {
                match q {
                    QueryOutcome::Ok(_) => {}
                    QueryOutcome::Failed { error, class } => {
                        saw_failure = true;
                        assert_eq!(error, &TdamError::Worker);
                        assert_eq!(class, &ErrorClass::Transient);
                    }
                    QueryOutcome::TimedOut => panic!("no deadline configured"),
                }
            }
        }
        assert!(saw_failure, "35% panic rate over 64 slots must fail some");
    }

    #[test]
    fn store_invalidates_and_recompiles_the_snapshot() {
        let mut eng = engine(2, 8);
        eng.store(0, &ramp(8, 0)).unwrap();
        let batch = ramp_batch(8, 4);
        eng.serve(&batch).unwrap();
        let gen_before = eng.snapshot().unwrap().generation();
        assert_eq!(eng.stats().epoch_swaps, 1);
        // Reprogram: the published snapshot is now stale. The write went
        // through the tracked path, so the refresh is *surgical* — one
        // row repacked, published as a new epoch — never served stale
        // (its planes decode the *old* row contents).
        eng.store(0, &ramp(8, 3)).unwrap();
        let outcome = eng.serve(&batch).unwrap();
        assert_eq!(outcome.backend, BackendKind::Packed);
        let snap = eng.snapshot().unwrap();
        assert!(snap.generation() > gen_before);
        assert_eq!(eng.stats().recompiles, 1);
        assert_eq!(eng.stats().incremental_repacks, 1);
        assert_eq!(eng.stats().rows_repacked, 1);
        assert_eq!(eng.stats().epoch_swaps, 2);
        // Served answer reflects the *new* contents.
        let best = outcome.slots[3].ok().unwrap().best_row;
        assert_eq!(best, Some(0));
    }

    #[test]
    fn incremental_refresh_is_bit_identical_to_full_recompile() {
        let mut eng = engine(4, 16);
        for r in 0..4 {
            eng.store(r, &ramp(16, r)).unwrap();
        }
        let batch = ramp_batch(16, 6);
        eng.serve(&batch).unwrap();
        // Rewrite two rows (one twice) through the tracked path; the
        // next serve refreshes surgically.
        eng.store(2, &ramp(16, 5)).unwrap();
        eng.store(0, &ramp(16, 6)).unwrap();
        eng.store(2, &ramp(16, 7)).unwrap();
        let outcome = eng.serve(&batch).unwrap();
        assert_eq!(eng.stats().incremental_repacks, 1);
        assert_eq!(eng.stats().rows_repacked, 2, "row 2 repacked once");
        // Judge against a from-scratch compile of the same contents.
        let fresh = eng.array().array().compile_snapshot();
        for (slot, q) in outcome.slots.iter().enumerate() {
            let want = fresh.search_packed_unchecked(batch.get(slot)).unwrap();
            let want = eng.array().resolve_outcome(&want).metrics();
            assert_eq!(q, &QueryOutcome::Ok(want), "slot {slot}");
        }
    }

    #[test]
    fn epoch_holder_pins_in_flight_readers_across_swaps() {
        let mut eng = engine(2, 8);
        eng.store(0, &ramp(8, 0)).unwrap();
        eng.serve(&ramp_batch(8, 1)).unwrap();
        let pinned = eng.snapshot().unwrap();
        let epoch_before = eng.epochs().epoch();
        assert_eq!(eng.epochs().in_flight(), 1, "our handle pins the epoch");
        // Swap: a tracked write plus a serve publishes a new epoch...
        eng.store(0, &ramp(8, 2)).unwrap();
        eng.serve(&ramp_batch(8, 1)).unwrap();
        assert_eq!(eng.epochs().epoch(), epoch_before + 1);
        assert_eq!(eng.epochs().in_flight(), 0, "new epoch has no readers");
        // ...while the pinned handle still answers frozen pre-swap
        // contents — row 0 is an exact match for the *old* query.
        let old = pinned.search_packed_unchecked(&ramp(8, 0)).unwrap();
        assert_eq!(old.rows[0].decoded_mismatches, 0);
        // The current epoch decodes the *new* contents.
        let new = eng
            .snapshot()
            .unwrap()
            .search_packed_unchecked(&ramp(8, 2))
            .unwrap();
        assert_eq!(new.rows[0].decoded_mismatches, 0);
        // The checked legacy entry refuses the stale snapshot with a
        // retryable class — a generation bump observed mid-batch is
        // transient, never a permanent failure.
        let err = pinned
            .search_packed(eng.array().array(), &ramp(8, 0))
            .unwrap_err();
        assert!(matches!(err, TdamError::StaleCompile { .. }));
        assert_eq!(err.class(), ErrorClass::Transient);
    }

    #[test]
    fn a_mid_batch_generation_bump_cannot_fail_pinned_slots() {
        let mut eng = engine(2, 8);
        eng.store(0, &ramp(8, 0)).unwrap();
        eng.serve(&ramp_batch(8, 1)).unwrap();
        let pinned = eng.snapshot().unwrap();
        // A reprogram lands while a batch is (conceptually) in flight on
        // the pinned epoch.
        eng.store(0, &ramp(8, 3)).unwrap();
        let batch = ramp_batch(8, 2);
        // The pinned epoch keeps serving: no StaleCompile, answers
        // frozen at the epoch the batch started on.
        let out = eng.serve_slot(Some(&pinned), &batch, 0, 0).unwrap();
        assert!(out.metrics().best_row.is_some());
    }

    #[test]
    fn untracked_mutations_force_a_full_recompile() {
        let mut eng = engine(2, 8);
        eng.store(0, &ramp(8, 0)).unwrap();
        eng.serve(&ramp_batch(8, 1)).unwrap();
        // The caller took direct mutable access: tracking is voided, so
        // the next refresh must not patch over unknown changes.
        let _ = eng.array_mut();
        eng.store(0, &ramp(8, 1)).unwrap();
        eng.serve(&ramp_batch(8, 1)).unwrap();
        assert_eq!(eng.stats().recompiles, 1);
        assert_eq!(eng.stats().incremental_repacks, 0);
    }

    #[test]
    fn tracked_writes_feed_wear_and_write_amplification_stats() {
        let cfg = ArrayConfig::paper_default().with_rows(2).with_stages(8);
        let res = ResilienceConfig {
            spare_rows: 4,
            wear: WearPolicy {
                rotate_after_writes: 3,
                ..WearPolicy::default()
            },
            ..ResilienceConfig::default()
        };
        let rt = RuntimeConfig {
            retry: zero_retry_backoff(),
            threads: Some(2),
            ..RuntimeConfig::default()
        };
        let mut eng = ResilientEngine::new(cfg, res, rt).unwrap();
        for k in 0..4 {
            eng.store(0, &ramp(8, k)).unwrap();
        }
        assert_eq!(eng.stats().user_writes, 4);
        assert_eq!(eng.stats().physical_writes, 4);
        assert_eq!(eng.stats().wear_rotations, 1, "4th write rotates");
        // The rotated row still serves its latest contents, surgically
        // refreshed into the snapshot.
        let outcome = eng.serve(&ramp_batch(8, 4)).unwrap();
        assert_eq!(outcome.slots[3].ok().unwrap().best_row, Some(0));
        assert_eq!(outcome.availability(), 1.0);
    }

    #[test]
    fn guarded_retry_absorbs_stale_compile() {
        struct StaleOnce {
            inner: crate::array::TdamArray,
            stale: bool,
        }
        impl SimilarityEngine for StaleOnce {
            fn name(&self) -> &str {
                "stale-once"
            }
            fn is_quantitative(&self) -> bool {
                true
            }
            fn rows(&self) -> usize {
                self.inner.rows()
            }
            fn width(&self) -> usize {
                self.inner.width()
            }
            fn bits_per_element(&self) -> u8 {
                self.inner.bits_per_element()
            }
            fn store(&mut self, row: usize, values: &[u8]) -> Result<(), TdamError> {
                self.inner.store(row, values)
            }
            fn search(&mut self, query: &[u8]) -> Result<SearchMetrics, TdamError> {
                if !self.stale {
                    self.stale = true;
                    return Err(TdamError::StaleCompile {
                        compiled: 1,
                        current: 2,
                    });
                }
                SimilarityEngine::search(&mut self.inner, query)
            }
        }
        let cfg = ArrayConfig::paper_default().with_rows(1).with_stages(8);
        let mut guarded = Guarded::new(
            StaleOnce {
                inner: crate::array::TdamArray::new(cfg).unwrap(),
                stale: false,
            },
            RuntimeConfig {
                retry: zero_retry_backoff(),
                ..RuntimeConfig::default()
            },
        );
        guarded.engine_mut().store(0, &ramp(8, 0)).unwrap();
        // A generation bump observed mid-batch classifies Transient and
        // is absorbed by retry — never surfaced as a permanent failure.
        let outcome = guarded.serve(&ramp_batch(8, 1));
        assert_eq!(outcome.answered(), 1);
        assert_eq!(outcome.retries, 1);
    }

    #[test]
    fn health_miss_demotes_then_repair_promotes() {
        let mut eng = engine(3, 16);
        for r in 0..3 {
            eng.store(r, &ramp(16, r)).unwrap();
        }
        let batch = ramp_batch(16, 3);
        assert_eq!(eng.serve(&batch).unwrap().backend, BackendKind::Packed);

        // Drift a reference row out of margin: the next health probe
        // misses, the breaker (threshold 1) trips, repair re-programs the
        // reference (a fresh write erases drift), and serving returns to
        // the compiled path — all within one call.
        let ref_phys = 3 + eng.array().resilience_config().spare_rows;
        for stage in 0..16 {
            eng.array_mut()
                .inject(
                    ref_phys,
                    stage,
                    FaultKind::VthDrift {
                        window_fraction: 0.05,
                    },
                )
                .unwrap();
        }
        let outcome = eng.serve(&batch).unwrap();
        assert_eq!(outcome.backend, BackendKind::Packed);
        assert_eq!(eng.stats().health_misses, 1);
        assert_eq!(eng.stats().repairs, 1);
        assert!(eng.array().check_references().unwrap());
    }

    #[test]
    fn unrepairable_damage_serves_fault_masked() {
        let mut eng = engine(3, 16);
        for r in 0..3 {
            eng.store(r, &ramp(16, r)).unwrap();
        }
        // A stuck shared column afflicts every row including references;
        // repair masks the column (references then pass), leaving the
        // array permanently degraded.
        eng.array_mut().stuck_column(5).unwrap();
        let outcome = eng.serve(&ramp_batch(16, 3)).unwrap();
        assert_eq!(outcome.backend, BackendKind::DegradedMasked);
        assert_eq!(outcome.degradation, DegradationLevel::Degraded);
        // Still answering, and correctly: masking subtracts the bias.
        assert_eq!(outcome.availability(), 1.0);
        for (slot, best) in outcome.best_rows().iter().enumerate() {
            assert_eq!(*best, Some(slot));
        }
    }

    #[test]
    fn breaker_threshold_delays_repair() {
        let mut eng = engine(2, 16);
        eng.cfg.breaker_threshold = 3;
        eng.breaker = CircuitBreaker::new(3);
        for r in 0..2 {
            eng.store(r, &ramp(16, r)).unwrap();
        }
        let ref_phys = 2 + eng.array().resilience_config().spare_rows;
        for stage in 0..16 {
            eng.array_mut()
                .inject(
                    ref_phys,
                    stage,
                    FaultKind::VthDrift {
                        window_fraction: 0.05,
                    },
                )
                .unwrap();
        }
        let batch = ramp_batch(16, 2);
        // Misses 1 and 2: demoted to behavioral, no repair yet.
        for expected_misses in 1..=2 {
            let outcome = eng.serve(&batch).unwrap();
            assert_eq!(outcome.backend, BackendKind::Behavioral);
            assert_eq!(eng.stats().health_misses, expected_misses);
            assert_eq!(eng.stats().repairs, 0);
            assert_eq!(outcome.availability(), 1.0, "behavioral still answers");
        }
        // Miss 3 trips the breaker: repair runs and serving is promoted.
        let outcome = eng.serve(&batch).unwrap();
        assert_eq!(eng.stats().repairs, 1);
        assert_eq!(outcome.backend, BackendKind::Packed);
        assert_eq!(eng.stats().promotions, 1);
    }

    #[test]
    fn batch_width_mismatch_is_a_batch_level_error() {
        let mut eng = engine(2, 8);
        let err = eng.serve(&BatchQuery::new(5)).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Permanent);
    }

    #[test]
    fn guarded_isolates_panics_for_any_engine() {
        struct Flaky {
            inner: crate::array::TdamArray,
            calls: usize,
        }
        impl SimilarityEngine for Flaky {
            fn name(&self) -> &str {
                "flaky"
            }
            fn is_quantitative(&self) -> bool {
                true
            }
            fn rows(&self) -> usize {
                self.inner.rows()
            }
            fn width(&self) -> usize {
                self.inner.width()
            }
            fn bits_per_element(&self) -> u8 {
                self.inner.bits_per_element()
            }
            fn store(&mut self, row: usize, values: &[u8]) -> Result<(), TdamError> {
                self.inner.store(row, values)
            }
            fn search(&mut self, query: &[u8]) -> Result<SearchMetrics, TdamError> {
                self.calls += 1;
                if self.calls.is_multiple_of(3) {
                    panic!("flaky engine");
                }
                SimilarityEngine::search(&mut self.inner, query)
            }
        }
        let cfg = ArrayConfig::paper_default().with_rows(2).with_stages(8);
        let mut guarded = Guarded::new(
            Flaky {
                inner: crate::array::TdamArray::new(cfg).unwrap(),
                calls: 0,
            },
            RuntimeConfig {
                retry: RetryConfig {
                    max_retries: 0,
                    backoff: Duration::ZERO,
                    backoff_cap: Duration::ZERO,
                },
                ..RuntimeConfig::default()
            },
        );
        guarded.engine_mut().store(0, &ramp(8, 0)).unwrap();
        let outcome = guarded.serve(&ramp_batch(8, 6));
        // Every third call panics: slots 2 and 5 fail, the rest answer.
        assert_eq!(outcome.answered(), 4);
        assert_eq!(outcome.failed(), 2);
        assert!(matches!(
            outcome.slots[2],
            QueryOutcome::Failed {
                error: TdamError::Worker,
                ..
            }
        ));
        assert!(outcome.slots[0].is_ok() && outcome.slots[3].is_ok());
    }

    #[test]
    fn guarded_retry_absorbs_transient_panics() {
        struct PanicOnce {
            inner: crate::array::TdamArray,
            panicked: bool,
        }
        impl SimilarityEngine for PanicOnce {
            fn name(&self) -> &str {
                "panic-once"
            }
            fn is_quantitative(&self) -> bool {
                true
            }
            fn rows(&self) -> usize {
                self.inner.rows()
            }
            fn width(&self) -> usize {
                self.inner.width()
            }
            fn bits_per_element(&self) -> u8 {
                self.inner.bits_per_element()
            }
            fn store(&mut self, row: usize, values: &[u8]) -> Result<(), TdamError> {
                self.inner.store(row, values)
            }
            fn search(&mut self, query: &[u8]) -> Result<SearchMetrics, TdamError> {
                if !self.panicked {
                    self.panicked = true;
                    panic!("transient hiccup");
                }
                SimilarityEngine::search(&mut self.inner, query)
            }
        }
        let cfg = ArrayConfig::paper_default().with_rows(1).with_stages(8);
        let mut guarded = Guarded::new(
            PanicOnce {
                inner: crate::array::TdamArray::new(cfg).unwrap(),
                panicked: false,
            },
            RuntimeConfig {
                retry: zero_retry_backoff(),
                ..RuntimeConfig::default()
            },
        );
        let outcome = guarded.serve(&ramp_batch(8, 1));
        assert_eq!(outcome.answered(), 1);
        assert_eq!(outcome.retries, 1);
    }

    #[test]
    fn circuit_breaker_counts_consecutive_misses() {
        let mut b = CircuitBreaker::new(2);
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure());
        assert!(b.record_failure());
        assert!(b.is_open());
        b.record_success();
        assert!(!b.is_open());
    }

    #[test]
    fn chaos_injection_is_pure_and_attempt_keyed() {
        let c = ChaosInjection {
            seed: 5,
            panic_rate: 0.5,
        };
        for batch in 0..4u64 {
            for slot in 0..16u64 {
                assert_eq!(
                    c.should_panic(batch, slot, 0),
                    c.should_panic(batch, slot, 0)
                );
            }
        }
        // Attempt keying: some slot that panics at attempt 0 must not
        // panic at some later attempt (otherwise retry could never help).
        let escapes = (0..64u64).any(|slot| {
            c.should_panic(0, slot, 0) && (1..4).any(|attempt| !c.should_panic(0, slot, attempt))
        });
        assert!(escapes);
        let silent = ChaosInjection {
            seed: 5,
            panic_rate: 0.0,
        };
        assert!(!silent.should_panic(0, 0, 0));
    }
}
