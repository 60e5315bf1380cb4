//! Sharded fault-tolerant serving front-end: a network-facing top-k
//! similarity service over a pool of [`ResilientEngine`] shards.
//!
//! The paper's TD-AM arrays are physically bounded to a few hundred
//! rows, so a production corpus must be tiled across many arrays. This
//! module supplies the serving tier above the per-array runtime:
//!
//! - **Row-range sharding** ([`ShardMap`]): the corpus is split into
//!   contiguous row ranges, one [`ResilientEngine`] per range, and a
//!   query scatter-gathers across shards. The merged top-k is
//!   **bit-identical** to brute force over the unsharded corpus (pinned
//!   in `tests/serve.rs`): both sides rank by `(distance, row)`.
//! - **Admission control and load shedding** ([`FrontEnd`]): a bounded
//!   request queue plus deadline-aware rejection layered on the
//!   per-shard [`DeadlinePolicy`]. An over-budget request is answered
//!   with an explicit [`ServeError::Overloaded`] — never silently
//!   queued into unbounded tail latency.
//! - **Warm-standby failover**: each shard can keep a standby engine
//!   restored from its [`CheckpointStore`] generation. When a shard's
//!   circuit breaker opens (crash or persistent slowness), the standby
//!   is promoted **only after** known-answer health probes pass; a
//!   standby that fails its probes is discarded and the shard stays
//!   down (served as an explicitly `partial` answer) rather than
//!   serving silent wrong answers.
//! - **Coarse pre-filter tier** ([`ShardedService::install_corpus_tier`]):
//!   an optional [`CorpusEngine`] whose posting lists are exactly the
//!   shard ranges. When installed, a query scans the centroid array
//!   first and scatters over the `nprobe` probed shards only — the
//!   million-row path — and a probed shard that is down is served
//!   exact ideal-code answers from the tier's snapshot cache instead
//!   of degrading to a partial answer. [`cluster_layout`] permutes a
//!   corpus cluster-contiguously so the ranges are pure.
//! - **Chaos hooks** ([`ShardedService::inject_crash`],
//!   [`ShardedService::inject_slow`],
//!   [`ShardedService::inject_cell_fault`],
//!   [`ShardedService::inject_panics`]): the deterministic simulation
//!   ([`crate::sim`]) injects serving failures through them, judging
//!   each complete answer against brute force.
//!
//! The wire protocol is hand-rolled length-prefixed TCP over
//! `std::net` (no external dependencies): a `u32` little-endian frame
//! length followed by a tagged payload encoded with the same
//! [`Writer`]/[`Reader`] primitives as the checkpoint codec.

use std::collections::VecDeque;
use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::{Clock, Timestamp};
use crate::config::ArrayConfig;
use crate::corpus::{ClusterData, CorpusConfig, CorpusEngine, CorpusTierStatus, TopKSelect};
use crate::engine::BatchQuery;
use crate::resilience::{DegradationLevel, ResilienceConfig};
use crate::runtime::{
    BackendKind, CircuitBreaker, DeadlinePolicy, QueryOutcome, ResilientEngine, RuntimeConfig,
    RuntimeStats,
};
use crate::store::{CheckpointStore, Codec, Reader, StoreError, Writer};
use crate::timing::StageTiming;
use crate::{ErrorClass, TdamError};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why the front-end refused a request instead of serving it late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full.
    QueueFull,
    /// The request's deadline budget was already spent (on arrival or
    /// while queued), so serving it could only produce a late answer.
    DeadlineExpired,
}

impl core::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::QueueFull => write!(f, "admission queue full"),
            Self::DeadlineExpired => write!(f, "deadline budget exhausted"),
        }
    }
}

/// Errors from the serving front-end and its clients.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The request was explicitly shed by admission control.
    Overloaded(ShedReason),
    /// Every shard is down: no part of the corpus can answer.
    Unavailable,
    /// A malformed frame or an out-of-contract request/reply.
    Protocol(String),
    /// A simulation-layer failure propagated from a shard.
    Sim(TdamError),
    /// A checkpoint-store failure (standby restore/restock).
    Store(StoreError),
}

impl ServeError {
    /// Classifies this error for retry decisions, mirroring
    /// [`TdamError::class`]: sheds and availability gaps are
    /// [`ErrorClass::Transient`] (retry later, possibly elsewhere),
    /// protocol violations are caller bugs.
    pub fn class(&self) -> ErrorClass {
        match self {
            Self::Io(_) | Self::Overloaded(_) | Self::Unavailable => ErrorClass::Transient,
            Self::Protocol(_) => ErrorClass::Permanent,
            Self::Sim(e) => e.class(),
            Self::Store(e) => match e {
                StoreError::Io(_) => ErrorClass::Transient,
                StoreError::Sim(inner) => inner.class(),
                _ => ErrorClass::Permanent,
            },
        }
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Overloaded(reason) => write!(f, "request shed: {reason}"),
            Self::Unavailable => write!(f, "no shard available to answer"),
            Self::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            Self::Sim(e) => write!(f, "shard failure: {e}"),
            Self::Store(e) => write!(f, "checkpoint store failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Sim(e) => Some(e),
            Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<TdamError> for ServeError {
    fn from(e: TdamError) -> Self {
        Self::Sim(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

// ---------------------------------------------------------------------------
// Shard map
// ---------------------------------------------------------------------------

/// Consistent row-range sharding: corpus row `r` lives on shard
/// `r / rows_per_shard`, and every shard except possibly the last holds
/// exactly `rows_per_shard` contiguous rows.
///
/// The map is a pure function of `(total_rows, rows_per_shard)`, so
/// every replica of the front-end routes identically and a merged
/// result can always be traced back to global row ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    total_rows: usize,
    rows_per_shard: usize,
    shards: usize,
}

impl ShardMap {
    /// Builds the map.
    ///
    /// # Errors
    ///
    /// [`TdamError::InvalidConfig`] when either count is zero.
    pub fn new(total_rows: usize, rows_per_shard: usize) -> Result<Self, TdamError> {
        if total_rows == 0 {
            return Err(TdamError::InvalidConfig {
                what: "shard map needs at least one corpus row",
            });
        }
        if rows_per_shard == 0 {
            return Err(TdamError::InvalidConfig {
                what: "shard capacity must be nonzero",
            });
        }
        Ok(Self {
            total_rows,
            rows_per_shard,
            shards: total_rows.div_ceil(rows_per_shard),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total corpus rows across all shards.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// The global row range `(base, len)` owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn range(&self, s: usize) -> (usize, usize) {
        assert!(s < self.shards, "shard {s} out of range ({})", self.shards);
        let base = s * self.rows_per_shard;
        (base, self.rows_per_shard.min(self.total_rows - base))
    }

    /// Maps a global row id to `(shard, local_row)`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn locate(&self, row: usize) -> (usize, usize) {
        assert!(
            row < self.total_rows,
            "row {row} out of range ({})",
            self.total_rows
        );
        (row / self.rows_per_shard, row % self.rows_per_shard)
    }
}

// ---------------------------------------------------------------------------
// Service configuration
// ---------------------------------------------------------------------------

/// Configuration of a [`ShardedService`] and its [`FrontEnd`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Array template; `rows` is overridden per shard by the shard map.
    pub array: ArrayConfig,
    /// Per-shard resilience provisioning (spares, references).
    pub resilience: ResilienceConfig,
    /// Per-shard runtime policy. The per-request deadline overrides
    /// `runtime.deadline` on every scatter, so leave it `None` here.
    pub runtime: RuntimeConfig,
    /// Corpus rows per shard (the physical array bound).
    pub rows_per_shard: usize,
    /// Consecutive shard-level failures (errors, timeouts) before a
    /// shard's breaker opens and it is taken out of rotation (min 1).
    pub shard_breaker_threshold: usize,
    /// Bounded admission queue depth; a request arriving past this is
    /// shed with [`ShedReason::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Duration,
    /// Per-connection socket I/O budget (slow-peer protection): a
    /// client that stalls mid-frame or refuses to drain its replies for
    /// this long is disconnected instead of parking a server thread.
    pub io_timeout: Duration,
}

impl ServeConfig {
    /// A small paper-scale default: 3-stage-bit arrays of 64 rows per
    /// shard, single-threaded per-shard engines (the front-end supplies
    /// cross-request parallelism), and a generous 250 ms default
    /// deadline.
    pub fn paper_default() -> Self {
        Self {
            array: ArrayConfig::paper_default(),
            resilience: ResilienceConfig::default(),
            runtime: RuntimeConfig {
                deadline: DeadlinePolicy::None,
                threads: Some(1),
                // Per-shard health probes are amortized: the front-end's
                // known-answer failover probes are the primary gate.
                health_interval: 32,
                ..RuntimeConfig::default()
            },
            rows_per_shard: 64,
            shard_breaker_threshold: 2,
            queue_capacity: 64,
            workers: 4,
            default_deadline: Duration::from_millis(250),
            io_timeout: Duration::from_secs(2),
        }
    }
}

// ---------------------------------------------------------------------------
// Top-k answers
// ---------------------------------------------------------------------------

/// A merged scatter-gather answer.
///
/// `neighbors` is ranked by `(distance, row)` ascending — the same
/// total order as [`brute_force_topk`] — so a complete, undegraded
/// answer is bit-identical to unsharded brute force.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK {
    /// Up to `k` `(distance, global_row)` pairs, best first.
    pub neighbors: Vec<(usize, usize)>,
    /// Some shards did not contribute (down, or the deadline expired
    /// mid-scatter): the answer covers only part of the corpus.
    pub partial: bool,
    /// Some contributing shard answered with reduced fidelity (masked
    /// columns, spare-row remaps, or a degraded backend).
    pub degraded: bool,
    /// Shards that contributed candidates.
    pub shards_answered: usize,
    /// Total shards in the map.
    pub shards_total: usize,
}

impl TopK {
    /// Whether the answer covers the whole corpus at full fidelity —
    /// exactly the condition under which it must be bit-identical to
    /// brute force (asserted by the chaos campaign).
    pub fn complete(&self) -> bool {
        !self.partial && !self.degraded
    }
}

/// Reference answer: brute-force top-k over the full corpus, ranked by
/// `(distance, row)` ascending. Distances are element-wise Hamming, the
/// same metric the TD-AM measures in the time domain.
///
/// # Errors
///
/// [`TdamError::LengthMismatch`] / [`TdamError::ValueOutOfRange`] when
/// the query does not fit the corpus encoding.
pub fn brute_force_topk(
    corpus: &[Vec<u8>],
    encoding: crate::encoding::Encoding,
    query: &[u8],
    k: usize,
) -> Result<Vec<(usize, usize)>, TdamError> {
    let mut ranked = Vec::with_capacity(corpus.len());
    for (row, stored) in corpus.iter().enumerate() {
        ranked.push((encoding.hamming(stored, query)?, row));
    }
    ranked.sort_unstable();
    ranked.truncate(k);
    Ok(ranked)
}

/// Reorders `corpus` cluster-contiguously for a corpus-tier service:
/// rows are clustered with the seeded quantizer of
/// [`CorpusBuilder`](crate::corpus::CorpusBuilder) and emitted cluster
/// by cluster, so the row-range shards of a [`ShardedService`] built
/// over the permuted corpus (with `rows_per_shard = cfg.shard_rows`)
/// approximate the clusters and the installed pre-filter
/// ([`ShardedService::install_corpus_tier`]) prunes well.
///
/// Returns the permuted corpus plus `source`, where `source[new_row]`
/// is the row's index in the input corpus (for mapping answers back).
///
/// # Errors
///
/// Propagates [`CorpusBuilder`](crate::corpus::CorpusBuilder)
/// validation and build errors.
pub fn cluster_layout(
    cfg: &CorpusConfig,
    corpus: &[Vec<u8>],
) -> Result<(Vec<Vec<u8>>, Vec<usize>), TdamError> {
    let mut builder = crate::corpus::CorpusBuilder::new(*cfg)?;
    builder.append_rows(corpus)?;
    let engine = builder.build()?;
    let mut permuted = Vec::with_capacity(corpus.len());
    let mut source = Vec::with_capacity(corpus.len());
    for c in 0..engine.shards() {
        for &id in engine.shard_ids(c) {
            permuted.push(corpus[id as usize].clone());
            source.push(id as usize);
        }
    }
    Ok((permuted, source))
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// Mutable per-shard serving state, guarded by the shard's lock.
#[derive(Debug)]
struct ShardState {
    engine: ResilientEngine,
    /// Injected per-request service delay (chaos: slow shard).
    slow: Option<Duration>,
    /// Out of rotation: the breaker opened and no standby has passed
    /// its probes yet.
    down: bool,
    /// Front-end-level breaker over whole-shard failures. Distinct from
    /// the engine's internal health breaker: this one counts requests
    /// the shard failed to answer at all.
    breaker: CircuitBreaker,
}

/// One shard: a row range, its serving engine, and its warm standby.
struct Shard {
    base: usize,
    rows: usize,
    state: Mutex<ShardState>,
    /// Warm standby engine restored from the checkpoint generation,
    /// promoted only after known-answer probes pass.
    standby: Mutex<Option<ResilientEngine>>,
    /// Per-shard checkpoint store backing the standby (None = no
    /// standby provisioning).
    store: Option<CheckpointStore>,
}

impl core::fmt::Debug for Shard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shard")
            .field("base", &self.base)
            .field("rows", &self.rows)
            .finish_non_exhaustive()
    }
}

/// Mutex lock that survives a poisoned peer: serving state must stay
/// reachable even if a panicking thread died while holding the lock
/// (the runtime already isolates worker panics; this is the last line).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Service-level counters (everything above per-shard runtime stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests that entered the scatter path.
    pub requests: usize,
    /// Answers that covered every shard at full fidelity.
    pub complete: usize,
    /// Answers flagged partial (downed shard or mid-scatter expiry).
    pub partial: usize,
    /// Answers flagged degraded by a contributing shard.
    pub degraded: usize,
    /// Shards taken out of rotation by an open breaker.
    pub shard_downs: usize,
    /// Standby promotions that passed known-answer probes.
    pub failovers: usize,
    /// Standby candidates rejected by their probes.
    pub probe_failures: usize,
    /// Standbys restocked from the checkpoint store after a promotion.
    pub restocks: usize,
}

impl Codec for ServiceStats {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.requests);
        w.put_usize(self.complete);
        w.put_usize(self.partial);
        w.put_usize(self.degraded);
        w.put_usize(self.shard_downs);
        w.put_usize(self.failovers);
        w.put_usize(self.probe_failures);
        w.put_usize(self.restocks);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            requests: r.get_usize()?,
            complete: r.get_usize()?,
            partial: r.get_usize()?,
            degraded: r.get_usize()?,
            shard_downs: r.get_usize()?,
            failovers: r.get_usize()?,
            probe_failures: r.get_usize()?,
            restocks: r.get_usize()?,
        })
    }
}

/// One shard's externally visible condition, as reported by the stats
/// endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Global row range base.
    pub base: usize,
    /// Rows owned.
    pub rows: usize,
    /// Out of rotation.
    pub down: bool,
    /// Whether a warm standby is currently stocked.
    pub standby_ready: bool,
    /// Backend the serving engine is on.
    pub backend: BackendKind,
    /// The engine's cumulative runtime statistics (retries, backoff
    /// waits, breaker trips, fallback transitions, repairs).
    pub stats: RuntimeStats,
}

// ---------------------------------------------------------------------------
// The sharded service
// ---------------------------------------------------------------------------

/// A pool of [`ResilientEngine`] shards behind a scatter-gather top-k
/// search, with per-shard circuit breaking and warm-standby failover.
///
/// Thread-safe: requests lock one shard at a time in shard order, so
/// concurrent requests pipeline across shards.
#[derive(Debug)]
pub struct ShardedService {
    map: ShardMap,
    shards: Vec<Shard>,
    encoding: crate::encoding::Encoding,
    stages: usize,
    /// Array template the shards were provisioned from (kept so the
    /// corpus pre-filter tier can calibrate bit-identical packed
    /// snapshots).
    template: ArrayConfig,
    /// Optional coarse pre-filter: a [`CorpusEngine`] whose posting
    /// lists are exactly this service's shard ranges. When installed,
    /// a query scatters over the `nprobe` probed shards only.
    corpus_tier: Option<Mutex<CorpusEngine>>,
    /// The stored corpus (kept for known-answer failover probes).
    corpus: Vec<Vec<u8>>,
    breaker_threshold: usize,
    /// Fast-path flag: at least one shard is down, so the next request
    /// should attempt failover before scattering.
    any_down: AtomicBool,
    /// Only one request at a time pays for failover probing.
    failover_gate: Mutex<()>,
    stats: Mutex<ServiceStats>,
    /// Time source for deadlines and injected service delays (virtual
    /// in the deterministic simulation).
    clock: Clock,
}

impl ShardedService {
    /// Builds the service over `corpus`, one engine per shard-map
    /// range. When `standby_dir` is given, each shard commits its
    /// deployment state to a per-shard [`CheckpointStore`] under that
    /// directory and keeps a warm standby restored from it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sim`] when the corpus does not fit the array
    /// template; [`ServeError::Store`] when standby provisioning fails.
    pub fn new(
        cfg: &ServeConfig,
        corpus: &[Vec<u8>],
        standby_dir: Option<&Path>,
    ) -> Result<Self, ServeError> {
        Self::new_with_clock(cfg, corpus, standby_dir, Clock::default())
    }

    /// [`ShardedService::new`] with every shard engine (and the service
    /// itself) placed on an explicit clock — the deterministic
    /// simulation's entry point.
    ///
    /// # Errors
    ///
    /// As [`ShardedService::new`].
    pub fn new_with_clock(
        cfg: &ServeConfig,
        corpus: &[Vec<u8>],
        standby_dir: Option<&Path>,
        clock: Clock,
    ) -> Result<Self, ServeError> {
        let stores = match standby_dir {
            Some(dir) => {
                let map = ShardMap::new(corpus.len(), cfg.rows_per_shard)?;
                let mut stores = Vec::with_capacity(map.shards());
                for s in 0..map.shards() {
                    stores.push(CheckpointStore::open(dir.join(format!("shard{s}")))?);
                }
                Some(stores)
            }
            None => None,
        };
        Self::build(cfg, corpus, stores, clock)
    }

    /// Builds a fully in-memory service for the deterministic
    /// simulation: every shard's standby checkpoint store lives on its
    /// own [`crate::store::MemStorage`] (virtual paths, no real disk),
    /// and every engine runs on `clock` (virtual time when a
    /// [`crate::clock::SimClock`] handle is passed).
    ///
    /// Returns the service plus the per-shard storage handles so a
    /// chaos harness can inject [`crate::store::DiskFault`]s and power
    /// losses into individual shards' durable state.
    ///
    /// # Errors
    ///
    /// As [`ShardedService::new`].
    #[allow(clippy::type_complexity)]
    pub fn new_sim(
        cfg: &ServeConfig,
        corpus: &[Vec<u8>],
        clock: Clock,
    ) -> Result<(Self, Vec<crate::store::MemStorage>), ServeError> {
        let map = ShardMap::new(corpus.len(), cfg.rows_per_shard)?;
        let mut stores = Vec::with_capacity(map.shards());
        let mut disks = Vec::with_capacity(map.shards());
        for s in 0..map.shards() {
            let disk = crate::store::MemStorage::new();
            stores.push(CheckpointStore::open_with(
                format!("/sim/shard{s}"),
                std::sync::Arc::new(disk.clone()),
            )?);
            disks.push(disk);
        }
        Ok((Self::build(cfg, corpus, Some(stores), clock)?, disks))
    }

    /// Shared constructor body: one engine per shard-map range, with an
    /// optional pre-opened checkpoint store per shard backing a warm
    /// standby.
    fn build(
        cfg: &ServeConfig,
        corpus: &[Vec<u8>],
        stores: Option<Vec<CheckpointStore>>,
        clock: Clock,
    ) -> Result<Self, ServeError> {
        let map = ShardMap::new(corpus.len(), cfg.rows_per_shard)?;
        let stages = cfg.array.stages;
        let mut stores = stores.map(std::collections::VecDeque::from);
        let mut shards = Vec::with_capacity(map.shards());
        for s in 0..map.shards() {
            let (base, rows) = map.range(s);
            let array = cfg.array.with_rows(rows);
            let mut engine =
                ResilientEngine::new(array, cfg.resilience, cfg.runtime)?.with_clock(clock.clone());
            // Stagger the shards' health probes over the interval so one
            // request never carries every shard's probe at once.
            let interval = cfg.runtime.health_interval;
            if interval > 0 {
                engine.batches_since_check = s * interval / map.shards() % interval;
            }
            for (local, values) in corpus[base..base + rows].iter().enumerate() {
                engine.store(local, values)?;
            }
            let (store, standby) = match stores
                .as_mut()
                .and_then(std::collections::VecDeque::pop_front)
            {
                Some(store) => {
                    store.commit(&engine.checkpoint())?;
                    let (state, _ops, _report) = store.recover()?;
                    let standby =
                        ResilientEngine::restore(&state, cfg.runtime)?.with_clock(clock.clone());
                    (Some(store), Some(standby))
                }
                None => (None, None),
            };
            shards.push(Shard {
                base,
                rows,
                state: Mutex::new(ShardState {
                    engine,
                    slow: None,
                    down: false,
                    breaker: CircuitBreaker::new(cfg.shard_breaker_threshold.max(1)),
                }),
                standby: Mutex::new(standby),
                store,
            });
        }
        Ok(Self {
            map,
            shards,
            encoding: cfg.array.encoding,
            stages,
            template: cfg.array,
            corpus_tier: None,
            corpus: corpus.to_vec(),
            breaker_threshold: cfg.shard_breaker_threshold.max(1),
            any_down: AtomicBool::new(false),
            failover_gate: Mutex::new(()),
            stats: Mutex::new(ServiceStats::default()),
            clock,
        })
    }

    /// The clock this service reads deadlines from.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Query width (stages per chain).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Element encoding of the corpus.
    pub fn encoding(&self) -> crate::encoding::Encoding {
        self.encoding
    }

    /// Snapshot of the service-level counters.
    pub fn service_stats(&self) -> ServiceStats {
        *lock(&self.stats)
    }

    /// Installs the coarse pre-filter tier: a [`CorpusEngine`] whose
    /// posting lists are *exactly* this service's shard ranges, with a
    /// per-range mode centroid (no training — the ranges are the
    /// clusters). Subsequent [`ShardedService::search_topk`] calls scan
    /// the centroid tier first and scatter over the `nprobe` nearest
    /// shards only; a probed shard that is down is served exact
    /// ideal-code answers from the tier's snapshot cache (flagged
    /// `degraded`, never silently dropped).
    ///
    /// For the pre-filter to prune well the corpus should be laid out
    /// cluster-contiguously — see [`cluster_layout`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Sim`] when the tier's timing calibration or
    /// rebuild fails.
    pub fn install_corpus_tier(
        &mut self,
        nprobe: usize,
        cache_budget_bytes: usize,
    ) -> Result<(), ServeError> {
        let timing = StageTiming::analytic(&self.template.tech, self.template.c_load)
            .map_err(ServeError::Sim)?;
        let levels = self.encoding.levels() as usize;
        let mut centroids = Vec::with_capacity(self.map.shards() * self.stages);
        let mut clusters = Vec::with_capacity(self.map.shards());
        for s in 0..self.map.shards() {
            let (base, rows) = self.map.range(s);
            let mut counts = vec![0u32; self.stages * levels];
            let mut codes = Vec::with_capacity(rows * self.stages);
            for row in &self.corpus[base..base + rows] {
                for (j, &v) in row.iter().enumerate() {
                    counts[j * levels + v as usize] += 1;
                }
                codes.extend_from_slice(row);
            }
            for j in 0..self.stages {
                let at = j * levels;
                let mut best = 0usize;
                for v in 1..levels {
                    if counts[at + v] > counts[at + best] {
                        best = v;
                    }
                }
                centroids.push(best as u8);
            }
            clusters.push(ClusterData {
                codes,
                ids: (base as u32..(base + rows) as u32).collect(),
            });
        }
        let cfg = CorpusConfig {
            array: self.template,
            shard_rows: self.map.range(0).1,
            nprobe: nprobe.max(1),
            train_iters: 0,
            train_sample: 1,
            cache_budget_bytes,
            seed: 0,
            threads: Some(1),
        };
        let tier = CorpusEngine::from_persistent_parts(
            cfg,
            timing,
            centroids,
            clusters,
            RuntimeStats::default(),
            self.clock.clone(),
        )
        .map_err(ServeError::Sim)?;
        self.corpus_tier = Some(Mutex::new(tier));
        Ok(())
    }

    /// Cache/geometry snapshot of the corpus pre-filter tier, `None`
    /// when no tier is installed.
    pub fn corpus_status(&self) -> Option<CorpusTierStatus> {
        self.corpus_tier.as_ref().map(|t| lock(t).status())
    }

    /// Snapshot of every shard's condition (for the stats endpoint).
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .map(|shard| {
                let st = lock(&shard.state);
                ShardStatus {
                    base: shard.base,
                    rows: shard.rows,
                    down: st.down,
                    standby_ready: lock(&shard.standby).is_some(),
                    backend: st.engine.backend(),
                    stats: *st.engine.stats(),
                }
            })
            .collect()
    }

    /// Live mutation: stores `values` at global corpus `row`, updating
    /// the owning shard's engine and the probe corpus together (so
    /// later known-answer failover probes expect the *new* content).
    ///
    /// # Errors
    ///
    /// [`ServeError::Sim`] when the row or values do not fit.
    ///
    /// # Panics
    ///
    /// Panics when `row` is outside the shard map.
    pub fn store_row(&mut self, row: usize, values: &[u8]) -> Result<(), ServeError> {
        let (s, local) = self.map.locate(row);
        lock(&self.shards[s].state)
            .engine
            .store(local, values)
            .map_err(ServeError::Sim)?;
        self.corpus[row] = values.to_vec();
        if let Some(tier) = &self.corpus_tier {
            // Keep the pre-filter coherent: the tier's posting list
            // (and any resident snapshot, via surgical repack) must
            // reflect the same write the shard engine just absorbed.
            lock(tier)
                .update_row(row, values)
                .map_err(ServeError::Sim)?;
        }
        Ok(())
    }

    /// Ages one shard's device array through `lifetime` (retention +
    /// endurance drift). Mirrors the journal [`crate::store::JournalOp::Age`]
    /// apply path: the mutation goes through
    /// [`ResilientEngine::array_mut`], so the shard's compiled snapshot
    /// is invalidated and fully recompiled on its next serve.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sim`] when cell reconstruction under the aged
    /// window fails.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn age_shard(
        &self,
        shard: usize,
        lifetime: &tdam_fefet::retention::Lifetime,
    ) -> Result<(), ServeError> {
        lock(&self.shards[shard].state)
            .engine
            .array_mut()
            .age(lifetime)
            .map_err(ServeError::Sim)
    }

    /// Forces one immediate retention-scrub pass on every shard engine
    /// (the clock-driven periodic scrub calls the same machinery; the
    /// simulator uses this to heal drift at a schedule-controlled
    /// moment).
    ///
    /// # Errors
    ///
    /// [`ServeError::Sim`] when a scrub probe fails outright.
    pub fn scrub_all(&self) -> Result<(), ServeError> {
        for shard in &self.shards {
            lock(&shard.state)
                .engine
                .scrub_now()
                .map_err(ServeError::Sim)?;
        }
        Ok(())
    }

    /// Commits `shard`'s *live* engine state as a fresh checkpoint
    /// generation on its standby store and restocks the standby from
    /// it, so a later failover can promote a standby that reflects
    /// recent live mutations (without this, a post-mutation standby
    /// flunks its known-answer probes against the updated corpus and
    /// the shard stays out of rotation — safe, but unavailable).
    /// No-op for shards provisioned without a store.
    ///
    /// # Errors
    ///
    /// [`ServeError::Store`] when the commit fails.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn commit_shard(&self, shard: usize) -> Result<(), ServeError> {
        let sh = &self.shards[shard];
        let Some(store) = &sh.store else {
            return Ok(());
        };
        let state = lock(&sh.state).engine.checkpoint();
        store.commit(&state).map_err(ServeError::Store)?;
        self.restock_standby(sh);
        Ok(())
    }

    /// Scatter-gather top-k search under a wall-clock deadline.
    ///
    /// The deadline is admission-checked up front: a zero or
    /// already-spent budget rejects the *whole request* with
    /// [`ServeError::Overloaded`]`(`[`ShedReason::DeadlineExpired`]`)`
    /// rather than hanging or returning an empty answer. A deadline
    /// that expires mid-scatter still returns the candidates gathered
    /// so far, flagged `partial`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] on admission rejection,
    /// [`ServeError::Unavailable`] when no shard could contribute,
    /// [`ServeError::Sim`] for caller bugs (shape/range mismatches).
    pub fn search_topk(
        &self,
        query: &[u8],
        k: usize,
        deadline: Duration,
    ) -> Result<TopK, ServeError> {
        // Validate the query up front so caller bugs never count
        // against shard health.
        if query.len() != self.stages {
            return Err(ServeError::Sim(TdamError::LengthMismatch {
                got: query.len(),
                expected: self.stages,
            }));
        }
        self.encoding.validate(query).map_err(ServeError::Sim)?;
        if deadline.is_zero() {
            return Err(ServeError::Overloaded(ShedReason::DeadlineExpired));
        }
        let start = self.clock.now();
        if self.any_down.load(Ordering::Acquire) {
            self.try_failover();
        }

        // Coarse pre-filter: when the corpus tier is installed, scan
        // its centroid array and scatter over the probed shards only.
        // A pruned shard is *not* a fidelity loss — pruning is the
        // tier's contract — so it neither flags `partial` nor counts
        // toward `shards_answered`.
        let probed: Option<Vec<usize>> = match &self.corpus_tier {
            Some(tier) => Some(lock(tier).probe(query).map_err(ServeError::Sim)?),
            None => None,
        };

        let mut batch = BatchQuery::new(self.stages);
        batch.push(query).map_err(ServeError::Sim)?;
        let mut select = TopKSelect::new(k);
        let mut partial = false;
        let mut degraded = false;
        let mut shards_answered = 0usize;
        let mut budget_expired = false;
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(p) = &probed {
                if !p.contains(&s) {
                    continue;
                }
            }
            let mut st = lock(&shard.state);
            if st.down {
                if let Some(tier) = &self.corpus_tier {
                    // A probed shard that is out of rotation still
                    // answers: the tier's snapshot cache holds the same
                    // stored codes and re-ranks them exactly. Flagged
                    // `degraded` (ideal-code answers bypass the shard's
                    // device-level state), never silently dropped.
                    drop(st);
                    lock(tier).scan_shard(s, query, &mut select);
                    shards_answered += 1;
                    degraded = true;
                    continue;
                }
                partial = true;
                continue;
            }
            let slow_injected = st.slow.is_some();
            if let Some(delay) = st.slow {
                // Chaos injection: the shard really does serve slowly,
                // while holding its lock (head-of-line blocking).
                self.clock.sleep(delay);
            }
            let remaining = deadline
                .checked_sub(self.clock.elapsed(start))
                .filter(|r| !r.is_zero());
            let Some(remaining) = remaining else {
                // Mid-scatter expiry: completed shards still count. A
                // shard that burned the budget with its own injected
                // service delay owns the failure (this is how a slow
                // shard trips its breaker and gets failed over).
                partial = true;
                budget_expired = true;
                if slow_injected && st.breaker.record_failure() {
                    st.down = true;
                    drop(st);
                    self.any_down.store(true, Ordering::Release);
                    lock(&self.stats).shard_downs += 1;
                }
                break;
            };
            st.engine.cfg.deadline = DeadlinePolicy::WallClock(remaining);
            let served = st.engine.serve(&batch);
            let mut shard_failed = false;
            match served {
                Ok(outcome) => match &outcome.slots[0] {
                    QueryOutcome::Ok(m) => {
                        st.breaker.record_success();
                        shards_answered += 1;
                        let level = st.engine.array().degradation().level;
                        degraded |= level != DegradationLevel::Nominal
                            || outcome.backend == BackendKind::DegradedMasked;
                        for (local, dist) in m.distances.iter().enumerate() {
                            if let Some(d) = dist {
                                select.push(*d, shard.base + local);
                            } else {
                                // A row excluded from ranking (dead or
                                // unreadable) is a fidelity loss.
                                degraded = true;
                            }
                        }
                    }
                    QueryOutcome::TimedOut => {
                        // The shard burned the remaining budget without
                        // answering: that is a shard-health signal
                        // (slow shard) *and* a partial answer.
                        partial = true;
                        budget_expired = true;
                        shard_failed = true;
                    }
                    QueryOutcome::Failed { .. } => {
                        partial = true;
                        shard_failed = true;
                    }
                },
                Err(_) => {
                    partial = true;
                    shard_failed = true;
                }
            }
            if shard_failed && st.breaker.record_failure() {
                st.down = true;
                drop(st);
                self.any_down.store(true, Ordering::Release);
                lock(&self.stats).shard_downs += 1;
            }
        }

        if shards_answered == 0 {
            return if budget_expired {
                // The budget ran out before any shard could answer:
                // that is a shed, not an availability gap.
                Err(ServeError::Overloaded(ShedReason::DeadlineExpired))
            } else {
                // Every shard was down or failing.
                Err(ServeError::Unavailable)
            };
        }
        let mut stats = lock(&self.stats);
        stats.requests += 1;
        if partial {
            stats.partial += 1;
        }
        if degraded {
            stats.degraded += 1;
        }
        if !partial && !degraded {
            stats.complete += 1;
        }
        drop(stats);
        Ok(TopK {
            neighbors: select.into_sorted(),
            partial,
            degraded,
            shards_answered,
            shards_total: self.map.shards(),
        })
    }

    /// Attempts warm-standby failover for every downed shard. Only one
    /// caller at a time pays the probing cost; concurrent requests keep
    /// serving partial answers until a standby has been promoted.
    pub fn try_failover(&self) {
        let Ok(_gate) = self.failover_gate.try_lock() else {
            return;
        };
        let mut still_down = false;
        for shard in &self.shards {
            if !lock(&shard.state).down {
                continue;
            }
            match self.promote_standby(shard) {
                Ok(true) => {}
                Ok(false) => still_down = true,
                Err(_) => still_down = true,
            }
        }
        self.any_down.store(still_down, Ordering::Release);
    }

    /// Promotes `shard`'s standby if its known-answer probes pass.
    /// Returns whether the shard is back in rotation.
    fn promote_standby(&self, shard: &Shard) -> Result<bool, ServeError> {
        let Some(mut candidate) = lock(&shard.standby).take() else {
            return Ok(false);
        };
        if !self.probe_candidate(&mut candidate, shard.base, shard.rows) {
            lock(&self.stats).probe_failures += 1;
            // The candidate flunked: discard it. A fresh restock from
            // the durable generation may still pass later (e.g. the
            // fault was injected into the live standby, not the
            // checkpoint).
            self.restock_standby(shard);
            return Ok(false);
        }
        {
            let mut st = lock(&shard.state);
            // The successor publishes its snapshot through the downed
            // engine's epoch holder: promotion is the same epoch swap as
            // any reprogram, so any in-flight batch drains on the old
            // pinned snapshot while new traffic sees the standby's.
            candidate.adopt_epochs(st.engine.epoch_handle());
            st.engine = candidate;
            st.down = false;
            st.slow = None;
            st.breaker = CircuitBreaker::new(self.breaker_threshold);
        }
        let mut stats = lock(&self.stats);
        stats.failovers += 1;
        drop(stats);
        self.restock_standby(shard);
        Ok(true)
    }

    /// Known-answer probes: every stored row of the range, queried
    /// exactly, must win its own search at distance zero. A standby
    /// that cannot reproduce the corpus it claims to hold is not
    /// promoted.
    fn probe_candidate(&self, candidate: &mut ResilientEngine, base: usize, rows: usize) -> bool {
        let probes = match BatchQuery::from_rows(&self.corpus[base..base + rows]) {
            Ok(b) => b,
            Err(_) => return false,
        };
        candidate.cfg.deadline = DeadlinePolicy::None;
        let outcome = match candidate.serve(&probes) {
            Ok(o) => o,
            Err(_) => return false,
        };
        let exact = outcome.slots.iter().enumerate().all(|(local, slot)| {
            slot.ok().is_some_and(|m| {
                m.best_row == Some(local) && m.distances.get(local).copied() == Some(Some(0))
            })
        });
        // Serving the probes runs the engine's own health machinery; if
        // that left residual degradation (masked stages, spare-row
        // exhaustion), the candidate would serve at reduced fidelity
        // forever — masking can even make a damaged standby answer the
        // exact-match probes correctly. Promotion requires full health.
        exact && candidate.array().degradation().level == DegradationLevel::Nominal
    }

    /// Refills `shard`'s standby slot from its checkpoint store.
    fn restock_standby(&self, shard: &Shard) {
        let Some(store) = &shard.store else {
            return;
        };
        let Ok((state, _ops, _report)) = store.recover() else {
            return;
        };
        let cfg = *lock(&shard.state).engine.runtime_config();
        if let Ok(engine) = ResilientEngine::restore(&state, cfg) {
            *lock(&shard.standby) = Some(engine.with_clock(self.clock.clone()));
            lock(&self.stats).restocks += 1;
        }
    }

    // -- chaos injection ---------------------------------------------------

    /// Chaos: hard-crash a shard (taken out of rotation immediately, as
    /// if its array went dark). The next request attempts failover.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn inject_crash(&self, shard: usize) {
        let mut st = lock(&self.shards[shard].state);
        st.down = true;
        drop(st);
        lock(&self.stats).shard_downs += 1;
        self.any_down.store(true, Ordering::Release);
    }

    /// Chaos: make a shard serve each request `delay` late (None clears
    /// the injection). A slow shard is detected through its breaker —
    /// requests time out against it until it is taken out of rotation.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn inject_slow(&self, shard: usize, delay: Option<Duration>) {
        lock(&self.shards[shard].state).slow = delay;
    }

    /// Chaos: stick one cell of a shard's array at physical `(row,
    /// stage)` (spare and reference rows included). The fault is
    /// persistent; only the shard engine's own health probes can see
    /// it, and its answers must be flagged from then on, never silently
    /// wrong.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sim`] when `row` is outside the shard's physical
    /// array.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn inject_cell_fault(
        &self,
        shard: usize,
        row: usize,
        stage: usize,
        kind: crate::faults::FaultKind,
    ) -> Result<(), ServeError> {
        lock(&self.shards[shard].state)
            .engine
            .array_mut()
            .inject(row, stage, kind)
            .map_err(ServeError::Sim)
    }

    /// Chaos: arm seeded worker panics on a shard's serving engine (see
    /// [`crate::runtime::ChaosInjection`]). A promoted standby starts
    /// unarmed.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn inject_panics(&self, shard: usize, chaos: crate::runtime::ChaosInjection) {
        lock(&self.shards[shard].state).engine.chaos = Some(chaos);
    }

    /// Chaos: corrupt the *standby* of a shard by sticking a whole
    /// column, so its known-answer probes must fail and promotion must
    /// be refused (the probe gate under test).
    ///
    /// # Errors
    ///
    /// [`ServeError::Unavailable`] when the shard has no stocked
    /// standby; [`ServeError::Sim`] when the injection itself fails.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn inject_standby_fault(&self, shard: usize, stage: usize) -> Result<(), ServeError> {
        let mut standby = lock(&self.shards[shard].standby);
        let Some(engine) = standby.as_mut() else {
            return Err(ServeError::Unavailable);
        };
        engine.array_mut().stuck_column(stage)?;
        Ok(())
    }

    /// Chaos: drop a shard's standby entirely (models a failed restock
    /// path), leaving the shard unrecoverable until re-provisioned.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn drop_standby(&self, shard: usize) {
        *lock(&self.shards[shard].standby) = None;
    }

    /// Whether the given shard is currently out of rotation.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn is_down(&self, shard: usize) -> bool {
        lock(&self.shards[shard].state).down
    }
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

/// Upper bound on a frame payload; a peer claiming more is a protocol
/// violation, not an allocation request.
pub const MAX_FRAME: usize = 1 << 20;

const REQ_QUERY: u8 = 0;
const REQ_STATS: u8 = 1;
const REQ_INFO: u8 = 2;

const REPLY_TOPK: u8 = 0;
const REPLY_OVERLOADED: u8 = 1;
const REPLY_ERROR: u8 = 2;
const REPLY_STATS: u8 = 3;
const REPLY_INFO: u8 = 4;

fn class_tag(c: ErrorClass) -> u8 {
    match c {
        ErrorClass::Transient => 0,
        ErrorClass::Degraded => 1,
        ErrorClass::Permanent => 2,
    }
}

fn class_from_tag(t: u8) -> Result<ErrorClass, ServeError> {
    match t {
        0 => Ok(ErrorClass::Transient),
        1 => Ok(ErrorClass::Degraded),
        2 => Ok(ErrorClass::Permanent),
        _ => Err(ServeError::Protocol(format!("unknown error class {t}"))),
    }
}

/// A request frame, decoded. Public so robustness harnesses (the wire
/// fuzzer, the deterministic simulation) can drive the exact production
/// codec byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Top-k query.
    Query {
        /// Query elements (one per stage).
        query: Vec<u8>,
        /// Neighbors requested.
        k: usize,
        /// Whole-request wall-clock budget in microseconds (0 = use the
        /// server's default deadline).
        deadline_us: u64,
    },
    /// Observability snapshot request.
    Stats,
    /// Corpus/topology description request.
    Info,
}

impl Request {
    /// Encodes this request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Self::Query {
                query,
                k,
                deadline_us,
            } => {
                w.put_u8(REQ_QUERY);
                w.put_u32(*k as u32);
                w.put_u64(*deadline_us);
                w.put_u32(query.len() as u32);
                for &b in query {
                    w.put_u8(b);
                }
            }
            Self::Stats => w.put_u8(REQ_STATS),
            Self::Info => w.put_u8(REQ_INFO),
        }
        w.into_bytes()
    }

    /// Decodes a frame payload; never panics and never allocates more
    /// than the declared (bounded) lengths.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on any malformed payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_u8().map_err(|_| truncated())?;
        match tag {
            REQ_QUERY => {
                let k = r.get_u32().map_err(|_| truncated())? as usize;
                let deadline_us = r.get_u64().map_err(|_| truncated())?;
                let n = r.get_u32().map_err(|_| truncated())? as usize;
                if n > MAX_FRAME {
                    return Err(ServeError::Protocol(format!("query length {n} too large")));
                }
                let mut query = Vec::with_capacity(n);
                for _ in 0..n {
                    query.push(r.get_u8().map_err(|_| truncated())?);
                }
                Ok(Self::Query {
                    query,
                    k,
                    deadline_us,
                })
            }
            REQ_STATS => Ok(Self::Stats),
            REQ_INFO => Ok(Self::Info),
            _ => Err(ServeError::Protocol(format!("unknown request tag {tag}"))),
        }
    }
}

/// Front-end counter snapshot, as served by the stats endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Connections accepted.
    pub connections: usize,
    /// Query requests received (before admission).
    pub received: usize,
    /// Requests shed because the admission queue was full.
    pub shed_queue: usize,
    /// Requests shed because their budget expired while queued.
    pub shed_deadline: usize,
    /// Requests answered with a top-k result.
    pub answered: usize,
    /// Requests answered with an error reply.
    pub errors: usize,
}

impl Codec for FrontStats {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.connections);
        w.put_usize(self.received);
        w.put_usize(self.shed_queue);
        w.put_usize(self.shed_deadline);
        w.put_usize(self.answered);
        w.put_usize(self.errors);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            connections: r.get_usize()?,
            received: r.get_usize()?,
            shed_queue: r.get_usize()?,
            shed_deadline: r.get_usize()?,
            answered: r.get_usize()?,
            errors: r.get_usize()?,
        })
    }
}

/// Live atomic counters behind [`FrontStats`].
#[derive(Debug, Default)]
struct FrontCounters {
    connections: AtomicU64,
    received: AtomicU64,
    shed_queue: AtomicU64,
    shed_deadline: AtomicU64,
    answered: AtomicU64,
    errors: AtomicU64,
}

impl FrontCounters {
    fn snapshot(&self) -> FrontStats {
        FrontStats {
            connections: self.connections.load(Ordering::Relaxed) as usize,
            received: self.received.load(Ordering::Relaxed) as usize,
            shed_queue: self.shed_queue.load(Ordering::Relaxed) as usize,
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed) as usize,
            answered: self.answered.load(Ordering::Relaxed) as usize,
            errors: self.errors.load(Ordering::Relaxed) as usize,
        }
    }
}

/// Full observability snapshot from the stats endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// Front-end admission counters.
    pub front: FrontStats,
    /// Service-level scatter-gather counters.
    pub service: ServiceStats,
    /// Per-shard condition including engine [`RuntimeStats`].
    pub shards: Vec<ShardStatus>,
    /// Corpus pre-filter tier condition (snapshot-cache hit/miss/evict
    /// counters, resident bytes), `None` when no tier is installed.
    pub corpus: Option<CorpusTierStatus>,
}

/// Corpus/topology description from the info endpoint, enough for a
/// client to build well-formed queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InfoReply {
    /// Elements per query (stages per chain).
    pub stages: usize,
    /// Encoding levels; valid element values are `0..levels`.
    pub levels: usize,
    /// Total corpus rows.
    pub rows: usize,
    /// Shard count.
    pub shards: usize,
}

/// A reply frame, decoded. Public for the same harnesses as
/// [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A merged top-k answer.
    TopK(TopK),
    /// The request was shed by admission control.
    Overloaded(ShedReason),
    /// A serving error, classified for retry decisions.
    Error {
        /// Retryability classification.
        class: ErrorClass,
        /// Human-readable description.
        msg: String,
    },
    /// Observability snapshot.
    Stats(Box<StatsReply>),
    /// Corpus/topology description.
    Info(InfoReply),
}

fn truncated() -> ServeError {
    ServeError::Protocol("truncated frame".into())
}

impl Reply {
    /// Encodes this reply as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Self::TopK(t) => {
                w.put_u8(REPLY_TOPK);
                w.put_bool(t.partial);
                w.put_bool(t.degraded);
                w.put_u32(t.shards_answered as u32);
                w.put_u32(t.shards_total as u32);
                w.put_u32(t.neighbors.len() as u32);
                for &(dist, row) in &t.neighbors {
                    w.put_u64(dist as u64);
                    w.put_u64(row as u64);
                }
            }
            Self::Overloaded(reason) => {
                w.put_u8(REPLY_OVERLOADED);
                w.put_u8(match reason {
                    ShedReason::QueueFull => 0,
                    ShedReason::DeadlineExpired => 1,
                });
            }
            Self::Error { class, msg } => {
                w.put_u8(REPLY_ERROR);
                w.put_u8(class_tag(*class));
                let bytes = msg.as_bytes();
                w.put_u32(bytes.len() as u32);
                for &b in bytes {
                    w.put_u8(b);
                }
            }
            Self::Stats(s) => {
                w.put_u8(REPLY_STATS);
                s.front.encode(&mut w);
                s.service.encode(&mut w);
                w.put_u32(s.shards.len() as u32);
                for shard in &s.shards {
                    w.put_usize(shard.base);
                    w.put_usize(shard.rows);
                    w.put_bool(shard.down);
                    w.put_bool(shard.standby_ready);
                    w.put_u8(shard.backend.tag());
                    shard.stats.encode(&mut w);
                }
                w.put_bool(s.corpus.is_some());
                if let Some(corpus) = &s.corpus {
                    corpus.encode(&mut w);
                }
            }
            Self::Info(i) => {
                w.put_u8(REPLY_INFO);
                w.put_u32(i.stages as u32);
                w.put_u32(i.levels as u32);
                w.put_u64(i.rows as u64);
                w.put_u32(i.shards as u32);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload; never panics and never allocates more
    /// than the declared (bounded) lengths.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on any malformed payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_u8().map_err(|_| truncated())?;
        match tag {
            REPLY_TOPK => {
                let partial = r.get_bool().map_err(|_| truncated())?;
                let degraded = r.get_bool().map_err(|_| truncated())?;
                let shards_answered = r.get_u32().map_err(|_| truncated())? as usize;
                let shards_total = r.get_u32().map_err(|_| truncated())? as usize;
                let n = r.get_u32().map_err(|_| truncated())? as usize;
                if n > MAX_FRAME {
                    return Err(ServeError::Protocol(format!("top-k size {n} too large")));
                }
                let mut neighbors = Vec::with_capacity(n);
                for _ in 0..n {
                    let dist = r.get_u64().map_err(|_| truncated())? as usize;
                    let row = r.get_u64().map_err(|_| truncated())? as usize;
                    neighbors.push((dist, row));
                }
                Ok(Self::TopK(TopK {
                    neighbors,
                    partial,
                    degraded,
                    shards_answered,
                    shards_total,
                }))
            }
            REPLY_OVERLOADED => match r.get_u8().map_err(|_| truncated())? {
                0 => Ok(Self::Overloaded(ShedReason::QueueFull)),
                1 => Ok(Self::Overloaded(ShedReason::DeadlineExpired)),
                t => Err(ServeError::Protocol(format!("unknown shed reason {t}"))),
            },
            REPLY_ERROR => {
                let class = class_from_tag(r.get_u8().map_err(|_| truncated())?)?;
                let n = r.get_u32().map_err(|_| truncated())? as usize;
                if n > MAX_FRAME {
                    return Err(ServeError::Protocol(format!("message length {n}")));
                }
                let mut bytes = Vec::with_capacity(n);
                for _ in 0..n {
                    bytes.push(r.get_u8().map_err(|_| truncated())?);
                }
                let msg = String::from_utf8(bytes)
                    .map_err(|_| ServeError::Protocol("non-utf8 error message".into()))?;
                Ok(Self::Error { class, msg })
            }
            REPLY_STATS => {
                let front = FrontStats::decode(&mut r).map_err(|_| truncated())?;
                let service = ServiceStats::decode(&mut r).map_err(|_| truncated())?;
                let n = r.get_u32().map_err(|_| truncated())? as usize;
                if n > MAX_FRAME {
                    return Err(ServeError::Protocol(format!("shard count {n}")));
                }
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push(ShardStatus {
                        base: r.get_usize().map_err(|_| truncated())?,
                        rows: r.get_usize().map_err(|_| truncated())?,
                        down: r.get_bool().map_err(|_| truncated())?,
                        standby_ready: r.get_bool().map_err(|_| truncated())?,
                        backend: {
                            let t = r.get_u8().map_err(|_| truncated())?;
                            BackendKind::from_tag(t).ok_or_else(|| {
                                ServeError::Protocol(format!("unknown backend tag {t}"))
                            })?
                        },
                        stats: RuntimeStats::decode(&mut r).map_err(|_| truncated())?,
                    });
                }
                let corpus = if r.get_bool().map_err(|_| truncated())? {
                    Some(CorpusTierStatus::decode(&mut r).map_err(|_| truncated())?)
                } else {
                    None
                };
                Ok(Self::Stats(Box::new(StatsReply {
                    front,
                    service,
                    shards,
                    corpus,
                })))
            }
            REPLY_INFO => Ok(Self::Info(InfoReply {
                stages: r.get_u32().map_err(|_| truncated())? as usize,
                levels: r.get_u32().map_err(|_| truncated())? as usize,
                rows: r.get_u64().map_err(|_| truncated())? as usize,
                shards: r.get_u32().map_err(|_| truncated())? as usize,
            })),
            _ => Err(ServeError::Protocol(format!("unknown reply tag {tag}"))),
        }
    }
}

/// Writes one length-prefixed frame to any byte sink (a `TcpStream` in
/// production, a `Vec<u8>` in the deterministic simulation).
///
/// Header and payload go out in one `write_all`: a frame split over two
/// writes leaves its tail waiting behind Nagle for the peer's delayed
/// ACK (~40 ms on Linux) on every request and every reply.
///
/// # Errors
///
/// [`ServeError::Io`] when the sink rejects the write.
pub fn write_frame(sink: &mut impl IoWrite, payload: &[u8]) -> Result<(), ServeError> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    sink.write_all(&frame)?;
    Ok(())
}

/// Blocking read of one length-prefixed frame from any byte source.
/// `Ok(None)` = clean EOF at a frame boundary. The declared length is
/// validated against [`MAX_FRAME`] *before* the payload buffer is
/// allocated — a hostile header cannot force an over-allocation.
///
/// # Errors
///
/// [`ServeError::Protocol`] for an over-limit declared length,
/// [`ServeError::Io`] for a source failure or a mid-frame EOF.
pub fn read_frame(source: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    let mut header = [0u8; 4];
    match source.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "frame length {len} too large"
        )));
    }
    let mut payload = vec![0u8; len];
    source.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Polling read of one frame with a read timeout, so server connection
/// threads notice shutdown, plus a stall budget: a peer that starts a
/// frame and then dribbles or stops (slow loris) is cut off once the
/// frame has been in flight for `stall_timeout`. `Ok(None)` = clean EOF
/// or shutdown.
fn read_frame_polling(
    stream: &mut TcpStream,
    running: &AtomicBool,
    clock: &Clock,
    stall_timeout: Duration,
) -> Result<Option<Vec<u8>>, ServeError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut frame_started: Option<Timestamp> = None;
    loop {
        // Header complete? Then maybe the payload too.
        if buf.len() >= 4 {
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if len > MAX_FRAME {
                return Err(ServeError::Protocol(format!(
                    "frame length {len} too large"
                )));
            }
            if buf.len() >= 4 + len {
                buf.drain(..4);
                buf.truncate(len);
                return Ok(Some(buf));
            }
        }
        if let Some(started) = frame_started {
            if clock.elapsed(started) >= stall_timeout {
                return Err(ServeError::Protocol("peer stalled mid-frame".into()));
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(ServeError::Protocol("connection closed mid-frame".into()))
                };
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                frame_started.get_or_insert_with(|| clock.now());
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !running.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

// ---------------------------------------------------------------------------
// Transport seam
// ---------------------------------------------------------------------------

/// A frame-oriented connection: the seam between the wire protocol and
/// its carrier. Production is [`TcpTransport`]; the deterministic
/// simulation substitutes an in-memory duplex that injects
/// seed-scheduled frame faults (truncation, bit-flips, duplication,
/// reordering, resets, stalls) on exactly the same encoded bytes.
pub trait Transport {
    /// Sends one frame payload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on carrier failure.
    fn send(&mut self, payload: &[u8]) -> Result<(), ServeError>;
    /// Receives one frame payload; `Ok(None)` = clean end of stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on carrier failure, [`ServeError::Protocol`]
    /// on a malformed frame.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, ServeError>;
}

/// TCP transport with socket read/write timeouts, so a stalled or
/// malicious peer costs a bounded amount of client time (the resulting
/// [`ServeError::Io`] classifies [`ErrorClass::Transient`] — retry).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connects with `io_timeout` applied to both socket directions and
    /// Nagle's algorithm off (each request is one small, complete frame).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when connecting or configuring fails.
    pub fn connect(addr: SocketAddr, io_timeout: Duration) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?; // [real-net ok] TCP transport island
        stream.set_nodelay(true)?; // [real-net ok] TCP transport island
        let t = Some(io_timeout).filter(|t| !t.is_zero());
        stream.set_read_timeout(t)?; // [real-net ok] TCP transport island
        stream.set_write_timeout(t)?; // [real-net ok] TCP transport island
        Ok(Self { stream })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), ServeError> {
        write_frame(&mut self.stream, payload)
    }
    fn recv(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        read_frame(&mut self.stream)
    }
}

// ---------------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------------

/// One admitted query waiting for a worker.
struct Job {
    query: Vec<u8>,
    k: usize,
    deadline: Duration,
    arrived: Timestamp,
    /// Write half of the client connection (reads happen on the
    /// connection thread; replies are serialized through this lock).
    writer: Arc<Mutex<TcpStream>>,
}

/// Bounded MPMC queue: the admission-control boundary. `try_push` never
/// blocks — a full queue is an immediate, explicit shed.
struct JobQueue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits a job unless the queue is at capacity or closed.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut inner = lock(&self.inner);
        if inner.1 || inner.0.len() >= self.capacity {
            return Err(job);
        }
        inner.0.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock(&self.inner).1 = true;
        self.ready.notify_all();
    }
}

// ---------------------------------------------------------------------------
// TCP front-end
// ---------------------------------------------------------------------------

/// The network-facing serving front-end: a TCP acceptor, a bounded
/// admission queue, and a worker pool draining it into
/// [`ShardedService::search_topk`].
///
/// Protocol: length-prefixed frames (`u32` LE length, then a tagged
/// payload; see [`ServeClient`]). Each connection serves one
/// outstanding request at a time. Stats/info requests bypass the
/// admission queue so observability keeps working under overload.
pub struct FrontEnd {
    addr: SocketAddr,
    service: Arc<ShardedService>,
    running: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    counters: Arc<FrontCounters>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl core::fmt::Debug for FrontEnd {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("addr", &self.addr)
            .field("running", &self.running.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FrontEnd {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts
    /// the acceptor plus `cfg.workers` worker threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the listener cannot bind.
    pub fn start(
        service: Arc<ShardedService>,
        cfg: &ServeConfig,
        bind_addr: &str,
    ) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(bind_addr)?; // [real-net ok] TCP front-end island
        let addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
        let counters = Arc::new(FrontCounters::default());
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let mut worker_handles = Vec::with_capacity(cfg.workers.max(1));
        for _ in 0..cfg.workers.max(1) {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            let counters = Arc::clone(&counters);
            worker_handles.push(std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    serve_job(&service, &counters, job);
                }
            }));
        }
        let io_timeout = cfg.io_timeout;

        let accept_handle = {
            let running = Arc::clone(&running);
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            let counters = Arc::clone(&counters);
            let conn_handles = Arc::clone(&conn_handles);
            let default_deadline = cfg.default_deadline;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if !running.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    let running = Arc::clone(&running);
                    let queue = Arc::clone(&queue);
                    let service = Arc::clone(&service);
                    let counters = Arc::clone(&counters);
                    let handle = std::thread::spawn(move || {
                        serve_connection(
                            stream,
                            &running,
                            &queue,
                            &service,
                            &counters,
                            default_deadline,
                            io_timeout,
                        );
                    });
                    lock(&conn_handles).push(handle);
                }
            })
        };

        Ok(Self {
            addr,
            service,
            running,
            queue,
            counters,
            accept_handle: Some(accept_handle),
            worker_handles,
            conn_handles,
        })
    }

    /// The bound address (for clients when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this front-end (for in-process chaos
    /// injection during campaigns).
    pub fn service(&self) -> &Arc<ShardedService> {
        &self.service
    }

    /// Snapshot of the admission counters.
    pub fn front_stats(&self) -> FrontStats {
        self.counters.snapshot()
    }

    /// Stops accepting, drains the queue, and joins every thread.
    pub fn shutdown(&mut self) {
        if !self.running.swap(false, Ordering::AcqRel) {
            return;
        }
        self.queue.close();
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; it re-checks `running` first thing.
        let _ = TcpStream::connect(self.addr); // [real-net ok] TCP front-end island
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        let handles: Vec<_> = lock(&self.conn_handles).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection read loop: decode frames, answer stats/info inline,
/// admit queries to the bounded queue. Slow-client protection: the
/// socket carries a write timeout (a client refusing to drain replies
/// cannot park a worker thread past `io_timeout`) and the frame reader
/// enforces a mid-frame stall budget (slow loris).
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    stream: TcpStream,
    running: &AtomicBool,
    queue: &JobQueue,
    service: &ShardedService,
    counters: &FrontCounters,
    default_deadline: Duration,
    io_timeout: Duration,
) {
    let clock = service.clock().clone();
    if stream
        .set_write_timeout(Some(io_timeout).filter(|t| !t.is_zero())) // [real-net ok] TCP front-end island
        .is_err()
    {
        return;
    }
    // Every reply is one complete frame: send it without waiting for an ACK.
    // [real-net ok] TCP front-end island
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer));
    let mut reader = stream;
    if reader
        .set_read_timeout(Some(Duration::from_millis(50))) // [real-net ok] TCP front-end island
        .is_err()
    {
        return;
    }
    loop {
        let frame = match read_frame_polling(&mut reader, running, &clock, io_timeout) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(_) => return,
        };
        let request = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                let reply = Reply::Error {
                    class: ErrorClass::Permanent,
                    msg: e.to_string(),
                };
                let _ = write_frame(&mut *lock(&writer), &reply.encode());
                continue;
            }
        };
        match request {
            Request::Query {
                query,
                k,
                deadline_us,
            } => {
                counters.received.fetch_add(1, Ordering::Relaxed);
                let deadline = if deadline_us == 0 {
                    default_deadline
                } else {
                    Duration::from_micros(deadline_us)
                };
                let job = Job {
                    query,
                    k,
                    deadline,
                    arrived: clock.now(),
                    writer: Arc::clone(&writer),
                };
                if queue.try_push(job).is_err() {
                    counters.shed_queue.fetch_add(1, Ordering::Relaxed);
                    let reply = Reply::Overloaded(ShedReason::QueueFull);
                    let _ = write_frame(&mut *lock(&writer), &reply.encode());
                }
            }
            Request::Stats => {
                let reply = Reply::Stats(Box::new(StatsReply {
                    front: counters.snapshot(),
                    service: service.service_stats(),
                    shards: service.shard_statuses(),
                    corpus: service.corpus_status(),
                }));
                let _ = write_frame(&mut *lock(&writer), &reply.encode());
            }
            Request::Info => {
                let reply = Reply::Info(InfoReply {
                    stages: service.stages(),
                    levels: service.encoding().levels() as usize,
                    rows: service.map().total_rows(),
                    shards: service.map().shards(),
                });
                let _ = write_frame(&mut *lock(&writer), &reply.encode());
            }
        }
    }
}

/// Worker body: re-check the deadline after queueing delay, then serve.
fn serve_job(service: &ShardedService, counters: &FrontCounters, job: Job) {
    let queued = service.clock().elapsed(job.arrived);
    let reply = match job.deadline.checked_sub(queued) {
        None => {
            counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
            Reply::Overloaded(ShedReason::DeadlineExpired)
        }
        Some(remaining) => match service.search_topk(&job.query, job.k, remaining) {
            Ok(topk) => {
                counters.answered.fetch_add(1, Ordering::Relaxed);
                Reply::TopK(topk)
            }
            Err(ServeError::Overloaded(reason)) => {
                counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
                Reply::Overloaded(reason)
            }
            Err(e) => {
                counters.errors.fetch_add(1, Ordering::Relaxed);
                Reply::Error {
                    class: e.class(),
                    msg: e.to_string(),
                }
            }
        },
    };
    let _ = write_frame(&mut *lock(&job.writer), &reply.encode());
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Default socket I/O budget for [`ServeClient::connect`]: a server
/// that stalls longer than this yields a [`ErrorClass::Transient`]
/// [`ServeError::Io`] instead of hanging the client forever.
pub const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Blocking client for the [`FrontEnd`] wire protocol (one outstanding
/// request per connection), generic over the [`Transport`] carrying its
/// frames.
#[derive(Debug)]
pub struct ServeClient<T: Transport = TcpTransport> {
    transport: T,
}

impl ServeClient<TcpTransport> {
    /// Connects to a front-end over TCP with [`CLIENT_IO_TIMEOUT`]
    /// applied to both socket directions.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails.
    pub fn connect(addr: SocketAddr) -> Result<Self, ServeError> {
        Self::connect_with_timeout(addr, CLIENT_IO_TIMEOUT)
    }

    /// Connects with an explicit socket I/O budget (zero = no timeout).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        io_timeout: Duration,
    ) -> Result<Self, ServeError> {
        Ok(Self::over(TcpTransport::connect(addr, io_timeout)?))
    }
}

impl<T: Transport> ServeClient<T> {
    /// Wraps an already-established transport (the simulation's
    /// in-memory duplex, or a custom carrier).
    pub fn over(transport: T) -> Self {
        Self { transport }
    }

    fn round_trip(&mut self, request: &Request) -> Result<Reply, ServeError> {
        self.transport.send(&request.encode())?;
        match self.transport.recv()? {
            Some(frame) => Reply::decode(&frame),
            None => Err(ServeError::Protocol("server closed connection".into())),
        }
    }

    /// Top-k search with an explicit wall-clock budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the server shed the request,
    /// [`ServeError::Sim`]/[`ServeError::Unavailable`] when the server
    /// reported a serving error, [`ServeError::Io`] on socket failure.
    pub fn query(
        &mut self,
        query: &[u8],
        k: usize,
        deadline: Duration,
    ) -> Result<TopK, ServeError> {
        let request = Request::Query {
            query: query.to_vec(),
            k,
            deadline_us: deadline.as_micros().min(u128::from(u64::MAX)) as u64,
        };
        match self.round_trip(&request)? {
            Reply::TopK(t) => Ok(t),
            Reply::Overloaded(reason) => Err(ServeError::Overloaded(reason)),
            Reply::Error { class, msg } => match class {
                ErrorClass::Transient => Err(ServeError::Unavailable),
                _ => Err(ServeError::Protocol(msg)),
            },
            _ => Err(ServeError::Protocol("unexpected reply to query".into())),
        }
    }

    /// Fetches the server's observability snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Protocol`] on transport
    /// failure.
    pub fn stats(&mut self) -> Result<StatsReply, ServeError> {
        match self.round_trip(&Request::Stats)? {
            Reply::Stats(s) => Ok(*s),
            _ => Err(ServeError::Protocol("unexpected reply to stats".into())),
        }
    }

    /// Fetches the corpus/topology description.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Protocol`] on transport
    /// failure.
    pub fn info(&mut self) -> Result<InfoReply, ServeError> {
        match self.round_trip(&Request::Info)? {
            Reply::Info(i) => Ok(i),
            _ => Err(ServeError::Protocol("unexpected reply to info".into())),
        }
    }
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// A deterministic corpus of `rows` vectors with elements in
/// `0..levels`, for load generation and campaigns.
pub fn seeded_corpus(rows: usize, stages: usize, levels: u8, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| (0..stages).map(|_| rng.gen_range(0..levels)).collect())
        .collect()
}

/// Nearest-rank percentile over unsorted latency samples, in the
/// samples' own unit. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;

    #[test]
    fn shard_map_partitions_exactly() {
        let map = ShardMap::new(100, 24).unwrap();
        assert_eq!(map.shards(), 5);
        let mut covered = 0;
        for s in 0..map.shards() {
            let (base, len) = map.range(s);
            assert_eq!(base, covered);
            covered += len;
            for local in 0..len {
                assert_eq!(map.locate(base + local), (s, local));
            }
        }
        assert_eq!(covered, 100);
        // Exact division leaves no runt shard.
        let even = ShardMap::new(96, 24).unwrap();
        assert_eq!(even.shards(), 4);
        assert_eq!(even.range(3), (72, 24));
        assert!(ShardMap::new(0, 4).is_err());
        assert!(ShardMap::new(4, 0).is_err());
    }

    #[test]
    fn brute_force_ranks_by_distance_then_row() {
        let enc = Encoding::new(2).unwrap();
        let corpus = vec![
            vec![1, 1, 1, 1],
            vec![0, 0, 0, 0],
            vec![1, 1, 1, 1],
            vec![1, 1, 1, 0],
        ];
        let got = brute_force_topk(&corpus, enc, &[1, 1, 1, 1], 3).unwrap();
        // Ties broken by row id: row 0 before row 2 at distance 0.
        assert_eq!(got, vec![(0, 0), (0, 2), (1, 3)]);
        // k beyond the corpus returns everything, ranked.
        let all = brute_force_topk(&corpus, enc, &[1, 1, 1, 1], 99).unwrap();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn request_frames_round_trip() {
        for request in [
            Request::Query {
                query: vec![0, 3, 1, 2],
                k: 7,
                deadline_us: 125_000,
            },
            Request::Stats,
            Request::Info,
        ] {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn backend_tags_are_pinned_on_the_wire_and_in_the_store() {
        for (backend, tag) in [
            (BackendKind::Packed, 0u8),
            (BackendKind::Behavioral, 1),
            (BackendKind::DegradedMasked, 2),
        ] {
            assert_eq!(backend.tag(), tag);
            assert_eq!(BackendKind::from_tag(tag), Some(backend));
        }
        assert_eq!(BackendKind::from_tag(3), None);

        // Store path: one tag byte, and an unknown tag is corruption.
        let mut w = Writer::new();
        BackendKind::Packed.encode(&mut w);
        assert_eq!(w.into_bytes(), vec![0]);
        assert!(matches!(
            BackendKind::decode(&mut Reader::new(&[0])),
            Ok(BackendKind::Packed)
        ));
        assert!(matches!(
            BackendKind::decode(&mut Reader::new(&[3])),
            Err(StoreError::Corrupt { .. })
        ));

        // Wire path: the Stats reply's shard backend byte is the only one
        // that differs between two otherwise equal replies; tag 3 there is
        // a protocol error.
        let stats = |backend| {
            Reply::Stats(Box::new(StatsReply {
                front: FrontStats::default(),
                service: ServiceStats::default(),
                shards: vec![ShardStatus {
                    base: 0,
                    rows: 4,
                    down: false,
                    standby_ready: false,
                    backend,
                    stats: RuntimeStats::default(),
                }],
                corpus: None,
            }))
            .encode()
        };
        let packed = stats(BackendKind::Packed);
        let degraded = stats(BackendKind::DegradedMasked);
        let diff: Vec<usize> = (0..packed.len())
            .filter(|&i| packed[i] != degraded[i])
            .collect();
        assert_eq!(diff.len(), 1);
        assert_eq!((packed[diff[0]], degraded[diff[0]]), (0, 2));
        let mut bad = packed;
        bad[diff[0]] = 3;
        assert!(matches!(
            Reply::decode(&bad),
            Err(ServeError::Protocol(msg)) if msg.contains("backend tag 3")
        ));
    }

    #[test]
    fn reply_frames_round_trip() {
        let replies = vec![
            Reply::TopK(TopK {
                neighbors: vec![(0, 3), (2, 11)],
                partial: true,
                degraded: false,
                shards_answered: 2,
                shards_total: 3,
            }),
            Reply::Overloaded(ShedReason::QueueFull),
            Reply::Overloaded(ShedReason::DeadlineExpired),
            Reply::Error {
                class: ErrorClass::Transient,
                msg: "shard failure".into(),
            },
            Reply::Stats(Box::new(StatsReply {
                front: FrontStats {
                    connections: 2,
                    received: 40,
                    shed_queue: 3,
                    shed_deadline: 1,
                    answered: 36,
                    errors: 0,
                },
                service: ServiceStats {
                    requests: 36,
                    complete: 30,
                    partial: 4,
                    degraded: 2,
                    shard_downs: 1,
                    failovers: 1,
                    probe_failures: 0,
                    restocks: 1,
                },
                shards: vec![ShardStatus {
                    base: 0,
                    rows: 24,
                    down: false,
                    standby_ready: true,
                    backend: BackendKind::Packed,
                    stats: RuntimeStats::default(),
                }],
                corpus: None,
            })),
            Reply::Stats(Box::new(StatsReply {
                front: FrontStats::default(),
                service: ServiceStats::default(),
                shards: Vec::new(),
                corpus: Some(CorpusTierStatus {
                    rows: 1_000_000,
                    clusters: 245,
                    nprobe: 8,
                    resident: 12,
                    resident_bytes: 48 << 20,
                    budget_bytes: 64 << 20,
                    stats: RuntimeStats {
                        corpus_cache_hits: 900,
                        corpus_cache_misses: 45,
                        corpus_cache_evictions: 33,
                        corpus_compile_micros: 120_000,
                        ..Default::default()
                    },
                }),
            })),
            Reply::Info(InfoReply {
                stages: 16,
                levels: 4,
                rows: 96,
                shards: 4,
            }),
        ];
        for reply in replies {
            let decoded = Reply::decode(&reply.encode()).unwrap();
            assert_eq!(decoded, reply);
        }
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        assert!(matches!(
            Request::decode(&[9]),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(Request::decode(&[]), Err(ServeError::Protocol(_))));
        assert!(matches!(Reply::decode(&[99]), Err(ServeError::Protocol(_))));
        // Truncated query payload.
        let mut bytes = Request::Query {
            query: vec![1, 2, 3],
            k: 1,
            deadline_us: 0,
        }
        .encode();
        bytes.pop();
        assert!(matches!(
            Request::decode(&bytes),
            Err(ServeError::Protocol(_))
        ));
    }

    /// A byte sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl IoWrite for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let query = Request::Query {
            query: vec![1, 2, 3, 0],
            k: 5,
            deadline_us: 250_000,
        }
        .encode();
        for payload in [Vec::new(), vec![7], query] {
            let mut sink = CountingSink::default();
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.writes, 1, "{}-byte payload", payload.len());
            let mut want = (payload.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&payload);
            assert_eq!(sink.bytes, want);
            assert_eq!(
                read_frame(&mut sink.bytes.as_slice()).unwrap(),
                Some(payload)
            );
        }
    }

    #[test]
    fn job_queue_sheds_when_full_and_drains_in_order() {
        let queue = JobQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let writer = Arc::new(Mutex::new(stream));
        let job = |k: usize| Job {
            query: vec![0],
            k,
            deadline: Duration::from_millis(1),
            arrived: Clock::wall().now(),
            writer: Arc::clone(&writer),
        };
        assert!(queue.try_push(job(1)).is_ok());
        // Capacity 1: the second push is an explicit shed, not a block.
        assert!(queue.try_push(job(2)).is_err());
        assert_eq!(queue.pop().map(|j| j.k), Some(1));
        queue.close();
        assert!(queue.pop().is_none());
        assert!(queue.try_push(job(3)).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut empty: Vec<u64> = vec![];
        assert_eq!(percentile(&mut empty, 99.0), 0);
        let mut one = vec![42];
        assert_eq!(percentile(&mut one, 50.0), 42);
        assert_eq!(percentile(&mut one, 99.0), 42);
        let mut many: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut many, 50.0), 50);
        assert_eq!(percentile(&mut many, 99.0), 99);
        assert_eq!(percentile(&mut many, 100.0), 100);
    }

    #[test]
    fn serve_error_classes_match_retryability() {
        assert_eq!(
            ServeError::Overloaded(ShedReason::QueueFull).class(),
            ErrorClass::Transient
        );
        assert_eq!(ServeError::Unavailable.class(), ErrorClass::Transient);
        assert_eq!(
            ServeError::Protocol("bad".into()).class(),
            ErrorClass::Permanent
        );
        assert_eq!(
            ServeError::Sim(TdamError::LengthMismatch {
                got: 1,
                expected: 2
            })
            .class(),
            ErrorClass::Permanent
        );
    }

    #[test]
    fn seeded_corpus_is_deterministic_and_in_range() {
        let a = seeded_corpus(10, 8, 4, 99);
        let b = seeded_corpus(10, 8, 4, 99);
        assert_eq!(a, b);
        assert!(a.iter().all(|row| row.iter().all(|&x| x < 4)));
        let c = seeded_corpus(10, 8, 4, 100);
        assert_ne!(a, c);
    }
}
