//! Deterministic full-system simulation: one seed, one virtual world.
//!
//! FoundationDB/TigerBeetle-style simulation testing for the TD-AM
//! serving stack. A `SimWorld` runs a whole deployment — a sharded
//! [`ShardedService`] with warm standbys on in-memory checkpoint
//! stores, a [`DurableEngine`] write-ahead track on a fault-injecting
//! [`MemStorage`], clients, mutation writers, and device aging — as a
//! **single-threaded** program on a [`SimClock`]. Every source of
//! nondeterminism is owned by the harness:
//!
//! - **time** is virtual: deadlines, group-commit flush windows, scrub
//!   cadence, and injected stalls all read the same [`SimClock`];
//! - **the network** is a byte-level frame pipeline (the production
//!   [`Request`]/[`Reply`] codec and frame framing, run over `Vec<u8>`
//!   instead of a socket) with seed-scheduled truncation, bit-flips,
//!   duplication, reordering, resets, and slow-loris stalls;
//! - **the disk** is a [`MemStorage`] with seed-scheduled torn
//!   appends, lying fsyncs, disk-full errors, and power losses;
//! - **the devices** age, drift, take stuck FeFET cells (stuck at match
//!   or at mismatch), and wear under an aggressive write-leveling
//!   policy, and the shard engines' workers take seeded panics.
//!
//! All faults come from one [`FaultSchedule`] drawn from one seed, so
//! any run replays **bit-identically** — and when a run fails, the
//! schedule is shrunk by greedy event deletion to a minimal reproducer
//! (`tdam-sim simulate --seed N` replays it).
//!
//! ## The judges
//!
//! Two independent oracles watch the world:
//!
//! - **answer judge** — every *complete* (non-partial, non-degraded)
//!   top-k answer a client decodes must be bit-identical to
//!   [`brute_force_topk`] over a shadow corpus the harness maintains
//!   by hand. Partial/degraded answers are honestly flagged by the
//!   service and exempt; silently wrong answers are the one
//!   unforgivable failure.
//! - **durability judge** — after every injected power loss, the
//!   recovered durable engine must hold exactly a *prefix* of the
//!   mutation history (checkpoint base + replayed journal ops),
//!   bit-exact per row. Recovering a state the application never
//!   passed through is silent corruption.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Duration;

use crate::clock::{Clock, SimClock};
use crate::config::ArrayConfig;
use crate::corpus::{CorpusBuilder, CorpusConfig, CorpusEngine};
use crate::encoding::Encoding;
use crate::faults::FaultKind;
use crate::resilience::WearPolicy;
use crate::runtime::{ChaosInjection, DeadlinePolicy, RuntimeConfig};
use crate::serve::{
    brute_force_topk, read_frame, write_frame, InfoReply, Reply, Request, ServeConfig, ServeError,
    ShardedService, ShedReason, StatsReply,
};
use crate::store::{CheckpointStore, DiskFault, DurableEngine, MemStorage};
use tdam_fefet::retention::{Lifetime, RetentionParams};

// ---------------------------------------------------------------------------
// Seeded randomness
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: one 64-bit hop of the schedule/query streams.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Minimal deterministic RNG (SplitMix64 stream) for schedule drawing.
#[derive(Debug, Clone)]
struct SimRng {
    state: u64,
}

impl SimRng {
    fn new(seed: u64) -> Self {
        Self {
            state: splitmix(seed ^ 0xD1F4_7E57_0000_5EED),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = splitmix(self.state);
        self.state
    }

    /// Uniform draw in `[0, n)` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent / 100`.
    fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < u64::from(percent)
    }
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// A fault applied to one wire frame (request or reply direction), at
/// the byte level — below the codec, exactly where a hostile or broken
/// network operates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Keep only a `keep_num/256` prefix of the request frame bytes.
    TruncateRequest {
        /// Prefix fraction numerator (denominator 256).
        keep_num: u8,
    },
    /// Keep only a `keep_num/256` prefix of the reply frame bytes.
    TruncateReply {
        /// Prefix fraction numerator (denominator 256).
        keep_num: u8,
    },
    /// Flip one bit of the request frame (position `bit` modulo length).
    BitflipRequest {
        /// Bit index before reduction modulo the frame bit-length.
        bit: u32,
    },
    /// Flip one bit of the reply frame.
    BitflipReply {
        /// Bit index before reduction modulo the frame bit-length.
        bit: u32,
    },
    /// Deliver the request twice (at-least-once network).
    DuplicateRequest,
    /// Drop the reply on the floor (connection reset from the client's
    /// point of view).
    DropReply,
    /// Slow-loris: the peer stalls this long mid-frame. Stalls past the
    /// server's I/O budget cut the connection; shorter ones just burn
    /// the request's deadline budget.
    Stall {
        /// Stall length, virtual milliseconds.
        millis: u32,
    },
    /// Defer this step's request and deliver it after the next one
    /// (reordering). Judged against the shadow corpus at actual serve
    /// time.
    Reorder,
}

/// One scheduled world event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Apply a byte-level fault to this step's wire traffic.
    Net(FrameFault),
    /// Hard-crash one serving shard (failover path).
    CrashShard(
        /// Shard index (reduced modulo the shard count).
        usize,
    ),
    /// Make one shard serve slowly until cleared (breaker path).
    SlowShard {
        /// Shard index (reduced modulo the shard count).
        shard: usize,
        /// Injected per-request service delay, virtual milliseconds.
        millis: u32,
    },
    /// Clear a shard's slow-serve injection.
    ClearSlow(
        /// Shard index (reduced modulo the shard count).
        usize,
    ),
    /// Age every shard's device array (retention drift).
    AgeShards {
        /// Retention bake time, seconds of device lifetime.
        seconds: u32,
    },
    /// Force one retention-scrub pass on every shard now.
    Scrub,
    /// Retention drift on one shard deep enough to trip the margin
    /// monitors (window fraction ≈ 0.7, past the 0.6 × sensing-margin
    /// tolerance but short of a decode flip), immediately followed by a
    /// scrub pass so drifted rows heal before the next query lands.
    Drift(
        /// Shard index (reduced modulo the shard count).
        usize,
    ),
    /// Live mutation: overwrite one corpus row with derived values (and
    /// mirror it on the durable track when in range).
    Mutate,
    /// A persistent stuck cell in one shard's array, the FeFET's hard
    /// failure mode. From the next request on, the shard's health
    /// probes must catch it, so its answers come back flagged.
    CellFault {
        /// Shard index (reduced modulo the shard count).
        shard: usize,
        /// Physical row of the shard's array, spare and reference rows
        /// included (reduced modulo its physical rows).
        row: usize,
        /// Stage (reduced modulo the stage count).
        stage: usize,
        /// Stuck at match (mismatches go uncounted) rather than at
        /// mismatch.
        stuck_match: bool,
    },
    /// Arm seeded worker panics on one shard's engine: each slot
    /// attempt panics with this chance, and the runtime must isolate
    /// and retry it.
    Panics {
        /// Shard index (reduced modulo the shard count).
        shard: usize,
        /// Per-attempt panic chance, percent.
        percent: u32,
    },
    /// Admission burst: this many requests are queued ahead of this
    /// step's request.
    Burst(
        /// Queued requests ahead.
        u32,
    ),
    /// Arm one disk fault on the durable track's storage.
    Disk(DiskFault),
    /// Checkpoint the durable track (journal rotation).
    Checkpoint,
    /// Power-lose the durable track and recover it (durability judge).
    CrashDurable,
    /// Self-test: corrupt the next complete answer before judging. The
    /// judge **must** catch this — used to validate the failure
    /// pipeline (replay + shrink), never drawn by the generator.
    Sabotage,
}

/// The unified, seed-derived fault plan: `(step, event)` pairs applied
/// in order at the start of each step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// Scheduled events, sorted by step.
    pub events: Vec<(usize, FaultEvent)>,
}

impl FaultSchedule {
    /// Renders the schedule as one line per event (failure artifacts).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (step, ev) in &self.events {
            out.push_str(&format!("  step {step:>4}: {ev:?}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of one simulated world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// World seed: corpus, queries, and the fault schedule all derive
    /// from it.
    pub seed: u64,
    /// Client request steps to run.
    pub steps: usize,
    /// Corpus rows served.
    pub rows: usize,
    /// Elements per row (stages per chain).
    pub stages: usize,
    /// Rows per shard (shard count = `rows / rows_per_shard`, rounded
    /// up).
    pub rows_per_shard: usize,
    /// Rows mirrored on the durable write-ahead track.
    pub durable_rows: usize,
    /// Percent chance per step of drawing one fault event.
    pub fault_density: u32,
    /// Arm the sabotage self-test (judge validation).
    pub sabotage: bool,
    /// Rows in the two-tier corpus side-track (0 = disabled). When
    /// enabled, every step also runs one pre-filtered corpus search
    /// judged by brute force restricted to the probed shards, and live
    /// mutations additionally churn the corpus tier (update + append)
    /// so the snapshot cache sees invalidation under faults.
    pub corpus_rows: usize,
}

impl SimConfig {
    /// A small world for campaigns: 12 rows over 3 shards, 16 steps.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            steps: 16,
            rows: 12,
            stages: 6,
            rows_per_shard: 4,
            durable_rows: 6,
            fault_density: 45,
            sabotage: false,
            corpus_rows: 0,
        }
    }

    /// A deeper world for single-seed investigation: 24 rows over 3
    /// shards, 64 steps, denser faults.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            steps: 64,
            rows: 24,
            stages: 8,
            rows_per_shard: 8,
            durable_rows: 8,
            fault_density: 55,
            sabotage: false,
            corpus_rows: 0,
        }
    }

    /// Shard count implied by the geometry.
    pub fn shards(&self) -> usize {
        self.rows.div_ceil(self.rows_per_shard.max(1))
    }

    /// The serving configuration of the simulated deployment.
    fn serve_config(&self) -> ServeConfig {
        let mut cfg = ServeConfig::paper_default();
        cfg.array = ArrayConfig::paper_default().with_stages(self.stages);
        cfg.rows_per_shard = self.rows_per_shard;
        cfg.queue_capacity = 32;
        cfg.default_deadline = Duration::from_millis(20);
        cfg.io_timeout = Duration::from_millis(200);
        // Background retention scrub on virtual time: one pass every
        // 8 virtual milliseconds of serving.
        cfg.runtime.scrub_interval = Some(Duration::from_millis(8));
        // Probe shard health before every request: an injected stuck
        // cell must be caught before the next answer leaves the shard,
        // so the judge can hold every unflagged answer to bit-exactness.
        // At the production cadence of 32 a stuck cell serves
        // unflagged wrong answers until the next probe.
        cfg.runtime.health_interval = 1;
        // Rows rotate onto spares after a handful of writes and half-
        // select inhibit charges siblings, so live mutations drive the
        // wear-leveling rotations and refresh rewrites that the default
        // (inert) policy never reaches.
        cfg.resilience.wear = WearPolicy::aggressive();
        cfg
    }

    /// The corpus side-track's configuration: tiny shards, and a
    /// snapshot-cache budget [`SimWorld::new`] sizes from a measured
    /// snapshot.
    fn corpus_config(&self, cache_budget_bytes: usize) -> CorpusConfig {
        CorpusConfig {
            array: ArrayConfig::paper_default().with_stages(self.stages),
            shard_rows: 8,
            nprobe: 2,
            train_iters: 2,
            train_sample: 128,
            cache_budget_bytes,
            seed: self.seed,
            threads: Some(1),
        }
    }

    /// The durable track's runtime configuration (no deadline, no
    /// background scrub — the journal replays must stay cheap).
    fn durable_runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            deadline: DeadlinePolicy::None,
            threads: Some(1),
            ..RuntimeConfig::default()
        }
    }
}

/// Per-request client deadline, virtual time.
const REQUEST_DEADLINE: Duration = Duration::from_millis(20);
/// Virtual time between client request steps.
const STEP_TICK: Duration = Duration::from_millis(1);
/// Modeled queue residency per request queued ahead (burst events).
const QUEUE_TICK: Duration = Duration::from_micros(250);
/// Cap on aging events per schedule: with the paper's 4-level ladder
/// (0.4 V spacing) three compounded ~1e5 s bakes contract the window to
/// ~84%, drifting extreme states ~0.1 V — margin monitors flag long
/// before the 0.2 V decode-flip point, so the scrub has room to heal.
const MAX_AGE_EVENTS: usize = 3;

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One judged failure: the step it surfaced at and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFailure {
    /// Step index the failure surfaced at.
    pub step: usize,
    /// Deterministic description of the violation.
    pub what: String,
}

/// Integer-only outcome of one world run. Two runs of the same seed
/// and schedule must compare equal — the replay check is `==`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimReport {
    /// Steps executed.
    pub steps: usize,
    /// Requests delivered to the server (duplicates included).
    pub requests: usize,
    /// Complete answers (judged bit-exact against the shadow corpus).
    pub complete: usize,
    /// Answers honestly flagged partial.
    pub partial: usize,
    /// Answers honestly flagged degraded.
    pub degraded: usize,
    /// Requests shed by admission control (queue full / deadline).
    pub shed: usize,
    /// Wire-level delivery failures (truncation, resets, stalls past
    /// the I/O budget).
    pub transport_errors: usize,
    /// Frames that decoded as protocol violations.
    pub protocol_errors: usize,
    /// Frames delivered with undetectable tampering (bit-flips):
    /// served/decoded without panic, excluded from the answer judge.
    pub tampered: usize,
    /// Classified error replies the client received (shard failures,
    /// availability gaps).
    pub server_errors: usize,
    /// Live corpus mutations applied.
    pub mutations: usize,
    /// Serving shards hard-crashed.
    pub shard_crashes: usize,
    /// Durable-track power losses survived.
    pub durable_crashes: usize,
    /// Aging events applied to the device arrays.
    pub ages: usize,
    /// Forced scrub passes (on top of the clock-driven cadence).
    pub scrubs: usize,
    /// Deep margin-drift events (age past tolerance + paired heal
    /// scrub).
    pub drifts: usize,
    /// Stuck cells injected into shard arrays.
    pub cell_faults: usize,
    /// Worker-panic injections armed on shard engines.
    pub panics_armed: usize,
    /// Disk faults armed on the durable track.
    pub disk_faults: usize,
    /// Durable checkpoints committed.
    pub checkpoints: usize,
    /// Requests deferred by reordering.
    pub reorders: usize,
    /// Standby failovers the service performed.
    pub failovers: usize,
    /// Retention-scrub heals across all shard engines.
    pub scrub_heals: usize,
    /// Wear-leveling rotations onto spares across all shard engines.
    pub wear_rotations: usize,
    /// Disturb-budget refresh rewrites across all shard engines.
    pub refresh_rewrites: usize,
    /// Answers judged against the brute-force oracle.
    pub judged: usize,
    /// Corpus-tier answers judged against brute force restricted to
    /// the probed shards.
    pub corpus_judged: usize,
    /// Corpus-tier mutations applied (row updates + appends).
    pub corpus_mutations: usize,
    /// Corpus-tier snapshot-cache evictions.
    pub corpus_evictions: usize,
    /// Judged violations (must be zero outside sabotage runs).
    pub failures: Vec<SimFailure>,
}

impl SimReport {
    /// Whether any judge recorded a violation.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// Failure artifact: everything needed to reproduce and fix a failing
/// seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureArtifact {
    /// The world seed.
    pub seed: u64,
    /// Events in the original (full) schedule.
    pub original_events: usize,
    /// The greedily minimized schedule that still reproduces the
    /// failure.
    pub minimized: FaultSchedule,
    /// First recorded violation under the minimized schedule.
    pub first_failure: SimFailure,
    /// Whether two full-schedule runs produced identical reports
    /// (determinism check; `false` would itself be a harness bug).
    pub replay_consistent: bool,
}

/// Outcome of [`simulate`]: the report, the schedule it ran, and a
/// minimized failure artifact when a judge fired.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Full-schedule run report.
    pub report: SimReport,
    /// The generated schedule.
    pub schedule: FaultSchedule,
    /// Present iff the run failed.
    pub failure: Option<FailureArtifact>,
}

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

/// Draws the unified fault schedule for a configuration — pure in the
/// seed, so the same seed always produces the same world.
pub fn generate_schedule(cfg: &SimConfig) -> FaultSchedule {
    let mut rng = SimRng::new(cfg.seed);
    let shards = cfg.shards() as u64;
    let mut events = Vec::new();
    let mut ages = 0usize;
    let mut drifted = false;
    for step in 0..cfg.steps {
        if !rng.chance(cfg.fault_density) {
            continue;
        }
        let ev = match rng.below(100) {
            // Network faults: the biggest family, split across kinds.
            0..=4 => FaultEvent::Net(FrameFault::TruncateRequest {
                keep_num: rng.below(256) as u8,
            }),
            5..=9 => FaultEvent::Net(FrameFault::TruncateReply {
                keep_num: rng.below(256) as u8,
            }),
            10..=14 => FaultEvent::Net(FrameFault::BitflipRequest {
                bit: rng.below(1 << 16) as u32,
            }),
            15..=18 => FaultEvent::Net(FrameFault::BitflipReply {
                bit: rng.below(1 << 16) as u32,
            }),
            19..=22 => FaultEvent::Net(FrameFault::DuplicateRequest),
            23..=26 => FaultEvent::Net(FrameFault::DropReply),
            27..=31 => FaultEvent::Net(FrameFault::Stall {
                // Mix short budget-burning stalls with ones past the
                // 200 ms I/O budget (connection cut).
                millis: if rng.chance(50) {
                    2 + rng.below(6) as u32
                } else {
                    250 + rng.below(100) as u32
                },
            }),
            32..=35 => FaultEvent::Net(FrameFault::Reorder),
            // Overload + live mutation.
            36..=43 => FaultEvent::Burst(rng.below(64) as u32),
            44..=53 => FaultEvent::Mutate,
            // Crash-restart (service level).
            54..=59 => FaultEvent::CrashShard(rng.below(shards) as usize),
            60..=64 => FaultEvent::SlowShard {
                shard: rng.below(shards) as usize,
                millis: 25 + rng.below(20) as u32,
            },
            65..=67 => FaultEvent::ClearSlow(rng.below(shards) as usize),
            // Device drift / aging.
            68..=73 => {
                if ages < MAX_AGE_EVENTS {
                    ages += 1;
                    FaultEvent::AgeShards {
                        seconds: 20_000 + rng.below(80_000) as u32,
                    }
                } else {
                    FaultEvent::Scrub
                }
            }
            74..=75 => FaultEvent::Scrub,
            // One deep margin-drift per schedule: heal scrub + refresh
            // clean up all contraction on the drifted shard, so a single
            // occurrence exercises the heal path without leaving residue
            // for later events to compound.
            76..=77 => {
                if drifted {
                    FaultEvent::Scrub
                } else {
                    drifted = true;
                    FaultEvent::Drift(rng.below(shards) as usize)
                }
            }
            // Durable-track faults.
            78..=81 => FaultEvent::Disk(match rng.below(3) {
                0 => DiskFault::TornAppend {
                    keep_num: rng.below(256) as u8,
                },
                1 => DiskFault::FsyncLie,
                _ => DiskFault::Full,
            }),
            82..=88 => FaultEvent::Checkpoint,
            89..=93 => FaultEvent::CrashDurable,
            // Device hard faults and worker panics on the serving shards.
            94..=96 => FaultEvent::CellFault {
                shard: rng.below(shards) as usize,
                row: rng.below(1 << 16) as usize,
                stage: rng.below(1 << 16) as usize,
                stuck_match: rng.chance(50),
            },
            _ => FaultEvent::Panics {
                shard: rng.below(shards) as usize,
                percent: 1 + rng.below(5) as u32,
            },
        };
        events.push((step, ev));
    }
    if cfg.sabotage {
        events.push((cfg.steps / 2, FaultEvent::Sabotage));
        events.sort_by_key(|(step, _)| *step);
    }
    FaultSchedule { events }
}

// ---------------------------------------------------------------------------
// The world
// ---------------------------------------------------------------------------

/// The two-tier corpus side-track: a [`CorpusEngine`] on virtual time
/// plus its own flat shadow (the restricted-judge oracle).
struct CorpusTrack {
    engine: CorpusEngine,
    /// `shadow[id]` mirrors the engine's row `id`, including updates
    /// and appends.
    shadow: Vec<Vec<u8>>,
}

/// The simulated deployment: service, durable track, shadow oracles,
/// and the judged report under construction.
struct SimWorld {
    cfg: SimConfig,
    clock: Arc<SimClock>,
    service: ShardedService,
    /// Independent shadow of the served corpus (the answer oracle).
    shadow: Vec<Vec<u8>>,
    encoding: Encoding,
    io_timeout: Duration,
    queue_capacity: usize,
    /// Durable write-ahead track on fault-injecting in-memory storage.
    durable: DurableEngine,
    disk: MemStorage,
    /// Durable rows at sim start (the replay base of generation 0).
    base_rows: Vec<Vec<u8>>,
    /// Every durable mutation issued, in journal order.
    history: Vec<(usize, Vec<u8>)>,
    /// `history` length at each committed checkpoint generation.
    ops_at_gen: HashMap<u64, usize>,
    /// Corrupt the next complete answer (sabotage self-test).
    sabotage_armed: bool,
    /// A request deferred by a reorder fault, plus its arrival time.
    deferred: Option<(Vec<u8>, crate::clock::Timestamp)>,
    /// Two-tier corpus side-track (`cfg.corpus_rows > 0`).
    corpus: Option<CorpusTrack>,
    report: SimReport,
}

impl SimWorld {
    fn new(cfg: &SimConfig) -> Result<Self, ServeError> {
        let clock = SimClock::new();
        let serve_cfg = cfg.serve_config();
        let corpus = derive_corpus(cfg, serve_cfg.array.encoding);
        let (service, _shard_disks) =
            ShardedService::new_sim(&serve_cfg, &corpus, Clock::sim(&clock))?;

        let durable_rows = cfg.durable_rows.min(cfg.rows).max(1);
        let disk = MemStorage::new();
        let store = CheckpointStore::open_with("/sim/durable", Arc::new(disk.clone()))?;
        let array = ArrayConfig::paper_default()
            .with_stages(cfg.stages)
            .with_rows(durable_rows);
        let mut engine = crate::runtime::ResilientEngine::new(
            array,
            crate::resilience::ResilienceConfig::default(),
            cfg.durable_runtime(),
        )
        .map_err(ServeError::Sim)?
        .with_clock(Clock::sim(&clock));
        let base_rows: Vec<Vec<u8>> = corpus[..durable_rows].to_vec();
        for (row, values) in base_rows.iter().enumerate() {
            engine.store(row, values).map_err(ServeError::Sim)?;
        }
        let durable = DurableEngine::new(store, engine).map_err(ServeError::Store)?;
        let mut ops_at_gen = HashMap::new();
        ops_at_gen.insert(durable.generation(), 0);

        let corpus_track = if cfg.corpus_rows > 0 {
            let rows = derive_clustered_rows(cfg, serve_cfg.array.encoding);
            let build = |budget| {
                let mut builder = CorpusBuilder::new(cfg.corpus_config(budget))?;
                builder.append_rows(&rows)?;
                builder.build_with_clock(Clock::sim(&clock))
            };
            // Budget four and a half snapshots, measured on a probe
            // build: fewer than the track's shards, so even a short
            // campaign exercises cache hits, misses, and evictions.
            let mut probe = build(usize::MAX).map_err(ServeError::Sim)?;
            probe.search_topk(&rows[0], 1).map_err(ServeError::Sim)?;
            let snapshot = probe.status().resident_bytes / probe.status().resident;
            let engine = build(4 * snapshot + snapshot / 2).map_err(ServeError::Sim)?;
            Some(CorpusTrack {
                engine,
                shadow: rows,
            })
        } else {
            None
        };

        Ok(Self {
            cfg: *cfg,
            clock,
            service,
            shadow: corpus,
            encoding: serve_cfg.array.encoding,
            io_timeout: serve_cfg.io_timeout,
            queue_capacity: serve_cfg.queue_capacity,
            durable,
            disk,
            base_rows,
            history: Vec::new(),
            ops_at_gen,
            sabotage_armed: false,
            deferred: None,
            corpus: corpus_track,
            report: SimReport::default(),
        })
    }

    fn fail(&mut self, step: usize, what: String) {
        self.report.failures.push(SimFailure { step, what });
    }

    /// Applies one scheduled event at the start of a step.
    fn apply_event(&mut self, step: usize, ev: FaultEvent, net: &mut Vec<FrameFault>) {
        let shards = self.cfg.shards();
        match ev {
            FaultEvent::Net(f) => net.push(f),
            FaultEvent::CrashShard(s) => {
                self.service.inject_crash(s % shards);
                self.report.shard_crashes += 1;
            }
            FaultEvent::SlowShard { shard, millis } => {
                self.service.inject_slow(
                    shard % shards,
                    Some(Duration::from_millis(u64::from(millis))),
                );
            }
            FaultEvent::ClearSlow(s) => self.service.inject_slow(s % shards, None),
            FaultEvent::AgeShards { seconds } => {
                let lifetime = Lifetime {
                    seconds: f64::from(seconds),
                    ..Lifetime::fresh()
                };
                for s in 0..shards {
                    if let Err(e) = self.service.age_shard(s, &lifetime) {
                        self.fail(step, format!("aging shard {s} failed: {e}"));
                    }
                }
                self.report.ages += 1;
            }
            FaultEvent::Scrub => {
                if let Err(e) = self.service.scrub_all() {
                    self.fail(step, format!("forced scrub failed: {e}"));
                }
                self.report.scrubs += 1;
            }
            FaultEvent::Drift(s) => {
                // Harsh retention curve: 0.03 V/decade over 1e10 s bakes
                // the window to 0.70 — inside the heal band (monitors
                // trip, decode usually still correct). The paired scrub
                // heals every row whose margin trips; the refresh below
                // rewrites the rest, because programming variation puts
                // some outer cells close enough to the decode boundary
                // that margin-ok residue is not safe to keep serving.
                let shard = s % shards;
                let lifetime = Lifetime {
                    seconds: 1e10,
                    retention: RetentionParams {
                        loss_per_decade: 0.03,
                        t0: 1.0,
                    },
                    ..Lifetime::fresh()
                };
                if let Err(e) = self.service.age_shard(shard, &lifetime) {
                    self.fail(step, format!("drifting shard {shard} failed: {e}"));
                }
                if let Err(e) = self.service.scrub_all() {
                    self.fail(step, format!("post-drift scrub failed: {e}"));
                }
                // Operator-style refresh of the alarmed shard: re-store
                // its rows from the shadow so no contracted residue is
                // left answering queries. Values are unchanged, so the
                // shadow, durable track, and history stay untouched.
                let lo = shard * self.cfg.rows_per_shard;
                let hi = ((shard + 1) * self.cfg.rows_per_shard).min(self.cfg.rows);
                for row in lo..hi {
                    let values = self.shadow[row].clone();
                    if let Err(e) = self.service.store_row(row, &values) {
                        self.fail(step, format!("post-drift refresh of row {row} failed: {e}"));
                    }
                }
                let _ = self.service.commit_shard(shard);
                self.report.drifts += 1;
                self.report.scrubs += 1;
            }
            FaultEvent::Mutate => self.apply_mutation(step),
            FaultEvent::CellFault {
                shard,
                row,
                stage,
                stuck_match,
            } => {
                let shard = shard % shards;
                let res = self.cfg.serve_config().resilience;
                let rows = self.service.map().range(shard).1 + res.spare_rows + res.reference_rows;
                let kind = if stuck_match {
                    FaultKind::StuckMatch
                } else {
                    FaultKind::StuckMismatch
                };
                let (row, stage) = (row % rows, stage % self.cfg.stages);
                match self.service.inject_cell_fault(shard, row, stage, kind) {
                    Ok(()) => self.report.cell_faults += 1,
                    Err(e) => self.fail(step, format!("cell fault on shard {shard} failed: {e}")),
                }
            }
            FaultEvent::Panics { shard, percent } => {
                let shard = shard % shards;
                self.service.inject_panics(
                    shard,
                    ChaosInjection {
                        seed: splitmix(self.cfg.seed ^ 0x9A41_C5ED ^ shard as u64),
                        panic_rate: f64::from(percent.min(100)) / 100.0,
                    },
                );
                self.report.panics_armed += 1;
            }
            FaultEvent::Burst(_) => {} // consumed by the request path
            FaultEvent::Disk(fault) => {
                self.disk.inject(fault);
                self.report.disk_faults += 1;
            }
            FaultEvent::Checkpoint => {
                // An injected disk fault may refuse the commit; the old
                // generation stays authoritative — not a violation.
                if let Ok(gen) = self.durable.checkpoint() {
                    self.ops_at_gen.insert(gen, self.history.len());
                    self.report.checkpoints += 1;
                }
            }
            FaultEvent::CrashDurable => self.crash_durable(step),
            FaultEvent::Sabotage => self.sabotage_armed = true,
        }
    }

    /// One live mutation: values derived from `(seed, step)` so the
    /// mutation stream is schedule-independent (stable under shrink).
    fn apply_mutation(&mut self, step: usize) {
        let levels = u64::from(self.encoding.levels());
        let h = splitmix(self.cfg.seed ^ 0x4D55_7473 ^ ((step as u64) << 1));
        let row = (h % self.cfg.rows as u64) as usize;
        let values: Vec<u8> = (0..self.cfg.stages)
            .map(|j| (splitmix(h ^ (j as u64 + 1)) % levels) as u8)
            .collect();
        if let Err(e) = self.service.store_row(row, &values) {
            self.fail(step, format!("live mutation of row {row} failed: {e}"));
            return;
        }
        // Keep the mutated shard's standby checkpoint current, so a
        // later failover can still pass its known-answer probes.
        let (shard, _) = self.service.map().locate(row);
        let _ = self.service.commit_shard(shard);
        self.shadow[row] = values.clone();
        self.report.mutations += 1;
        if row < self.base_rows.len() {
            // Mirror on the durable track (group-committed WAL write).
            // A one-shot injected disk fault may surface here; the
            // record stays buffered and lands on the next flush, so it
            // is still part of the issued history.
            let _ = self.durable.store_buffered(row, &values);
            self.history.push((row, values));
        }
        self.mutate_corpus(step, h);
    }

    /// Churns the corpus side-track under the same mutation event: one
    /// row update plus one append, derived from the mutation's hash
    /// stream and mirrored in the track's shadow. Updates repack the
    /// stored planes (and a resident copy); appends can grow a shard's
    /// planes past their capacity and drop its resident copy — both
    /// paths the restricted judge must then re-verify.
    fn mutate_corpus(&mut self, step: usize, h: u64) {
        let Some(mut track) = self.corpus.take() else {
            return;
        };
        let levels = u64::from(self.encoding.levels());
        let hc = splitmix(h ^ 0xC0_4412);
        let id = (hc % track.shadow.len() as u64) as usize;
        let updated: Vec<u8> = (0..self.cfg.stages)
            .map(|j| (splitmix(hc ^ (j as u64 + 1)) % levels) as u8)
            .collect();
        let appended: Vec<u8> = (0..self.cfg.stages)
            .map(|j| (splitmix(hc ^ 0xA9 ^ (j as u64 + 1)) % levels) as u8)
            .collect();
        let mut faults = Vec::new();
        match track.engine.update_row(id, &updated) {
            Ok(()) => track.shadow[id] = updated,
            Err(e) => faults.push(format!("corpus update of row {id} failed: {e}")),
        }
        match track.engine.append_row(&appended) {
            Ok(_) => track.shadow.push(appended),
            Err(e) => faults.push(format!("corpus append failed: {e}")),
        }
        self.corpus = Some(track);
        self.report.corpus_mutations += 1;
        for what in faults {
            self.fail(step, what);
        }
    }

    /// One corpus-tier step: a pre-filtered search judged by brute
    /// force restricted to the probed shards — the exact re-rank
    /// contract, held under snapshot-cache churn and live mutation.
    fn corpus_step(&mut self, step: usize) {
        let Some(mut track) = self.corpus.take() else {
            return;
        };
        let levels = u64::from(self.encoding.levels());
        let (query, k) = derive_corpus_query(&self.cfg, &track.shadow, step, levels);
        let outcome = corpus_judge(self.encoding, &mut track, &query, k);
        self.corpus = Some(track);
        self.report.corpus_judged += 1;
        if let Err(what) = outcome {
            self.fail(step, what);
        }
    }

    /// Power loss + recovery of the durable track, then the durability
    /// judge: the recovered state must be a bit-exact prefix of the
    /// issued history.
    fn crash_durable(&mut self, step: usize) {
        self.disk.crash();
        let store = match CheckpointStore::open_with("/sim/durable", Arc::new(self.disk.clone())) {
            Ok(s) => s,
            Err(e) => {
                self.fail(step, format!("durable store reopen failed: {e}"));
                return;
            }
        };
        let recovered =
            DurableEngine::recover_with(store, self.cfg.durable_runtime(), Clock::sim(&self.clock));
        let (engine, rep) = match recovered {
            Ok(pair) => pair,
            Err(e) => {
                self.fail(step, format!("durable recovery failed: {e}"));
                return;
            }
        };
        let Some(&offset) = self.ops_at_gen.get(&rep.generation) else {
            self.fail(
                step,
                format!("recovered unknown checkpoint generation {}", rep.generation),
            );
            return;
        };
        let n = offset + rep.ops_replayed;
        if n > self.history.len() {
            self.fail(
                step,
                format!(
                    "recovery replayed {n} ops but only {} were issued",
                    self.history.len()
                ),
            );
            return;
        }
        let mut expected = self.base_rows.clone();
        for (row, values) in &self.history[..n] {
            expected[*row] = values.clone();
        }
        for (row, want) in expected.iter().enumerate() {
            let got = engine
                .engine()
                .array()
                .physical_row(row)
                .and_then(|phys| engine.engine().array().array().stored(phys));
            match got {
                Ok(got) if &got == want => {}
                Ok(got) => self.fail(
                    step,
                    format!("durable row {row} recovered as {got:?}, expected {want:?}"),
                ),
                Err(e) => self.fail(step, format!("durable row {row} unreadable: {e}")),
            }
        }
        // Ops past the replayed prefix were never durable: they are
        // permanently lost, and the oracle forgets them with the world.
        self.history.truncate(n);
        let len = self.history.len();
        self.ops_at_gen.retain(|_, &mut at| at <= len);
        self.durable = engine;
        self.report.durable_crashes += 1;
    }

    /// Runs one client request step: draw the query, push it through
    /// the byte-level wire pipeline (with this step's network faults),
    /// serve, and judge the decoded answer.
    fn run_step_with_faults(&mut self, step: usize, net: &[FrameFault], burst: u32) {
        // A request deferred by an earlier reorder is delivered first,
        // fault-free, and judged against the *current* shadow.
        if let Some((frame, arrived)) = self.deferred.take() {
            self.deliver(step, frame, arrived, false, 0, &[]);
        }

        let levels = u64::from(self.encoding.levels());
        let (query, k) = derive_query(&self.cfg, &self.shadow, step, levels);
        let request = Request::Query {
            query,
            k,
            deadline_us: REQUEST_DEADLINE.as_micros() as u64,
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &request.encode()).expect("Vec sink cannot fail");

        let mut tampered = false;
        let mut duplicate = false;
        for ev in net {
            match *ev {
                FrameFault::TruncateRequest { keep_num } => {
                    let keep = frame.len() * usize::from(keep_num) / 256;
                    frame.truncate(keep);
                }
                FrameFault::BitflipRequest { bit } => {
                    if !frame.is_empty() {
                        let b = bit as usize % (frame.len() * 8);
                        frame[b / 8] ^= 1 << (b % 8);
                        tampered = true;
                    }
                }
                FrameFault::DuplicateRequest => duplicate = true,
                FrameFault::Stall { millis } => {
                    let stall = Duration::from_millis(u64::from(millis));
                    self.clock.advance(stall);
                    if stall >= self.io_timeout {
                        // The server cuts a peer that stalls past its
                        // I/O budget: the frame never arrives.
                        self.report.transport_errors += 1;
                        return;
                    }
                }
                FrameFault::Reorder => {
                    self.deferred = Some((frame, self.clock.now()));
                    self.report.reorders += 1;
                    return;
                }
                // Reply-direction faults are applied in deliver().
                FrameFault::TruncateReply { .. }
                | FrameFault::BitflipReply { .. }
                | FrameFault::DropReply => {}
            }
        }

        let arrived = self.clock.now();
        self.deliver(step, frame.clone(), arrived, tampered, burst, net);
        if duplicate {
            self.deliver(step, frame, arrived, tampered, burst, net);
        }
    }

    /// Server + client halves of one delivery: frame decode, admission,
    /// scatter-gather, reply encode, reply faults, client decode, judge.
    #[allow(clippy::too_many_lines)]
    fn deliver(
        &mut self,
        step: usize,
        frame: Vec<u8>,
        arrived: crate::clock::Timestamp,
        tampered: bool,
        queued_ahead: u32,
        net: &[FrameFault],
    ) {
        self.report.requests += 1;
        if tampered {
            self.report.tampered += 1;
        }
        // -- server: frame + codec ------------------------------------
        let payload = match read_frame(&mut Cursor::new(frame.as_slice())) {
            // A truncation that ate the whole header reads as a clean
            // EOF: the connection just closed.
            Ok(Some(p)) => p,
            Ok(None) | Err(ServeError::Io(_)) => {
                self.report.transport_errors += 1;
                return;
            }
            Err(_) => {
                self.report.protocol_errors += 1;
                return;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(_) => {
                self.report.protocol_errors += 1;
                return;
            }
        };
        let (query, k, deadline) = match request {
            Request::Query {
                query,
                k,
                deadline_us,
            } => {
                let deadline = if deadline_us == 0 {
                    REQUEST_DEADLINE
                } else {
                    Duration::from_micros(deadline_us)
                };
                (query, k, deadline)
            }
            // A bit-flip can lawfully turn a query into a stats/info
            // request; serve it through the real codec (must not
            // panic), nothing to judge.
            Request::Stats => {
                let reply = Reply::Stats(Box::new(StatsReply {
                    front: Default::default(),
                    service: self.service.service_stats(),
                    shards: self.service.shard_statuses(),
                    corpus: self.service.corpus_status(),
                }));
                let bytes = reply.encode();
                if Reply::decode(&bytes).is_err() {
                    self.fail(step, "stats reply failed its own roundtrip".into());
                }
                return;
            }
            Request::Info => {
                let reply = Reply::Info(InfoReply {
                    stages: self.service.stages(),
                    levels: usize::from(self.encoding.levels()),
                    rows: self.shadow.len(),
                    shards: self.service.map().shards(),
                });
                if Reply::decode(&reply.encode()).is_err() {
                    self.fail(step, "info reply failed its own roundtrip".into());
                }
                return;
            }
        };

        // -- server: admission (queue residency burns the budget) -----
        if queued_ahead as usize >= self.queue_capacity {
            self.reply_to_client(
                step,
                Reply::Overloaded(ShedReason::QueueFull),
                None,
                true,
                net,
            );
            return;
        }
        if queued_ahead > 0 {
            self.clock.advance(QUEUE_TICK * queued_ahead);
        }
        let queued = self.clock.now().saturating_duration_since(arrived);
        let Some(remaining) = deadline.checked_sub(queued).filter(|r| !r.is_zero()) else {
            self.reply_to_client(
                step,
                Reply::Overloaded(ShedReason::DeadlineExpired),
                None,
                true,
                net,
            );
            return;
        };

        // -- server: scatter-gather -----------------------------------
        let reply = match self.service.search_topk(&query, k, remaining) {
            Ok(mut topk) => {
                let complete =
                    !topk.partial && !topk.degraded && topk.shards_answered == topk.shards_total;
                if complete && self.sabotage_armed {
                    // Self-test: corrupt a winning distance. The answer
                    // judge MUST flag this.
                    self.sabotage_armed = false;
                    if let Some(first) = topk.neighbors.first_mut() {
                        first.0 += 1;
                    }
                }
                Reply::TopK(topk)
            }
            Err(ServeError::Overloaded(reason)) => Reply::Overloaded(reason),
            Err(e) => Reply::Error {
                class: e.class(),
                msg: e.to_string(),
            },
        };
        self.reply_to_client(step, reply, Some((query, k)), tampered, net);
    }

    /// Reply path: encode, apply reply-direction faults, client decode,
    /// then the answer judge on complete top-k answers.
    fn reply_to_client(
        &mut self,
        step: usize,
        reply: Reply,
        judged_query: Option<(Vec<u8>, usize)>,
        tampered: bool,
        net: &[FrameFault],
    ) {
        let mut frame = Vec::new();
        write_frame(&mut frame, &reply.encode()).expect("Vec sink cannot fail");
        let mut reply_tampered = tampered;
        for fault in net {
            match *fault {
                FrameFault::TruncateReply { keep_num } => {
                    let keep = frame.len() * usize::from(keep_num) / 256;
                    frame.truncate(keep);
                }
                FrameFault::BitflipReply { bit } if !frame.is_empty() => {
                    let b = bit as usize % (frame.len() * 8);
                    frame[b / 8] ^= 1 << (b % 8);
                    reply_tampered = true;
                }
                FrameFault::DropReply => {
                    self.report.transport_errors += 1;
                    return;
                }
                _ => {}
            }
        }

        // -- client ----------------------------------------------------
        let payload = match read_frame(&mut Cursor::new(frame.as_slice())) {
            Ok(Some(p)) => p,
            Ok(None) | Err(ServeError::Io(_)) => {
                self.report.transport_errors += 1;
                return;
            }
            Err(_) => {
                self.report.protocol_errors += 1;
                return;
            }
        };
        let decoded = match Reply::decode(&payload) {
            Ok(r) => r,
            Err(_) => {
                self.report.protocol_errors += 1;
                return;
            }
        };
        match decoded {
            Reply::TopK(topk) => {
                if topk.partial {
                    self.report.partial += 1;
                } else if topk.degraded {
                    self.report.degraded += 1;
                } else {
                    self.report.complete += 1;
                }
                let complete =
                    !topk.partial && !topk.degraded && topk.shards_answered == topk.shards_total;
                if complete && !reply_tampered {
                    if let Some((query, k)) = judged_query {
                        self.judge(step, &query, k, &topk.neighbors);
                    }
                }
            }
            Reply::Overloaded(_) => self.report.shed += 1,
            Reply::Error { .. } => self.report.server_errors += 1,
            Reply::Stats(_) | Reply::Info(_) => {}
        }
    }

    /// The answer judge: a complete answer must match brute force over
    /// the shadow corpus bit-for-bit.
    fn judge(&mut self, step: usize, query: &[u8], k: usize, got: &[(usize, usize)]) {
        self.report.judged += 1;
        let expected = match brute_force_topk(&self.shadow, self.encoding, query, k) {
            Ok(e) => e,
            Err(e) => {
                self.fail(step, format!("oracle rejected the query: {e}"));
                return;
            }
        };
        if got != expected.as_slice() {
            self.fail(
                step,
                format!(
                    "silent wrong answer: served {got:?}, brute force says {expected:?} \
                     (query {query:?}, k={k})"
                ),
            );
        }
    }

    fn finish(mut self) -> SimReport {
        self.report.failovers = self.service.service_stats().failovers;
        for shard in self.service.shard_statuses() {
            self.report.scrub_heals += shard.stats.scrub_heals;
            self.report.wear_rotations += shard.stats.wear_rotations;
            self.report.refresh_rewrites += shard.stats.refresh_rewrites;
        }
        if let Some(track) = &self.corpus {
            self.report.corpus_evictions = track.engine.stats().corpus_cache_evictions;
        }
        self.report
    }
}

/// Derives the initial corpus from the seed: `rows × stages` elements
/// uniform over the encoding's levels.
fn derive_corpus(cfg: &SimConfig, encoding: Encoding) -> Vec<Vec<u8>> {
    let levels = u64::from(encoding.levels());
    (0..cfg.rows)
        .map(|r| {
            (0..cfg.stages)
                .map(|j| {
                    (splitmix(cfg.seed ^ 0xC0_5EED ^ ((r as u64) << 20 | j as u64)) % levels) as u8
                })
                .collect()
        })
        .collect()
}

/// Derives step `step`'s query (a perturbed shadow row) and `k` — pure
/// in `(seed, step)`, so shrinking the schedule never changes the
/// client workload.
fn derive_query(cfg: &SimConfig, shadow: &[Vec<u8>], step: usize, levels: u64) -> (Vec<u8>, usize) {
    let h = splitmix(cfg.seed ^ 0x9_0E21 ^ (step as u64));
    let row = (h % shadow.len() as u64) as usize;
    let mut query = shadow[row].clone();
    let tweaks = (splitmix(h) % 3) as usize;
    for t in 0..tweaks {
        let hh = splitmix(h ^ (0xA0 + t as u64));
        let j = (hh % query.len() as u64) as usize;
        query[j] = ((u64::from(query[j]) + 1 + hh % (levels - 1)) % levels) as u8;
    }
    let k = 1 + (splitmix(h ^ 0xB0) % 4) as usize;
    (query, k)
}

/// Derives the corpus side-track's rows from the seed: clustered
/// (prototype plus per-element noise) rather than uniform, so the
/// coarse quantizer has real structure to find and the probed shards
/// actually concentrate the near neighbors.
fn derive_clustered_rows(cfg: &SimConfig, encoding: Encoding) -> Vec<Vec<u8>> {
    let levels = u64::from(encoding.levels());
    let protos = (cfg.corpus_rows / 8).max(2) as u64;
    (0..cfg.corpus_rows)
        .map(|r| {
            let p = splitmix(cfg.seed ^ 0xC1 ^ (r as u64)) % protos;
            (0..cfg.stages)
                .map(|j| {
                    let base = splitmix(cfg.seed ^ 0x9807_0770 ^ (p << 20 | j as u64)) % levels;
                    let n = splitmix(cfg.seed ^ 0x0020_715E ^ ((r as u64) << 20 | j as u64));
                    let v = if n % 100 < 20 {
                        (n >> 8) % levels
                    } else {
                        base
                    };
                    v as u8
                })
                .collect()
        })
        .collect()
}

/// Derives step `step`'s corpus-tier query (a perturbed stored row)
/// and `k` — pure in `(seed, step)`, like [`derive_query`], so the
/// side-track's workload is stable under schedule shrinking.
fn derive_corpus_query(
    cfg: &SimConfig,
    shadow: &[Vec<u8>],
    step: usize,
    levels: u64,
) -> (Vec<u8>, usize) {
    let h = splitmix(cfg.seed ^ 0xC0_9E21 ^ (step as u64));
    let row = (h % shadow.len() as u64) as usize;
    let mut query = shadow[row].clone();
    let tweaks = (splitmix(h) % 3) as usize;
    for t in 0..tweaks {
        let hh = splitmix(h ^ (0xC0 + t as u64));
        let j = (hh % query.len() as u64) as usize;
        query[j] = ((u64::from(query[j]) + 1 + hh % (levels - 1)) % levels) as u8;
    }
    let k = 1 + (splitmix(h ^ 0xD0) % 4) as usize;
    (query, k)
}

/// The corpus-tier judge: the two-tier answer must equal brute force
/// restricted to the probed shards, bit-for-bit. Returns the violation
/// description on mismatch.
fn corpus_judge(
    encoding: Encoding,
    track: &mut CorpusTrack,
    query: &[u8],
    k: usize,
) -> Result<(), String> {
    let (got, probed) = track
        .engine
        .search_topk_probed(query, k)
        .map_err(|e| format!("corpus search failed: {e}"))?;
    let mut expected = Vec::new();
    for &c in &probed {
        for &id in track.engine.shard_ids(c) {
            let id = id as usize;
            let d = encoding
                .hamming(&track.shadow[id], query)
                .map_err(|e| format!("corpus oracle rejected row {id}: {e}"))?;
            expected.push((d, id));
        }
    }
    expected.sort_unstable();
    expected.truncate(k);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "corpus tier answered {got:?}, restricted brute force says {expected:?} \
             (probed shards {probed:?}, k={k})"
        ))
    }
}

// ---------------------------------------------------------------------------
// Run / replay / shrink
// ---------------------------------------------------------------------------

/// Runs one world under an explicit schedule. Pure: the same
/// `(cfg, schedule)` always returns the same report.
///
/// # Errors
///
/// [`ServeError`] only for world-construction failures (bad geometry);
/// judged violations land in the report's `failures`, not here.
pub fn run_with_schedule(
    cfg: &SimConfig,
    schedule: &FaultSchedule,
) -> Result<SimReport, ServeError> {
    let mut world = SimWorld::new(cfg)?;
    for step in 0..cfg.steps {
        let mut net = Vec::new();
        let mut burst = 0u32;
        for (at, ev) in &schedule.events {
            if *at == step {
                if let FaultEvent::Burst(extra) = ev {
                    burst = *extra;
                }
                world.apply_event(step, *ev, &mut net);
            }
        }
        world.clock.advance(STEP_TICK);
        world.report.steps += 1;
        world.run_step_with_faults(step, &net, burst);
        world.corpus_step(step);
    }
    Ok(world.finish())
}

/// Runs one world from its seed (schedule generated internally).
///
/// # Errors
///
/// As [`run_with_schedule`].
pub fn run_sim(cfg: &SimConfig) -> Result<SimReport, ServeError> {
    run_with_schedule(cfg, &generate_schedule(cfg))
}

/// Greedy event-deletion shrinking (ddmin-style): repeatedly delete
/// chunks of events, keeping any deletion that still reproduces a
/// failure, until single-event deletions stop helping.
///
/// # Errors
///
/// As [`run_with_schedule`].
pub fn shrink(cfg: &SimConfig, schedule: &FaultSchedule) -> Result<FaultSchedule, ServeError> {
    let mut events = schedule.events.clone();
    let mut chunk = (events.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < events.len() {
            let mut candidate = events.clone();
            let end = (i + chunk).min(candidate.len());
            candidate.drain(i..end);
            let trial = FaultSchedule { events: candidate };
            if run_with_schedule(cfg, &trial)?.failed() {
                events = trial.events;
                reduced = true;
            } else {
                i += chunk;
            }
        }
        if chunk > 1 {
            chunk = (chunk / 2).max(1);
        } else if !reduced {
            break;
        }
    }
    Ok(FaultSchedule { events })
}

/// The top-level entry point behind `tdam-sim simulate --seed N`: run
/// the seed's world, and on failure verify determinism (replay twice)
/// and emit a minimized schedule artifact.
///
/// # Errors
///
/// As [`run_with_schedule`].
pub fn simulate(cfg: &SimConfig) -> Result<SimOutcome, ServeError> {
    let schedule = generate_schedule(cfg);
    let report = run_with_schedule(cfg, &schedule)?;
    if !report.failed() {
        return Ok(SimOutcome {
            report,
            schedule,
            failure: None,
        });
    }
    let replay = run_with_schedule(cfg, &schedule)?;
    let replay_consistent = replay == report;
    let minimized = shrink(cfg, &schedule)?;
    let minimized_report = run_with_schedule(cfg, &minimized)?;
    let first_failure = minimized_report
        .failures
        .first()
        .cloned()
        .unwrap_or_else(|| report.failures[0].clone());
    Ok(SimOutcome {
        failure: Some(FailureArtifact {
            seed: cfg.seed,
            original_events: schedule.events.len(),
            minimized,
            first_failure,
            replay_consistent,
        }),
        report,
        schedule,
    })
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// Aggregate outcome of a multi-seed campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimCampaignReport {
    /// Scenarios run.
    pub scenarios: usize,
    /// Total requests delivered.
    pub requests: usize,
    /// Complete, judged-exact answers.
    pub complete: usize,
    /// Honestly flagged partial/degraded answers.
    pub flagged: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Wire-level delivery failures.
    pub transport_errors: usize,
    /// Protocol violations detected by the codec.
    pub protocol_errors: usize,
    /// Live mutations applied.
    pub mutations: usize,
    /// Serving-shard crashes injected.
    pub shard_crashes: usize,
    /// Durable power losses survived.
    pub durable_crashes: usize,
    /// Aging events applied.
    pub ages: usize,
    /// Deep margin-drift events applied (age + paired heal scrub).
    pub drifts: usize,
    /// Stuck cells injected into shard arrays.
    pub cell_faults: usize,
    /// Worker-panic injections armed on shard engines.
    pub panics_armed: usize,
    /// Standby failovers performed.
    pub failovers: usize,
    /// Retention-scrub heals.
    pub scrub_heals: usize,
    /// Wear-leveling rotations onto spares.
    pub wear_rotations: usize,
    /// Disturb-budget refresh rewrites.
    pub refresh_rewrites: usize,
    /// Answers judged against brute force.
    pub judged: usize,
    /// Corpus-tier answers judged against restricted brute force.
    pub corpus_judged: usize,
    /// Corpus-tier mutations applied.
    pub corpus_mutations: usize,
    /// Corpus-tier snapshot-cache evictions.
    pub corpus_evictions: usize,
    /// Seeds whose run recorded a violation (must be empty).
    pub failing_seeds: Vec<u64>,
}

/// The seed of a campaign's `i`-th world. The base seed is mixed before
/// the index is folded in, so campaigns from nearby base seeds run
/// disjoint worlds: `splitmix(base ^ i)` hands base seeds 1 and 2 the
/// same inputs in another order, so they would share almost every world.
fn world_seed(base_seed: u64, i: usize) -> u64 {
    splitmix(splitmix(base_seed) ^ i as u64)
}

/// Runs `scenarios` independent worlds with seeds derived from
/// `base_seed`, aggregating their reports. Every failing seed is
/// recorded for replay via [`simulate`].
///
/// # Errors
///
/// As [`run_with_schedule`].
pub fn run_sim_campaign(
    template: &SimConfig,
    base_seed: u64,
    scenarios: usize,
) -> Result<SimCampaignReport, ServeError> {
    let mut agg = SimCampaignReport::default();
    for i in 0..scenarios {
        let mut cfg = *template;
        cfg.seed = world_seed(base_seed, i);
        let report = run_sim(&cfg)?;
        agg.scenarios += 1;
        agg.requests += report.requests;
        agg.complete += report.complete;
        agg.flagged += report.partial + report.degraded;
        agg.shed += report.shed;
        agg.transport_errors += report.transport_errors;
        agg.protocol_errors += report.protocol_errors;
        agg.mutations += report.mutations;
        agg.shard_crashes += report.shard_crashes;
        agg.durable_crashes += report.durable_crashes;
        agg.ages += report.ages;
        agg.drifts += report.drifts;
        agg.cell_faults += report.cell_faults;
        agg.panics_armed += report.panics_armed;
        agg.failovers += report.failovers;
        agg.scrub_heals += report.scrub_heals;
        agg.wear_rotations += report.wear_rotations;
        agg.refresh_rewrites += report.refresh_rewrites;
        agg.judged += report.judged;
        agg.corpus_judged += report.corpus_judged;
        agg.corpus_mutations += report.corpus_mutations;
        agg.corpus_evictions += report.corpus_evictions;
        if report.failed() {
            agg.failing_seeds.push(cfg.seed);
        }
    }
    Ok(agg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearby_base_seeds_share_no_world() {
        let a: std::collections::HashSet<u64> = (0..1000).map(|i| world_seed(1, i)).collect();
        assert_eq!(a.len(), 1000);
        assert!((0..1000).all(|i| !a.contains(&world_seed(2, i))));
    }
}
