//! Two-tier million-row search: a seeded coarse centroid pre-filter in
//! front of the exact packed TD-AM re-rank tier, with a bounded LRU
//! cache of per-shard packed snapshots.
//!
//! The paper's TD-AM arrays are physically hundreds of rows, but the
//! serving north star is corpora of millions. Brute force is linear in
//! rows, so a 1M-row corpus costs ~8000× the 128-row figure per query.
//! This module applies the standard vector-store shape to the
//! time-domain fabric (the same decomposition FeFET search-engine work
//! such as COSIME uses — the array is a building block, not the whole
//! index):
//!
//! 1. **Cluster** — [`CorpusBuilder::build`] groups rows into
//!    shard-sized posting lists with a k-means-style quantizer in the
//!    element-Hamming space of the multi-bit codes. Centroids are
//!    *modes* (per-position majority vote, ties to the lowest level):
//!    the mode is the 1-center of a cluster under element Hamming
//!    distance, and unlike a mean it is itself a valid multi-bit code,
//!    so centroids can be stored in a TD-AM row verbatim. Seeding and
//!    sampling follow the repo's SplitMix64 discipline — the whole
//!    index is a pure function of (corpus, [`CorpusConfig::seed`]).
//! 2. **Probe** — a query first scans the *centroid array* (one
//!    [`PackedArray`] of `k ≈ rows / shard_rows` rows) with the
//!    existing XOR→popcount kernel and keeps the
//!    [`CorpusConfig::nprobe`] nearest shards. For 1M rows in
//!    4096-row shards this is a 245-row scan — noise next to brute
//!    force's 1M.
//! 3. **Re-rank** — surviving shards are scanned *exactly* on their
//!    resident packed snapshots, and every decoded distance streams
//!    into one bounded top-`k` select (no candidate list, no sort);
//!    distances and `(distance, id)` tie-breaking are bit-identical to
//!    [`crate::serve::brute_force_topk`] restricted to the probed
//!    shards (pinned by `tests/corpus.rs` across every kernel rung).
//!
//! # Storage and residency
//!
//! As the TD-AM's cells hold codes as the search reads them, a shard is
//! stored as the kernel scans it: one [`PackedArray`] of lane planes
//! (its length rounded up to 64 rows) plus its ids. Placement,
//! [`CorpusEngine::update_row`] and [`CorpusEngine::append_row`] write
//! the planes directly; checkpoints unpack them to codes (format v5).
//!
//! Only hot shards stay resident: snapshots live in an LRU cache with a
//! resident-byte budget ([`CorpusConfig::cache_budget_bytes`]); hits,
//! misses, evictions, and cumulative page-in time surface through the
//! corpus counters of [`RuntimeStats`]. A miss copies the shard's stored
//! planes (~64 KiB at 4096 rows × 32 stages × 2 bits), so an evicted
//! shard comes back **bit-identically**. Writes land in the storage and
//! in a resident copy; an append that outgrows the copy drops it.
//!
//! # Recall
//!
//! The pre-filter is lossy by design: a true top-`k` neighbour living
//! in an unprobed shard is missed. On *clusterable* data (the regime
//! the quantizer exists for) recall@10 ≥ 0.95 at small `nprobe`; on
//! structureless uniform data every shard looks alike and recall
//! degrades toward `nprobe / k`. See ARCHITECTURE.md ("two-tier corpus
//! search") for the cost model and the measured nprobe/recall
//! trade-off.
//!
//! # Examples
//!
//! ```
//! use tdam::corpus::{CorpusBuilder, CorpusConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = CorpusConfig::paper_default();
//! cfg.array = cfg.array.with_stages(8);
//! cfg.shard_rows = 4;
//! cfg.nprobe = 2;
//! let mut builder = CorpusBuilder::new(cfg)?;
//! let rows: Vec<Vec<u8>> = (0..16)
//!     .map(|i| (0..8).map(|j| ((i / 8 + j) % 4) as u8).collect())
//!     .collect();
//! builder.append_rows(&rows)?;
//! let mut corpus = builder.build()?;
//! let top = corpus.search_topk(&rows[3], 2)?;
//! // The query equals rows 0..8; an exact match survives the
//! // pre-filter, and the distance-0 tie breaks to the lowest id.
//! assert_eq!(top[0], (0, 0));
//! # Ok(())
//! # }
//! ```

use crate::clock::Clock;
use crate::config::ArrayConfig;
use crate::encoding::Encoding;
use crate::engine::{SearchMetrics, SimilarityEngine};
use crate::packed::{PackedArray, PackedKernel, PackedScratch};
use crate::parallel::run_chunked_scratch;
use crate::runtime::RuntimeStats;
use crate::tdc::CounterTdc;
use crate::timing::StageTiming;
use crate::TdamError;
use std::collections::{BinaryHeap, HashMap};

/// Preference-list length of the capacity-balanced placement: each row
/// ranks its nearest `min(k, PREFERRED)` centroids and takes the first
/// with spare capacity (overflow falls back to a linear scan).
const PREFERRED: usize = 16;

/// SplitMix64 — the repo-wide seeding primitive (identical constants to
/// [`crate::sim`] and the packed tests).
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Plane capacity for a shard of `len` rows: the next multiple of 64
/// (at least one). Quantizing keeps append headroom — a shard grows to
/// its capacity through single-row writes before its planes are
/// re-strided — and makes a shard's footprint a pure function of `len`.
fn capacity_for(len: usize) -> usize {
    len.div_ceil(64).max(1) * 64
}

/// Bounded k-smallest selection over `(distance, id)` pairs — the
/// digital form of the TD-AM deciding a search by which delay chains
/// finish first. A max-heap keeps at most `k` pairs and caches its
/// worst distance, so a candidate farther than that is dropped with
/// one integer compare and only a contender touches the heap. Full
/// tuple order breaks ties (the lower id wins an equal distance), so
/// the answer ranks exactly as [`crate::serve::brute_force_topk`]
/// ranks it, whatever order the candidates arrive in.
///
/// The heap grows with what it keeps, never with `k` itself: `k`
/// arrives off the wire as a `u32`, and sizing by it would let one
/// request ask for tens of GiB.
#[derive(Debug)]
pub(crate) struct TopKSelect {
    k: usize,
    heap: BinaryHeap<(usize, usize)>,
    /// Worst kept distance once `k` pairs are kept, `usize::MAX` before.
    bound: usize,
}

impl TopKSelect {
    /// An empty selector for the `k` smallest pairs.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::new(),
            bound: usize::MAX,
        }
    }

    /// Offers one candidate.
    #[inline]
    pub(crate) fn push(&mut self, distance: usize, id: usize) {
        if distance <= self.bound {
            self.admit((distance, id));
        }
    }

    fn admit(&mut self, cand: (usize, usize)) {
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else {
            match self.heap.peek_mut() {
                Some(mut worst) if cand < *worst => *worst = cand,
                _ => return,
            }
        }
        if self.heap.len() == self.k {
            self.bound = self.heap.peek().map_or(usize::MAX, |w| w.0);
        }
    }

    /// The kept pairs, ascending.
    pub(crate) fn into_sorted(self) -> Vec<(usize, usize)> {
        self.heap.into_sorted_vec()
    }
}

/// Answers of a probed search: exact `(distance, id)` pairs sorted
/// ascending (ties toward the lower id) plus the probed shard indices
/// in centroid rank order.
pub type ProbedTopK = (Vec<(usize, usize)>, Vec<usize>);

/// Configuration of the two-tier corpus engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusConfig {
    /// Per-shard array template: stages (vector width), encoding, and
    /// the technology/timing parameters every tier's packed snapshots
    /// are calibrated with. The template's `rows` field is ignored —
    /// shard sizes come from `shard_rows`.
    pub array: ArrayConfig,
    /// Target rows per shard (posting-list capacity of the balanced
    /// placement). The paper-default 4096 keeps one shard's snapshot
    /// ~L2-sized at 128 stages / 2 bits.
    pub shard_rows: usize,
    /// Candidate shards scanned exactly per query. Recall rises and
    /// speedup falls monotonically in `nprobe`; see ARCHITECTURE.md for
    /// the measured trade-off.
    pub nprobe: usize,
    /// Refinement iterations of the k-modes quantizer (0 = keep the
    /// seeded initial centroids).
    pub train_iters: usize,
    /// Rows sampled (deterministic stride) per training iteration; the
    /// final placement always considers every row.
    pub train_sample: usize,
    /// Resident-byte budget of the shard-snapshot LRU cache. The
    /// hottest shard always stays resident even when it alone exceeds
    /// the budget — an unservable cache is worse than an over-budget
    /// one.
    pub cache_budget_bytes: usize,
    /// Seed of the quantizer's initial centroids (SplitMix64 stream).
    pub seed: u64,
    /// Worker threads for clustering scans (`None` = all cores), as
    /// [`crate::parallel::resolve_threads`].
    pub threads: Option<usize>,
}

impl CorpusConfig {
    /// Defaults matched to the paper's array template: 32-stage 2-bit
    /// rows, 4096-row shards, 8 probes, 4 training iterations over a
    /// 64k sample, and a 64 MiB snapshot cache.
    pub fn paper_default() -> Self {
        Self {
            array: ArrayConfig::paper_default(),
            shard_rows: 4096,
            nprobe: 8,
            train_iters: 4,
            train_sample: 1 << 16,
            cache_budget_bytes: 64 << 20,
            seed: 0x7DA1_C0DE,
            threads: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::InvalidConfig`] for a zero `shard_rows`,
    /// `nprobe`, or `train_sample`, or an invalid array template
    /// (ignoring its `rows` field).
    pub fn validate(&self) -> Result<(), TdamError> {
        self.array.with_rows(1).validate()?;
        if self.shard_rows == 0 {
            return Err(TdamError::InvalidConfig {
                what: "shard_rows must be at least 1",
            });
        }
        if self.nprobe == 0 {
            return Err(TdamError::InvalidConfig {
                what: "nprobe must be at least 1",
            });
        }
        if self.train_sample == 0 {
            return Err(TdamError::InvalidConfig {
                what: "train_sample must be at least 1",
            });
        }
        Ok(())
    }
}

/// Streaming bulk-ingestion front of the corpus engine: rows accumulate
/// (validated) in arrival order, then [`CorpusBuilder::build`] clusters
/// them and constructs the [`CorpusEngine`]. Row ids are assignment
/// order (the first appended row is id 0), so results compare directly
/// against brute force over the ingested sequence.
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    cfg: CorpusConfig,
    codes: Vec<u8>,
    rows: usize,
}

impl CorpusBuilder {
    /// An empty builder for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::InvalidConfig`] for an invalid `cfg`.
    pub fn new(cfg: CorpusConfig) -> Result<Self, TdamError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            codes: Vec::new(),
            rows: 0,
        })
    }

    /// Appends a batch of rows, returning the total ingested so far.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] for a row whose length is
    /// not the template's stage count and [`TdamError::ValueOutOfRange`]
    /// for codes outside the encoding; rows before the offending one
    /// remain ingested.
    pub fn append_rows(&mut self, rows: &[Vec<u8>]) -> Result<usize, TdamError> {
        for row in rows {
            if row.len() != self.cfg.array.stages {
                return Err(TdamError::LengthMismatch {
                    got: row.len(),
                    expected: self.cfg.array.stages,
                });
            }
            self.cfg.array.encoding.validate(row)?;
            self.codes.extend_from_slice(row);
            self.rows += 1;
        }
        Ok(self.rows)
    }

    /// Appends rows from a flat row-major slab (`rows · stages` codes) —
    /// the allocation-free path million-row ingest benchmarks drive.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] when `codes` is not a whole
    /// number of rows and [`TdamError::ValueOutOfRange`] for invalid
    /// codes (nothing is ingested on error).
    pub fn append_flat(&mut self, codes: &[u8]) -> Result<usize, TdamError> {
        let stages = self.cfg.array.stages;
        if !codes.len().is_multiple_of(stages) {
            return Err(TdamError::LengthMismatch {
                got: codes.len(),
                expected: stages,
            });
        }
        self.cfg.array.encoding.validate(codes)?;
        self.codes.extend_from_slice(codes);
        self.rows += codes.len() / stages;
        Ok(self.rows)
    }

    /// Rows ingested so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Clusters the ingested rows and builds the engine (wall clock).
    ///
    /// # Errors
    ///
    /// As [`CorpusBuilder::build_with_clock`].
    pub fn build(self) -> Result<CorpusEngine, TdamError> {
        self.build_with_clock(Clock::wall())
    }

    /// Clusters the ingested rows and builds the engine on an explicit
    /// clock (the deterministic simulation passes its virtual clock so
    /// compile-time accounting stays replayable).
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::InvalidConfig`] for an empty corpus and
    /// propagates timing-calibration errors from the array template.
    pub fn build_with_clock(self, clock: Clock) -> Result<CorpusEngine, TdamError> {
        let Self { cfg, codes, rows } = self;
        if rows == 0 {
            return Err(TdamError::InvalidConfig {
                what: "corpus must hold at least one row before build",
            });
        }
        let stages = cfg.array.stages;
        let encoding = cfg.array.encoding;
        let timing = StageTiming::analytic(&cfg.array.tech, cfg.array.c_load)?;
        let tdc = CounterTdc::matched(&timing)?;
        let k = rows.div_ceil(cfg.shard_rows);

        // Seeded initial centroids: k SplitMix64-picked rows.
        let mut centroids = Vec::with_capacity(k * stages);
        for c in 0..k {
            let r = (splitmix(cfg.seed ^ 0xCE27_701D ^ c as u64) % rows as u64) as usize;
            centroids.extend_from_slice(&codes[r * stages..(r + 1) * stages]);
        }

        // k-modes refinement on a deterministic stride sample: assign
        // sample rows to their nearest centroid with the packed kernel,
        // then recenter each cluster on its per-position mode (ties to
        // the lowest level; an empty cluster keeps its centroid).
        let sample_n = cfg.train_sample.min(rows);
        let stride = rows / sample_n;
        let sample_idx = |i: usize| i * stride;
        let levels = encoding.levels() as usize;
        for _ in 0..cfg.train_iters {
            let cp = PackedArray::from_codes(encoding, stages, &timing, &tdc, &centroids);
            let assign: Vec<usize> = run_chunked_scratch(
                sample_n,
                cfg.threads,
                || cp.scratch(),
                |scratch, i| {
                    let r = sample_idx(i);
                    Ok::<usize, TdamError>(nearest_row(
                        &cp,
                        &codes[r * stages..(r + 1) * stages],
                        scratch,
                    ))
                },
            )?;
            let mut counts = vec![0u32; k * stages * levels];
            let mut members = vec![0u32; k];
            for (i, &c) in assign.iter().enumerate() {
                members[c] += 1;
                let r = sample_idx(i);
                for (j, &v) in codes[r * stages..(r + 1) * stages].iter().enumerate() {
                    counts[(c * stages + j) * levels + v as usize] += 1;
                }
            }
            for c in 0..k {
                if members[c] == 0 {
                    continue;
                }
                for j in 0..stages {
                    let base = (c * stages + j) * levels;
                    let mut best = 0usize;
                    for v in 1..levels {
                        if counts[base + v] > counts[base + best] {
                            best = v;
                        }
                    }
                    centroids[c * stages + j] = best as u8;
                }
            }
        }

        // Capacity-balanced placement over the final centroids: every
        // row ranks its nearest PREFERRED centroids in parallel, then a
        // sequential greedy pass places each row in its best cluster
        // with spare capacity. Total capacity k·shard_rows ≥ rows, so
        // placement always succeeds.
        let centroid_packed = PackedArray::from_codes(encoding, stages, &timing, &tdc, &centroids);
        let t = k.min(PREFERRED);
        let prefs: Vec<Vec<u32>> = run_chunked_scratch(
            rows,
            cfg.threads,
            || centroid_packed.scratch(),
            |scratch, r| {
                Ok::<Vec<u32>, TdamError>(nearest_rows(
                    &centroid_packed,
                    &codes[r * stages..(r + 1) * stages],
                    scratch,
                    t,
                ))
            },
        )?;
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut locate = Vec::with_capacity(rows);
        for (r, pref) in prefs.iter().enumerate() {
            let preferred = pref
                .iter()
                .map(|&c| c as usize)
                .find(|&c| members[c].len() < cfg.shard_rows);
            let c = preferred.unwrap_or_else(|| {
                (0..k)
                    .find(|&c| members[c].len() < cfg.shard_rows)
                    .expect("total shard capacity covers every row")
            });
            locate.push((c as u32, members[c].len() as u32));
            members[c].push(r as u32);
        }
        // The placement's rows go straight into their shard's planes.
        let shards = members
            .into_iter()
            .map(|ids| {
                Shard::pack(&centroid_packed, ids, |_, r| {
                    &codes[r as usize * stages..(r as usize + 1) * stages]
                })
            })
            .collect();

        let centroid_scratch = centroid_packed.scratch();
        let rerank_scratch = centroid_packed.scratch();
        Ok(CorpusEngine {
            cfg,
            encoding,
            stages,
            timing,
            centroids,
            centroid_packed,
            centroid_scratch,
            rerank_scratch,
            shards,
            locate,
            resident: HashMap::new(),
            tick: 0,
            resident_bytes: 0,
            stats: RuntimeStats::default(),
            clock,
        })
    }
}

/// Nearest centroid of `query` in `(distance, index)` order — the same
/// tie-breaking as every top-k path in the repo.
fn nearest_row(cp: &PackedArray, query: &[u8], scratch: &mut PackedScratch) -> usize {
    cp.expand_query(query, scratch);
    cp.mismatch_counts(scratch);
    let mut best = (usize::MAX, 0usize);
    for c in 0..cp.rows() {
        let (e, o) = cp.counts(scratch, 0, c);
        if e + o < best.0 {
            best = (e + o, c);
        }
    }
    best.1
}

/// The `t` nearest centroids of `query`, ranked by `(distance, index)`.
fn nearest_rows(cp: &PackedArray, query: &[u8], scratch: &mut PackedScratch, t: usize) -> Vec<u32> {
    cp.expand_query(query, scratch);
    cp.mismatch_counts(scratch);
    let mut ranked: Vec<(usize, u32)> = (0..cp.rows())
        .map(|c| {
            let (e, o) = cp.counts(scratch, 0, c);
            (e + o, c as u32)
        })
        .collect();
    // Keys are unique (the index breaks ties), so partitioning off the
    // `t` smallest before sorting them ranks exactly as a full sort.
    if t < ranked.len() {
        ranked.select_nth_unstable(t);
        ranked.truncate(t);
    }
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, c)| c).collect()
}

/// One shard in its persisted form: row codes (flat, slot-major) and
/// the engine-global id stored at each slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterData {
    pub(crate) codes: Vec<u8>,
    pub(crate) ids: Vec<u32>,
}

/// One shard as the engine stores it: the packed lane planes of its
/// rows (padded to [`capacity_for`] its length with all-zero rows whose
/// slots are never consumed) and the engine-global id at each slot.
#[derive(Debug, Clone)]
struct Shard {
    planes: PackedArray,
    ids: Vec<u32>,
}

impl Shard {
    /// Packs the shard holding `ids`, slot by slot from `row(slot, id)`,
    /// into planes that share `template`'s calibration tables.
    fn pack<'a>(
        template: &PackedArray,
        ids: Vec<u32>,
        row: impl Fn(usize, u32) -> &'a [u8],
    ) -> Self {
        let mut planes = template.blank_like(capacity_for(ids.len()));
        for (slot, &id) in ids.iter().enumerate() {
            planes.repack_row_codes(slot, row(slot, id));
        }
        Self { planes, ids }
    }
}

/// One resident shard snapshot — a copy of the shard's planes — plus
/// its recency tick.
#[derive(Debug)]
struct Resident {
    packed: PackedArray,
    /// Value of the engine's recency clock at this shard's last
    /// page-in or cache hit; the minimum is the least recently used.
    tick: u64,
}

/// Cache/placement counters and geometry of a [`CorpusEngine`], the
/// view surfaced through the serve stats endpoint and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusTierStatus {
    /// Total rows indexed.
    pub rows: usize,
    /// Number of shards (clusters).
    pub clusters: usize,
    /// Candidate shards scanned exactly per query.
    pub nprobe: usize,
    /// Shard snapshots currently resident.
    pub resident: usize,
    /// Bytes the resident snapshots hold.
    pub resident_bytes: usize,
    /// Configured resident-byte budget.
    pub budget_bytes: usize,
    /// Cumulative counters (cache hits/misses/evictions, page-in time,
    /// queries, writes, surgical repacks).
    pub stats: RuntimeStats,
}

/// The two-tier corpus search engine. See the [module docs](self).
#[derive(Debug)]
pub struct CorpusEngine {
    cfg: CorpusConfig,
    encoding: Encoding,
    stages: usize,
    timing: StageTiming,
    /// Flat `clusters · stages` centroid codes (the checkpointable
    /// centroid table).
    centroids: Vec<u8>,
    /// The coarse tier: one packed array holding every centroid. Every
    /// shard's planes share its calibration tables.
    centroid_packed: PackedArray,
    centroid_scratch: PackedScratch,
    /// The one re-rank scratch every probed shard expands and counts
    /// into ([`PackedScratch::fit`] grows it to the tallest snapshot),
    /// so its count buffers stay cache-hot across shards.
    rerank_scratch: PackedScratch,
    shards: Vec<Shard>,
    /// id → (shard, slot).
    locate: Vec<(u32, u32)>,
    resident: HashMap<usize, Resident>,
    /// Recency clock: bumped on every cache hit and page-in.
    tick: u64,
    resident_bytes: usize,
    stats: RuntimeStats,
    clock: Clock,
}

impl CorpusEngine {
    /// The configuration the engine was built with.
    pub fn config(&self) -> &CorpusConfig {
        &self.cfg
    }

    /// Total rows indexed.
    pub fn total_rows(&self) -> usize {
        self.locate.len()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Rows currently held by shard `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is not a shard index.
    pub fn shard_len(&self, c: usize) -> usize {
        self.shards[c].ids.len()
    }

    /// Engine-global ids stored in shard `c`, in slot order.
    ///
    /// # Panics
    ///
    /// Panics when `c` is not a shard index.
    pub fn shard_ids(&self, c: usize) -> &[u32] {
        &self.shards[c].ids
    }

    /// The flat `shards · stages` centroid code table.
    pub fn centroids(&self) -> &[u8] {
        &self.centroids
    }

    /// The stored codes of row `id`, unpacked from its shard's planes,
    /// or `None` for an unknown id.
    pub fn row_codes(&self, id: usize) -> Option<Vec<u8>> {
        let &(c, slot) = self.locate.get(id)?;
        let mut codes = vec![0u8; self.stages];
        self.shards[c as usize]
            .planes
            .unpack_row(slot as usize, &mut codes);
        Some(codes)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Pins the packed dispatch-ladder rung used by the centroid tier and
    /// every shard's planes, resident copies included, so later page-ins
    /// inherit it (tests and operational pinning). Returns `false` —
    /// leaving the current rung in place — when the requested rung is
    /// not available in this build/CPU; the re-rank distances are
    /// bit-identical across rungs either way.
    pub fn set_kernel(&mut self, kernel: PackedKernel) -> bool {
        if !kernel.is_available() {
            return false;
        }
        self.centroid_packed.set_kernel(kernel);
        let stored = self.shards.iter_mut().map(|shard| &mut shard.planes);
        for packed in stored.chain(self.resident.values_mut().map(|ent| &mut ent.packed)) {
            packed.set_kernel(kernel);
        }
        true
    }

    /// Cache and geometry snapshot for stats endpoints.
    pub fn status(&self) -> CorpusTierStatus {
        CorpusTierStatus {
            rows: self.total_rows(),
            clusters: self.shards.len(),
            nprobe: self.cfg.nprobe,
            resident: self.resident.len(),
            resident_bytes: self.resident_bytes,
            budget_bytes: self.cfg.cache_budget_bytes,
            stats: self.stats,
        }
    }

    /// Scans the centroid tier and returns the `nprobe` candidate
    /// shards in `(distance, shard)` rank order.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] /
    /// [`TdamError::ValueOutOfRange`] for malformed queries.
    pub fn probe(&mut self, query: &[u8]) -> Result<Vec<usize>, TdamError> {
        self.check_row(query)?;
        Ok(nearest_rows(
            &self.centroid_packed,
            query,
            &mut self.centroid_scratch,
            self.cfg.nprobe.min(self.shards.len()),
        )
        .into_iter()
        .map(|c| c as usize)
        .collect())
    }

    /// Two-tier top-`k`: probe, then re-rank the probed shards exactly.
    /// Returns `(distance, id)` pairs sorted ascending with ties broken
    /// toward the lower id — bit-identical to
    /// [`crate::serve::brute_force_topk`] restricted to the probed
    /// shards' rows.
    ///
    /// # Errors
    ///
    /// As [`CorpusEngine::probe`].
    pub fn search_topk(
        &mut self,
        query: &[u8],
        k: usize,
    ) -> Result<Vec<(usize, usize)>, TdamError> {
        Ok(self.search_topk_probed(query, k)?.0)
    }

    /// As [`CorpusEngine::search_topk`], additionally returning the
    /// probed shard indices (rank order) — the handle the deterministic
    /// simulation's restricted judge and the serve tier's scatter path
    /// use.
    ///
    /// # Errors
    ///
    /// As [`CorpusEngine::probe`].
    pub fn search_topk_probed(&mut self, query: &[u8], k: usize) -> Result<ProbedTopK, TdamError> {
        let probed = self.probe(query)?;
        let mut select = TopKSelect::new(k);
        for &c in &probed {
            self.scan_shard(c, query, &mut select);
        }
        self.stats.queries += 1;
        self.stats.answered += 1;
        Ok((select.into_sorted(), probed))
    }

    /// Offers every row of shard `c` to `select` as its exact
    /// `(distance, id)` pair against `query`.
    pub(crate) fn scan_shard(&mut self, c: usize, query: &[u8], select: &mut TopKSelect) {
        self.walk_shard(c, query, |packed, e, o, id| {
            select.push(packed.decoded(e, o), id);
        });
    }

    /// The one slot walk: makes shard `c` resident (cache hit or
    /// page-in), counts `query` against it in the
    /// shared re-rank scratch, and hands `visit` each slot's snapshot,
    /// `(even, odd)` mismatch counts and engine-global id.
    fn walk_shard(
        &mut self,
        c: usize,
        query: &[u8],
        mut visit: impl FnMut(&PackedArray, usize, usize, usize),
    ) {
        self.ensure_resident(c);
        let packed = &self
            .resident
            .get(&c)
            .expect("shard just made resident")
            .packed;
        let scratch = &mut self.rerank_scratch;
        scratch.fit(packed);
        packed.expand_query(query, scratch);
        packed.mismatch_counts(scratch);
        for (slot, &id) in self.shards[c].ids.iter().enumerate() {
            let (e, o) = packed.counts(scratch, 0, slot);
            visit(packed, e, o, id as usize);
        }
    }

    /// Makes shard `c`'s snapshot resident: an LRU hit refreshes
    /// recency; a miss copies the shard's stored planes (timed in
    /// `corpus_compile_micros`) and evicts cold shards until the cache
    /// is back under budget. The just-paged-in snapshot is never
    /// evicted, so a single over-budget shard still serves.
    fn ensure_resident(&mut self, c: usize) {
        self.tick += 1;
        if let Some(ent) = self.resident.get_mut(&c) {
            self.stats.corpus_cache_hits += 1;
            ent.tick = self.tick;
            return;
        }
        self.stats.corpus_cache_misses += 1;
        let t0 = self.clock.now();
        let packed = self.shards[c].planes.clone();
        self.stats.corpus_compile_micros += self.clock.elapsed(t0).as_micros() as usize;
        self.resident_bytes += packed.resident_bytes();
        self.resident.insert(
            c,
            Resident {
                packed,
                tick: self.tick,
            },
        );
        // The just-paged-in shard holds the newest tick, so it is never
        // the minimum while another shard is resident.
        while self.resident_bytes > self.cfg.cache_budget_bytes && self.resident.len() > 1 {
            let victim = self
                .resident
                .iter()
                .min_by_key(|(_, ent)| ent.tick)
                .map(|(&victim, _)| victim)
                .expect("more than one shard resident");
            self.drop_resident(victim);
            self.stats.corpus_cache_evictions += 1;
        }
    }

    /// Drops shard `c`'s resident snapshot (if any) without counting an
    /// eviction — used when the shard outgrows the snapshot.
    fn drop_resident(&mut self, c: usize) {
        if let Some(gone) = self.resident.remove(&c) {
            self.resident_bytes -= gone.packed.resident_bytes();
        }
    }

    /// Appends one row post-build: it joins the shard of its nearest
    /// centroid (centroids stay fixed — the coarse structure does not
    /// chase stragglers) and is written into the shard's planes, which
    /// grow to the next capacity when full. A resident snapshot is
    /// patched surgically, or dropped when the shard outgrew it, to be
    /// paged in afresh at the next probe. Returns the new row's id.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] /
    /// [`TdamError::ValueOutOfRange`] for malformed rows.
    pub fn append_row(&mut self, values: &[u8]) -> Result<usize, TdamError> {
        self.check_row(values)?;
        let c = nearest_row(&self.centroid_packed, values, &mut self.centroid_scratch);
        let id = self.locate.len();
        let shard = &mut self.shards[c];
        let slot = shard.ids.len();
        if slot == shard.planes.rows() {
            shard.planes.grow(capacity_for(slot + 1));
        }
        shard.planes.repack_row_codes(slot, values);
        shard.ids.push(id as u32);
        self.locate.push((c as u32, slot as u32));
        self.stats.user_writes += 1;
        self.patch_resident(c, slot, values);
        Ok(id)
    }

    /// Appends a batch of rows ([`CorpusEngine::append_row`] each),
    /// returning the first new id.
    ///
    /// # Errors
    ///
    /// As [`CorpusEngine::append_row`]; rows before the offending one
    /// remain appended.
    pub fn append_rows(&mut self, rows: &[Vec<u8>]) -> Result<usize, TdamError> {
        let first = self.locate.len();
        for row in rows {
            self.append_row(row)?;
        }
        Ok(first)
    }

    /// Overwrites row `id` in place. The row keeps its shard — cluster
    /// membership is an index structure, not a promise, and a mutated
    /// row drifting away from its shard's centroid degrades its own
    /// recall only (the trade every IVF index makes for O(1) updates).
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for an unknown id and the
    /// usual shape errors for malformed values.
    pub fn update_row(&mut self, id: usize, values: &[u8]) -> Result<(), TdamError> {
        self.check_row(values)?;
        let &(c, slot) = self.locate.get(id).ok_or(TdamError::RowOutOfBounds {
            row: id,
            rows: self.locate.len(),
        })?;
        let (c, slot) = (c as usize, slot as usize);
        self.shards[c].planes.repack_row_codes(slot, values);
        self.stats.user_writes += 1;
        self.patch_resident(c, slot, values);
        Ok(())
    }

    /// Rejects a query or row of the wrong length or with a code
    /// outside the encoding's levels.
    fn check_row(&self, values: &[u8]) -> Result<(), TdamError> {
        if values.len() != self.stages {
            return Err(TdamError::LengthMismatch {
                got: values.len(),
                expected: self.stages,
            });
        }
        self.encoding.validate(values)
    }

    /// Keeps a resident snapshot coherent with a single-slot write:
    /// surgical repack while the slot fits the snapshot's capacity,
    /// else invalidate (paged in afresh on the next probe).
    fn patch_resident(&mut self, c: usize, slot: usize, values: &[u8]) {
        let Some(ent) = self.resident.get_mut(&c) else {
            return;
        };
        if slot < ent.packed.rows() {
            ent.packed.repack_row_codes(slot, values);
            self.stats.incremental_repacks += 1;
            self.stats.rows_repacked += 1;
        } else {
            self.drop_resident(c);
        }
    }

    /// Destructures into the pieces the persistence layer serializes,
    /// each shard's planes unpacked to codes; see
    /// [`crate::store::save_corpus`].
    pub(crate) fn persistent_parts(
        &self,
    ) -> (
        &CorpusConfig,
        &StageTiming,
        &[u8],
        Vec<ClusterData>,
        &RuntimeStats,
    ) {
        let clusters = self
            .shards
            .iter()
            .map(|shard| {
                let mut codes = vec![0u8; shard.ids.len() * self.stages];
                for (slot, row) in codes.chunks_exact_mut(self.stages).enumerate() {
                    shard.planes.unpack_row(slot, row);
                }
                ClusterData {
                    codes,
                    ids: shard.ids.clone(),
                }
            })
            .collect();
        (
            &self.cfg,
            &self.timing,
            &self.centroids,
            clusters,
            &self.stats,
        )
    }

    /// Rebuilds an engine from checkpointed parts (an empty cache): the
    /// centroid tier is packed from the centroid table and each shard's
    /// planes from its codes, bit-identically by the
    /// [`PackedArray::from_codes`] contract.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::InvalidConfig`] for inconsistent parts.
    pub(crate) fn from_persistent_parts(
        cfg: CorpusConfig,
        timing: StageTiming,
        centroids: Vec<u8>,
        clusters: Vec<ClusterData>,
        stats: RuntimeStats,
        clock: Clock,
    ) -> Result<Self, TdamError> {
        cfg.validate()?;
        let stages = cfg.array.stages;
        let encoding = cfg.array.encoding;
        if centroids.len() != clusters.len() * stages || clusters.is_empty() {
            return Err(TdamError::InvalidConfig {
                what: "corpus checkpoint centroid table disagrees with its shard manifest",
            });
        }
        let mut locate_pairs = Vec::new();
        for (c, cluster) in clusters.iter().enumerate() {
            if cluster.codes.len() != cluster.ids.len() * stages {
                return Err(TdamError::InvalidConfig {
                    what: "corpus checkpoint shard codes disagree with its id list",
                });
            }
            encoding.validate(&cluster.codes)?;
            for (slot, &id) in cluster.ids.iter().enumerate() {
                locate_pairs.push((id, (c as u32, slot as u32)));
            }
        }
        locate_pairs.sort_unstable_by_key(|&(id, _)| id);
        let contiguous = locate_pairs
            .iter()
            .enumerate()
            .all(|(i, &(id, _))| id as usize == i);
        if !contiguous {
            return Err(TdamError::InvalidConfig {
                what: "corpus checkpoint ids are not a contiguous 0..n range",
            });
        }
        let locate: Vec<(u32, u32)> = locate_pairs.into_iter().map(|(_, at)| at).collect();
        encoding.validate(&centroids)?;
        let tdc = CounterTdc::matched(&timing)?;
        let centroid_packed = PackedArray::from_codes(encoding, stages, &timing, &tdc, &centroids);
        let shards = clusters
            .into_iter()
            .map(|ClusterData { codes, ids }| {
                Shard::pack(&centroid_packed, ids, |slot, _| {
                    &codes[slot * stages..(slot + 1) * stages]
                })
            })
            .collect();
        let centroid_scratch = centroid_packed.scratch();
        let rerank_scratch = centroid_packed.scratch();
        Ok(Self {
            cfg,
            encoding,
            stages,
            timing,
            centroids,
            centroid_packed,
            centroid_scratch,
            rerank_scratch,
            shards,
            locate,
            resident: HashMap::new(),
            tick: 0,
            resident_bytes: 0,
            stats,
            clock,
        })
    }
}

impl SimilarityEngine for CorpusEngine {
    fn name(&self) -> &str {
        "TD-AM two-tier corpus"
    }

    fn is_quantitative(&self) -> bool {
        true
    }

    fn rows(&self) -> usize {
        self.total_rows()
    }

    fn width(&self) -> usize {
        self.stages
    }

    fn bits_per_element(&self) -> u8 {
        self.encoding.bits()
    }

    /// `row < rows()` overwrites in place ([`CorpusEngine::update_row`]);
    /// `row == rows()` appends ([`CorpusEngine::append_row`]) — the
    /// streaming-ingest contract expressed through the shared trait.
    fn store(&mut self, row: usize, values: &[u8]) -> Result<(), TdamError> {
        if row < self.total_rows() {
            self.update_row(row, values)
        } else if row == self.total_rows() {
            self.append_row(values).map(|_| ())
        } else {
            Err(TdamError::RowOutOfBounds {
                row,
                rows: self.total_rows(),
            })
        }
    }

    /// Two-tier search through the trait: distances are exact for rows
    /// in probed shards and `None` for pruned rows (the honest answer —
    /// the pre-filter never looked at them). Energy and latency model
    /// the two sequential tiers: every scanned row's chain energy plus
    /// TDC conversions, and the worst chain delay of each tier added.
    fn search(&mut self, query: &[u8]) -> Result<SearchMetrics, TdamError> {
        let probed = self.probe(query)?;
        let mut energy = 0.0f64;
        let mut tier_delay = 0.0f64;
        for c in 0..self.centroid_packed.rows() {
            let (e, o) = self.centroid_packed.counts(&self.centroid_scratch, 0, c);
            let (row, tdc_energy) = self.centroid_packed.digitize(e, o);
            energy += row.chain.energy.total() + tdc_energy;
            tier_delay = tier_delay.max(row.chain.total_delay);
        }
        let mut latency = tier_delay;
        let mut distances = vec![None; self.total_rows()];
        let mut best: Option<(usize, usize)> = None;
        let mut shard_delay = 0.0f64;
        for &c in &probed {
            self.walk_shard(c, query, |packed, e, o, id| {
                let (row, tdc_energy) = packed.digitize(e, o);
                energy += row.chain.energy.total() + tdc_energy;
                shard_delay = shard_delay.max(row.chain.total_delay);
                distances[id] = Some(row.decoded_mismatches);
                let cand = (row.decoded_mismatches, id);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            });
        }
        latency += shard_delay;
        self.stats.queries += 1;
        self.stats.answered += 1;
        Ok(SearchMetrics {
            best_row: best.map(|(_, id)| id),
            distances,
            energy,
            latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clusterable corpus: `protos` prototype rows, each corpus row a
    /// prototype with per-element noise at `noise_pct` percent.
    fn clustered_corpus(
        cfg: &CorpusConfig,
        rows: usize,
        protos: usize,
        noise_pct: u64,
        seed: u64,
    ) -> Vec<Vec<u8>> {
        let stages = cfg.array.stages;
        let levels = cfg.array.encoding.levels() as u64;
        let prototypes: Vec<Vec<u8>> = (0..protos)
            .map(|p| {
                (0..stages)
                    .map(|j| {
                        (splitmix(seed ^ 0xB10C ^ ((p as u64) << 20 | j as u64)) % levels) as u8
                    })
                    .collect()
            })
            .collect();
        (0..rows)
            .map(|r| {
                let p = (splitmix(seed ^ 0x9A55 ^ r as u64) % protos as u64) as usize;
                prototypes[p]
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| {
                        let h = splitmix(seed ^ 0x0D15E ^ ((r as u64) << 12 | j as u64));
                        if h % 100 < noise_pct {
                            (h >> 8) as u8 % levels as u8
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn small_cfg() -> CorpusConfig {
        let mut cfg = CorpusConfig::paper_default();
        cfg.array = cfg.array.with_stages(16);
        cfg.shard_rows = 32;
        cfg.nprobe = 3;
        cfg.train_iters = 2;
        cfg.train_sample = 256;
        cfg.threads = Some(2);
        cfg
    }

    fn brute_topk(rows: &[Vec<u8>], enc: Encoding, q: &[u8], k: usize) -> Vec<(usize, usize)> {
        let mut all: Vec<(usize, usize)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (enc.hamming(q, r).unwrap(), i))
            .collect();
        all.sort_unstable();
        all.truncate(k);
        all
    }

    #[test]
    fn build_is_deterministic_and_balanced() {
        let cfg = small_cfg();
        let rows = clustered_corpus(&cfg, 300, 8, 10, 0xA);
        let build = |threads| {
            let mut c = cfg;
            c.threads = threads;
            let mut b = CorpusBuilder::new(c).unwrap();
            b.append_rows(&rows).unwrap();
            b.build().unwrap()
        };
        let a = build(Some(1));
        let b = build(Some(4));
        assert_eq!(a.centroids, b.centroids, "seeded build is thread-invariant");
        assert_eq!(a.persistent_parts().3, b.persistent_parts().3);
        assert_eq!(a.shards(), 300usize.div_ceil(cfg.shard_rows));
        for c in 0..a.shards() {
            assert!(a.shard_len(c) <= cfg.shard_rows, "capacity respected");
        }
        let total: usize = (0..a.shards()).map(|c| a.shard_len(c)).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn self_queries_hit_exactly() {
        let mut cfg = small_cfg();
        // Probing every shard makes the two-tier search exhaustive, so a
        // stored row must come back at distance 0 regardless of where the
        // capacity-balanced placement spilled it.
        cfg.nprobe = 64;
        let rows = clustered_corpus(&cfg, 200, 6, 8, 0xB);
        let mut b = CorpusBuilder::new(cfg).unwrap();
        b.append_rows(&rows).unwrap();
        let mut eng = b.build().unwrap();
        for id in (0..200).step_by(17) {
            let top = eng.search_topk(&rows[id], 1).unwrap();
            // Distance 0, and the winner holds the query's exact codes
            // (a duplicate row at a lower id legitimately outranks `id`).
            assert_eq!(top[0].0, 0, "stored row found at distance 0");
            assert_eq!(eng.row_codes(top[0].1).unwrap(), rows[id]);
        }
    }

    #[test]
    fn rerank_matches_brute_force_restricted_to_probed_shards() {
        let cfg = small_cfg();
        let rows = clustered_corpus(&cfg, 257, 5, 12, 0xC);
        let mut b = CorpusBuilder::new(cfg).unwrap();
        b.append_rows(&rows).unwrap();
        let mut eng = b.build().unwrap();
        let enc = cfg.array.encoding;
        for qi in 0..24usize {
            let q: Vec<u8> = (0..cfg.array.stages)
                .map(|j| (splitmix(0xD ^ ((qi as u64) << 8 | j as u64)) % 4) as u8)
                .collect();
            let (got, probed) = eng.search_topk_probed(&q, 10).unwrap();
            let mut restricted: Vec<usize> = probed
                .iter()
                .flat_map(|&c| eng.shard_ids(c).iter().map(|&id| id as usize))
                .collect();
            restricted.sort_unstable();
            let mut expect: Vec<(usize, usize)> = restricted
                .iter()
                .map(|&id| (enc.hamming(&q, &rows[id]).unwrap(), id))
                .collect();
            expect.sort_unstable();
            expect.truncate(10);
            assert_eq!(got, expect, "exact tie-broken equality on probed rows");
        }
    }

    #[test]
    fn append_and_update_stay_searchable() {
        let cfg = small_cfg();
        let rows = clustered_corpus(&cfg, 120, 4, 10, 0xE);
        let mut b = CorpusBuilder::new(cfg).unwrap();
        b.append_rows(&rows).unwrap();
        let mut eng = b.build().unwrap();
        // Warm every shard so appends exercise the surgical-repack path.
        for row in &rows {
            let _ = eng.search_topk(row, 1).unwrap();
        }
        let fresh: Vec<u8> = (0..16).map(|j| (j % 4) as u8).collect();
        let id = eng.append_row(&fresh).unwrap();
        assert_eq!(id, 120);
        assert_eq!(eng.search_topk(&fresh, 1).unwrap()[0], (0, 120));
        assert!(eng.stats().incremental_repacks > 0 || eng.stats().corpus_cache_misses > 0);
        // In-place update: the row answers at its new contents.
        let moved: Vec<u8> = (0..16).map(|j| (3 - j % 4) as u8).collect();
        eng.update_row(7, &moved).unwrap();
        assert_eq!(eng.row_codes(7).unwrap(), moved);
        let all_rows: usize = (0..eng.shards()).map(|c| eng.shard_len(c)).sum();
        assert_eq!(all_rows, 121);
    }

    #[test]
    fn lru_eviction_recompiles_bit_identically() {
        let mut cfg = small_cfg();
        // A budget fitting roughly one shard forces eviction churn.
        cfg.cache_budget_bytes = 1;
        let rows = clustered_corpus(&cfg, 160, 4, 10, 0xF);
        let mut b = CorpusBuilder::new(cfg).unwrap();
        b.append_rows(&rows).unwrap();
        let mut eng = b.build().unwrap();
        let q: Vec<u8> = (0..16).map(|j| ((j * 3) % 4) as u8).collect();
        let first = eng.search_topk(&q, 10).unwrap();
        let hits0 = eng.stats().corpus_cache_hits;
        // Re-ask after churning other shards through the cache.
        for id in (0..160).step_by(7) {
            let _ = eng.search_topk(&rows[id], 1).unwrap();
        }
        let again = eng.search_topk(&q, 10).unwrap();
        assert_eq!(first, again, "evicted shards page back in bit-identically");
        assert!(
            eng.stats().corpus_cache_evictions > 0,
            "budget forced evictions"
        );
        assert!(eng.resident_bytes > 0);
        assert!(
            eng.resident.len() <= 2,
            "tiny budget keeps at most the hot shard"
        );
        let _ = hits0;
    }

    /// A budget of three and a half snapshots under interleaved
    /// queries, updates and appends: the counters and the surviving
    /// shards pin the least-recently-used victim order exactly.
    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut cfg = small_cfg();
        let rows = clustered_corpus(&cfg, 320, 10, 10, 0x1F);
        let build = |cfg: CorpusConfig| {
            let mut b = CorpusBuilder::new(cfg).unwrap();
            b.append_rows(&rows).unwrap();
            b.build().unwrap()
        };
        let mut one = build(cfg);
        one.search_topk(&rows[0], 1).unwrap();
        let snapshot = one.status().resident_bytes / one.status().resident;
        cfg.cache_budget_bytes = 3 * snapshot + snapshot / 2;
        let mut eng = build(cfg);
        for id in (0..320).step_by(7) {
            eng.search_topk(&rows[id], 10).unwrap();
            if id % 21 == 0 {
                eng.update_row(id, &rows[(id + 5) % 320]).unwrap();
            }
            if id % 49 == 0 {
                eng.append_row(&rows[(id * 3) % 320]).unwrap();
            }
        }
        let s = eng.stats();
        assert_eq!(
            (
                s.corpus_cache_hits,
                s.corpus_cache_misses,
                s.corpus_cache_evictions
            ),
            (30, 108, 105)
        );
        let mut resident: Vec<usize> = eng.resident.keys().copied().collect();
        resident.sort_unstable();
        assert_eq!(resident, [1, 4, 9]);
    }

    #[test]
    fn recall_on_clustered_data() {
        let cfg = small_cfg();
        let rows = clustered_corpus(&cfg, 512, 8, 8, 0x1234);
        let mut b = CorpusBuilder::new(cfg).unwrap();
        b.append_rows(&rows).unwrap();
        let mut eng = b.build().unwrap();
        let enc = cfg.array.encoding;
        let (mut hit, mut want) = (0usize, 0usize);
        for qi in 0..32usize {
            // Queries are perturbed stored rows — the ANN workload shape.
            let base = &rows[(splitmix(0x77 ^ qi as u64) % 512) as usize];
            let q: Vec<u8> = base
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    let h = splitmix(0x88 ^ ((qi as u64) << 10 | j as u64));
                    if h % 100 < 6 {
                        (h >> 8) as u8 % 4
                    } else {
                        v
                    }
                })
                .collect();
            let got = eng.search_topk(&q, 10).unwrap();
            let truth = brute_topk(&rows, enc, &q, 10);
            let got_ids: std::collections::BTreeSet<usize> =
                got.iter().map(|&(_, id)| id).collect();
            for &(_, id) in &truth {
                want += 1;
                if got_ids.contains(&id) {
                    hit += 1;
                }
            }
        }
        let recall = hit as f64 / want as f64;
        assert!(recall >= 0.9, "CI-small recall {recall} too low");
    }

    #[test]
    fn similarity_engine_contract() {
        let cfg = small_cfg();
        let rows = clustered_corpus(&cfg, 96, 4, 10, 0x31);
        let mut b = CorpusBuilder::new(cfg).unwrap();
        b.append_rows(&rows).unwrap();
        let mut eng = b.build().unwrap();
        assert!(eng.is_quantitative());
        assert_eq!(eng.rows(), 96);
        assert_eq!(SimilarityEngine::width(&eng), 16);
        assert_eq!(eng.bits_per_element(), 2);
        let m = eng.search(&rows[5]).unwrap();
        assert_eq!(m.best_row, Some(5));
        assert_eq!(m.distances[5], Some(0));
        assert!(m.energy > 0.0 && m.latency > 0.0);
        // Trait store: in-place overwrite and tail append.
        let v: Vec<u8> = (0..16).map(|_| 1u8).collect();
        eng.store(5, &v).unwrap();
        eng.store(96, &v).unwrap();
        assert_eq!(eng.rows(), 97);
        assert!(eng.store(200, &v).is_err());
    }

    #[test]
    fn builder_and_config_validation() {
        let mut cfg = small_cfg();
        cfg.nprobe = 0;
        assert!(CorpusBuilder::new(cfg).is_err());
        let cfg = small_cfg();
        let mut b = CorpusBuilder::new(cfg).unwrap();
        assert!(b.is_empty());
        assert!(b.append_rows(&[vec![0u8; 3]]).is_err(), "wrong width");
        assert!(b.append_rows(&[vec![9u8; 16]]).is_err(), "bad code");
        assert!(b.append_flat(&[0u8; 17]).is_err(), "ragged slab");
        b.append_flat(&[0u8; 32]).unwrap();
        assert_eq!(b.rows(), 2);
        assert!(
            CorpusBuilder::new(small_cfg()).unwrap().build().is_err(),
            "empty corpus"
        );
    }

    #[test]
    fn checkpoint_parts_round_trip() {
        let cfg = small_cfg();
        let rows = clustered_corpus(&cfg, 130, 4, 10, 0x99);
        let mut b = CorpusBuilder::new(cfg).unwrap();
        b.append_rows(&rows).unwrap();
        let mut eng = b.build().unwrap();
        for id in (0..130).step_by(11) {
            let _ = eng.search_topk(&rows[id], 3).unwrap();
        }
        let (pcfg, timing, centroids, clusters, stats) = eng.persistent_parts();
        let mut restored = CorpusEngine::from_persistent_parts(
            *pcfg,
            *timing,
            centroids.to_vec(),
            clusters,
            *stats,
            Clock::wall(),
        )
        .unwrap();
        assert_eq!(restored.total_rows(), 130);
        assert_eq!(restored.stats().queries, eng.stats().queries);
        for qi in 0..8usize {
            let q: Vec<u8> = (0..16)
                .map(|j| (splitmix(0xAB ^ ((qi as u64) << 8 | j as u64)) % 4) as u8)
                .collect();
            assert_eq!(
                restored.search_topk(&q, 5).unwrap(),
                eng.search_topk(&q, 5).unwrap(),
                "restored engine answers bit-identically"
            );
        }
    }
}
