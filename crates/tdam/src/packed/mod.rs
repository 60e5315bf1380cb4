//! Bit-sliced packed serving kernel: XOR/popcount mismatch counting with
//! count-indexed delay reconstruction, executed by a dispatch ladder of
//! explicit-SIMD, unrolled, and scalar block kernels over a cache-blocked
//! row-transposed layout.
//!
//! The TD-AM's serving decision reduces to counting per-parity code
//! mismatches per row: a matching stage contributes `d_INV` to its step,
//! a mismatching stage `d_INV + d_C` (see [`crate::chain`]). The
//! behavioral model ([`crate::chain::DelayChain::evaluate`]) walks every
//! stage of every row, in f64, to rediscover that count. This module
//! replaces the walk with a bit-sliced compare:
//!
//! 1. **Packing** — each stored row's ≤4-bit level codes are bit-plane-
//!    packed into `u64` words, row-transposed (the **lane layout** below):
//!    bit `j mod 64` of `lane_planes[(w·bits + b)·rows_pad + row]`, with
//!    `w = j / 64`, is bit `b` of the level code stored at stage `j`. A
//!    128-stage 2-bit row is four words. The planes hold every code bit,
//!    so `unpack_row` recovers the stored codes exactly.
//! 2. **Query broadcast** — one query (or a tile of them) expands once
//!    per batch-worker into the same plane layout
//!    ([`PackedArray::expand_query`] / [`PackedArray::expand_tile`]),
//!    then every row reuses the expanded planes.
//! 3. **Kernel** — per row and word: `XOR` the query planes against the
//!    stored planes, `OR` the per-bit differences together (any differing
//!    bit of the level code is one element mismatch), then `count_ones()`
//!    under the even/odd stage-parity masks to get the step-I and step-II
//!    mismatch counts directly ([`PackedArray::mismatch_counts`], or the
//!    single-row reference [`PackedArray::row_mismatches`]).
//! 4. **Reconstruction** — delays, TDC digitization, and energies are
//!    rebuilt from the `(even, odd)` counts via count-indexed tables
//!    built by repeated addition, the same discipline the behavioral
//!    model accumulates its energies with (`Tables::digest`).
//!
//! # Execution: the dispatch ladder and the lane layout
//!
//! Step 3 is the hot loop of the whole serving stack, and it runs on one
//! of three interchangeable **block kernels**, selected per
//! [`PackedArray`] by [`PackedKernel::detect`] (overridable via
//! [`PackedArray::set_kernel`] or the `TDAM_PACKED_KERNEL` environment
//! variable — `simd`, `unrolled`, or `scalar`, read once per process):
//!
//! 1. [`PackedKernel::Simd`] — explicit wide registers (requires the
//!    `simd` cargo feature; on x86_64 this is AVX-512 `VPOPCNTQ` or AVX2
//!    with a byte-shuffle popcount, chosen by runtime CPU detection).
//!    Carries 8 (AVX-512) or 4 (AVX2) rows per loop iteration.
//! 2. [`PackedKernel::Unrolled`] — portable hand-unrolled scalar, 4 rows
//!    per iteration with independent accumulators.
//! 3. [`PackedKernel::Scalar`] — one row at a time; the reference rung
//!    and the shape the original (PR 5) kernel executed.
//!
//! All rungs compute the same exact integer function, so **every rung is
//! bit-identical** — the dispatch is a pure performance choice, pinned by
//! `tests/packed_equiv.rs`.
//!
//! To let one register carry several *rows*, the planes are stored
//! row-transposed (the **lane layout**):
//! `lane_planes[(w·bits + b)·rows_pad + r]`, where `rows_pad` is the row
//! count rounded up to a multiple of 8 (padding rows read as all-zero and
//! their counts are never consumed). For a fixed plane word `(w, b)`,
//! consecutive rows are contiguous, so an 8-row group is one unaligned
//! 512-bit load. It is the only copy of the planes: the single-row
//! reference kernel reads it too.
//!
//! The parity masks and count-indexed tables depend only on the
//! calibration, never on row contents, so they sit behind an `Arc`: a
//! clone copies the planes alone, which is how the [`crate::corpus`]
//! tier stores its shards and pages one in.
//!
//! Batch serving additionally blocks the loop nest for cache residency
//! (**query-major tiling**): the batch paths
//! ([`CompiledSnapshot::search_batch`](crate::array::CompiledSnapshot::search_batch),
//! [`CompiledSnapshot::decide_batch`](crate::array::CompiledSnapshot::decide_batch))
//! expand a tile of up to 8 queries per work item, and
//! [`PackedArray::mismatch_counts`] walks row blocks (sized to ~16 KiB of
//! lane words, i.e. L1-resident) in the outer loop with the tile's
//! queries in the inner loop — each row block is loaded from memory once
//! per tile instead of once per query. See ARCHITECTURE.md ("SIMD packed
//! kernel") for the tiling diagram and the roofline model that predicts
//! when this matters.
//!
//! # Examples
//!
//! Counting mismatches directly through the packed view (the serving
//! paths normally drive this via `CompiledSnapshot`):
//!
//! ```
//! use std::collections::BTreeSet;
//! use tdam::array::TdamArray;
//! use tdam::config::ArrayConfig;
//! use tdam::engine::SimilarityEngine;
//! use tdam::packed::PackedArray;
//!
//! let cfg = ArrayConfig::paper_default().with_stages(8).with_rows(2);
//! let mut am = TdamArray::new(cfg).unwrap();
//! am.store(0, &[0, 1, 2, 3, 0, 1, 2, 3]).unwrap();
//! am.store(1, &[3, 2, 1, 0, 3, 2, 1, 0]).unwrap();
//!
//! let packed = PackedArray::build(&am, &BTreeSet::new());
//! let mut scratch = packed.scratch();
//! packed.expand_query(&[0, 1, 2, 3, 3, 2, 1, 0], &mut scratch);
//! packed.mismatch_counts(&mut scratch);
//!
//! // Row 0 matches the first four stages and differs in the last four.
//! let (even, odd) = packed.counts(&scratch, 0, 0);
//! assert_eq!((even + odd, even, odd), (4, 2, 2));
//! // Whatever kernel rung ran, the single-row reference agrees exactly.
//! assert_eq!(packed.row_mismatches(0, &scratch), (even, odd));
//! ```
//!
//! # Equivalence contract
//!
//! For rows the behavioral model treats as nominal, the packed kernel's
//! mismatch counts (`mismatches`, `even_mismatches`, `odd_mismatches`),
//! the decoded per-row distances, and therefore the winner selection are
//! **exactly identical** to [`crate::chain::DelayChain::evaluate`] — the
//! counts are integers recovered by exact bitwise arithmetic.
//!
//! The analog delay figures are reconstructed, not accumulated in stage
//! order, so they are **ulp-bounded** rather than bit-identical: the
//! behavioral path sums `N` addends drawn from `{d_INV, d_INV + d_C}` in
//! stage order, which is position-dependent in f64, while the packed path
//! replays one canonical order (all `d_INV` first, then `k` times
//! `d_C`). Both are correctly-rounded sums of the same `N + k` positive
//! terms, so the relative difference is bounded by `2·(N + k)·ε` with
//! `ε = 2⁻⁵²` — about `6e-14` for a 128-stage chain, versus a sensing
//! margin of `d_C / 2` (a relative margin of roughly `1e-2`). The TDC's
//! round-to-nearest decode ([`crate::tdc::CounterTdc::decode_mismatches`])
//! is therefore immune to the reconstruction noise, which is what keeps
//! the decoded distances exact. `tests/packed_equiv.rs` pins the bound.
//!
//! Rows holding variation-perturbed cells cannot be packed (their delay
//! is not a pure function of the mismatch pattern) and keep the full
//! behavioral fallback.
//!
//! # Masked stages
//!
//! [`PackedArray::build`] accepts a set of masked stages (the digital
//! column masks of [`crate::resilience`]): a masked stage is packed as
//! **always-match** — its bit is cleared from both parity masks, so it
//! contributes zero mismatches and `d_INV` per step regardless of the
//! stored or queried code. A row whose only non-nominal cells sit in
//! masked columns becomes packable again, which is how a stuck column
//! rejoins the fast path after repair masks it off.

use crate::array::RowResult;
use crate::chain::ChainResult;
use crate::encoding::Encoding;
use crate::energy::EnergyBreakdown;
use crate::tdc::CounterTdc;
use crate::timing::StageTiming;
use crate::TdamArray;
use std::collections::BTreeSet;
use std::sync::Arc;

mod kernel;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd;

use kernel::{KernelArgs, LANES};

/// Cap on the precomputed `(even, odd)` digest table. Above this the
/// digests are computed per row instead — the table would outgrow the
/// cache and lose the point. `(N/2 + 1)²` entries stay under the cap for
/// chains up to 510 stages.
const DIGEST_TABLE_CAP: usize = 1 << 16;

/// Row-block budget of the cache-blocked kernel loop: lane words of one
/// row block stay within roughly half a typical L1d so the block
/// survives being re-walked once per query of a tile.
const ROW_BLOCK_BYTES: usize = 16 * 1024;

/// One rung of the packed kernel's dispatch ladder. See the
/// [module docs](self) — every rung computes bit-identical mismatch
/// counts; they differ only in how many rows one loop iteration carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedKernel {
    /// Explicit wide registers: AVX-512 `VPOPCNTQ` (8 rows/iteration) or
    /// AVX2 with a byte-shuffle popcount (4 rows/iteration), chosen by
    /// runtime CPU detection. Only available when the crate is built
    /// with the `simd` feature on x86_64 **and** the CPU has a wide path
    /// (`std::simd` is nightly-only, so the wide rung is stable
    /// `core::arch` intrinsics behind runtime detection instead).
    Simd,
    /// Portable hand-unrolled scalar: 4 rows per iteration with
    /// independent accumulators. Always available; the default when the
    /// wide rung is not.
    Unrolled,
    /// Plain one-row-at-a-time scalar — the reference rung (and the
    /// shape of the original PR-5 kernel), kept selectable for tests and
    /// benchmarks.
    Scalar,
}

impl PackedKernel {
    /// Whether this rung can execute in this build on this CPU.
    /// [`PackedKernel::Scalar`] and [`PackedKernel::Unrolled`] always
    /// can; [`PackedKernel::Simd`] requires the `simd` feature, x86_64,
    /// and a runtime-detected wide path (AVX-512 VPOPCNTDQ or AVX2).
    pub fn is_available(self) -> bool {
        match self {
            PackedKernel::Scalar | PackedKernel::Unrolled => true,
            PackedKernel::Simd => simd_available(),
        }
    }

    /// Selects the fastest available rung: `Simd` when available, else
    /// `Unrolled`. The `TDAM_PACKED_KERNEL` environment variable
    /// (`simd` / `unrolled` / `scalar`, case-insensitive) overrides the
    /// choice when it names an available rung, and is ignored otherwise —
    /// selection can therefore never fail, only degrade.
    ///
    /// The choice is made once per process and cached, like the core
    /// count in [`crate::parallel::resolve_threads`]: every
    /// [`PackedArray`] build (each snapshot recompile included) reads
    /// the cached rung, so setting the variable after the first build has
    /// no effect.
    pub fn detect() -> Self {
        static DETECTED: std::sync::OnceLock<PackedKernel> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            let forced = std::env::var("TDAM_PACKED_KERNEL").ok().and_then(|forced| {
                match forced.to_ascii_lowercase().as_str() {
                    "simd" => Some(PackedKernel::Simd),
                    "unrolled" => Some(PackedKernel::Unrolled),
                    "scalar" => Some(PackedKernel::Scalar),
                    _ => None,
                }
            });
            match forced {
                Some(k) if k.is_available() => k,
                _ if PackedKernel::Simd.is_available() => PackedKernel::Simd,
                _ => PackedKernel::Unrolled,
            }
        })
    }

    /// Diagnostic name of the code path this rung executes **here**:
    /// `"scalar"`, `"unrolled"`, or — for the SIMD rung — the concrete
    /// ISA runtime detection resolved to (`"avx512"` / `"avx2"`, or
    /// `"simd-unavailable"` when the rung cannot run).
    pub fn name(self) -> &'static str {
        match self {
            PackedKernel::Scalar => "scalar",
            PackedKernel::Unrolled => "unrolled",
            PackedKernel::Simd => simd_name(),
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn simd_available() -> bool {
    simd::available()
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn simd_available() -> bool {
    false
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn simd_name() -> &'static str {
    simd::name()
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn simd_name() -> &'static str {
    "simd-unavailable"
}

/// Per-worker scratch for the packed kernel: the broadcast bit planes of
/// a tile of up to `capacity` queries, plus the per-row `(even, odd)`
/// count buffers the block kernels fill. Created once per batch worker
/// ([`PackedArray::scratch`] for single-query use,
/// [`PackedArray::tile_scratch`] for query-major tiles) and refilled per
/// query/tile, so the batch loop performs no per-query heap allocation.
///
/// Every expansion overwrites all plane words of the slots it fills and
/// every [`PackedArray::mismatch_counts`] overwrites the count buffers
/// of those slots, so a scratch remains safe to reuse even if a previous
/// item's evaluation panicked mid-flight (the contract
/// [`run_chunked_scratch`](crate::parallel::run_chunked_scratch)
/// requires).
#[derive(Debug, Clone)]
pub struct PackedScratch {
    /// `q_planes[t · bits · words ..][b · words + w]`: query `t`'s bit
    /// `b` plane word `w`, same layout as one stored row's planes.
    q_planes: Vec<u64>,
    /// `even[t · rows_pad + r]` / `odd[..]`: query `t`'s per-row counts,
    /// valid for `t < filled` after `mismatch_counts`.
    even: Vec<u32>,
    odd: Vec<u32>,
    capacity: usize,
    filled: usize,
}

impl PackedScratch {
    /// How many queries this scratch can hold per tile.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many queries are currently expanded into the scratch.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Grows this scratch (it never shrinks) so that a full tile of its
    /// [`capacity`](PackedScratch::capacity) fits `array`'s query planes
    /// and per-row counts. One scratch can then serve several packed
    /// arrays of one row width but different heights, as the corpus
    /// tier's re-rank does across its shard snapshots.
    pub(crate) fn fit(&mut self, array: &PackedArray) {
        let planes = self.capacity * array.bits * array.words;
        if self.q_planes.len() < planes {
            self.q_planes.resize(planes, 0);
        }
        let counts = self.capacity * array.rows_pad;
        if self.even.len() < counts {
            self.even.resize(counts, 0);
            self.odd.resize(counts, 0);
        }
    }
}

/// One query's digitized decision: the view the hardware exports off-array
/// (the TDC's decoded per-row distances and the winner they select),
/// without materializing the per-row analog reconstruction of a full
/// [`SearchOutcome`](crate::array::SearchOutcome).
///
/// Produced by the decision-only batch paths
/// ([`CompiledSnapshot::decide_batch`](crate::array::CompiledSnapshot::decide_batch)),
/// whose fields are **exactly identical** to
/// [`SearchOutcome::best_row`](crate::array::SearchOutcome::best_row) and
/// [`SearchOutcome::decoded`](crate::array::SearchOutcome::decoded) on the
/// same query — the decision layer of the equivalence contract above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedDecision {
    /// Winner row: lowest decoded distance, ties broken toward the lowest
    /// row index (`None` for an empty array).
    pub best_row: Option<usize>,
    /// Per-row decoded mismatch distances (the TDC output codes).
    pub distances: Vec<usize>,
}

/// One row's digitized outcome as a pure function of its `(even, odd)`
/// mismatch counts: reconstructed step delays plus the TDC view of the
/// total.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowDigest {
    rising: f64,
    falling: f64,
    total: f64,
    count: u64,
    decoded: usize,
    tdc_energy: f64,
}

/// What a packed array derives from its calibration alone, never from
/// row contents: the parity masks and the count-indexed tables, shared
/// through an `Arc` by clones and `blank_like` arrays.
#[derive(Debug, Clone)]
struct Tables {
    stages: usize,
    /// The masked-stage set the parity masks encode, retained so per-row
    /// surgical repacks ([`PackedArray::repack_row`]) re-judge
    /// packability under the same mask.
    masked: BTreeSet<usize>,
    even_mask: Vec<u64>,
    odd_mask: Vec<u64>,
    /// `step_delay[k]`: one step's delay with `k` active-stage
    /// mismatches — `N` repeated additions of `d_INV` followed by `k`
    /// repeated additions of `d_C` (the canonical accumulation order).
    step_delay: Vec<f64>,
    /// Flattened `(even, odd)` digest table, or empty when the row count
    /// of the table would exceed [`DIGEST_TABLE_CAP`].
    digests: Vec<RowDigest>,
    /// Dense decoded-distance companion to `digests` (same indexing,
    /// same emptiness): 4 bytes per entry instead of 48, so the
    /// decision-only serving path stays cache-resident.
    decoded_table: Vec<u32>,
    /// `count_limit[d]`: the largest `even + odd` whose decoded
    /// distance is at most `d`, prefix-maxed over `d` — the count-space
    /// image of a decoded-distance bound. Derived from `decoded_table`
    /// (empty with it), so it stays exact whether or not the decode is
    /// monotone in `even + odd`.
    count_limit: Vec<u32>,
    max_even: usize,
    max_odd: usize,
    /// Cumulative load-cap / match-node energies by total mismatch
    /// count, built by repeated addition exactly like the behavioral
    /// model accumulates them.
    cum_cap_energy: Vec<f64>,
    cum_mn_energy: Vec<f64>,
    inverter_energy: f64,
    search_line_energy: f64,
    timing: StageTiming,
    tdc: CounterTdc,
}

impl Tables {
    fn new(stages: usize, masked: BTreeSet<usize>, timing: StageTiming, tdc: CounterTdc) -> Self {
        // Parity masks with the tail beyond `stages` and every masked
        // column cleared: a bit that survives neither mask can never be
        // counted as a mismatch.
        let mut even_mask = vec![0u64; stages.div_ceil(64)];
        let mut odd_mask = even_mask.clone();
        for j in 0..stages {
            if masked.contains(&j) {
                continue;
            }
            let target = if j % 2 == 0 {
                &mut even_mask
            } else {
                &mut odd_mask
            };
            target[j / 64] |= 1u64 << (j % 64);
        }

        // Count-indexed reconstruction tables, all built by repeated
        // addition, so the energy figures stay bitwise equal to the
        // behavioral accumulation of identical addends.
        let max_even = stages.div_ceil(2);
        let max_odd = stages / 2;
        let max_k = max_even.max(max_odd);
        let mut step_delay = Vec::with_capacity(max_k + 1);
        let mut base_step = 0.0f64;
        for _ in 0..stages {
            base_step += timing.d_inv;
        }
        step_delay.push(base_step);
        for k in 1..=max_k {
            step_delay.push(step_delay[k - 1] + timing.d_c);
        }
        let mut cum_cap = Vec::with_capacity(stages + 1);
        let mut cum_mn = Vec::with_capacity(stages + 1);
        let (mut cap, mut mn) = (0.0f64, 0.0f64);
        cum_cap.push(cap);
        cum_mn.push(mn);
        for _ in 0..stages {
            cap += timing.e_c;
            mn += timing.e_mn;
            cum_cap.push(cap);
            cum_mn.push(mn);
        }

        let mut tables = Self {
            stages,
            masked,
            even_mask,
            odd_mask,
            step_delay,
            digests: Vec::new(),
            decoded_table: Vec::new(),
            count_limit: Vec::new(),
            max_even,
            max_odd,
            cum_cap_energy: cum_cap,
            cum_mn_energy: cum_mn,
            inverter_energy: stages as f64 * timing.e_inv,
            search_line_energy: stages as f64 * timing.e_sl,
            timing,
            tdc,
        };
        // The digest table (and its dense decoded companion) when
        // `(max_even + 1)·(max_odd + 1)` fits under DIGEST_TABLE_CAP;
        // larger geometries compute digests per row.
        let table = (max_even + 1) * (max_odd + 1);
        if table <= DIGEST_TABLE_CAP {
            let mut digests = Vec::with_capacity(table);
            for even in 0..=max_even {
                for odd in 0..=max_odd {
                    digests.push(tables.compute_digest(even, odd));
                }
            }
            tables.decoded_table = digests.iter().map(|d| d.decoded as u32).collect();
            tables.digests = digests;
            tables.count_limit = tables.count_limits();
        }
        tables
    }

    /// Builds `count_limit` from `decoded_table`: the largest
    /// `even + odd` decoding to each distance, then a running maximum,
    /// so entry `d` covers every pair that decodes to `d` or less.
    fn count_limits(&self) -> Vec<u32> {
        let top = self.decoded_table.iter().max().map_or(0, |&d| d as usize);
        let mut limit = vec![0u32; top + 1];
        for even in 0..=self.max_even {
            for odd in 0..=self.max_odd {
                let d = self.decoded_table[even * (self.max_odd + 1) + odd] as usize;
                limit[d] = limit[d].max((even + odd) as u32);
            }
        }
        for d in 1..limit.len() {
            limit[d] = limit[d].max(limit[d - 1]);
        }
        limit
    }

    /// The count-space image of a decoded-distance `bound`: every
    /// `(even, odd)` with `decoded(even, odd) <= bound` has
    /// `even + odd <= count_limit(bound)`. `usize::MAX` — prune nothing
    /// — for a bound past the table or a geometry without one.
    fn count_limit(&self, bound: usize) -> usize {
        self.count_limit
            .get(bound)
            .map_or(usize::MAX, |&limit| limit as usize)
    }

    /// A calibration where `d_INV + d_C` is indistinguishable from
    /// `d_INV`: the mismatch count is not recoverable from delay, so no
    /// row may be packed.
    fn degenerate(&self) -> bool {
        self.timing.d_inv + self.timing.d_c == self.timing.d_inv
    }

    fn decoded(&self, even: usize, odd: usize) -> usize {
        debug_assert!(even <= self.max_even && odd <= self.max_odd);
        if self.decoded_table.is_empty() {
            self.compute_digest(even, odd).decoded
        } else {
            self.decoded_table[even * (self.max_odd + 1) + odd] as usize
        }
    }

    fn digest(&self, even: usize, odd: usize) -> RowDigest {
        debug_assert!(even <= self.max_even && odd <= self.max_odd);
        if self.digests.is_empty() {
            self.compute_digest(even, odd)
        } else {
            self.digests[even * (self.max_odd + 1) + odd]
        }
    }

    fn compute_digest(&self, even: usize, odd: usize) -> RowDigest {
        let rising = self.step_delay[even];
        let falling = self.step_delay[odd];
        let total = rising + falling;
        RowDigest {
            rising,
            falling,
            total,
            count: self.tdc.convert(total),
            decoded: self.tdc.decode_mismatches(&self.timing, self.stages, total),
            tdc_energy: self.tdc.conversion_energy(total),
        }
    }

    fn chain_result(&self, even: usize, odd: usize, d: &RowDigest) -> ChainResult {
        let mismatches = even + odd;
        ChainResult {
            rising_delay: d.rising,
            falling_delay: d.falling,
            total_delay: d.total,
            mismatches,
            even_mismatches: even,
            odd_mismatches: odd,
            energy: EnergyBreakdown {
                inverters: self.inverter_energy,
                load_caps: self.cum_cap_energy[mismatches],
                match_nodes: self.cum_mn_energy[mismatches],
                search_lines: self.search_line_energy,
                ..EnergyBreakdown::default()
            },
        }
    }
}

/// Branchless transposition of up to 64 level codes into their plane
/// words: bit `j` of word `b` is bit `b` of `chunk[j]`. Every word comes
/// back whole, so a caller that stores all `bits` of them overwrites
/// whatever the slot held before.
#[inline]
fn plane_words(chunk: &[u8], bits: usize) -> [u64; 4] {
    debug_assert!(chunk.len() <= 64 && bits <= 4);
    let mut acc = [0u64; 4];
    for (j, &code) in chunk.iter().enumerate() {
        let mut v = code as u64;
        for a in acc.iter_mut().take(bits) {
            *a |= (v & 1) << j;
            v >>= 1;
        }
    }
    acc
}

/// The bit-sliced packed view of a [`TdamArray`] or of a slab of level
/// codes: the row-transposed bit planes plus a shared handle on the
/// calibration's parity masks and reconstruction tables.
///
/// Built by [`PackedArray::build`] (callers usually go through
/// [`TdamArray::compile_snapshot`](crate::TdamArray::compile_snapshot),
/// whose one compiled form is this view) or [`PackedArray::from_codes`].
#[derive(Debug, Clone)]
pub struct PackedArray {
    bits: usize,
    words: usize,
    rows: usize,
    /// Rows rounded up to a multiple of [`LANES`]; the row stride of the
    /// lane layout. Padding rows hold all-zero lane words and their
    /// counts are computed but never consumed.
    rows_pad: usize,
    /// The bit planes, row-transposed for the block kernels:
    /// `lane_planes[(w * bits + b) * rows_pad + r]` holds bit `b` of the
    /// codes stored at stages `64·w .. 64·w + 63` of row `r`. For a
    /// fixed plane word `(w, b)` consecutive rows are contiguous, so one
    /// wide register (or one unrolled iteration) carries a whole row
    /// group. Invariant: `lane_planes.len() == bits * words * rows_pad`.
    lane_planes: Vec<u64>,
    /// The dispatch-ladder rung executing the block kernels (see
    /// [`PackedKernel`]); chosen by [`PackedKernel::detect`] at build.
    kernel: PackedKernel,
    /// Which rows are served by the kernel (the rest fall back to the
    /// behavioral model).
    packable: Vec<bool>,
    tables: Arc<Tables>,
}

impl PackedArray {
    /// Packs every nominal row of `array` into bit planes; stages listed
    /// in `masked` are packed as always-match (see the module docs). Rows
    /// with non-nominal cells outside the mask are flagged for the
    /// behavioral fallback. A degenerate calibration where `d_INV + d_C`
    /// is indistinguishable from `d_INV` refuses to pack any row: the
    /// mismatch count would no longer be recoverable from delay.
    pub fn build(array: &TdamArray, masked: &BTreeSet<usize>) -> Self {
        let config = array.config();
        let tables = Tables::new(config.stages, masked.clone(), *array.timing(), *array.tdc());
        let rows = array.chains().len();
        let mut packed = Self::blank(Arc::new(tables), config.encoding.bits() as usize, rows);
        for row in 0..rows {
            packed.repack_row(array, row);
        }
        packed
    }

    /// Packs a corpus of (pre-validated, ideal) level codes directly into
    /// bit planes — the cell-free constructor. `codes` is row-major flat
    /// (`rows · stages` bytes); every row is packable (codes carry no
    /// device variation) unless the calibration is degenerate, and no
    /// stages are masked.
    ///
    /// The result is **bit-identical** to [`PackedArray::build`] on a
    /// [`TdamArray`] holding the same codes through nominal cells: the
    /// planes are pure functions of the stored codes and every
    /// reconstruction table is a pure function of geometry, timing, and
    /// TDC calibration (pinned by an in-module test). Unlike `build`,
    /// no per-cell behavioral state exists, so a million-row corpus costs
    /// `rows · stages · bits / 8` plane bytes rather than gigabytes of
    /// cell structs.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero or `codes.len()` is not a multiple of
    /// `stages` — corpus callers size the slab, so a ragged slab is a
    /// caller bug, not an input error.
    pub fn from_codes(
        encoding: Encoding,
        stages: usize,
        timing: &StageTiming,
        tdc: &CounterTdc,
        codes: &[u8],
    ) -> Self {
        assert!(stages > 0, "from_codes needs at least one stage");
        assert_eq!(
            codes.len() % stages,
            0,
            "codes slab must be a whole number of rows"
        );
        let tables = Arc::new(Tables::new(stages, BTreeSet::new(), *timing, *tdc));
        let mut packed = Self::blank(tables, encoding.bits() as usize, codes.len() / stages);
        for (row, code) in codes.chunks_exact(stages).enumerate() {
            packed.repack_row_codes(row, code);
        }
        packed
    }

    /// A `rows`-row array of all-zero codes with this array's geometry,
    /// calibration and kernel rung, sharing its tables — what
    /// [`PackedArray::from_codes`] returns for a zero slab of the same
    /// calibration, without rebuilding a table.
    pub(crate) fn blank_like(&self, rows: usize) -> Self {
        Self {
            kernel: self.kernel,
            ..Self::blank(Arc::clone(&self.tables), self.bits, rows)
        }
    }

    /// Zeroed planes of `rows` rows over `tables`: all-zero codes,
    /// packable unless the calibration is degenerate.
    fn blank(tables: Arc<Tables>, bits: usize, rows: usize) -> Self {
        let words = tables.stages.div_ceil(64);
        let rows_pad = rows.div_ceil(LANES) * LANES;
        Self {
            bits,
            words,
            rows,
            rows_pad,
            lane_planes: vec![0u64; bits * words * rows_pad],
            kernel: PackedKernel::detect(),
            packable: vec![!tables.degenerate(); rows],
            tables,
        }
    }

    /// Grows a code-backed array to `rows` (≥ its row count): the planes
    /// are re-strided by one run copy per plane word, with no
    /// re-transposition, and the new rows are all-zero codes, exactly as
    /// [`PackedArray::from_codes`] packs a slab padded with zero rows.
    pub(crate) fn grow(&mut self, rows: usize) {
        let mut grown = self.blank_like(rows);
        let runs = grown.lane_planes.chunks_exact_mut(grown.rows_pad);
        for (to, from) in runs.zip(self.lane_planes.chunks_exact(self.rows_pad)) {
            to[..self.rows_pad].copy_from_slice(from);
        }
        grown.packable[..self.rows].copy_from_slice(&self.packable);
        *self = grown;
    }

    /// Surgically re-packs one row in place after its stored contents
    /// changed: rewrites the row's lane words and re-judges its
    /// packability under the mask the view was built with. The parity
    /// masks and every count-indexed reconstruction table are pure
    /// functions of the calibration — never of row contents — so they
    /// are deliberately untouched.
    ///
    /// Cost is O(`bits · words`) ≈ O(stages), independent of the row
    /// count: this is the O(rows touched) half of the online-mutation
    /// path (see ARCHITECTURE.md, "online mutation").
    ///
    /// `array` must have the same geometry the view was built from; only
    /// row contents may differ.
    pub(crate) fn repack_row(&mut self, array: &TdamArray, row: usize) {
        debug_assert!(row < self.rows);
        let chain = &array.chains()[row];
        let tables = &self.tables;
        self.packable[row] = !tables.degenerate()
            && chain
                .cells()
                .iter()
                .enumerate()
                .all(|(j, c)| c.is_nominal() || tables.masked.contains(&j));
        let mut codes = [0u8; 64];
        for (w, cells) in chain.cells().chunks(64).enumerate() {
            for (code, cell) in codes.iter_mut().zip(cells) {
                *code = cell.stored();
            }
            self.store_words(row, w, &codes[..cells.len()]);
        }
    }

    /// Surgically re-packs one row from a (pre-validated, ideal) level
    /// code — the code-slab counterpart of `repack_row`, used by the
    /// [`crate::corpus`] tier's placement pass and online writes. Same
    /// cost (O(stages), independent of the row count) and the same
    /// invariant: reconstruction tables are untouched because they never
    /// depend on row contents. The row is packable unless the
    /// calibration is degenerate, exactly as in
    /// [`PackedArray::from_codes`].
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) when `row` is out of bounds or
    /// `code.len() != stages`.
    pub fn repack_row_codes(&mut self, row: usize, code: &[u8]) {
        debug_assert!(row < self.rows);
        debug_assert_eq!(code.len(), self.tables.stages);
        self.packable[row] = !self.tables.degenerate();
        for (w, chunk) in code.chunks(64).enumerate() {
            self.store_words(row, w, chunk);
        }
    }

    /// Writes the plane words of `row`'s stages `64·w ..` from their
    /// codes, every bit plane overwritten.
    #[inline]
    fn store_words(&mut self, row: usize, w: usize, codes: &[u8]) {
        let planes = plane_words(codes, self.bits);
        for (b, &word) in planes.iter().enumerate().take(self.bits) {
            self.lane_planes[(w * self.bits + b) * self.rows_pad + row] = word;
        }
    }

    /// Reads `row`'s `stages` level codes back out of the planes into
    /// `out` — exact, since the planes hold every code bit.
    pub(crate) fn unpack_row(&self, row: usize, out: &mut [u8]) {
        debug_assert!(row < self.rows);
        debug_assert_eq!(out.len(), self.tables.stages);
        for (j, code) in out.iter_mut().enumerate() {
            let word = |b: usize| self.lane_planes[(j / 64 * self.bits + b) * self.rows_pad + row];
            *code = (0..self.bits).fold(0, |v, b| v | (((word(b) >> (j % 64)) & 1) as u8) << b);
        }
    }

    /// Heap bytes this view keeps to itself — its planes and packability
    /// flags, not the shared tables. The corpus tier's snapshot cache
    /// charges this figure, for a shard snapshot and a standalone array
    /// alike.
    pub fn resident_bytes(&self) -> usize {
        self.lane_planes.len() * 8 + self.packable.len()
    }

    /// Number of rows in the packed view.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of stages per row.
    pub fn stages(&self) -> usize {
        self.tables.stages
    }

    /// Whether `row` is served by the kernel (false: behavioral fallback).
    pub fn is_packed(&self, row: usize) -> bool {
        self.packable.get(row).copied().unwrap_or(false)
    }

    /// How many rows the kernel serves.
    pub fn packed_rows(&self) -> usize {
        self.packable.iter().filter(|&&p| p).count()
    }

    /// The dispatch-ladder rung this view's block kernels execute.
    pub fn kernel(&self) -> PackedKernel {
        self.kernel
    }

    /// Forces a specific dispatch-ladder rung (tests, benchmarks, and
    /// operational pinning). Returns `false` — leaving the current rung
    /// in place — when the requested rung is not
    /// [available](PackedKernel::is_available) in this build/CPU, so a
    /// forced selection can degrade but never produce an unsound path.
    pub fn set_kernel(&mut self, kernel: PackedKernel) -> bool {
        if kernel.is_available() {
            self.kernel = kernel;
            true
        } else {
            false
        }
    }

    /// Allocates a per-worker single-query scratch (a tile of one; see
    /// [`PackedArray::tile_scratch`]).
    pub fn scratch(&self) -> PackedScratch {
        self.tile_scratch(1)
    }

    /// Allocates a per-worker scratch holding up to `capacity` queries'
    /// broadcast planes and per-row count buffers. The batch paths use
    /// query-major tiles (capacity 8) so each L1-blocked row group is
    /// walked once per tile rather than once per query.
    pub fn tile_scratch(&self, capacity: usize) -> PackedScratch {
        let capacity = capacity.max(1);
        PackedScratch {
            q_planes: vec![0u64; capacity * self.bits * self.words],
            even: vec![0u32; capacity * self.rows_pad],
            odd: vec![0u32; capacity * self.rows_pad],
            capacity,
            filled: 0,
        }
    }

    /// Broadcasts one (pre-validated) query into `scratch`'s slot-0 bit
    /// planes, making it a filled tile of one. Every plane word of the
    /// slot is overwritten, so a scratch can be reused across queries —
    /// and remains safe to reuse even if a previous query's evaluation
    /// panicked mid-flight.
    pub fn expand_query(&self, query: &[u8], scratch: &mut PackedScratch) {
        scratch.filled = 1;
        let planes = self.bits * self.words;
        self.expand_into(query, &mut scratch.q_planes[..planes]);
    }

    /// Broadcasts a tile of (pre-validated) queries into `scratch`,
    /// overwriting every plane word of the filled slots. At most
    /// [`PackedScratch::capacity`] queries; the batch drivers slice
    /// their batches accordingly.
    pub fn expand_tile<'q>(
        &self,
        queries: impl ExactSizeIterator<Item = &'q [u8]>,
        scratch: &mut PackedScratch,
    ) {
        debug_assert!(queries.len() <= scratch.capacity);
        let planes = self.bits * self.words;
        scratch.filled = queries.len();
        for (t, query) in queries.enumerate() {
            self.expand_into(query, &mut scratch.q_planes[t * planes..(t + 1) * planes]);
        }
    }

    /// Word-chunked, branchless query broadcast into one slot's planes
    /// (the same transposition that writes stored rows): every word is
    /// stored unconditionally, which is what keeps a reused — or torn —
    /// scratch fully overwritten.
    fn expand_into(&self, query: &[u8], out: &mut [u64]) {
        debug_assert_eq!(query.len(), self.tables.stages);
        debug_assert_eq!(out.len(), self.bits * self.words);
        for (w, chunk) in query.chunks(64).enumerate() {
            let planes = plane_words(chunk, self.bits);
            for (b, &word) in planes.iter().enumerate().take(self.bits) {
                out[b * self.words + w] = word;
            }
        }
    }

    /// Runs the block kernel for every expanded query of the tile,
    /// filling `scratch`'s per-row `(even, odd)` count buffers — the
    /// ladder-dispatched, cache-blocked form of the kernel.
    ///
    /// The loop nest is row-block-major: row blocks sized to
    /// `ROW_BLOCK_BYTES` (16 KiB) of lane words (L1-resident) in the outer
    /// loop, the tile's queries inner — so each block is pulled from
    /// memory once per tile, not once per query. Counts are exact
    /// integers on every rung; read them back with
    /// [`PackedArray::counts`]. Rows where [`PackedArray::is_packed`] is
    /// false get counts too, but callers must route them to the
    /// behavioral model instead of consuming those.
    pub fn mismatch_counts(&self, scratch: &mut PackedScratch) {
        let PackedScratch {
            q_planes,
            even,
            odd,
            filled,
            ..
        } = scratch;
        let args = KernelArgs {
            lanes: &self.lane_planes,
            even_mask: &self.tables.even_mask,
            odd_mask: &self.tables.odd_mask,
            bits: self.bits,
            words: self.words,
            rows_pad: self.rows_pad,
        };
        let planes = self.bits * self.words;
        let block = self.row_block();
        let mut r0 = 0;
        while r0 < self.rows_pad {
            let r1 = (r0 + block).min(self.rows_pad);
            for t in 0..*filled {
                kernel::mismatch_block(
                    self.kernel,
                    &args,
                    &q_planes[t * planes..(t + 1) * planes],
                    r0,
                    r1,
                    &mut even[t * self.rows_pad..(t + 1) * self.rows_pad],
                    &mut odd[t * self.rows_pad..(t + 1) * self.rows_pad],
                );
            }
            r0 = r1;
        }
    }

    /// Rows per cache block: as many [`LANES`]-row groups as keep the
    /// block's lane words within [`ROW_BLOCK_BYTES`], at least one group.
    fn row_block(&self) -> usize {
        let row_bytes = (self.bits * self.words * 8).max(1);
        let rows = ROW_BLOCK_BYTES / row_bytes;
        (rows / LANES * LANES).max(LANES)
    }

    /// Reads query `t`'s `(even_mismatches, odd_mismatches)` for `row`
    /// from a tile filled by [`PackedArray::mismatch_counts`].
    #[inline]
    pub fn counts(&self, scratch: &PackedScratch, t: usize, row: usize) -> (usize, usize) {
        debug_assert!(t < scratch.filled && row < self.rows);
        let slot = t * self.rows_pad + row;
        (scratch.even[slot] as usize, scratch.odd[slot] as usize)
    }

    /// The single-row reference kernel: `(even_mismatches,
    /// odd_mismatches)` of `row` against the query expanded into
    /// `scratch`'s slot 0. `XOR` per bit plane, `OR` across planes,
    /// `count_ones()` under each parity mask — a handful of word ops per
    /// 64 stages in place of 64 dependent f64 loads. One row at a time,
    /// independent of the row blocking and the dispatch ladder, which is
    /// what makes it the anchor the ladder rungs are pinned against in
    /// `tests/packed_equiv.rs`.
    ///
    /// Only meaningful for rows where [`PackedArray::is_packed`] holds;
    /// callers route other rows to the behavioral model.
    pub fn row_mismatches(&self, row: usize, scratch: &PackedScratch) -> (usize, usize) {
        debug_assert!(row < self.rows);
        let (bits, words) = (self.bits, self.words);
        let mut even = 0usize;
        let mut odd = 0usize;
        for w in 0..words {
            let mut diff = 0u64;
            for b in 0..bits {
                diff |= self.lane_planes[(w * bits + b) * self.rows_pad + row]
                    ^ scratch.q_planes[b * words + w];
            }
            even += (diff & self.tables.even_mask[w]).count_ones() as usize;
            odd += (diff & self.tables.odd_mask[w]).count_ones() as usize;
        }
        (even, odd)
    }

    /// Reconstructs the full [`ChainResult`] from the per-parity counts.
    pub fn reconstruct(&self, even: usize, odd: usize) -> ChainResult {
        self.digitize(even, odd).0.chain
    }

    /// Digitizes `(even, odd)` into the per-row search outcome — the
    /// packed equivalent of the array's TDC/decode step — returning the
    /// row result and its TDC conversion energy (accumulated separately
    /// at array scope).
    pub(crate) fn digitize(&self, even: usize, odd: usize) -> (RowResult, f64) {
        let d = self.tables.digest(even, odd);
        (
            RowResult {
                chain: self.tables.chain_result(even, odd, &d),
                count: d.count,
                decoded_mismatches: d.decoded,
            },
            d.tdc_energy,
        )
    }

    /// The decoded distance for `(even, odd)` mismatch counts — the
    /// digest's TDC decode alone, served from the dense companion table
    /// so the decision-only path touches 4 bytes per row, not 48.
    #[inline]
    pub(crate) fn decoded(&self, even: usize, odd: usize) -> usize {
        self.tables.decoded(even, odd)
    }

    /// The largest `even + odd` that can still decode to `bound` or
    /// less (inclusive, so a row tied at the bound still reaches the
    /// full `(distance, id)` compare); `usize::MAX` when nothing may be
    /// pruned. A row whose counts sum past it cannot enter a top-k whose
    /// worst kept distance is `bound`.
    #[inline]
    pub(crate) fn count_limit(&self, bound: usize) -> usize {
        self.tables.count_limit(bound)
    }

    /// Query `t`'s per-row `(even, odd)` count buffers (one entry per
    /// row) from a tile filled by [`PackedArray::mismatch_counts`] —
    /// [`PackedArray::counts`] for a whole array at once, for callers
    /// that sweep the counts in vector-sized groups.
    pub(crate) fn count_buffers<'s>(
        &self,
        scratch: &'s PackedScratch,
        t: usize,
    ) -> (&'s [u32], &'s [u32]) {
        debug_assert!(t < scratch.filled);
        let span = t * self.rows_pad..t * self.rows_pad + self.rows;
        (&scratch.even[span.clone()], &scratch.odd[span])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrayConfig;
    use crate::encoding::Encoding;
    use crate::engine::SimilarityEngine;

    fn seeded_array(bits: u8, stages: usize, rows: usize, seed: u64) -> TdamArray {
        let cfg = ArrayConfig::paper_default()
            .with_encoding(Encoding::new(bits).unwrap())
            .with_stages(stages)
            .with_rows(rows);
        let mut am = TdamArray::new(cfg).unwrap();
        let levels = cfg.encoding.levels() as u64;
        let mut state = seed | 1;
        let mut next = || {
            // SplitMix64 — deterministic row contents without rand.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for row in 0..rows {
            let values: Vec<u8> = (0..stages).map(|_| (next() % levels) as u8).collect();
            am.store(row, &values).unwrap();
        }
        am
    }

    /// The ulp bound the reconstruction documents: `2·(N + k)·ε`
    /// relative, with room for the final `rising + falling` addition.
    fn delay_close(a: f64, b: f64, stages: usize) -> bool {
        let bound = 2.0 * (stages as f64 + stages as f64 / 2.0 + 2.0) * f64::EPSILON * a.abs();
        (a - b).abs() <= bound
    }

    #[test]
    fn counts_exactly_match_behavioral_across_encodings_and_widths() {
        for bits in 1..=4u8 {
            // Widths straddling the word boundary: 1 word exact, 1 word
            // ragged, multi-word ragged.
            for stages in [3usize, 64, 65, 100, 130] {
                let am = seeded_array(
                    bits,
                    stages,
                    5,
                    0xC0FFEE ^ (bits as u64) << 8 ^ stages as u64,
                );
                let packed = PackedArray::build(&am, &BTreeSet::new());
                assert_eq!(packed.packed_rows(), 5);
                let mut scratch = packed.scratch();
                let levels = 1u64 << bits;
                for k in 0..7u64 {
                    let q: Vec<u8> = (0..stages)
                        .map(|j| ((j as u64 * 31 + k * 7) % levels) as u8)
                        .collect();
                    packed.expand_query(&q, &mut scratch);
                    for row in 0..5 {
                        let reference = am.chains()[row].evaluate(&q).unwrap();
                        let (even, odd) = packed.row_mismatches(row, &scratch);
                        assert_eq!(even, reference.even_mismatches, "{bits}b {stages}st");
                        assert_eq!(odd, reference.odd_mismatches, "{bits}b {stages}st");
                        let rebuilt = packed.reconstruct(even, odd);
                        assert_eq!(rebuilt.mismatches, reference.mismatches);
                        assert!(delay_close(
                            rebuilt.rising_delay,
                            reference.rising_delay,
                            stages
                        ));
                        assert!(delay_close(
                            rebuilt.falling_delay,
                            reference.falling_delay,
                            stages
                        ));
                        assert!(delay_close(
                            rebuilt.total_delay,
                            reference.total_delay,
                            stages
                        ));
                        // Energies follow the repeated-addition discipline
                        // exactly, so they are bitwise equal.
                        assert_eq!(rebuilt.energy, reference.energy);
                    }
                }
            }
        }
    }

    #[test]
    fn masked_stages_pack_as_always_match() {
        let stages = 70;
        let am = seeded_array(2, stages, 3, 0xFACE);
        let masked: BTreeSet<usize> = [0usize, 13, 64, 69].into_iter().collect();
        let packed = PackedArray::build(&am, &masked);
        let mut scratch = packed.scratch();
        // A query mismatching everywhere only counts unmasked stages.
        for row in 0..3 {
            let stored = am.stored(row).unwrap();
            let q: Vec<u8> = stored.iter().map(|&v| v ^ 1).collect();
            packed.expand_query(&q, &mut scratch);
            let (even, odd) = packed.row_mismatches(row, &scratch);
            // The behavioral reference on a query where masked stages are
            // forced to match must agree exactly.
            let mut forced = q.clone();
            for &j in &masked {
                forced[j] = stored[j];
            }
            let reference = am.chains()[row].evaluate(&forced).unwrap();
            assert_eq!(even, reference.even_mismatches);
            assert_eq!(odd, reference.odd_mismatches);
            assert_eq!(even + odd, stages - masked.len());
        }
    }

    #[test]
    fn masked_columns_readmit_faulty_rows_to_the_fast_path() {
        let mut am = seeded_array(2, 16, 2, 0xB0B);
        // Row 1 takes a perturbed cell at stage 5: unpackable as-is.
        let mut cells: Vec<crate::cell::Cell> = am.chains()[1].cells().to_vec();
        cells[5] = crate::cell::Cell::with_vth(1, am.config().encoding, 0.63, 1.02).unwrap();
        am.store_cells(1, cells).unwrap();
        let unmasked = PackedArray::build(&am, &BTreeSet::new());
        assert!(!unmasked.is_packed(1));
        assert_eq!(unmasked.packed_rows(), 1);
        // Masking the damaged column restores kernel service for the row.
        let masked: BTreeSet<usize> = [5usize].into_iter().collect();
        let repacked = PackedArray::build(&am, &masked);
        assert!(repacked.is_packed(1));
        assert_eq!(repacked.packed_rows(), 2);
    }

    #[test]
    fn degenerate_timing_refuses_to_pack() {
        let am = seeded_array(2, 8, 2, 1);
        // Forge a calibration where d_C vanishes under d_INV in f64: the
        // mismatch count is no longer recoverable from delay, so no row
        // may be packed.
        let mut timing = *am.timing();
        timing.d_c = timing.d_inv * f64::EPSILON * 0.25;
        let degenerate = TdamArray::with_timing(*am.config(), timing).unwrap();
        let packed = PackedArray::build(&degenerate, &BTreeSet::new());
        assert_eq!(packed.packed_rows(), 0);
    }

    #[test]
    fn digest_table_and_on_the_fly_paths_agree() {
        let am = seeded_array(2, 33, 2, 7);
        let packed = PackedArray::build(&am, &BTreeSet::new());
        let table = &packed.tables;
        assert!(!table.digests.is_empty(), "33 stages fits the table");
        let mut on_the_fly = Tables::clone(table);
        on_the_fly.digests.clear();
        for even in 0..=table.max_even {
            for odd in 0..=table.max_odd {
                assert_eq!(on_the_fly.digest(even, odd), table.digest(even, odd));
            }
        }
    }

    /// The count-space limit a decoded bound maps to is exact: every
    /// `(even, odd)` that decodes to `d` or less sums to at most
    /// `count_limit(d)`, and some such pair sums to exactly that, so
    /// pruning past the limit drops no row the select could keep and
    /// keeps no needless slack. Pinned under the nominal calibration
    /// and under one whose `d_C` is a few ulps of a step sum, where the
    /// decode strays from `even + odd`; a geometry too wide for the
    /// decoded table prunes nothing.
    #[test]
    fn count_limit_is_the_exact_image_of_a_decoded_bound() {
        let nominal = *seeded_array(2, 8, 1, 1).timing();
        let skewed = StageTiming {
            d_c: nominal.d_inv * 1e-13,
            ..nominal
        };
        let mut strays = 0usize;
        for timing in [nominal, skewed] {
            let tdc = CounterTdc::matched(&timing).unwrap();
            for bits in 1..=4u8 {
                let enc = Encoding::new(bits).unwrap();
                for stages in [1usize, 2, 31, 32, 33, 64, 65, 128] {
                    let packed =
                        PackedArray::from_codes(enc, stages, &timing, &tdc, &vec![0u8; stages]);
                    let tables = &packed.tables;
                    assert!(!tables.decoded_table.is_empty());
                    let pairs: Vec<(usize, usize)> = (0..=tables.max_even)
                        .flat_map(|e| (0..=tables.max_odd).map(move |o| (e, o)))
                        .map(|(e, o)| (packed.decoded(e, o), e + o))
                        .collect();
                    strays += pairs.iter().filter(|&&(d, sum)| d != sum).count();
                    let top = pairs.iter().map(|&(d, _)| d).max().unwrap();
                    for bound in 0..=top {
                        let tightest = pairs
                            .iter()
                            .filter(|&&(d, _)| d <= bound)
                            .map(|&(_, sum)| sum)
                            .max();
                        assert_eq!(
                            packed.count_limit(bound),
                            tightest.unwrap_or(0),
                            "{bits}b {stages}st d_c {:e} bound {bound}",
                            timing.d_c
                        );
                    }
                    for past in [top + 1, usize::MAX] {
                        assert_eq!(packed.count_limit(past), usize::MAX);
                    }
                }
            }
        }
        assert!(strays > 0, "the skewed calibration never moved a decode");

        let tdc = CounterTdc::matched(&nominal).unwrap();
        let wide =
            PackedArray::from_codes(Encoding::new(2).unwrap(), 600, &nominal, &tdc, &[0; 600]);
        assert!(
            wide.tables.decoded_table.is_empty(),
            "600 stages outgrow the table"
        );
        assert_eq!(wide.count_limit(0), usize::MAX, "no table, no pruning");
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let am = seeded_array(3, 65, 2, 0xDEAD);
        let packed = PackedArray::build(&am, &BTreeSet::new());
        let q1: Vec<u8> = (0..65).map(|j| (j % 8) as u8).collect();
        let q2: Vec<u8> = (0..65).map(|j| (7 - j % 8) as u8).collect();
        let mut reused = packed.scratch();
        packed.expand_query(&q1, &mut reused);
        packed.expand_query(&q2, &mut reused);
        let mut fresh = packed.scratch();
        packed.expand_query(&q2, &mut fresh);
        for row in 0..2 {
            assert_eq!(
                packed.row_mismatches(row, &reused),
                packed.row_mismatches(row, &fresh)
            );
        }
    }

    #[test]
    fn repack_row_is_bit_identical_to_full_rebuild() {
        let mut am = seeded_array(2, 70, 6, 0xAB);
        let masked: BTreeSet<usize> = [3usize, 64].into_iter().collect();
        let mut packed = PackedArray::build(&am, &masked);
        let levels = am.config().encoding.levels() as u64;
        for (round, &row) in [1usize, 4, 1, 5, 0].iter().enumerate() {
            let values: Vec<u8> = (0..70)
                .map(|j| ((j as u64 * 13 + round as u64 * 5 + 3) % levels) as u8)
                .collect();
            am.store(row, &values).unwrap();
            packed.repack_row(&am, row);
        }
        let rebuilt = PackedArray::build(&am, &masked);
        assert_eq!(packed.lane_planes, rebuilt.lane_planes);
        assert_eq!(packed.packable, rebuilt.packable);
    }

    #[test]
    fn from_codes_is_bit_identical_to_cell_backed_build() {
        for bits in [1u8, 2, 4] {
            for stages in [3usize, 64, 65, 130] {
                let rows = 6;
                let am = seeded_array(
                    bits,
                    stages,
                    rows,
                    0x5EED ^ (bits as u64) << 8 ^ stages as u64,
                );
                let mut codes = Vec::with_capacity(rows * stages);
                for row in 0..rows {
                    codes.extend_from_slice(&am.stored(row).unwrap());
                }
                let enc = am.config().encoding;
                let direct = PackedArray::from_codes(enc, stages, am.timing(), am.tdc(), &codes);
                let reference = PackedArray::build(&am, &BTreeSet::new());
                assert_eq!(
                    direct.lane_planes, reference.lane_planes,
                    "{bits}b {stages}st"
                );
                assert_eq!(direct.packable, reference.packable);
                assert_eq!(direct.tables.even_mask, reference.tables.even_mask);
                assert_eq!(direct.tables.odd_mask, reference.tables.odd_mask);
                assert_eq!(direct.tables.decoded_table, reference.tables.decoded_table);
                // Surgical code repack matches a fresh slab build too.
                let mut patched = direct.clone();
                let levels = enc.levels() as u64;
                let new_row: Vec<u8> = (0..stages)
                    .map(|j| ((j as u64 * 17 + 5) % levels) as u8)
                    .collect();
                patched.repack_row_codes(2, &new_row);
                let mut new_codes = codes.clone();
                new_codes[2 * stages..3 * stages].copy_from_slice(&new_row);
                let reslabbed =
                    PackedArray::from_codes(enc, stages, am.timing(), am.tdc(), &new_codes);
                assert_eq!(patched.lane_planes, reslabbed.lane_planes);
                assert!(patched.resident_bytes() > 0);
            }
        }
    }

    #[test]
    fn from_codes_refuses_degenerate_timing() {
        let am = seeded_array(2, 8, 2, 1);
        let mut timing = *am.timing();
        timing.d_c = timing.d_inv * f64::EPSILON * 0.25;
        let codes = vec![0u8; 16];
        let packed = PackedArray::from_codes(am.config().encoding, 8, &timing, am.tdc(), &codes);
        assert_eq!(packed.packed_rows(), 0);
    }

    #[test]
    fn repack_row_tracks_packability_transitions() {
        let mut am = seeded_array(2, 16, 3, 0x51);
        let mut packed = PackedArray::build(&am, &BTreeSet::new());
        assert!(packed.is_packed(1));
        // A perturbed cell lands at stage 5: the row must leave the fast
        // path on repack...
        let mut cells: Vec<crate::cell::Cell> = am.chains()[1].cells().to_vec();
        cells[5] = crate::cell::Cell::with_vth(1, am.config().encoding, 0.63, 1.02).unwrap();
        am.store_cells(1, cells).unwrap();
        packed.repack_row(&am, 1);
        assert!(!packed.is_packed(1));
        // ...and rejoin it once nominal values are rewritten.
        am.store(1, &[0; 16]).unwrap();
        packed.repack_row(&am, 1);
        assert!(packed.is_packed(1));
        let rebuilt = PackedArray::build(&am, &BTreeSet::new());
        assert_eq!(packed.lane_planes, rebuilt.lane_planes);
    }

    #[test]
    fn packing_admits_exactly_the_nominal_rows() {
        // With no mask in play, a row packs iff every one of its cells is
        // nominal and the calibration keeps `d_INV + d_C` distinct from
        // `d_INV`; every other row keeps the behavioral fallback.
        let mut am = seeded_array(2, 12, 3, 42);
        let cells = (0..12)
            .map(|_| crate::cell::Cell::with_vth(1, am.config().encoding, 0.65, 1.05).unwrap())
            .collect();
        am.store_cells(2, cells).unwrap();
        let timing = am.timing();
        assert_ne!(timing.d_inv + timing.d_c, timing.d_inv, "sound calibration");
        let packed = PackedArray::build(&am, &BTreeSet::new());
        for (row, chain) in am.chains().iter().enumerate() {
            let nominal = chain.cells().iter().all(crate::cell::Cell::is_nominal);
            assert_eq!(packed.is_packed(row), nominal, "row {row}");
        }
        assert_eq!(packed.packed_rows(), 2, "only the perturbed row falls back");
    }

    /// SplitMix64-derived codes for a `rows × stages` slab of `bits`-bit
    /// levels.
    fn seeded_codes(bits: u8, stages: usize, rows: usize, seed: u64) -> Vec<u8> {
        let levels = 1u64 << bits;
        (0..rows * stages)
            .map(|i| {
                let mut z = (seed ^ i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % levels) as u8
            })
            .collect()
    }

    /// The planes are the storage: unpacking returns the written codes
    /// exactly at every encoding and at widths around every word
    /// boundary, and an array grown by run copies and then written
    /// equals a fresh slab build of the same codes.
    #[test]
    fn lane_planes_round_trip_codes_and_grow_like_a_fresh_build() {
        let am = seeded_array(2, 8, 1, 1);
        for bits in 1..=4u8 {
            let enc = Encoding::new(bits).unwrap();
            for stages in [1usize, 31, 32, 63, 64, 65, 128, 130] {
                let (rows, grown) = (13, 29);
                let codes = seeded_codes(bits, stages, grown, (bits as u64) << 16 ^ stages as u64);
                let (head, tail) = codes.split_at(rows * stages);
                let mut packed = PackedArray::from_codes(enc, stages, am.timing(), am.tdc(), head);
                let mut out = vec![0u8; stages];
                for (row, code) in head.chunks_exact(stages).enumerate() {
                    packed.unpack_row(row, &mut out);
                    assert_eq!(out, code, "{bits}b {stages}st row {row}");
                }
                packed.grow(grown);
                for (i, code) in tail.chunks_exact(stages).enumerate() {
                    packed.repack_row_codes(rows + i, code);
                }
                let fresh = PackedArray::from_codes(enc, stages, am.timing(), am.tdc(), &codes);
                assert_eq!((packed.rows, packed.rows_pad), (fresh.rows, fresh.rows_pad));
                assert_eq!(packed.lane_planes, fresh.lane_planes, "{bits}b {stages}st");
                assert_eq!(packed.packable, fresh.packable);
                for (row, code) in codes.chunks_exact(stages).enumerate() {
                    packed.unpack_row(row, &mut out);
                    assert_eq!(out, code, "{bits}b {stages}st grown row {row}");
                }
            }
        }
    }

    /// A blank array sharing another's tables is a zero slab of the same
    /// calibration, and cloning shares the tables instead of copying them.
    #[test]
    fn blank_like_shares_tables_and_equals_a_zero_slab() {
        let am = seeded_array(2, 40, 1, 1);
        let enc = am.config().encoding;
        let base = PackedArray::from_codes(enc, 40, am.timing(), am.tdc(), &[1u8; 40]);
        let blank = base.blank_like(70);
        let zeros = PackedArray::from_codes(enc, 40, am.timing(), am.tdc(), &[0u8; 70 * 40]);
        assert_eq!(blank.lane_planes, zeros.lane_planes);
        assert_eq!(blank.packable, zeros.packable);
        assert!(Arc::ptr_eq(&blank.tables, &base.tables));
        assert!(Arc::ptr_eq(&blank.clone().tables, &base.tables));
        assert_eq!(blank.resident_bytes(), zeros.resident_bytes());
    }
}
