//! Array-scale resilience: fault detection, repair, and graceful
//! degradation for the TD-AM.
//!
//! The paper's robustness story (Fig. 6) ends at V_TH-variation Monte
//! Carlo inside the sensing margin. A production associative memory must
//! keep answering queries when cells break, devices drift, and writes
//! fail. This module turns the cell-level fault machinery of
//! [`crate::faults`], the aging models of [`tdam_fefet::retention`], and
//! the write-verify flow of [`tdam_fefet::programming`] into one
//! detect → retry → repair → degrade-gracefully subsystem:
//!
//! 1. **Fault model** — beyond the stuck/drift cell faults, chain-level
//!    faults (a broken stage that severs a row, a stuck shared search
//!    line that afflicts one column across *all* rows) and transient
//!    faults ([`TransientFaults`]: TDC miscounts, SL driver glitches).
//! 2. **Detection** — known-answer *reference rows* and per-row margin
//!    monitors ([`ResilientArray::check`]). Every row is probed with its
//!    own stored vector (expected distance 0) and its complement
//!    (expected distance N); the delay of each probe must also sit near
//!    its decode bin center, which flags drift long before it flips a
//!    count. Reference rows additionally localize *column* faults by a
//!    march-style single-position probe sweep; a column is only indicted
//!    when every reference row implicates it, which is the stuck-SL
//!    signature (cell faults are row-local).
//! 3. **Repair** — [`ResilientArray::repair`] re-programs suspect rows
//!    through write-verify with the bounded, amplitude-escalating
//!    [`RetryPolicy`] (drift is erased by a fresh write; retries are
//!    hard-capped), then remaps persistently failing rows to a
//!    configurable spare-row pool. Indicted columns are masked out of
//!    the distance arithmetic. Rows that exhaust every option degrade
//!    gracefully instead of corrupting results: a row that only
//!    under-counts (stuck-match) is kept and flagged, a row that cannot
//!    match is reported at maximum distance and excluded from ranking.
//! 4. **Campaigns** — [`run_campaign`] sweeps fault rate × fault kind
//!    over seeded Monte Carlo trials (parallelized with
//!    [`std::thread::scope`]) and reports retrieval/decode accuracy with
//!    and without repair. Campaigns are bit-identical under a fixed
//!    seed: every trial derives its own RNG stream from the campaign
//!    seed and integer statistics are merged in trial order.
//!
//! The stuck-column model is a driver stuck at the conducting level:
//! every cell in the column discharges its match node regardless of
//! data, so the column adds a constant +1 to every row's raw count.
//! Masking subtracts that known bias, which both restores decodes and
//! removes the dimension from the metric (its hardware cannot
//! distinguish values any more).

use std::collections::BTreeSet;

use crate::array::TdamArray;
use crate::config::ArrayConfig;
use crate::energy::EnergyBreakdown;
use crate::engine::{SearchMetrics, SimilarityEngine};
use crate::faults::{faulty_row, FaultKind, FaultMap};
use crate::TdamError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tdam_fefet::disturb::InhibitScheme;
use tdam_fefet::preisach::PreisachParams;
use tdam_fefet::programming::RetryPolicy;
use tdam_fefet::retention::EnduranceParams;

/// Wear-aware write-leveling policy: when to rotate a hot logical row
/// onto a fresh spare, and when accumulated program disturb forces a
/// refresh-rewrite of a sibling row.
///
/// Both thresholds are grounded in the `fefet` lifetime models: rotation
/// budgets program/erase cycles against the endurance fatigue curve
/// ([`EnduranceParams`]), and disturb accumulation follows the shared-
/// search-line exposure model ([`tdam_fefet::disturb`]) — an inhibit
/// scheme that is disturb-free by construction
/// ([`tdam_fefet::disturb::is_disturb_free`]) never charges sibling rows
/// at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WearPolicy {
    /// Program cycles one physical row absorbs before the next write to
    /// its logical row rotates onto a fresh spare (`0` disables
    /// rotation). The default budgets 1% of the endurance model's
    /// half-window fatigue point, far below any margin impact.
    pub rotate_after_writes: u64,
    /// Disturb exposures (writes to *other* rows under a non-disturb-free
    /// inhibit scheme) a row absorbs before it is refresh-rewritten from
    /// its stored values (`0` disables disturb tracking).
    pub refresh_after_disturbs: u64,
    /// The inhibit biasing scheme the write driver uses. Determines —
    /// through the Preisach coercivity model — whether unselected rows
    /// accumulate disturb at all.
    pub inhibit: InhibitScheme,
}

impl Default for WearPolicy {
    fn default() -> Self {
        // V/3 inhibit at a 3.6 V write is disturb-free against the
        // default coercivity (no sibling exposure), and the rotation
        // budget of 1% of the fatigue half-window point (1e8 cycles) is
        // unreachable in any test or campaign — the default policy is
        // behaviorally inert, which keeps crash-chaos replay and every
        // pre-existing campaign bit-identical.
        Self {
            rotate_after_writes: (EnduranceParams::default().fatigue_half_cycles / 100.0) as u64,
            refresh_after_disturbs: 0,
            inhibit: InhibitScheme::third_select(3.6, 500e-9),
        }
    }
}

impl WearPolicy {
    /// A deliberately hot policy for wear-path campaigns and benches:
    /// rows rotate after a handful of writes and the naive V/2 inhibit
    /// (not disturb-free at 5 V) charges sibling rows, so short seeded
    /// campaigns actually exercise rotation and refresh-rewrites.
    pub fn aggressive() -> Self {
        Self {
            rotate_after_writes: 6,
            refresh_after_disturbs: 48,
            inhibit: InhibitScheme::half_select(5.0, 500e-9),
        }
    }

    /// Whether the configured inhibit scheme is disturb-free by
    /// construction against the default Preisach coercivity (see
    /// [`tdam_fefet::disturb::is_disturb_free`]).
    pub fn is_disturb_free(&self) -> bool {
        tdam_fefet::disturb::is_disturb_free(&self.inhibit, &PreisachParams::default())
    }
}

/// Configuration of the resilience machinery around a data array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Spare physical rows available for remapping failed data rows.
    pub spare_rows: usize,
    /// Known-answer reference rows used for health checks and column
    /// localization. Two or more lets column indictment require
    /// agreement between independent rows, suppressing false positives
    /// from cell faults on a reference row itself.
    pub reference_rows: usize,
    /// In-place re-program attempts per suspect row before falling back
    /// to a spare. A hard bound; each attempt itself uses the bounded
    /// [`RetryPolicy`] per device.
    pub repair_attempts: usize,
    /// Margin-monitor sensitivity: a probe whose delay sits further than
    /// this fraction of the sensing margin (`d_C/2`) from its decode bin
    /// center flags the row, catching drift before it flips a count.
    pub margin_threshold: f64,
    /// Device-level write-verify retry/escalation policy used by repair.
    pub retry: RetryPolicy,
    /// Wear-aware write-leveling policy (the default never triggers).
    pub wear: WearPolicy,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            spare_rows: 4,
            reference_rows: 2,
            repair_attempts: 1,
            margin_threshold: 0.6,
            retry: RetryPolicy::default(),
            wear: WearPolicy::default(),
        }
    }
}

/// Health of one logical data row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowHealth {
    /// Passing every probe.
    Healthy,
    /// Failed a probe, then passed after in-place re-programming.
    Repaired,
    /// Moved to a spare physical row that passes every probe.
    Remapped,
    /// Still under-counts mismatches (stuck-match damage) but matches
    /// exactly — usable for retrieval, distances may read low.
    Degraded,
    /// Cannot answer queries; reported at maximum distance and excluded
    /// from ranking.
    Dead,
}

/// Overall degradation level reported with every search result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// Every row healthy, no masked columns.
    Nominal,
    /// Some rows were re-programmed in place.
    Repaired,
    /// Some rows answer from spare rows.
    Remapped,
    /// Masked columns, under-counting rows, or dead rows: results are
    /// still ranked but the metric has lost fidelity.
    Degraded,
}

/// Degradation accounting attached to every [`ResilientOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationSummary {
    /// The overall level (worst applicable).
    pub level: DegradationLevel,
    /// Rows healed in place.
    pub repaired_rows: usize,
    /// Rows answering from spares.
    pub remapped_rows: usize,
    /// Rows kept despite under-counting.
    pub degraded_rows: usize,
    /// Rows excluded from ranking.
    pub dead_rows: usize,
    /// Columns masked out of the distance metric.
    pub masked_stages: usize,
}

/// Per-row outcome of a resilient search, in *logical* row order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilientRow {
    /// Mismatch count after bias correction and dead-row handling.
    pub decoded: usize,
    /// The uncorrected count the TDC decoded.
    pub raw_decoded: usize,
    /// The raw TDC count.
    pub count: u64,
    /// The row's accumulated chain delay, seconds.
    pub delay: f64,
    /// The row's health at search time.
    pub health: RowHealth,
}

/// Outcome of a search through the resilience layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientOutcome {
    /// Per-logical-row results.
    pub rows: Vec<ResilientRow>,
    /// Total search energy (spare and reference rows stay powered and
    /// are included — resilience is not free).
    pub energy: EnergyBreakdown,
    /// Full search-cycle latency, seconds.
    pub latency: f64,
    /// Degradation accounting at search time.
    pub degradation: DegradationSummary,
}

impl ResilientOutcome {
    /// The non-dead row with the smallest corrected distance (ties to the
    /// lowest index); `None` if every row is dead.
    pub fn best_row(&self) -> Option<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.health != RowHealth::Dead)
            .min_by_key(|(_, r)| r.decoded)
            .map(|(i, _)| i)
    }

    /// Corrected distances per logical row.
    pub fn decoded(&self) -> Vec<usize> {
        self.rows.iter().map(|r| r.decoded).collect()
    }

    /// Flattens to the engine-level [`SearchMetrics`] view: dead rows
    /// report no distance and never rank.
    pub fn metrics(&self) -> SearchMetrics {
        SearchMetrics {
            best_row: self.best_row(),
            distances: self
                .rows
                .iter()
                .map(|r| {
                    if r.health == RowHealth::Dead {
                        None
                    } else {
                        Some(r.decoded)
                    }
                })
                .collect(),
            energy: self.energy.total(),
            latency: self.latency,
        }
    }
}

/// Transient (non-persistent) fault rates applied at search time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TransientFaults {
    /// Probability, per row per search, that the counter TDC slips one
    /// count up or down (metastability at the latch window).
    pub tdc_miscount_rate: f64,
    /// Probability, per search, that one shared SL driver pair glitches
    /// during the launch window, adding a spurious mismatch at one
    /// column for every row that matched there.
    pub sl_glitch_rate: f64,
}

impl TransientFaults {
    /// No transient faults.
    pub fn none() -> Self {
        Self::default()
    }
}

/// Outcome of detection ([`ResilientArray::check`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Logical data rows failing a known-answer or margin probe.
    pub suspect_rows: Vec<usize>,
    /// Columns implicated by *every* (diagnosable) reference row — the
    /// stuck-shared-SL signature.
    pub suspect_stages: Vec<usize>,
    /// Whether every reference row passed its probes.
    pub reference_ok: bool,
}

impl DetectionReport {
    /// Whether nothing was flagged.
    pub fn all_clear(&self) -> bool {
        self.suspect_rows.is_empty() && self.suspect_stages.is_empty() && self.reference_ok
    }
}

/// Outcome of a repair pass ([`ResilientArray::repair`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairOutcome {
    /// Logical rows healed in place by re-programming.
    pub reprogrammed: Vec<usize>,
    /// Logical rows remapped, with their new physical row.
    pub remapped: Vec<(usize, usize)>,
    /// Logical rows kept in a degraded (under-counting) state.
    pub tolerated: Vec<usize>,
    /// Logical rows given up on.
    pub dead: Vec<usize>,
    /// Columns newly masked out of the metric.
    pub newly_masked: Vec<usize>,
    /// Reference rows re-programmed in place.
    pub refs_reprogrammed: Vec<usize>,
    /// Total programming cost of the pass (failed attempts included).
    pub pulse_pairs: usize,
    /// Total programming energy, joules.
    pub program_energy: f64,
    /// Worst per-device write-verify attempt count seen anywhere in the
    /// pass — provably bounded by the policy's `max_attempts`.
    pub max_write_attempts: usize,
}

/// Accounting for one logical-row write through the wear-aware store
/// path ([`ResilientArray::store`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteReport {
    /// The physical row the values landed in (after any rotation).
    pub physical: usize,
    /// Whether the write first rotated the logical row onto a fresh
    /// spare because its old physical row hit the wear budget.
    pub rotated: bool,
    /// Physical rows refresh-rewritten because this write pushed their
    /// accumulated program disturb past the policy budget.
    pub refreshed: Vec<usize>,
}

impl WriteReport {
    /// Physical program operations this one logical write cost (the
    /// write itself plus every triggered refresh-rewrite) — the
    /// write-amplification numerator.
    pub fn physical_writes(&self) -> usize {
        1 + self.refreshed.len()
    }
}

/// Results of one background margin-scrub pass
/// ([`ResilientArray::scrub_margins`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Live physical rows whose margins were probed.
    pub probed: usize,
    /// Physical rows refresh-rewritten because their probe delays had
    /// drifted off the decode-bin center (decode still correct).
    pub healed: Vec<usize>,
    /// Drifted rows whose healing rewrite failed write-verify — left
    /// for the full detection + repair machinery to escalate.
    pub failed: usize,
}

/// Internal status of one physical row's known-answer probes.
#[derive(Debug, Clone, Copy)]
struct ProbeStatus {
    match_ok: bool,
    complement_ok: bool,
    margin_ok: bool,
}

impl ProbeStatus {
    fn healthy(&self) -> bool {
        self.match_ok && self.complement_ok && self.margin_ok
    }
}

/// A TD-AM array wrapped with spare rows, reference rows, fault
/// bookkeeping, detection, repair, and graceful degradation.
///
/// Physical row layout: `[0, data)` data rows, `[data, data+spares)`
/// spares, `[data+spares, data+spares+refs)` reference rows. Logical
/// (caller-visible) rows are the data rows, indirect through a remap
/// table so repair can move them onto spares transparently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientArray {
    pub(crate) array: TdamArray,
    pub(crate) cfg: ResilienceConfig,
    pub(crate) data_rows: usize,
    /// Logical row → physical row.
    pub(crate) remap: Vec<usize>,
    pub(crate) spare_used: Vec<bool>,
    pub(crate) health: Vec<RowHealth>,
    /// Injected cell faults, in *physical* coordinates.
    pub(crate) faults: FaultMap,
    /// Physical rows with a severed chain (a broken stage): the pulse
    /// never reaches the TDC, which counts to its cap.
    pub(crate) broken: BTreeSet<usize>,
    /// Columns masked out of the distance arithmetic.
    pub(crate) masked: BTreeSet<usize>,
    /// Program cycles absorbed per physical row (wear leveling input).
    /// Runtime-only accounting: deliberately not persisted in
    /// checkpoints — a restored array starts with fresh counters, on
    /// both the recovery and the expected-state replay path alike.
    pub(crate) writes: Vec<u64>,
    /// Disturb exposures accumulated per physical row since its last
    /// (re)write, under a non-disturb-free inhibit scheme. Runtime-only,
    /// like `writes`.
    pub(crate) disturbs: Vec<u64>,
    /// Route every probe through a full-array search (the oracle of
    /// [`TdamArray::probe_row`]); see
    /// [`ResilientArray::use_reference_probes`]. Runtime-only.
    pub(crate) reference_probes: bool,
}

impl ResilientArray {
    /// Wraps `data` (whose `rows` field is the number of *logical* data
    /// rows) with `cfg.spare_rows` spares and `cfg.reference_rows`
    /// known-answer reference rows.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from [`TdamArray::new`].
    pub fn new(data: ArrayConfig, cfg: ResilienceConfig) -> Result<Self, TdamError> {
        let data_rows = data.rows;
        let physical = data.with_rows(data_rows + cfg.spare_rows + cfg.reference_rows);
        let mut array = TdamArray::new(physical)?;
        let levels = physical.encoding.levels() as usize;
        for k in 0..cfg.reference_rows {
            // A rotating ramp: every level appears in every reference row,
            // and no two reference rows agree at any column (for >= 2
            // levels), so a column fault perturbs all of them.
            let pattern: Vec<u8> = (0..physical.stages)
                .map(|j| ((j + k) % levels) as u8)
                .collect();
            SimilarityEngine::store(&mut array, data_rows + cfg.spare_rows + k, &pattern)?;
        }
        let physical_rows = data_rows + cfg.spare_rows + cfg.reference_rows;
        Ok(Self {
            array,
            cfg,
            data_rows,
            remap: (0..data_rows).collect(),
            spare_used: vec![false; cfg.spare_rows],
            health: vec![RowHealth::Healthy; data_rows],
            faults: FaultMap::new(),
            broken: BTreeSet::new(),
            masked: BTreeSet::new(),
            writes: vec![0; physical_rows],
            disturbs: vec![0; physical_rows],
            reference_probes: false,
        })
    }

    /// Makes every known-answer and margin probe run a full-array
    /// [`TdamArray::search`] and read one row of it, instead of
    /// evaluating that row alone through [`TdamArray::probe_row`]. The
    /// reports of [`check`](Self::check), [`repair`](Self::repair) and
    /// [`scrub_margins`](Self::scrub_margins) must not change; this
    /// switch exists so tests can hold them to that, at O(rows) times
    /// the cost per probe.
    #[doc(hidden)]
    pub fn use_reference_probes(&mut self, on: bool) {
        self.reference_probes = on;
    }

    /// Number of logical data rows.
    pub fn data_rows(&self) -> usize {
        self.data_rows
    }

    /// The resilience configuration.
    pub fn resilience_config(&self) -> &ResilienceConfig {
        &self.cfg
    }

    /// The underlying physical array (data + spares + references).
    pub fn array(&self) -> &TdamArray {
        &self.array
    }

    /// Per-logical-row health.
    pub fn health(&self) -> &[RowHealth] {
        &self.health
    }

    /// The physical row currently backing a logical row.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for invalid logical rows.
    pub fn physical_row(&self, logical: usize) -> Result<usize, TdamError> {
        self.remap
            .get(logical)
            .copied()
            .ok_or(TdamError::RowOutOfBounds {
                row: logical,
                rows: self.data_rows,
            })
    }

    /// Columns currently masked out of the metric, ascending.
    pub fn masked_stages(&self) -> Vec<usize> {
        self.masked.iter().copied().collect()
    }

    /// Builds a bit-sliced packed view ([`crate::packed`]) of the
    /// physical array with the currently-masked columns applied: masked
    /// stages pack as **always-match**, so a row whose only damage sits
    /// in masked columns regains kernel service (a stuck column rejoins
    /// the fast path once repair masks it off).
    ///
    /// Note the semantic difference from the decode-level correction of
    /// [`ResilientArray::resolve_outcome`]: `corrected_decode` subtracts
    /// the mask count from the *raw* decode (assuming every masked column
    /// mismatched, which holds for the stuck columns masking exists for),
    /// while the packed view excludes masked columns from the compare
    /// itself. For stuck-mismatch columns the two agree exactly —
    /// `tests/packed_equiv.rs` pins this.
    pub fn packed_view(&self) -> crate::packed::PackedArray {
        crate::packed::PackedArray::build(&self.array, &self.masked)
    }

    /// The injected cell faults (physical coordinates).
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    fn spare_phys(&self, spare: usize) -> usize {
        self.data_rows + spare
    }

    fn ref_phys(&self, k: usize) -> usize {
        self.data_rows + self.cfg.spare_rows + k
    }

    fn physical_rows(&self) -> usize {
        self.data_rows + self.cfg.spare_rows + self.cfg.reference_rows
    }

    /// Stores a vector at a logical row (through any injected faults),
    /// with wear-aware write leveling per the configured [`WearPolicy`]:
    ///
    /// 1. **Rotation** — if the row's current physical backing has
    ///    absorbed its program-cycle budget, the logical row first
    ///    rotates onto a fresh spare (always leaving at least one spare
    ///    free for fault repair; with no spare to give, the write lands
    ///    in place).
    /// 2. **Disturb accounting** — under a non-disturb-free inhibit
    ///    scheme every *other* live row absorbs one shared-search-line
    ///    exposure per write; a row whose accumulated exposure crosses
    ///    the policy budget is refresh-rewritten from its stored values
    ///    before its decode margin can collapse, and its counter resets.
    ///
    /// The default policy never triggers either mechanism, so plain
    /// stores behave exactly as before. The returned [`WriteReport`]
    /// carries the rotation/refresh accounting (the serving runtime
    /// aggregates it into [`crate::runtime::RuntimeStats`]).
    ///
    /// # Errors
    ///
    /// Returns bounds/shape/range errors as [`TdamArray::store_cells`].
    pub fn store(&mut self, logical: usize, values: &[u8]) -> Result<WriteReport, TdamError> {
        let mut phys = self.physical_row(logical)?;
        let policy = self.cfg.wear;
        let mut rotated = false;
        if policy.rotate_after_writes > 0
            && self.writes[phys] >= policy.rotate_after_writes
            && self.health[logical] != RowHealth::Dead
        {
            // Rotate-before-write: a hot physical row hands its logical
            // row to a fresh spare before absorbing another cycle. The
            // last free spare is reserved for fault repair.
            let mut free = (0..self.cfg.spare_rows).filter(|&s| !self.spare_used[s]);
            if let (Some(spare), Some(_)) = (free.next(), free.next()) {
                self.spare_used[spare] = true;
                phys = self.spare_phys(spare);
                self.remap[logical] = phys;
                rotated = true;
            }
        }
        let cells = faulty_row(phys, values, self.array.config().encoding, &self.faults)?;
        self.array.store_cells(phys, cells)?;
        self.writes[phys] += 1;
        self.disturbs[phys] = 0;

        let mut refreshed = Vec::new();
        if policy.refresh_after_disturbs > 0 && !policy.is_disturb_free() {
            for other in 0..self.physical_rows() {
                if other == phys {
                    continue;
                }
                self.disturbs[other] += 1;
                if self.disturbs[other] >= policy.refresh_after_disturbs {
                    // Margin-restoring rewrite from the stored values; a
                    // refresh is a program cycle for the refreshed row
                    // but (being schedulable under full inhibit) does
                    // not re-expose its siblings.
                    self.rebuild_row(other)?;
                    self.writes[other] += 1;
                    self.disturbs[other] = 0;
                    refreshed.push(other);
                }
            }
        }
        Ok(WriteReport {
            physical: phys,
            rotated,
            refreshed,
        })
    }

    /// Program cycles absorbed so far by the physical row backing
    /// `logical` (wear-leveling telemetry).
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for invalid logical rows.
    pub fn row_wear(&self, logical: usize) -> Result<u64, TdamError> {
        Ok(self.writes[self.physical_row(logical)?])
    }

    /// Rebuilds a physical row's cells from its stored values and the
    /// current fault map.
    fn rebuild_row(&mut self, phys: usize) -> Result<(), TdamError> {
        let values = self.array.stored(phys)?;
        let cells = faulty_row(phys, &values, self.array.config().encoding, &self.faults)?;
        self.array.store_cells(phys, cells)
    }

    /// Injects a cell fault at *physical* `(row, stage)` and re-realizes
    /// the row.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for invalid physical rows.
    pub fn inject(&mut self, row: usize, stage: usize, kind: FaultKind) -> Result<(), TdamError> {
        if row >= self.physical_rows() {
            return Err(TdamError::RowOutOfBounds {
                row,
                rows: self.physical_rows(),
            });
        }
        self.faults.inject(row, stage, kind);
        self.rebuild_row(row)
    }

    /// Severs the chain of a physical row at `stage`: the search pulse
    /// never reaches the TDC, so the row reads maximum distance.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for invalid physical rows.
    pub fn break_stage(&mut self, row: usize, stage: usize) -> Result<(), TdamError> {
        if row >= self.physical_rows() || stage >= self.array.config().stages {
            return Err(TdamError::RowOutOfBounds {
                row,
                rows: self.physical_rows(),
            });
        }
        self.broken.insert(row);
        Ok(())
    }

    /// Sticks the shared search-line drivers of one column at the
    /// conducting level: every cell in the column — data, spare, and
    /// reference rows alike — behaves as a mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for invalid stages.
    pub fn stuck_column(&mut self, stage: usize) -> Result<(), TdamError> {
        if stage >= self.array.config().stages {
            return Err(TdamError::RowOutOfBounds {
                row: stage,
                rows: self.array.config().stages,
            });
        }
        for row in 0..self.physical_rows() {
            self.faults.inject(row, stage, FaultKind::StuckMismatch);
            self.rebuild_row(row)?;
        }
        Ok(())
    }

    /// Ages every physical row — data, spares, and reference rows alike —
    /// through the given lifetime (see [`TdamArray::age`]). Reference
    /// rows age with the data they guard, so the known-answer health
    /// probes exercise end-of-life margins rather than fresh-device ones.
    ///
    /// # Errors
    ///
    /// Propagates cell-construction errors from [`TdamArray::age`].
    pub fn age(&mut self, lifetime: &tdam_fefet::retention::Lifetime) -> Result<(), TdamError> {
        self.array.age(lifetime)
    }

    /// The corrected decode for a physical row: broken chains read
    /// maximum distance; masked columns' constant bias is subtracted.
    fn corrected_decode(&self, phys: usize, raw: usize) -> usize {
        if self.broken.contains(&phys) {
            return self.array.config().stages;
        }
        raw.saturating_sub(self.masked.len())
    }

    /// Probes one physical row: `(corrected, raw, delay)`. Transients
    /// are sampled on the search path, never here, so a probe is a pure
    /// function of the row's cells and the query.
    fn probe(&self, phys: usize, query: &[u8]) -> Result<(usize, usize, f64), TdamError> {
        let (raw, delay) = if self.reference_probes {
            let r = &self.array.search(query)?.rows[phys];
            (r.decoded_mismatches, r.chain.total_delay)
        } else {
            self.array.probe_row(phys, query)?
        };
        Ok((self.corrected_decode(phys, raw), raw, delay))
    }

    /// Known-answer + margin probes of one physical row.
    fn probe_status(&self, phys: usize) -> Result<ProbeStatus, TdamError> {
        let stages = self.array.config().stages;
        let levels = self.array.config().encoding.levels() as usize;
        let timing = *self.array.timing();
        let values = self.array.stored(phys)?;
        let complement: Vec<u8> = values
            .iter()
            .map(|&v| ((v as usize + 1) % levels) as u8)
            .collect();

        let (d_match, raw_match, t_match) = self.probe(phys, &values)?;
        let (d_comp, raw_comp, t_comp) = self.probe(phys, &complement)?;

        // Margin monitor: each probe's delay must sit near the center of
        // the decode bin it landed in. Drift moves delays off-center long
        // before a count flips.
        let tolerance = self.cfg.margin_threshold * timing.sensing_margin();
        let off_center =
            |delay: f64, raw: usize| (delay - timing.chain_delay(stages, raw)).abs() > tolerance;
        let margin_ok = self.broken.contains(&phys)
            || (!off_center(t_match, raw_match) && !off_center(t_comp, raw_comp));

        Ok(ProbeStatus {
            match_ok: d_match == 0,
            complement_ok: d_comp == stages.saturating_sub(self.masked.len()),
            margin_ok,
        })
    }

    /// Runs detection: known-answer and margin probes on every reference
    /// and data row, plus march-style column localization through the
    /// reference rows.
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn check(&self) -> Result<DetectionReport, TdamError> {
        let stages = self.array.config().stages;
        let levels = self.array.config().encoding.levels() as usize;

        let mut reference_ok = true;
        let mut any_ref_suspect = false;
        for k in 0..self.cfg.reference_rows {
            if !self.probe_status(self.ref_phys(k))?.healthy() {
                reference_ok = false;
                any_ref_suspect = true;
            }
        }

        // Column localization: probe each reference row with its pattern
        // complemented at a single position. A healthy position responds
        // with +1; a position that cannot distinguish (stuck either way)
        // does not. A column is indicted only when every diagnosable
        // reference row implicates it.
        let mut suspect_stages = Vec::new();
        if any_ref_suspect && self.cfg.reference_rows > 0 {
            let mut sets: Vec<BTreeSet<usize>> = Vec::new();
            for k in 0..self.cfg.reference_rows {
                let phys = self.ref_phys(k);
                let pattern = self.array.stored(phys)?;
                let (_, base_raw, _) = self.probe(phys, &pattern)?;
                if base_raw >= stages || self.broken.contains(&phys) {
                    // A dead reference row carries no column information.
                    continue;
                }
                let mut flags = BTreeSet::new();
                for j in 0..stages {
                    if self.masked.contains(&j) {
                        continue;
                    }
                    let mut q = pattern.clone();
                    q[j] = ((q[j] as usize + 1) % levels) as u8;
                    let (_, raw, _) = self.probe(phys, &q)?;
                    if raw <= base_raw {
                        flags.insert(j);
                    }
                }
                sets.push(flags);
            }
            if let Some(first) = sets.first() {
                suspect_stages = first
                    .iter()
                    .copied()
                    .filter(|j| sets.iter().all(|s| s.contains(j)))
                    .collect();
            }
        }

        let mut suspect_rows = Vec::new();
        for logical in 0..self.data_rows {
            if self.health[logical] == RowHealth::Dead {
                continue;
            }
            if !self.probe_status(self.remap[logical])?.healthy() {
                suspect_rows.push(logical);
            }
        }

        Ok(DetectionReport {
            suspect_rows,
            suspect_stages,
            reference_ok,
        })
    }

    /// Re-programs a physical row in place through bounded-retry
    /// write-verify. Soft (drift) faults are erased by the fresh write;
    /// hard faults are re-realized on top of the achieved thresholds.
    fn reprogram(
        &mut self,
        phys: usize,
        values: &[u8],
        out: &mut RepairOutcome,
    ) -> Result<bool, TdamError> {
        let retry = self.cfg.retry;
        match self.array.program_row_with_retry(phys, values, &retry) {
            Ok((report, attempts)) => {
                out.pulse_pairs += report.pulse_pairs;
                out.program_energy += report.energy;
                out.max_write_attempts = out.max_write_attempts.max(attempts);
                self.writes[phys] += 1;
                self.disturbs[phys] = 0;
                self.faults.clear_soft(phys);
                let hard: Vec<(usize, FaultKind)> = self.faults.row_faults(phys).collect();
                if !hard.is_empty() {
                    let enc = self.array.config().encoding;
                    let mut cells = self.array.row_cells(phys)?.to_vec();
                    for (stage, kind) in hard {
                        cells[stage] = crate::faults::faulty_cell(values[stage], enc, Some(kind))?;
                    }
                    self.array.store_cells(phys, cells)?;
                }
                Ok(true)
            }
            // A device that exhausts its bounded escalation is a failed
            // attempt, not a fatal error — the caller moves on to spares.
            Err(TdamError::WriteVerify { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Repairs one suspect logical row: bounded in-place re-programming,
    /// then (if allowed) remapping through the spare pool, then graceful
    /// degradation.
    fn repair_row(
        &mut self,
        logical: usize,
        allow_spare: bool,
        out: &mut RepairOutcome,
    ) -> Result<(), TdamError> {
        let attempts = self.cfg.repair_attempts.max(1);
        for _ in 0..attempts {
            let phys = self.remap[logical];
            let values = self.array.stored(phys)?;
            if self.reprogram(phys, &values, out)? && self.probe_status(phys)?.healthy() {
                self.health[logical] = RowHealth::Repaired;
                out.reprogrammed.push(logical);
                return Ok(());
            }
        }

        let old_phys = self.remap[logical];
        let values = self.array.stored(old_phys)?;
        if allow_spare {
            for spare in 0..self.cfg.spare_rows {
                if self.spare_used[spare] {
                    continue;
                }
                let phys = self.spare_phys(spare);
                // Consumed either way: a spare that fails its probe is
                // itself defective and never offered again.
                self.spare_used[spare] = true;
                if !self.reprogram(phys, &values, out)? {
                    continue;
                }
                let status = self.probe_status(phys)?;
                if status.match_ok && status.margin_ok {
                    self.remap[logical] = phys;
                    self.health[logical] = if status.healthy() {
                        RowHealth::Remapped
                    } else {
                        RowHealth::Degraded
                    };
                    out.remapped.push((logical, phys));
                    return Ok(());
                }
            }
        }

        // No spare worked (or none allowed). A row that still *matches*
        // exactly only under-counts true mismatches: keep it, flagged.
        let status = self.probe_status(self.remap[logical])?;
        if status.match_ok {
            self.health[logical] = RowHealth::Degraded;
            out.tolerated.push(logical);
        } else {
            self.health[logical] = RowHealth::Dead;
            out.dead.push(logical);
        }
        Ok(())
    }

    /// Runs a repair pass over a detection report: indicted columns are
    /// masked, suspect reference rows re-programmed, and suspect data
    /// rows repaired in priority order (rows that cannot match first —
    /// they compete for spares; under-counting rows are tolerated rather
    /// than given a spare).
    ///
    /// # Errors
    ///
    /// Propagates search and non-verify programming errors. A device
    /// failing write-verify is handled (the row escalates to a spare or
    /// degrades), never an error here.
    pub fn repair(&mut self, detection: &DetectionReport) -> Result<RepairOutcome, TdamError> {
        let mut out = RepairOutcome::default();

        for &stage in &detection.suspect_stages {
            if self.masked.insert(stage) {
                out.newly_masked.push(stage);
            }
        }

        // Heal drifted reference rows so future checks keep a trustworthy
        // yardstick (reference rows cannot be remapped).
        for k in 0..self.cfg.reference_rows {
            let phys = self.ref_phys(k);
            if !self.probe_status(phys)?.healthy() {
                let pattern = self.array.stored(phys)?;
                if self.reprogram(phys, &pattern, &mut out)? {
                    out.refs_reprogrammed.push(k);
                }
            }
        }

        // Triage the suspects now that columns are masked: masking alone
        // may have restored some rows.
        let mut cannot_match = Vec::new();
        let mut under_counting = Vec::new();
        for &logical in &detection.suspect_rows {
            let status = self.probe_status(self.remap[logical])?;
            if status.healthy() {
                if self.health[logical] == RowHealth::Healthy {
                    continue;
                }
                self.health[logical] = RowHealth::Healthy;
                continue;
            }
            if status.match_ok && status.complement_ok {
                // Margin-only suspicion: drift caught early.
                cannot_match.push(logical);
            } else if status.match_ok {
                under_counting.push(logical);
            } else {
                cannot_match.push(logical);
            }
        }
        for &logical in &cannot_match {
            self.repair_row(logical, true, &mut out)?;
        }
        for &logical in &under_counting {
            self.repair_row(logical, false, &mut out)?;
        }
        Ok(out)
    }

    /// One background margin-scrub pass: probes every *live* physical
    /// row (data backings and reference rows) and refresh-rewrites the
    /// ones whose probe delays have drifted off the decode-bin center
    /// while the decode itself is still correct — healing retention
    /// drift *before* a count flips, which is exactly the window the
    /// margin monitor exists to catch.
    ///
    /// Rows already mis-decoding (a flipped count, a broken chain) are
    /// deliberately left alone: those need the full detection + repair
    /// triage, not a quiet rewrite that would hide them from it.
    ///
    /// # Errors
    ///
    /// Propagates search and non-verify programming errors; a device
    /// failing write-verify during its healing rewrite is counted in
    /// [`ScrubReport::failed`], never an error.
    pub fn scrub_margins(&mut self) -> Result<ScrubReport, TdamError> {
        let mut rows: Vec<usize> = self.remap.clone();
        rows.extend((0..self.cfg.reference_rows).map(|k| self.ref_phys(k)));
        let mut report = ScrubReport::default();
        for phys in rows {
            if self.broken.contains(&phys) {
                continue;
            }
            report.probed += 1;
            let status = self.probe_status(phys)?;
            if status.match_ok && status.complement_ok && !status.margin_ok {
                let values = self.array.stored(phys)?;
                let mut scratch = RepairOutcome::default();
                if self.reprogram(phys, &values, &mut scratch)? {
                    report.healed.push(phys);
                } else {
                    report.failed += 1;
                }
            }
        }
        Ok(report)
    }

    /// The current degradation accounting.
    pub fn degradation(&self) -> DegradationSummary {
        let mut repaired = 0;
        let mut remapped = 0;
        let mut degraded = 0;
        let mut dead = 0;
        for h in &self.health {
            match h {
                RowHealth::Healthy => {}
                RowHealth::Repaired => repaired += 1,
                RowHealth::Remapped => remapped += 1,
                RowHealth::Degraded => degraded += 1,
                RowHealth::Dead => dead += 1,
            }
        }
        let masked = self.masked.len();
        let level = if dead > 0 || degraded > 0 || masked > 0 {
            DegradationLevel::Degraded
        } else if remapped > 0 {
            DegradationLevel::Remapped
        } else if repaired > 0 {
            DegradationLevel::Repaired
        } else {
            DegradationLevel::Nominal
        };
        DegradationSummary {
            level,
            repaired_rows: repaired,
            remapped_rows: remapped,
            degraded_rows: degraded,
            dead_rows: dead,
            masked_stages: masked,
        }
    }

    /// Searches a query through the resilience layer: remapped rows
    /// answer from their spares, masked columns' bias is subtracted,
    /// dead rows read maximum distance and are excluded from ranking,
    /// and the result carries a degradation summary.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] or
    /// [`TdamError::ValueOutOfRange`] for malformed queries.
    pub fn search(&self, query: &[u8]) -> Result<ResilientOutcome, TdamError> {
        let out = self.array.search(query)?;
        Ok(self.resolve_outcome(&out))
    }

    /// Applies the resilience corrections (remap indirection, masked-
    /// column bias subtraction, dead-row handling, degradation summary)
    /// to a raw physical [`crate::array::SearchOutcome`].
    ///
    /// This is the second half of [`ResilientArray::search`], exposed so
    /// alternative physical search paths — notably the packed compiled
    /// snapshot used by the serving runtime ([`crate::runtime`]) — can
    /// resolve their outcomes exactly as the behavioral path does.
    pub fn resolve_outcome(&self, out: &crate::array::SearchOutcome) -> ResilientOutcome {
        let stages = self.array.config().stages;
        let mut rows = Vec::with_capacity(self.data_rows);
        for logical in 0..self.data_rows {
            let phys = self.remap[logical];
            let r = &out.rows[phys];
            let raw = r.decoded_mismatches;
            let decoded = if self.health[logical] == RowHealth::Dead {
                stages
            } else {
                self.corrected_decode(phys, raw)
            };
            rows.push(ResilientRow {
                decoded,
                raw_decoded: raw,
                count: r.count,
                delay: r.chain.total_delay,
                health: self.health[logical],
            });
        }
        ResilientOutcome {
            rows,
            energy: out.energy,
            latency: out.latency,
            degradation: self.degradation(),
        }
    }

    /// Fast known-answer health probe: checks only the reference rows
    /// (match + complement + margin probes), skipping the per-data-row
    /// sweep and column localization of [`ResilientArray::check`].
    /// Returns `true` when every reference row answers correctly.
    ///
    /// This is the probe the serving runtime replays between batches; a
    /// `false` here is the trigger for a full [`ResilientArray::check`] +
    /// [`ResilientArray::repair`] cycle.
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn check_references(&self) -> Result<bool, TdamError> {
        for k in 0..self.cfg.reference_rows {
            if !self.probe_status(self.ref_phys(k))?.healthy() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// As [`ResilientArray::search`], with transient faults sampled from
    /// `rng`: an SL glitch adds a spurious mismatch at one column for
    /// every row that matched there; a TDC miscount slips one row's
    /// count by ±1.
    ///
    /// # Errors
    ///
    /// As [`ResilientArray::search`].
    pub fn search_with_transients(
        &self,
        query: &[u8],
        transients: &TransientFaults,
        rng: &mut StdRng,
    ) -> Result<ResilientOutcome, TdamError> {
        let mut out = self.search(query)?;
        let stages = self.array.config().stages;

        if transients.sl_glitch_rate > 0.0 && rng.gen_bool(transients.sl_glitch_rate.min(1.0)) {
            let glitch = rng.gen_range(0..stages);
            for (logical, row) in out.rows.iter_mut().enumerate() {
                if row.health == RowHealth::Dead {
                    continue;
                }
                let stored = self.array.stored(self.remap[logical])?;
                if stored[glitch] == query[glitch] {
                    row.decoded = (row.decoded + 1).min(stages);
                }
            }
        }
        if transients.tdc_miscount_rate > 0.0 {
            for row in out.rows.iter_mut() {
                if row.health == RowHealth::Dead {
                    continue;
                }
                if rng.gen_bool(transients.tdc_miscount_rate.min(1.0)) {
                    if rng.gen_bool(0.5) {
                        row.decoded = (row.decoded + 1).min(stages);
                        row.count += 1;
                    } else {
                        row.decoded = row.decoded.saturating_sub(1);
                        row.count = row.count.saturating_sub(1);
                    }
                }
            }
        }
        Ok(out)
    }
}

impl SimilarityEngine for ResilientArray {
    fn name(&self) -> &str {
        "Resilient TD-AM (spares + masking)"
    }

    fn is_quantitative(&self) -> bool {
        true
    }

    fn rows(&self) -> usize {
        self.data_rows
    }

    fn width(&self) -> usize {
        self.array.config().stages
    }

    fn bits_per_element(&self) -> u8 {
        self.array.config().encoding.bits()
    }

    fn store(&mut self, row: usize, values: &[u8]) -> Result<(), TdamError> {
        ResilientArray::store(self, row, values).map(|_| ())
    }

    fn search(&mut self, query: &[u8]) -> Result<SearchMetrics, TdamError> {
        let outcome = ResilientArray::search(self, query)?;
        Ok(outcome.metrics())
    }
}

/// A fault kind swept by a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CampaignFault {
    /// Per-cell Bernoulli faults, half stuck-mismatch, half stuck-match.
    StuckMix,
    /// Per-cell stuck-mismatch faults.
    StuckMismatch,
    /// Per-cell stuck-match faults.
    StuckMatch,
    /// Per-cell V_TH drift to this remaining window fraction.
    Drift {
        /// Remaining fraction of the fresh memory window.
        window_fraction: f64,
    },
    /// Per-column stuck shared search lines (afflicts every row).
    StuckColumn,
    /// Per-cell-site chain breaks (each severs its whole row).
    BrokenStage,
    /// Transient per-row TDC ±1 miscounts at the swept rate.
    TdcMiscount,
    /// Transient SL driver glitches at the swept rate.
    SlGlitch,
}

impl CampaignFault {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Self::StuckMix => "stuck-mix",
            Self::StuckMismatch => "stuck-mismatch",
            Self::StuckMatch => "stuck-match",
            Self::Drift { .. } => "vth-drift",
            Self::StuckColumn => "stuck-column",
            Self::BrokenStage => "broken-stage",
            Self::TdcMiscount => "tdc-miscount",
            Self::SlGlitch => "sl-glitch",
        }
    }

    /// Whether the fault persists between searches (and is therefore
    /// visible to detection and repair).
    pub fn is_persistent(&self) -> bool {
        !matches!(self, Self::TdcMiscount | Self::SlGlitch)
    }
}

/// Configuration of a fault campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Geometry of the *data* array (rows = logical data rows).
    pub array: ArrayConfig,
    /// Resilience machinery wrapped around it.
    pub resilience: ResilienceConfig,
    /// Fault kinds to sweep.
    pub kinds: Vec<CampaignFault>,
    /// Fault rates to sweep (per cell / column / row-site / search,
    /// depending on the kind).
    pub fault_rates: Vec<f64>,
    /// Monte Carlo trials per grid point.
    pub trials: usize,
    /// Exact-match queries per trial.
    pub queries: usize,
    /// Whether to run detection + repair before querying.
    pub repair: bool,
    /// Campaign seed; trials derive independent streams from it.
    pub seed: u64,
}

impl CampaignConfig {
    /// The default campaign: the paper's 32-stage 2-bit chains, 16 data
    /// rows, 8 spares, 2 reference rows.
    pub fn paper_default() -> Self {
        Self {
            array: ArrayConfig::paper_default().with_stages(32).with_rows(16),
            resilience: ResilienceConfig {
                spare_rows: 8,
                ..ResilienceConfig::default()
            },
            kinds: vec![
                CampaignFault::StuckMismatch,
                CampaignFault::StuckMix,
                CampaignFault::Drift {
                    window_fraction: 0.25,
                },
            ],
            fault_rates: vec![0.001, 0.005, 0.01, 0.02],
            trials: 16,
            queries: 32,
            repair: true,
            seed: 0xD47E_2024,
        }
    }
}

/// One `(kind, rate)` grid point of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignPoint {
    /// The swept fault kind.
    pub kind: CampaignFault,
    /// The swept fault rate.
    pub rate: f64,
    /// Fraction of queries whose best row was the true nearest row.
    pub retrieval_accuracy: f64,
    /// Fraction of queries whose target row decoded its exact distance.
    pub decode_accuracy: f64,
    /// Mean rows repaired in place per trial.
    pub avg_repaired: f64,
    /// Mean rows remapped to spares per trial.
    pub avg_remapped: f64,
    /// Mean dead rows per trial.
    pub avg_dead: f64,
    /// Mean masked columns per trial.
    pub avg_masked: f64,
}

/// A full campaign result grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// One point per `(kind, rate)` pair, kinds outer, rates inner.
    pub points: Vec<CampaignPoint>,
    /// Trials per point.
    pub trials: usize,
    /// Queries per trial.
    pub queries: usize,
}

/// Integer per-trial statistics (integer so that merging in trial order
/// is exactly deterministic regardless of thread scheduling).
#[derive(Debug, Clone, Copy, Default)]
struct TrialStats {
    retrieval_hits: u64,
    decode_hits: u64,
    repaired: u64,
    remapped: u64,
    dead: u64,
    masked: u64,
}

/// SplitMix64 over the campaign seed and grid coordinates: every trial
/// gets an independent, reproducible stream.
fn trial_seed(seed: u64, kind_idx: usize, rate_idx: usize, trial: usize) -> u64 {
    let mut x = seed ^ ((kind_idx as u64) << 48) ^ ((rate_idx as u64) << 32) ^ (trial as u64);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs one seeded trial at a `(kind, rate)` grid point.
fn run_trial(
    cfg: &CampaignConfig,
    kind: CampaignFault,
    rate: f64,
    seed: u64,
) -> Result<TrialStats, TdamError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ra = ResilientArray::new(cfg.array, cfg.resilience)?;
    let data_rows = ra.data_rows();
    let stages = cfg.array.stages;
    let levels = cfg.array.encoding.levels();

    let mut data = Vec::with_capacity(data_rows);
    for row in 0..data_rows {
        let values: Vec<u8> = (0..stages).map(|_| rng.gen_range(0..levels)).collect();
        ra.store(row, &values)?;
        data.push(values);
    }

    let mut transients = TransientFaults::none();
    match kind {
        CampaignFault::StuckMix
        | CampaignFault::StuckMismatch
        | CampaignFault::StuckMatch
        | CampaignFault::Drift { .. } => {
            for row in 0..ra.data_rows() + cfg.resilience.spare_rows + cfg.resilience.reference_rows
            {
                for stage in 0..stages {
                    if !rng.gen_bool(rate) {
                        continue;
                    }
                    let concrete = match kind {
                        CampaignFault::StuckMix => {
                            if rng.gen_bool(0.5) {
                                FaultKind::StuckMismatch
                            } else {
                                FaultKind::StuckMatch
                            }
                        }
                        CampaignFault::StuckMismatch => FaultKind::StuckMismatch,
                        CampaignFault::StuckMatch => FaultKind::StuckMatch,
                        CampaignFault::Drift { window_fraction } => {
                            FaultKind::VthDrift { window_fraction }
                        }
                        _ => unreachable!(),
                    };
                    ra.inject(row, stage, concrete)?;
                }
            }
        }
        CampaignFault::StuckColumn => {
            for stage in 0..stages {
                if rng.gen_bool(rate) {
                    ra.stuck_column(stage)?;
                }
            }
        }
        CampaignFault::BrokenStage => {
            let rows = ra.data_rows() + cfg.resilience.spare_rows + cfg.resilience.reference_rows;
            for row in 0..rows {
                for stage in 0..stages {
                    if rng.gen_bool(rate) {
                        ra.break_stage(row, stage)?;
                    }
                }
            }
        }
        CampaignFault::TdcMiscount => transients.tdc_miscount_rate = rate,
        CampaignFault::SlGlitch => transients.sl_glitch_rate = rate,
    }

    if cfg.repair && kind.is_persistent() {
        let detection = ra.check()?;
        if !detection.all_clear() {
            ra.repair(&detection)?;
        }
    }

    let mut stats = TrialStats::default();
    let degradation = ra.degradation();
    stats.repaired = degradation.repaired_rows as u64;
    stats.remapped = degradation.remapped_rows as u64;
    stats.dead = degradation.dead_rows as u64;
    stats.masked = degradation.masked_stages as u64;

    for _ in 0..cfg.queries {
        let target = rng.gen_range(0..data_rows);
        let query = &data[target];
        let outcome = if kind.is_persistent() {
            ra.search(query)?
        } else {
            ra.search_with_transients(query, &transients, &mut rng)?
        };
        if outcome.best_row() == Some(target) {
            stats.retrieval_hits += 1;
        }
        if outcome.rows[target].decoded == 0 {
            stats.decode_hits += 1;
        }
    }
    Ok(stats)
}

/// Runs the full campaign grid, parallelizing trials across threads
/// through [`crate::parallel::run_chunked`]. Bit-identical for a fixed
/// seed: every trial is independently seeded from its grid coordinates
/// and integer statistics are merged in trial order.
///
/// # Errors
///
/// Propagates configuration/search errors from any trial, and
/// [`TdamError::Worker`] if a worker thread is lost.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignResult, TdamError> {
    let trials = cfg.trials.max(1);
    let queries = cfg.queries.max(1);
    let mut points = Vec::with_capacity(cfg.kinds.len() * cfg.fault_rates.len());

    for (kind_idx, &kind) in cfg.kinds.iter().enumerate() {
        for (rate_idx, &rate) in cfg.fault_rates.iter().enumerate() {
            let per_trial = crate::parallel::run_chunked(trials, None, |trial| {
                let seed = trial_seed(cfg.seed, kind_idx, rate_idx, trial);
                run_trial(cfg, kind, rate, seed)
            })?;

            let mut total = TrialStats::default();
            for stats in per_trial {
                total.retrieval_hits += stats.retrieval_hits;
                total.decode_hits += stats.decode_hits;
                total.repaired += stats.repaired;
                total.remapped += stats.remapped;
                total.dead += stats.dead;
                total.masked += stats.masked;
            }
            let samples = (trials * queries) as f64;
            points.push(CampaignPoint {
                kind,
                rate,
                retrieval_accuracy: total.retrieval_hits as f64 / samples,
                decode_accuracy: total.decode_hits as f64 / samples,
                avg_repaired: total.repaired as f64 / trials as f64,
                avg_remapped: total.remapped as f64 / trials as f64,
                avg_dead: total.dead as f64 / trials as f64,
                avg_masked: total.masked as f64 / trials as f64,
            });
        }
    }
    Ok(CampaignResult {
        points,
        trials,
        queries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(data_rows: usize, stages: usize, cfg: ResilienceConfig) -> ResilientArray {
        let array = ArrayConfig::paper_default()
            .with_rows(data_rows)
            .with_stages(stages);
        ResilientArray::new(array, cfg).unwrap()
    }

    fn ramp(stages: usize, phase: usize) -> Vec<u8> {
        (0..stages).map(|j| ((j + phase) % 4) as u8).collect()
    }

    #[test]
    fn healthy_array_checks_clean_and_reports_nominal() {
        let mut ra = small(4, 16, ResilienceConfig::default());
        for r in 0..4 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        let report = ra.check().unwrap();
        assert!(report.all_clear(), "{report:?}");
        let out = ra.search(&ramp(16, 2)).unwrap();
        assert_eq!(out.best_row(), Some(2));
        assert_eq!(out.degradation.level, DegradationLevel::Nominal);
    }

    #[test]
    fn drifted_row_is_detected_and_repaired_in_place() {
        let mut ra = small(4, 16, ResilienceConfig::default());
        for r in 0..4 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        for stage in 0..16 {
            ra.inject(
                1,
                stage,
                FaultKind::VthDrift {
                    window_fraction: 0.05,
                },
            )
            .unwrap();
        }
        let report = ra.check().unwrap();
        assert!(report.suspect_rows.contains(&1), "{report:?}");
        assert!(report.suspect_stages.is_empty(), "{report:?}");

        let repair = ra.repair(&report).unwrap();
        assert!(repair.reprogrammed.contains(&1), "{repair:?}");
        assert!(repair.remapped.is_empty());
        assert_eq!(ra.health()[1], RowHealth::Repaired);
        assert!(ra.check().unwrap().all_clear());

        let out = ra.search(&ramp(16, 1)).unwrap();
        assert_eq!(out.best_row(), Some(1));
        assert_eq!(out.rows[1].decoded, 0);
        assert_eq!(out.degradation.level, DegradationLevel::Repaired);
    }

    #[test]
    fn stuck_mismatch_row_remaps_to_a_spare() {
        let mut ra = small(3, 16, ResilienceConfig::default());
        for r in 0..3 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        ra.inject(0, 5, FaultKind::StuckMismatch).unwrap();

        let report = ra.check().unwrap();
        assert_eq!(report.suspect_rows, vec![0]);
        let repair = ra.repair(&report).unwrap();
        assert_eq!(repair.remapped.len(), 1, "{repair:?}");
        let (logical, phys) = repair.remapped[0];
        assert_eq!(logical, 0);
        assert!(phys >= 3, "remapped to a spare, got {phys}");
        assert_eq!(ra.health()[0], RowHealth::Remapped);
        assert_eq!(ra.physical_row(0).unwrap(), phys);

        let out = ra.search(&ramp(16, 0)).unwrap();
        assert_eq!(out.best_row(), Some(0));
        assert_eq!(out.rows[0].decoded, 0);
        assert_eq!(out.degradation.level, DegradationLevel::Remapped);
        assert!(ra.check().unwrap().all_clear());
    }

    #[test]
    fn stuck_column_is_localized_and_masked_not_remapped() {
        let mut ra = small(4, 16, ResilienceConfig::default());
        for r in 0..4 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        ra.stuck_column(7).unwrap();

        let report = ra.check().unwrap();
        assert!(!report.reference_ok);
        assert_eq!(report.suspect_stages, vec![7], "{report:?}");

        let repair = ra.repair(&report).unwrap();
        assert_eq!(repair.newly_masked, vec![7]);
        assert!(
            repair.remapped.is_empty(),
            "a column fault must not burn spares: {repair:?}"
        );
        assert_eq!(ra.masked_stages(), vec![7]);

        // Masking restores exact decodes (the constant bias is removed).
        let out = ra.search(&ramp(16, 2)).unwrap();
        assert_eq!(out.best_row(), Some(2));
        assert_eq!(out.rows[2].decoded, 0);
        assert_eq!(out.degradation.level, DegradationLevel::Degraded);
        assert_eq!(out.degradation.masked_stages, 1);
        assert!(ra.check().unwrap().all_clear());
    }

    #[test]
    fn broken_row_reads_max_distance_and_remaps() {
        let mut ra = small(3, 16, ResilienceConfig::default());
        for r in 0..3 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        ra.break_stage(2, 9).unwrap();
        let out = ra.search(&ramp(16, 2)).unwrap();
        assert_eq!(out.rows[2].decoded, 16, "severed chain counts to the cap");
        assert_ne!(out.best_row(), Some(2));

        let report = ra.check().unwrap();
        assert!(report.suspect_rows.contains(&2));
        ra.repair(&report).unwrap();
        assert_eq!(ra.health()[2], RowHealth::Remapped);
        let out = ra.search(&ramp(16, 2)).unwrap();
        assert_eq!(out.best_row(), Some(2));
        assert_eq!(out.rows[2].decoded, 0);
    }

    #[test]
    fn spare_exhaustion_degrades_gracefully_to_dead_rows() {
        let cfg = ResilienceConfig {
            spare_rows: 1,
            ..ResilienceConfig::default()
        };
        let mut ra = small(3, 16, cfg);
        for r in 0..3 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        ra.inject(0, 3, FaultKind::StuckMismatch).unwrap();
        ra.inject(1, 4, FaultKind::StuckMismatch).unwrap();

        let report = ra.check().unwrap();
        let repair = ra.repair(&report).unwrap();
        assert_eq!(repair.remapped.len(), 1, "{repair:?}");
        assert_eq!(repair.dead.len(), 1, "{repair:?}");

        let dead = repair.dead[0];
        let out = ra.search(&ramp(16, dead)).unwrap();
        assert_eq!(out.rows[dead].decoded, 16);
        assert_ne!(out.best_row(), Some(dead), "dead rows never rank");
        assert_eq!(out.degradation.level, DegradationLevel::Degraded);
        assert_eq!(out.degradation.dead_rows, 1);

        // The surviving rows still answer exactly.
        let alive = repair.remapped[0].0;
        let out = ra.search(&ramp(16, alive)).unwrap();
        assert_eq!(out.best_row(), Some(alive));
        assert_eq!(out.rows[alive].decoded, 0);
    }

    #[test]
    fn stuck_match_row_is_tolerated_without_burning_spares() {
        let cfg = ResilienceConfig {
            spare_rows: 1,
            ..ResilienceConfig::default()
        };
        let mut ra = small(2, 16, cfg);
        for r in 0..2 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        ra.inject(0, 2, FaultKind::StuckMatch).unwrap();
        let report = ra.check().unwrap();
        assert!(report.suspect_rows.contains(&0));
        let repair = ra.repair(&report).unwrap();
        assert_eq!(repair.tolerated, vec![0], "{repair:?}");
        assert!(repair.remapped.is_empty(), "{repair:?}");
        assert_eq!(ra.health()[0], RowHealth::Degraded);

        // Exact retrieval still works; distances may under-count.
        let out = ra.search(&ramp(16, 0)).unwrap();
        assert_eq!(out.best_row(), Some(0));
        assert_eq!(out.rows[0].decoded, 0);
    }

    #[test]
    fn transient_faults_perturb_by_at_most_one_count_each() {
        let mut ra = small(2, 16, ResilienceConfig::default());
        for r in 0..2 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        let t = TransientFaults {
            tdc_miscount_rate: 1.0,
            sl_glitch_rate: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let clean = ra.search(&ramp(16, 0)).unwrap();
        for _ in 0..32 {
            let noisy = ra
                .search_with_transients(&ramp(16, 0), &t, &mut rng)
                .unwrap();
            for (c, n) in clean.rows.iter().zip(&noisy.rows) {
                let diff = (c.decoded as i64 - n.decoded as i64).abs();
                assert!(diff <= 2, "glitch + miscount move at most 2: {diff}");
            }
        }
    }

    #[test]
    fn engine_trait_hides_dead_rows_from_distances() {
        let cfg = ResilienceConfig {
            spare_rows: 0,
            ..ResilienceConfig::default()
        };
        let mut ra = small(2, 16, cfg);
        for r in 0..2 {
            ra.store(r, &ramp(16, r)).unwrap();
        }
        ra.inject(0, 1, FaultKind::StuckMismatch).unwrap();
        let report = ra.check().unwrap();
        ra.repair(&report).unwrap();
        assert_eq!(ra.health()[0], RowHealth::Dead);

        let metrics = SimilarityEngine::search(&mut ra, &ramp(16, 0)).unwrap();
        assert_eq!(metrics.distances[0], None);
        assert_eq!(metrics.best_row, Some(1));
    }

    #[test]
    fn default_wear_policy_is_inert() {
        let mut ra = small(2, 16, ResilienceConfig::default());
        assert!(ResilienceConfig::default().wear.is_disturb_free());
        for round in 0..20 {
            let report = ra.store(0, &ramp(16, round % 4)).unwrap();
            assert!(!report.rotated);
            assert!(report.refreshed.is_empty());
            assert_eq!(report.physical_writes(), 1);
        }
        assert_eq!(ra.physical_row(0).unwrap(), 0, "no rotation by default");
        assert_eq!(ra.row_wear(0).unwrap(), 20);
        assert_eq!(ra.search(&ramp(16, 3)).unwrap().best_row(), Some(0));
    }

    #[test]
    fn hot_rows_rotate_onto_spares_and_keep_answering() {
        let cfg = ResilienceConfig {
            spare_rows: 4,
            wear: WearPolicy {
                rotate_after_writes: 3,
                ..WearPolicy::aggressive()
            },
            ..ResilienceConfig::default()
        };
        let mut ra = small(2, 16, cfg);
        ra.store(1, &ramp(16, 1)).unwrap();
        let mut rotations = 0;
        for round in 0..4 {
            let report = ra.store(0, &ramp(16, round % 4)).unwrap();
            rotations += report.rotated as usize;
        }
        assert_eq!(rotations, 1, "4th write crosses the 3-write budget");
        let phys = ra.physical_row(0).unwrap();
        assert!(phys >= 2, "rotated onto a spare, got {phys}");
        assert_eq!(ra.health()[0], RowHealth::Healthy, "rotation is not damage");
        assert_eq!(ra.degradation().level, DegradationLevel::Nominal);
        // The rotated row serves its latest contents exactly.
        let out = ra.search(&ramp(16, 3)).unwrap();
        assert_eq!(out.best_row(), Some(0));
        assert_eq!(out.rows[0].decoded, 0);
        assert_eq!(ra.search(&ramp(16, 1)).unwrap().best_row(), Some(1));
    }

    #[test]
    fn rotation_reserves_the_last_spare_for_repair() {
        let cfg = ResilienceConfig {
            spare_rows: 1,
            wear: WearPolicy {
                rotate_after_writes: 1,
                ..WearPolicy::aggressive()
            },
            ..ResilienceConfig::default()
        };
        let mut ra = small(1, 16, cfg);
        for round in 0..5 {
            let report = ra.store(0, &ramp(16, round % 4)).unwrap();
            assert!(!report.rotated, "a lone spare is reserved for repair");
        }
        assert_eq!(ra.physical_row(0).unwrap(), 0);
    }

    #[test]
    fn disturb_budget_triggers_refresh_rewrites() {
        let wear = WearPolicy {
            rotate_after_writes: 0,
            refresh_after_disturbs: 4,
            ..WearPolicy::aggressive()
        };
        assert!(!wear.is_disturb_free(), "V/2 at 5 V must charge siblings");
        let cfg = ResilienceConfig {
            spare_rows: 0,
            wear,
            ..ResilienceConfig::default()
        };
        let mut ra = small(2, 16, cfg);
        ra.store(1, &ramp(16, 1)).unwrap();
        // Hammer row 0: after 4 exposures every sibling row (row 1 and
        // the references) refresh-rewrites in the same call.
        let mut refreshes = 0;
        for round in 0..4 {
            let report = ra.store(0, &ramp(16, round % 4)).unwrap();
            refreshes += report.refreshed.len();
            if round == 3 {
                assert!(report.refreshed.contains(&1), "{report:?}");
                assert_eq!(report.physical_writes(), 1 + report.refreshed.len());
            }
        }
        assert_eq!(refreshes, 3, "row 1 plus two reference rows");
        // Refreshed rows keep serving exactly, and the health machinery
        // still sees a clean array.
        assert_eq!(ra.search(&ramp(16, 1)).unwrap().best_row(), Some(1));
        assert!(ra.check().unwrap().all_clear());
    }

    #[test]
    fn campaign_is_bit_identical_under_a_fixed_seed() {
        let cfg = CampaignConfig {
            array: ArrayConfig::paper_default().with_stages(16).with_rows(4),
            resilience: ResilienceConfig {
                spare_rows: 2,
                ..ResilienceConfig::default()
            },
            kinds: vec![CampaignFault::StuckMix, CampaignFault::TdcMiscount],
            fault_rates: vec![0.01, 0.05],
            trials: 4,
            queries: 8,
            repair: true,
            seed: 42,
        };
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a, b, "campaigns must be reproducible");
        assert_eq!(a.points.len(), 4);
    }

    #[test]
    fn campaign_repair_restores_decode_accuracy_at_one_percent_hard_faults() {
        let base = CampaignConfig {
            array: ArrayConfig::paper_default().with_stages(32).with_rows(8),
            resilience: ResilienceConfig {
                spare_rows: 8,
                ..ResilienceConfig::default()
            },
            kinds: vec![CampaignFault::StuckMismatch],
            fault_rates: vec![0.01],
            trials: 4,
            queries: 16,
            repair: true,
            seed: 1234,
        };
        let repaired = run_campaign(&base).unwrap().points[0];
        let unrepaired = run_campaign(&CampaignConfig {
            repair: false,
            ..base
        })
        .unwrap()
        .points[0];

        assert!(
            unrepaired.decode_accuracy < 0.95,
            "1% stuck-mismatch must measurably degrade: {:.3}",
            unrepaired.decode_accuracy
        );
        assert!(
            repaired.decode_accuracy >= 0.99,
            "repair must restore decode accuracy: {:.3}",
            repaired.decode_accuracy
        );
        assert!(repaired.avg_remapped > 0.0 || repaired.avg_repaired > 0.0);
    }
}
