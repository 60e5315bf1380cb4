//! The M×N TD-AM array (paper Fig. 3(a)).
//!
//! `M` delay chains share vertical search lines, so one query is compared
//! against all stored vectors in parallel; each row's accumulated delay is
//! digitized by a per-row counter TDC. Search latency is set by the
//! slowest row in each step plus the conversion; search energy sums the
//! per-row chain energies and conversions (the shared SL drivers are
//! counted once, not per row).

use crate::chain::{ChainResult, DelayChain};
use crate::config::ArrayConfig;
use crate::energy::EnergyBreakdown;
use crate::engine::{BatchQuery, BatchResult, SearchMetrics, SimilarityEngine};
use crate::packed::{PackedArray, PackedScratch};
use crate::tdc::CounterTdc;
use crate::timing::StageTiming;
use crate::TdamError;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of programming one row through write-verify.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgramRowReport {
    /// Total erase+write pulse pairs across all FeFETs in the row.
    pub pulse_pairs: usize,
    /// Total programming energy, joules.
    pub energy: f64,
    /// Largest `|V_TH achieved − target|` in the row, volts.
    pub worst_vth_error: f64,
}

/// Per-row outcome of an array search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RowResult {
    /// Raw chain result.
    pub chain: ChainResult,
    /// The TDC count for this row.
    pub count: u64,
    /// The mismatch count the sensing circuitry decodes from the delay.
    pub decoded_mismatches: usize,
}

/// Outcome of an array search across all rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Per-row results, in row order.
    pub rows: Vec<RowResult>,
    /// Total energy for the search.
    pub energy: EnergyBreakdown,
    /// Full search-cycle latency: precharge + search-line settle +
    /// slowest rising step + slowest falling step + TDC latch.
    pub latency: f64,
}

impl SearchOutcome {
    /// The row with the smallest decoded mismatch count (ties broken by
    /// lowest index); `None` for an empty array.
    pub fn best_row(&self) -> Option<usize> {
        self.rows
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.decoded_mismatches)
            .map(|(i, _)| i)
    }

    /// Decoded mismatch counts per row.
    pub fn decoded(&self) -> Vec<usize> {
        self.rows.iter().map(|r| r.decoded_mismatches).collect()
    }

    /// Flattens the outcome into the engine-level [`SearchMetrics`] view
    /// (decoded per-row distances, total energy, full-cycle latency).
    pub fn metrics(&self) -> SearchMetrics {
        SearchMetrics {
            best_row: self.best_row(),
            distances: self
                .rows
                .iter()
                .map(|r| Some(r.decoded_mismatches))
                .collect(),
            energy: self.energy.total(),
            latency: self.latency,
        }
    }
}

/// A TD-AM array of `rows` delay chains sharing search lines.
///
/// # Examples
///
/// ```
/// use tdam::array::TdamArray;
/// use tdam::config::ArrayConfig;
/// use tdam::engine::SimilarityEngine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ArrayConfig::paper_default().with_stages(4).with_rows(2);
/// let mut am = TdamArray::new(cfg)?;
/// am.store(0, &[3, 2, 1, 0])?;
/// am.store(1, &[0, 0, 1, 1])?;
/// let out = TdamArray::search(&am, &[0, 0, 1, 2])?;
/// assert_eq!(out.best_row(), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdamArray {
    config: ArrayConfig,
    timing: StageTiming,
    tdc: CounterTdc,
    chains: Vec<DelayChain>,
    /// Bumped on every mutation of stored contents (store, program, age),
    /// so compiled snapshots can detect that they have gone stale.
    generation: u64,
}

impl TdamArray {
    /// Creates an array with every row initialized to all-zero vectors and
    /// an analytically calibrated timing model.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::InvalidConfig`] for invalid configurations.
    pub fn new(config: ArrayConfig) -> Result<Self, TdamError> {
        let timing = StageTiming::analytic(&config.tech, config.c_load)?;
        Self::with_timing(config, timing)
    }

    /// Creates an array with an explicit timing calibration.
    ///
    /// # Errors
    ///
    /// As [`TdamArray::new`].
    pub fn with_timing(config: ArrayConfig, timing: StageTiming) -> Result<Self, TdamError> {
        config.validate()?;
        let tdc = CounterTdc::matched(&timing)?;
        let zeros = vec![0u8; config.stages];
        let chains = (0..config.rows)
            .map(|_| DelayChain::with_timing(&zeros, &config, timing))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            config,
            timing,
            tdc,
            chains,
            generation: 0,
        })
    }

    /// The mutation generation: incremented every time stored contents
    /// change ([`SimilarityEngine::store`], [`TdamArray::store_cells`],
    /// [`TdamArray::program_row`], [`TdamArray::age`]). Compiled views
    /// record the generation they were built at so a reprogram-after-
    /// compile is caught as [`TdamError::StaleCompile`] instead of
    /// silently serving wrong bits.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Overrides the mutation generation. Used by [`crate::store`] when
    /// rebuilding an array from a checkpoint: the restored array adopts a
    /// generation *strictly newer* than the one it was captured at, so
    /// any [`CompiledSnapshot`] taken before the checkpoint is stale.
    pub(crate) fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// The stage timing calibration.
    pub fn timing(&self) -> &StageTiming {
        &self.timing
    }

    /// The per-row TDC model.
    pub fn tdc(&self) -> &CounterTdc {
        &self.tdc
    }

    /// The per-row delay chains, in physical row order. Crate-internal:
    /// the packed serving representation ([`crate::packed`]) reads cell
    /// states and nominality directly from the chains when building its
    /// bit planes.
    pub(crate) fn chains(&self) -> &[DelayChain] {
        &self.chains
    }

    /// The vector stored at `row`.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for invalid rows.
    pub fn stored(&self, row: usize) -> Result<Vec<u8>, TdamError> {
        self.chains
            .get(row)
            .map(DelayChain::stored)
            .ok_or(TdamError::RowOutOfBounds {
                row,
                rows: self.config.rows,
            })
    }

    /// Replaces a row with pre-built (e.g. variation-perturbed) cells.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] or shape errors from
    /// [`DelayChain::from_cells`].
    pub fn store_cells(
        &mut self,
        row: usize,
        cells: Vec<crate::cell::Cell>,
    ) -> Result<(), TdamError> {
        if row >= self.chains.len() {
            return Err(TdamError::RowOutOfBounds {
                row,
                rows: self.config.rows,
            });
        }
        self.chains[row] = DelayChain::from_cells(cells, &self.config, self.timing)?;
        self.generation += 1;
        Ok(())
    }

    /// Programs a row by actually write-verifying FeFET devices: every
    /// cell's `F_A` is programmed to its stored state and `F_B` to the
    /// reversed state through the erase + write-verify flow of
    /// [`tdam_fefet::programming`], and the *achieved* (quantized-by-
    /// domain-granularity) threshold voltages are installed in the row's
    /// cells. Returns the aggregate pulse count and write energy.
    ///
    /// This is the write path a real deployment pays before any search;
    /// [`SimilarityEngine::store`] is the idealized (nominal-threshold)
    /// shortcut.
    ///
    /// # Errors
    ///
    /// Returns row/shape/range errors like `store`, and
    /// [`TdamError::WriteVerify`] if a device fails write-verify.
    pub fn program_row(
        &mut self,
        row: usize,
        values: &[u8],
    ) -> Result<ProgramRowReport, TdamError> {
        let single_shot = tdam_fefet::programming::RetryPolicy {
            max_attempts: 1,
            amplitude_step: 0.0,
            max_amplitude: f64::INFINITY,
        };
        Ok(self.program_row_with_retry(row, values, &single_shot)?.0)
    }

    /// As [`TdamArray::program_row`], but retries each device's
    /// write-verify per the bounded, amplitude-escalating `policy` before
    /// giving up. Returns the aggregate report (pulse pairs and energy
    /// include failed attempts — retries are not free) and the worst
    /// per-device attempt count used anywhere in the row.
    ///
    /// # Errors
    ///
    /// Returns row/shape/range errors like `store`, and
    /// [`TdamError::WriteVerify`] once a device exhausts the policy.
    pub fn program_row_with_retry(
        &mut self,
        row: usize,
        values: &[u8],
        policy: &tdam_fefet::programming::RetryPolicy,
    ) -> Result<(ProgramRowReport, usize), TdamError> {
        use tdam_fefet::preisach::PreisachParams;
        use tdam_fefet::programming::{program_vth_with_retry, ProgramConfig, ProgramError};
        use tdam_fefet::{Fefet, FefetParams};

        fn prog_err(e: ProgramError) -> TdamError {
            match e {
                ProgramError::VerifyFailed { target, achieved } => {
                    TdamError::WriteVerify { target, achieved }
                }
                ProgramError::InvalidState { .. } => TdamError::InvalidConfig {
                    what: "programming state outside the device ladder",
                },
            }
        }

        if row >= self.chains.len() {
            return Err(TdamError::RowOutOfBounds {
                row,
                rows: self.config.rows,
            });
        }
        if values.len() != self.config.stages {
            return Err(TdamError::LengthMismatch {
                got: values.len(),
                expected: self.config.stages,
            });
        }
        self.config.encoding.validate(values)?;

        let ladder = crate::cell::VoltageLadder::for_encoding(self.config.encoding);
        let levels = self.config.encoding.levels();
        let dev_params = FefetParams {
            preisach: PreisachParams {
                domains: 512,
                ..PreisachParams::default()
            },
            ..FefetParams::default()
        };
        let prog_cfg = ProgramConfig::default();
        let mut report = ProgramRowReport {
            pulse_pairs: 0,
            energy: 0.0,
            worst_vth_error: 0.0,
        };
        let mut worst_attempts = 0usize;
        let mut cells = Vec::with_capacity(values.len());
        for &v in values {
            let mut dev_a = Fefet::new(dev_params);
            let mut dev_b = Fefet::new(dev_params);
            let target_a = ladder.vth(v);
            let target_b = ladder.vth(levels - 1 - v);
            let rep_a = program_vth_with_retry(&mut dev_a, target_a, &prog_cfg, policy)
                .map_err(prog_err)?;
            let rep_b = program_vth_with_retry(&mut dev_b, target_b, &prog_cfg, policy)
                .map_err(prog_err)?;
            report.pulse_pairs += rep_a.report.pulse_pairs + rep_b.report.pulse_pairs;
            report.energy += rep_a.report.energy + rep_b.report.energy;
            report.worst_vth_error = report
                .worst_vth_error
                .max((rep_a.report.achieved_vth - target_a).abs())
                .max((rep_b.report.achieved_vth - target_b).abs());
            worst_attempts = worst_attempts.max(rep_a.attempts).max(rep_b.attempts);
            cells.push(crate::cell::Cell::with_vth(
                v,
                self.config.encoding,
                rep_a.report.achieved_vth,
                rep_b.report.achieved_vth,
            )?);
        }
        self.chains[row] = DelayChain::from_cells(cells, &self.config, self.timing)?;
        self.generation += 1;
        Ok((report, worst_attempts))
    }

    /// The cells of `row`, including any fault- or variation-perturbed
    /// thresholds installed by [`TdamArray::store_cells`].
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for invalid rows.
    pub fn row_cells(&self, row: usize) -> Result<&[crate::cell::Cell], TdamError> {
        self.chains
            .get(row)
            .map(DelayChain::cells)
            .ok_or(TdamError::RowOutOfBounds {
                row,
                rows: self.config.rows,
            })
    }

    /// Ages every cell in the array through the given lifetime: all
    /// threshold voltages contract toward the window center per the
    /// retention/endurance models (see [`tdam_fefet::retention`]), so
    /// subsequent searches see end-of-life margins.
    ///
    /// # Errors
    ///
    /// Propagates cell-construction errors (none for valid states).
    pub fn age(&mut self, lifetime: &tdam_fefet::retention::Lifetime) -> Result<(), TdamError> {
        let chains = std::mem::take(&mut self.chains);
        for chain in chains {
            let aged_cells = chain
                .stored()
                .iter()
                .zip(chain_cells(&chain))
                .map(|(&value, (vth_a, vth_b))| {
                    crate::cell::Cell::with_vth(
                        value,
                        self.config.encoding,
                        lifetime.age_vth(vth_a),
                        lifetime.age_vth(vth_b),
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            self.chains.push(DelayChain::from_cells(
                aged_cells,
                &self.config,
                self.timing,
            )?);
        }
        self.generation += 1;
        Ok(())
    }

    /// Searches a query against all rows, without the mutable-engine
    /// plumbing of the [`SimilarityEngine`] trait.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] or
    /// [`TdamError::ValueOutOfRange`] for malformed queries.
    pub fn search(&self, query: &[u8]) -> Result<SearchOutcome, TdamError> {
        let readout = self.readout();
        let mut acc = OutcomeAccumulator::new(self.chains.len());
        for chain in &self.chains {
            acc.push_chain(&readout, chain.evaluate(query)?);
        }
        Ok(acc.finish(&readout))
    }

    /// Evaluates and decodes one row alone: `(decoded_mismatches,
    /// total_delay)`, equal to that row's fields in [`TdamArray::search`]
    /// (rows are evaluated independently) at one row's cost instead of
    /// the whole array's.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::RowOutOfBounds`] for invalid rows, and
    /// [`TdamError::LengthMismatch`] or [`TdamError::ValueOutOfRange`]
    /// for malformed queries.
    pub fn probe_row(&self, row: usize, query: &[u8]) -> Result<(usize, f64), TdamError> {
        let chain = self.chains.get(row).ok_or(TdamError::RowOutOfBounds {
            row,
            rows: self.config.rows,
        })?;
        let delay = chain.evaluate(query)?.total_delay;
        let decoded = self
            .tdc
            .decode_mismatches(&self.timing, self.config.stages, delay);
        Ok((decoded, delay))
    }

    /// Compiles into an **owned** snapshot served by the bit-sliced packed
    /// kernel ([`crate::packed`]), which can be held across mutations of
    /// the source array. Every checked search through the snapshot
    /// revalidates the source's [generation](TdamArray::generation); once
    /// the array has been reprogrammed the snapshot refuses to serve
    /// ([`TdamError::StaleCompile`]) instead of returning wrong bits.
    pub fn compile_snapshot(&self) -> CompiledSnapshot {
        let packed = PackedArray::build(self, &std::collections::BTreeSet::new());
        let fallback = (0..self.chains.len())
            .filter(|&row| !packed.is_packed(row))
            .map(|row| (row, self.chains[row].clone()))
            .collect();
        CompiledSnapshot {
            readout: self.readout(),
            fallback,
            packed,
            generation: self.generation,
        }
    }

    fn readout(&self) -> Readout {
        Readout {
            config: self.config,
            timing: self.timing,
            tdc: self.tdc,
        }
    }
}

/// The array-level calibration a search digitizes rows and aggregates
/// energy and latency with: geometry, timing, and the TDC.
#[derive(Debug, Clone, Copy)]
struct Readout {
    config: ArrayConfig,
    timing: StageTiming,
    tdc: CounterTdc,
}

/// Incremental row digitization and array-level aggregation, shared by
/// [`TdamArray::search`] and the packed serving path ([`crate::packed`]),
/// which pushes already-digitized rows — with the same accumulation
/// order (row order), so the energy arithmetic stays bitwise identical
/// between the paths whenever the per-row figures are.
struct OutcomeAccumulator {
    rows: Vec<RowResult>,
    energy: EnergyBreakdown,
    worst_rise: f64,
    worst_fall: f64,
}

impl OutcomeAccumulator {
    fn new(rows: usize) -> Self {
        Self {
            rows: Vec::with_capacity(rows),
            energy: EnergyBreakdown::default(),
            worst_rise: 0.0,
            worst_fall: 0.0,
        }
    }

    /// Digitizes one behavioral chain result and accumulates it.
    fn push_chain(&mut self, readout: &Readout, chain_result: ChainResult) {
        let count = readout.tdc.convert(chain_result.total_delay);
        let decoded = readout.tdc.decode_mismatches(
            &readout.timing,
            readout.config.stages,
            chain_result.total_delay,
        );
        let tdc_energy = readout.tdc.conversion_energy(chain_result.total_delay);
        self.push_row(
            RowResult {
                chain: chain_result,
                count,
                decoded_mismatches: decoded,
            },
            tdc_energy,
        );
    }

    /// Accumulates an already-digitized row (the packed path's entry:
    /// its count-indexed digests arrive with the TDC view precomputed).
    fn push_row(&mut self, row: RowResult, tdc_energy: f64) {
        // Row energies, minus the shared SL drivers (added once at finish).
        let mut row_energy = row.chain.energy;
        row_energy.search_lines = 0.0;
        row_energy.tdc = tdc_energy;
        self.energy.accumulate(&row_energy);
        self.worst_rise = self.worst_rise.max(row.chain.rising_delay);
        self.worst_fall = self.worst_fall.max(row.chain.falling_delay);
        self.rows.push(row);
    }

    fn finish(self, readout: &Readout) -> SearchOutcome {
        let Self {
            rows,
            mut energy,
            worst_rise,
            worst_fall,
        } = self;
        // Shared search-line drivers, once per column pair.
        energy.search_lines = readout.config.stages as f64 * readout.timing.e_sl;
        // Full search cycle: precharge, search-line settle (pulse launch
        // window), both propagation steps, and the final TDC latch.
        let latency = readout.config.tech.t_precharge
            + readout.config.tech.t_launch
            + worst_rise
            + worst_fall
            + readout.tdc.resolution;
        SearchOutcome {
            rows,
            energy,
            latency,
        }
    }
}

/// Shape- and range-checks one query against the array geometry.
fn validate_query(readout: &Readout, query: &[u8]) -> Result<(), TdamError> {
    if query.len() != readout.config.stages {
        return Err(TdamError::LengthMismatch {
            got: query.len(),
            expected: readout.config.stages,
        });
    }
    readout.config.encoding.validate(query)
}

/// Shape- and range-checks a whole batch in one pass over its contiguous
/// element storage, so the per-query worker loop can skip validation.
fn validate_batch(readout: &Readout, batch: &BatchQuery) -> Result<(), TdamError> {
    if batch.width() != readout.config.stages {
        return Err(TdamError::LengthMismatch {
            got: batch.width(),
            expected: readout.config.stages,
        });
    }
    readout.config.encoding.validate(batch.elements())
}

/// Queries per worker tile in the batch drivers. Matches the packed
/// kernel's scratch capacity so each L1-resident row block is streamed
/// from memory once per eight queries instead of once per query (the
/// query-major blocking documented in [`crate::packed`]). Tile
/// boundaries depend only on the batch index — never on the thread
/// count — which is what keeps batch results thread-count invariant.
const QUERY_TILE: usize = 8;

/// The compiled form of a [`TdamArray`]: the bit-sliced packed view
/// ([`crate::packed`]) plus the array's readout calibration, stamped
/// with the source's [generation](TdamArray::generation) at compile
/// time.
///
/// Nominal rows are served by the packed kernel; rows holding
/// variation-perturbed cells fall back to the behavioral model inside
/// the same paths, from a copy of their chain — the only cells a
/// snapshot keeps. A snapshot outlives the borrow of its source, so the
/// source can be reprogrammed while the snapshot is held — exactly the
/// situation where serving from the old planes would silently return
/// wrong bits. Every checked search therefore revalidates the source's
/// generation and fails with [`TdamError::StaleCompile`] once they
/// diverge; the serving runtime ([`crate::runtime`]) catches that error
/// and recompiles.
///
/// Produced by [`TdamArray::compile_snapshot`]. Against
/// [`TdamArray::search`] on the array state at compile time, searches
/// carry the packed equivalence contract: counts, decoded distances,
/// winners and energies exact, delays within the documented ulp bound.
///
/// # Examples
///
/// ```
/// use tdam::array::TdamArray;
/// use tdam::config::ArrayConfig;
/// use tdam::engine::{BatchQuery, SimilarityEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ArrayConfig::paper_default().with_stages(4).with_rows(2);
/// let mut am = TdamArray::new(cfg)?;
/// am.store(0, &[3, 2, 1, 0])?;
/// am.store(1, &[0, 0, 1, 1])?;
/// let snap = am.compile_snapshot();
/// let batch = BatchQuery::from_rows(&[vec![0, 0, 1, 2], vec![3, 2, 1, 0]])?;
/// let decisions = snap.decide_batch(&am, &batch, Some(1))?;
/// assert_eq!(decisions[0].best_row, Some(1));
/// assert_eq!(decisions[1].distances, vec![0, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSnapshot {
    readout: Readout,
    /// `(row, chain)` for exactly the rows `packed` does not serve, in
    /// row order: the chains the behavioral fallback evaluates.
    fallback: Vec<(usize, DelayChain)>,
    packed: PackedArray,
    generation: u64,
}

impl CompiledSnapshot {
    /// The array [generation](TdamArray::generation) this snapshot was
    /// compiled at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether this snapshot still matches `source` (no reprogramming
    /// since compile).
    pub fn is_fresh(&self, source: &TdamArray) -> bool {
        source.generation == self.generation
    }

    /// [`TdamError::StaleCompile`] unless the snapshot is fresh.
    fn check_fresh(&self, source: &TdamArray) -> Result<(), TdamError> {
        if self.is_fresh(source) {
            Ok(())
        } else {
            Err(TdamError::StaleCompile {
                compiled: self.generation,
                current: source.generation,
            })
        }
    }

    /// How many rows the bit-sliced packed kernel serves (the rest fall
    /// back to the full variation-aware model).
    pub fn packed_rows(&self) -> usize {
        self.packed.packed_rows()
    }

    /// The bit-sliced packed view backing the serving paths.
    pub fn packed(&self) -> &PackedArray {
        &self.packed
    }

    /// Searches one query through the bit-sliced packed kernel, first
    /// verifying the snapshot still matches `source`. Decisions (counts,
    /// decoded distances, winner) are exactly identical to the behavioral
    /// model; delays carry the packed reconstruction contract
    /// ([`crate::packed`]).
    ///
    /// # Errors
    ///
    /// [`TdamError::StaleCompile`] if `source` was mutated after this
    /// snapshot was compiled; otherwise as [`TdamArray::search`].
    pub fn search_packed(
        &self,
        source: &TdamArray,
        query: &[u8],
    ) -> Result<SearchOutcome, TdamError> {
        self.check_fresh(source)?;
        self.search_packed_unchecked(query)
    }

    /// Packed-kernel search against the snapshot's own (internally
    /// consistent) frozen state, without consulting the source array: a
    /// tile of one through the ladder-dispatched block kernel. Use when
    /// staleness has already been checked for the whole batch, or when
    /// serving deliberately from the frozen snapshot.
    ///
    /// # Errors
    ///
    /// As [`TdamArray::search`].
    pub fn search_packed_unchecked(&self, query: &[u8]) -> Result<SearchOutcome, TdamError> {
        validate_query(&self.readout, query)?;
        let mut scratch = self.packed.scratch();
        self.packed.expand_query(query, &mut scratch);
        self.packed.mismatch_counts(&mut scratch);
        self.finish_search(&scratch, 0, query)
    }

    /// Answers a whole batch through the packed kernel, verifying
    /// freshness against `source` once up front, then fanning queries out
    /// across `threads` workers (`None` = all cores; see
    /// [`crate::parallel`]) with one reused query-plane scratch per
    /// worker and batch-level validation (no per-query allocation or
    /// re-validation in the hot loop). Results are in batch order and
    /// bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// [`TdamError::StaleCompile`] if stale, otherwise the first per-query
    /// error in batch order.
    pub fn search_batch(
        &self,
        source: &TdamArray,
        batch: &BatchQuery,
        threads: Option<usize>,
    ) -> Result<Vec<SearchOutcome>, TdamError> {
        self.check_fresh(source)?;
        validate_batch(&self.readout, batch)?;
        let tiles = crate::parallel::run_chunked_scratch(
            batch.len().div_ceil(QUERY_TILE),
            threads,
            || self.packed.tile_scratch(QUERY_TILE),
            |scratch, tile| self.run_tile(batch, tile, scratch, Self::finish_search),
        )?;
        Ok(tiles.into_iter().flatten().collect())
    }

    /// Answers a whole batch decision-only: per-query winner and decoded
    /// distances ([`crate::packed::PackedDecision`]), skipping the
    /// per-row analog reconstruction entirely. This is the kernel at
    /// full speed — the output is what the hardware TDC exports — and
    /// its fields are exactly identical to [`SearchOutcome::best_row`] /
    /// [`SearchOutcome::decoded`] from [`CompiledSnapshot::search_batch`]
    /// on the same batch.
    ///
    /// # Errors
    ///
    /// As [`CompiledSnapshot::search_batch`].
    pub fn decide_batch(
        &self,
        source: &TdamArray,
        batch: &BatchQuery,
        threads: Option<usize>,
    ) -> Result<Vec<crate::packed::PackedDecision>, TdamError> {
        self.check_fresh(source)?;
        validate_batch(&self.readout, batch)?;
        let tiles = crate::parallel::run_chunked_scratch(
            batch.len().div_ceil(QUERY_TILE),
            threads,
            || self.packed.tile_scratch(QUERY_TILE),
            |scratch, tile| self.run_tile(batch, tile, scratch, Self::finish_decide),
        )?;
        Ok(tiles.into_iter().flatten().collect())
    }

    /// One worker item of the tiled batch drivers: expands queries
    /// `[tile·QUERY_TILE, …)` of the batch into the tile scratch, runs the
    /// block kernel once for the whole tile, and finishes each query in
    /// batch order (so the first error a tile reports is the first in batch
    /// order, preserving the drivers' error contract through the flatten).
    fn run_tile<T>(
        &self,
        batch: &BatchQuery,
        tile: usize,
        scratch: &mut PackedScratch,
        finish: impl Fn(&Self, &PackedScratch, usize, &[u8]) -> Result<T, TdamError>,
    ) -> Result<Vec<T>, TdamError> {
        let start = tile * QUERY_TILE;
        let end = (start + QUERY_TILE).min(batch.len());
        self.packed
            .expand_tile((start..end).map(|i| batch.get(i)), scratch);
        self.packed.mismatch_counts(scratch);
        (start..end)
            .enumerate()
            .map(|(t, i)| finish(self, scratch, t, batch.get(i)))
            .collect()
    }

    /// Finishes one query of a counted tile into a full [`SearchOutcome`]:
    /// packed rows read their `(even, odd)` counts from slot `t` and go
    /// through count-indexed digitization, the rest fall back to the full
    /// behavioral model and the shared [`OutcomeAccumulator`] arithmetic.
    fn finish_search(
        &self,
        scratch: &PackedScratch,
        t: usize,
        query: &[u8],
    ) -> Result<SearchOutcome, TdamError> {
        let mut acc = OutcomeAccumulator::new(self.packed.rows());
        let mut fallback = self.fallback.iter().peekable();
        for row in 0..self.packed.rows() {
            match fallback.next_if(|(r, _)| *r == row) {
                None => {
                    let (even, odd) = self.packed.counts(scratch, t, row);
                    let (row_result, tdc_energy) = self.packed.digitize(even, odd);
                    acc.push_row(row_result, tdc_energy);
                }
                Some((_, chain)) => acc.push_chain(&self.readout, chain.evaluate(query)?),
            }
        }
        Ok(acc.finish(&self.readout))
    }

    /// Finishes one query of a counted tile decision-only: decoded per-row
    /// distances and the winner, with no per-row analog reconstruction —
    /// the output the hardware TDC actually exports, at a fraction of the
    /// materialization cost of a full [`SearchOutcome`]. Decisions are
    /// exactly identical to the full paths' ([`SearchOutcome::best_row`]/
    /// [`SearchOutcome::decoded`]); non-packed rows fall back to the
    /// behavioral model's decode.
    fn finish_decide(
        &self,
        scratch: &PackedScratch,
        t: usize,
        query: &[u8],
    ) -> Result<crate::packed::PackedDecision, TdamError> {
        let mut distances = Vec::with_capacity(self.packed.rows());
        let mut best: Option<(usize, usize)> = None;
        let mut fallback = self.fallback.iter().peekable();
        for row in 0..self.packed.rows() {
            let decoded = match fallback.next_if(|(r, _)| *r == row) {
                None => {
                    let (even, odd) = self.packed.counts(scratch, t, row);
                    self.packed.decoded(even, odd)
                }
                Some((_, chain)) => self.readout.tdc.decode_mismatches(
                    &self.readout.timing,
                    self.readout.config.stages,
                    chain.evaluate(query)?.total_delay,
                ),
            };
            // Strictly-less keeps the first minimal row, matching
            // `SearchOutcome::best_row`'s tie-break.
            if best.is_none_or(|(_, d)| decoded < d) {
                best = Some((row, decoded));
            }
            distances.push(decoded);
        }
        Ok(crate::packed::PackedDecision {
            best_row: best.map(|(row, _)| row),
            distances,
        })
    }

    /// Incrementally re-syncs this snapshot to `source` after row
    /// mutations, rebuilding **only** the listed rows: each row's packed
    /// bit planes are surgically rewritten in place
    /// ([`PackedArray::repack_row`](crate::packed::PackedArray)) and its
    /// fallback chain re-cloned if it does not pack; the snapshot then
    /// adopts `source`'s generation. Cost is O(rows touched · stages)
    /// instead of the O(array) of a fresh [`TdamArray::compile_snapshot`]
    /// — the repack half of the online mutation path, measured and
    /// pinned by the `ext_mutation` bench.
    ///
    /// The caller must list **every** row whose stored contents changed
    /// since this snapshot's generation (the serving runtime tracks the
    /// dirty-row set; see [`crate::runtime`]). `source` must have the
    /// same geometry, timing, and TDC calibration the snapshot was
    /// compiled from — only row contents may differ. After the call the
    /// snapshot is bit-identical to `source.compile_snapshot()`.
    ///
    /// Returns the number of rows refreshed.
    ///
    /// # Panics
    ///
    /// Panics if a listed row is out of bounds.
    pub fn refresh_rows(
        &mut self,
        source: &TdamArray,
        rows: impl IntoIterator<Item = usize>,
    ) -> usize {
        debug_assert_eq!(self.readout.config, source.config);
        let mut refreshed = 0;
        for row in rows {
            self.packed.repack_row(source, row);
            let slot = self.fallback.binary_search_by_key(&row, |&(r, _)| r);
            match (slot, self.packed.is_packed(row)) {
                (Ok(i), true) => {
                    self.fallback.remove(i);
                }
                (Ok(i), false) => self.fallback[i].1 = source.chains[row].clone(),
                (Err(i), false) => self.fallback.insert(i, (row, source.chains[row].clone())),
                (Err(_), true) => {}
            }
            refreshed += 1;
        }
        self.generation = source.generation;
        refreshed
    }

    /// Forces a dispatch-ladder rung for this snapshot's packed kernel
    /// ([`crate::packed::PackedKernel`]); tests and benchmarks use this
    /// to pin a rung, production code leaves detection alone. Returns
    /// `false` (keeping the current rung) when the requested rung is not
    /// available in this build/CPU.
    pub fn force_kernel(&mut self, kernel: crate::packed::PackedKernel) -> bool {
        self.packed.set_kernel(kernel)
    }

    /// The dispatch-ladder rung this snapshot's packed kernel executes.
    pub fn kernel(&self) -> crate::packed::PackedKernel {
        self.packed.kernel()
    }
}

/// Extracts each cell's actual `(F_A, F_B)` thresholds from a chain.
fn chain_cells(chain: &DelayChain) -> Vec<(f64, f64)> {
    chain.cells().iter().map(|c| c.vth_actual()).collect()
}

impl SimilarityEngine for TdamArray {
    fn name(&self) -> &str {
        "This work (4T-2FeFET TD-AM)"
    }

    fn is_quantitative(&self) -> bool {
        true
    }

    fn rows(&self) -> usize {
        self.config.rows
    }

    fn width(&self) -> usize {
        self.config.stages
    }

    fn bits_per_element(&self) -> u8 {
        self.config.encoding.bits()
    }

    fn store(&mut self, row: usize, values: &[u8]) -> Result<(), TdamError> {
        if row >= self.chains.len() {
            return Err(TdamError::RowOutOfBounds {
                row,
                rows: self.config.rows,
            });
        }
        self.chains[row] = DelayChain::with_timing(values, &self.config, self.timing)?;
        self.generation += 1;
        Ok(())
    }

    fn search(&mut self, query: &[u8]) -> Result<SearchMetrics, TdamError> {
        let outcome = TdamArray::search(self, query)?;
        Ok(outcome.metrics())
    }

    /// Batched override: packs nominal rows into the bit-sliced kernel
    /// once, then fans the queries out across all cores. Winners and
    /// decoded distances are exactly identical to the sequential default;
    /// analog delay/latency figures carry the packed reconstruction
    /// contract ([`crate::packed`]; pinned in `tests/batch_parallel.rs`
    /// and `tests/packed_equiv.rs`).
    fn search_batch(&mut self, batch: &BatchQuery) -> Result<BatchResult, TdamError> {
        if batch.width() != self.config.stages {
            return Err(TdamError::LengthMismatch {
                got: batch.width(),
                expected: self.config.stages,
            });
        }
        let outcomes = self.compile_snapshot().search_batch(self, batch, None)?;
        Ok(BatchResult {
            queries: outcomes.iter().map(SearchOutcome::metrics).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn array(rows: usize, stages: usize) -> TdamArray {
        TdamArray::new(
            ArrayConfig::paper_default()
                .with_rows(rows)
                .with_stages(stages),
        )
        .unwrap()
    }

    #[test]
    fn store_and_retrieve() {
        let mut am = array(2, 4);
        am.store(1, &[1, 2, 3, 0]).unwrap();
        assert_eq!(am.stored(1).unwrap(), vec![1, 2, 3, 0]);
        assert_eq!(am.stored(0).unwrap(), vec![0, 0, 0, 0]);
        assert!(am.stored(2).is_err());
    }

    #[test]
    fn best_row_is_nearest() {
        let mut am = array(4, 8);
        am.store(0, &[0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        am.store(1, &[1, 1, 1, 1, 1, 1, 1, 1]).unwrap();
        am.store(2, &[1, 1, 1, 1, 0, 0, 0, 0]).unwrap();
        am.store(3, &[3, 3, 3, 3, 3, 3, 3, 3]).unwrap();
        let out = TdamArray::search(&am, &[1, 1, 1, 0, 0, 0, 0, 0]).unwrap();
        assert_eq!(out.best_row(), Some(2));
        assert_eq!(out.decoded(), vec![3, 5, 1, 8]);
    }

    #[test]
    fn decoded_equals_ground_truth_nominal() {
        let mut am = array(3, 16);
        am.store(0, &[2; 16]).unwrap();
        am.store(1, &[0; 16]).unwrap();
        am.store(2, &[3; 16]).unwrap();
        let q: Vec<u8> = (0..16).map(|i| (i % 4) as u8).collect();
        let out = TdamArray::search(&am, &q).unwrap();
        for r in &out.rows {
            assert_eq!(r.decoded_mismatches, r.chain.mismatches);
        }
    }

    #[test]
    fn invalid_operations_rejected() {
        let mut am = array(1, 4);
        assert!(am.store(5, &[0; 4]).is_err());
        assert!(am.store(0, &[0; 3]).is_err());
        assert!(am.store(0, &[9; 4]).is_err());
        assert!(TdamArray::search(&am, &[0; 3]).is_err());
    }

    #[test]
    fn latency_tracks_worst_row() {
        let mut am = array(2, 16);
        am.store(0, &[1; 16]).unwrap(); // will fully match
        am.store(1, &[2; 16]).unwrap(); // 16 mismatches
        let out = TdamArray::search(&am, &[1; 16]).unwrap();
        let worst = out.rows[1].chain.total_delay;
        assert!(out.latency >= worst, "latency must cover the slowest row");
    }

    #[test]
    fn energy_includes_tdc_and_shared_sl() {
        let am = array(2, 8);
        let out = TdamArray::search(&am, &[1; 8]).unwrap();
        assert!(out.energy.tdc > 0.0);
        assert!(out.energy.search_lines > 0.0);
        // SLs are shared: same as a 1-row array of the same width.
        let am1 = array(1, 8);
        let out1 = TdamArray::search(&am1, &[1; 8]).unwrap();
        assert!((out.energy.search_lines - out1.energy.search_lines).abs() < 1e-24);
    }

    #[test]
    fn aging_preserves_then_breaks_decode() {
        use tdam_fefet::retention::Lifetime;
        let mut am = array(1, 32);
        am.store(0, &[1; 32]).unwrap();
        let q = vec![2u8; 32];
        let fresh = TdamArray::search(&am, &q).unwrap().decoded()[0];
        assert_eq!(fresh, 32);

        // Ten-year retention: decode still exact.
        let mut decade = Lifetime::fresh();
        decade.seconds = 3.15e8;
        am.age(&decade).unwrap();
        let aged = TdamArray::search(&am, &q).unwrap().decoded()[0];
        assert_eq!(aged, 32, "10-year-aged array must still decode");

        // Deep fatigue: the window collapses and the count degrades.
        let mut am2 = array(1, 32);
        am2.store(0, &[1; 32]).unwrap();
        let mut worn = Lifetime::fresh();
        worn.cycles = 1e13;
        am2.age(&worn).unwrap();
        let broken = TdamArray::search(&am2, &q).unwrap().decoded()[0];
        assert!(
            broken < 32,
            "a fully fatigued window cannot hold the ladder apart: {broken}"
        );
    }

    #[test]
    fn program_row_write_verify_path() {
        let mut am = array(2, 8);
        let values = [0u8, 1, 2, 3, 3, 2, 1, 0];
        let report = am.program_row(0, &values).unwrap();
        assert!(report.pulse_pairs >= 16, "at least one pair per FeFET");
        assert!(report.energy > 1e-13, "write energy {:.3e}", report.energy);
        assert!(
            report.worst_vth_error <= 10e-3 + 1e-12,
            "verify tolerance respected: {:.4e}",
            report.worst_vth_error
        );
        // The programmed row still searches correctly: achieved thresholds
        // are within the sensing margin.
        let out = TdamArray::search(&am, &values).unwrap();
        assert_eq!(out.rows[0].decoded_mismatches, 0);
        let mut q = values;
        q[3] = 0;
        let out = TdamArray::search(&am, &q).unwrap();
        assert_eq!(out.rows[0].decoded_mismatches, 1);
    }

    #[test]
    fn program_row_validates_input() {
        let mut am = array(1, 4);
        assert!(am.program_row(3, &[0; 4]).is_err());
        assert!(am.program_row(0, &[0; 3]).is_err());
        assert!(am.program_row(0, &[9; 4]).is_err());
    }

    #[test]
    fn writes_cost_far_more_than_searches() {
        let mut am = array(1, 16);
        let report = am.program_row(0, &[1; 16]).unwrap();
        let search = TdamArray::search(&am, &[1; 16]).unwrap();
        assert!(
            report.energy > 50.0 * search.energy.total(),
            "write {:.3e} vs search {:.3e}",
            report.energy,
            search.energy.total()
        );
    }

    /// The packed equivalence contract (see [`crate::packed`]): counts,
    /// decoded distances, winners and energies exact, delays within the
    /// `2·(1.5·N + 2)·ε` relative reconstruction bound.
    fn assert_packed_contract(packed: &SearchOutcome, reference: &SearchOutcome, stages: usize) {
        let bound = 2.0 * (1.5 * stages as f64 + 2.0) * f64::EPSILON;
        let close = |a: f64, b: f64| (a - b).abs() <= bound * a.abs().max(b.abs());
        assert_eq!(packed.best_row(), reference.best_row());
        assert_eq!(packed.decoded(), reference.decoded());
        assert_eq!(packed.energy, reference.energy);
        assert!(close(packed.latency, reference.latency));
        assert_eq!(packed.rows.len(), reference.rows.len());
        for (p, r) in packed.rows.iter().zip(&reference.rows) {
            assert_eq!(p.count, r.count);
            assert_eq!(p.chain.even_mismatches, r.chain.even_mismatches);
            assert_eq!(p.chain.odd_mismatches, r.chain.odd_mismatches);
            assert_eq!(p.chain.energy, r.chain.energy);
            assert!(close(p.chain.rising_delay, r.chain.rising_delay));
            assert!(close(p.chain.falling_delay, r.chain.falling_delay));
            assert!(close(p.chain.total_delay, r.chain.total_delay));
        }
    }

    #[test]
    fn perturbed_rows_fall_back_but_still_match_reference() {
        let mut am = array(3, 8);
        am.store(0, &[1; 8]).unwrap();
        am.store(2, &[2; 8]).unwrap();
        // Row 1: perturbed thresholds — must not pack, must still agree
        // with the reference search via the behavioral fallback.
        let cells = (0..8)
            .map(|_| crate::cell::Cell::with_vth(1, am.config().encoding, 0.63, 1.02).unwrap())
            .collect();
        am.store_cells(1, cells).unwrap();
        let snap = am.compile_snapshot();
        assert_eq!(snap.packed_rows(), 2);
        let q = vec![2u8; 8];
        let packed = snap.search_packed(&am, &q).unwrap();
        let reference = TdamArray::search(&am, &q).unwrap();
        assert_packed_contract(&packed, &reference, 8);
        // The fallback row runs the behavioral model itself: bit-identical.
        assert_eq!(packed.rows[1], reference.rows[1]);
    }

    #[test]
    fn batch_search_matches_sequential_loop() {
        let mut am = array(4, 8);
        am.store(0, &[0, 1, 2, 3, 0, 1, 2, 3]).unwrap();
        am.store(1, &[3, 3, 3, 3, 0, 0, 0, 0]).unwrap();
        am.store(2, &[1; 8]).unwrap();
        let rows: Vec<Vec<u8>> = (0..10)
            .map(|k| (0..8).map(|i| ((i * k + k) % 4) as u8).collect())
            .collect();
        let batch = BatchQuery::from_rows(&rows).unwrap();
        let batched = am.search_batch(&batch).unwrap();
        assert_eq!(batched.len(), 10);
        // The packed batch path preserves the decision exactly; the analog
        // figures are reconstructed count-indexed and agree to ulps (see
        // crate::packed).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        for (i, q) in rows.iter().enumerate() {
            let single = SimilarityEngine::search(&mut am, q).unwrap();
            let got = &batched.queries[i];
            assert_eq!(got.best_row, single.best_row);
            assert_eq!(got.distances, single.distances);
            assert!(close(got.energy, single.energy));
            assert!(close(got.latency, single.latency));
        }
        // Width mismatch rejected before any work.
        let bad = BatchQuery::new(5);
        assert!(am.search_batch(&bad).is_err());
    }

    #[test]
    fn packed_search_single_query_matches_batch_path() {
        let mut am = array(4, 10);
        for row in 0..4 {
            let v: Vec<u8> = (0..10).map(|i| ((i * 2 + row) % 4) as u8).collect();
            am.store(row, &v).unwrap();
        }
        let snap = am.compile_snapshot();
        assert_eq!(snap.packed_rows(), 4);
        let rows: Vec<Vec<u8>> = (0..5)
            .map(|k| (0..10).map(|i| ((i + k) % 4) as u8).collect())
            .collect();
        let batch = BatchQuery::from_rows(&rows).unwrap();
        let batched = snap.search_batch(&am, &batch, Some(1)).unwrap();
        for (i, q) in rows.iter().enumerate() {
            assert_eq!(snap.search_packed(&am, q).unwrap(), batched[i]);
            assert_packed_contract(&batched[i], &TdamArray::search(&am, q).unwrap(), 10);
        }
    }

    #[test]
    fn packed_batch_rejects_invalid_elements_up_front() {
        let am = array(2, 4);
        let snap = am.compile_snapshot();
        let mut batch = BatchQuery::new(4);
        batch.push(&[0, 1, 2, 3]).unwrap();
        // Push a query with an out-of-range element for the 2-bit
        // encoding: batch-level validation must reject the whole batch.
        batch.push(&[0, 9, 0, 0]).unwrap();
        assert!(snap.search_batch(&am, &batch, Some(1)).is_err());
        assert!(snap.decide_batch(&am, &batch, Some(1)).is_err());
    }

    #[test]
    fn snapshot_batch_thread_count_invariant() {
        let mut am = array(3, 8);
        am.store(0, &[1; 8]).unwrap();
        am.store(1, &[2; 8]).unwrap();
        let rows: Vec<Vec<u8>> = (0..7)
            .map(|k| (0..8).map(|i| ((i + k) % 4) as u8).collect())
            .collect();
        let batch = BatchQuery::from_rows(&rows).unwrap();
        let snap = am.compile_snapshot();
        let one = snap.search_batch(&am, &batch, Some(1)).unwrap();
        for threads in [Some(2), Some(5), None] {
            assert_eq!(snap.search_batch(&am, &batch, threads).unwrap(), one);
        }
    }

    #[test]
    fn generation_tracks_every_mutation_path() {
        let mut am = array(2, 4);
        assert_eq!(am.generation(), 0);
        am.store(0, &[1, 2, 3, 0]).unwrap();
        assert_eq!(am.generation(), 1);
        let cells = (0..4)
            .map(|_| crate::cell::Cell::with_vth(1, am.config().encoding, 0.63, 1.02).unwrap())
            .collect();
        am.store_cells(1, cells).unwrap();
        assert_eq!(am.generation(), 2);
        am.program_row(0, &[0, 1, 2, 3]).unwrap();
        assert_eq!(am.generation(), 3);
        am.age(&tdam_fefet::retention::Lifetime::fresh()).unwrap();
        assert_eq!(am.generation(), 4);
        // Failed mutations must not bump: nothing changed.
        assert!(am.store(9, &[0; 4]).is_err());
        assert_eq!(am.generation(), 4);
    }

    #[test]
    fn stale_snapshot_refuses_to_serve() {
        let mut am = array(2, 4);
        am.store(0, &[1, 2, 3, 0]).unwrap();
        let snap = am.compile_snapshot();
        assert!(snap.is_fresh(&am));
        assert_packed_contract(
            &snap.search_packed(&am, &[1, 2, 3, 0]).unwrap(),
            &TdamArray::search(&am, &[1, 2, 3, 0]).unwrap(),
            4,
        );

        // Reprogram after compile: the old planes would decode row 0 as a
        // perfect match for the *old* contents — that must be refused.
        am.store(0, &[3, 3, 3, 3]).unwrap();
        assert!(!snap.is_fresh(&am));
        let err = snap.search_packed(&am, &[1, 2, 3, 0]).unwrap_err();
        assert_eq!(
            err,
            TdamError::StaleCompile {
                compiled: 1,
                current: 2
            }
        );
        let batch = BatchQuery::from_rows(&[vec![1u8, 2, 3, 0]]).unwrap();
        assert!(matches!(
            snap.search_batch(&am, &batch, Some(1)).unwrap_err(),
            TdamError::StaleCompile { .. }
        ));
        assert!(matches!(
            snap.decide_batch(&am, &batch, Some(1)).unwrap_err(),
            TdamError::StaleCompile { .. }
        ));
        // The unchecked path still serves the frozen compile-time state.
        let frozen = snap.search_packed_unchecked(&[1, 2, 3, 0]).unwrap();
        assert_eq!(frozen.rows[0].decoded_mismatches, 0);

        // Recompile heals it.
        let snap2 = am.compile_snapshot();
        assert_eq!(
            snap2.search_packed(&am, &[3, 3, 3, 3]).unwrap().best_row(),
            Some(0)
        );
        assert_eq!(err.class(), crate::ErrorClass::Transient);
    }

    #[test]
    fn refresh_rows_resyncs_a_stale_snapshot_incrementally() {
        let mut am = array(6, 16);
        for row in 0..6 {
            let v: Vec<u8> = (0..16).map(|i| ((i * 5 + row) % 4) as u8).collect();
            am.store(row, &v).unwrap();
        }
        let mut snap = am.compile_snapshot();

        // Mutate a few rows (one of them twice) and refresh exactly the
        // touched set: the snapshot must serve again and be bit-identical
        // to a from-scratch recompile.
        am.store(2, &[3; 16]).unwrap();
        am.store(4, &[1; 16]).unwrap();
        am.store(2, &[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])
            .unwrap();
        assert!(!snap.is_fresh(&am));
        assert_eq!(snap.refresh_rows(&am, [2usize, 4]), 2);
        assert!(snap.is_fresh(&am));

        let rebuilt = am.compile_snapshot();
        assert_eq!(snap.generation(), rebuilt.generation());
        let rows: Vec<Vec<u8>> = (0..9)
            .map(|k| (0..16).map(|i| ((i + 2 * k) % 4) as u8).collect())
            .collect();
        for q in &rows {
            assert_eq!(
                snap.search_packed(&am, q).unwrap(),
                rebuilt.search_packed(&am, q).unwrap()
            );
        }
        let batch = BatchQuery::from_rows(&rows).unwrap();
        assert_eq!(
            snap.decide_batch(&am, &batch, Some(1)).unwrap(),
            rebuilt.decide_batch(&am, &batch, Some(1)).unwrap()
        );
    }

    #[test]
    fn refresh_rows_tracks_packed_tier_transitions() {
        let mut am = array(3, 8);
        for row in 0..3 {
            am.store(row, &[1; 8]).unwrap();
        }
        let mut snap = am.compile_snapshot();
        assert_eq!(snap.packed_rows(), 3);
        let encoding = am.config().encoding;
        // A perturbed-cell write demotes the row's packed service on
        // refresh, and a second perturbed write replaces its fallback
        // chain...
        for vth_a in [0.63, 0.66] {
            let cells = (0..8)
                .map(|_| crate::cell::Cell::with_vth(1, encoding, vth_a, 1.02).unwrap())
                .collect();
            am.store_cells(1, cells).unwrap();
            snap.refresh_rows(&am, [1usize]);
            assert_eq!(snap.packed_rows(), 2);
            let q = [2u8; 8];
            let got = snap.search_packed(&am, &q).unwrap();
            assert_eq!(got.rows[1], TdamArray::search(&am, &q).unwrap().rows[1]);
        }
        // ...and a nominal rewrite restores it.
        am.store(1, &[2; 8]).unwrap();
        snap.refresh_rows(&am, [1usize]);
        assert_eq!(snap.packed_rows(), 3);
        assert_eq!(
            snap.search_packed_unchecked(&[2; 8]).unwrap().best_row(),
            Some(1)
        );
    }

    #[test]
    fn snapshot_search_matches_reference_under_packed_contract() {
        let mut am = array(5, 16);
        for row in 0..5 {
            let v: Vec<u8> = (0..16).map(|i| ((i * 3 + row) % 4) as u8).collect();
            am.store(row, &v).unwrap();
        }
        let snap = am.compile_snapshot();
        assert_eq!(snap.packed_rows(), 5);
        assert_eq!(snap.generation(), am.generation());
        let rows: Vec<Vec<u8>> = (0..9)
            .map(|k| (0..16).map(|i| ((i + k) % 4) as u8).collect())
            .collect();
        let batch = BatchQuery::from_rows(&rows).unwrap();
        let batched = snap.search_batch(&am, &batch, None).unwrap();
        for (q, got) in rows.iter().zip(&batched) {
            let reference = TdamArray::search(&am, q).unwrap();
            assert_packed_contract(&snap.search_packed(&am, q).unwrap(), &reference, 16);
            assert_packed_contract(got, &reference, 16);
        }
    }

    #[test]
    fn engine_trait_roundtrip() {
        let mut am = array(2, 4);
        SimilarityEngine::store(&mut am, 0, &[1, 2, 3, 0]).unwrap();
        let metrics = SimilarityEngine::search(&mut am, &[1, 2, 3, 0]).unwrap();
        assert_eq!(metrics.best_row, Some(0));
        assert_eq!(metrics.distances[0], Some(0));
        assert!(metrics.energy > 0.0);
        assert!(metrics.latency > 0.0);
        assert!(am.is_quantitative());
        assert_eq!(am.total_bits(), 2 * 4 * 2);
    }

    proptest! {
        #[test]
        fn search_never_misranks_nominal(
            stored in prop::collection::vec(prop::collection::vec(0u8..4, 8), 3),
            query in prop::collection::vec(0u8..4, 8),
        ) {
            let mut am = array(3, 8);
            for (i, row) in stored.iter().enumerate() {
                am.store(i, row).unwrap();
            }
            let out = TdamArray::search(&am, &query).unwrap();
            let best = out.best_row().unwrap();
            let truth: Vec<usize> = stored
                .iter()
                .map(|row| row.iter().zip(&query).filter(|(a, b)| a != b).count())
                .collect();
            let min_truth = *truth.iter().min().unwrap();
            prop_assert_eq!(truth[best], min_truth);
        }
    }
}
