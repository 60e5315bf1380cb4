//! Delay chains and the 2-step operation scheme (paper Fig. 3, Sec. III-B).
//!
//! A chain cascades `N` delay stages. Because a plain inverter chain would
//! suffer PMOS/NMOS speed mismatch between alternating edges and degraded
//! pulse edges across consecutive mismatch stages, the paper processes the
//! search in two steps:
//!
//! - **step I** — the *rising* edge propagates; all odd stages are
//!   deactivated (both search lines at `V_SL0`, so their FeFETs stay off
//!   and the match node holds `V_DD` — equivalent to a match), and the
//!   sharpening inverters between even stages restore the edge;
//! - **step II** — the *falling* edge propagates with even stages
//!   deactivated.
//!
//! Summing both edge delays yields `d_tot = 2·N·d_INV + N_mis·d_C`.
//!
//! # Variation model
//!
//! [`DelayChain::evaluate`] goes beyond the nominal formula: for each
//! active cell it computes the match-node discharge current from the
//! (possibly perturbed) FeFET thresholds via the device model, converts it
//! into a *cap-attachment factor* `α ∈ [0, 1]` (has MN discharged below the
//! switch threshold by the time the edge arrives?) and a drive-strength
//! correction on `d_C`. With nominal thresholds this reduces exactly to the
//! paper's linear formula; with Monte Carlo thresholds it reproduces the
//! delay spread and the rare sensing-margin violations of Fig. 6.

use crate::cell::Cell;
use crate::config::ArrayConfig;
use crate::encoding::Encoding;
use crate::energy::EnergyBreakdown;
use crate::timing::StageTiming;
use crate::TdamError;
use serde::{Deserialize, Serialize};

/// Result of searching one query against one delay chain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChainResult {
    /// Step-I (rising-edge, even stages) delay, seconds.
    pub rising_delay: f64,
    /// Step-II (falling-edge, odd stages) delay, seconds.
    pub falling_delay: f64,
    /// Total delay `rising + falling`, seconds.
    pub total_delay: f64,
    /// True element mismatch count (ground truth from the stored data).
    pub mismatches: usize,
    /// Mismatches on even stages (contributing in step I).
    pub even_mismatches: usize,
    /// Mismatches on odd stages (contributing in step II).
    pub odd_mismatches: usize,
    /// Energy consumed by this chain for the search.
    pub energy: EnergyBreakdown,
}

/// One row of the TD-AM: `N` cells forming a variable-capacitance delay
/// chain.
///
/// # Examples
///
/// ```
/// use tdam::chain::DelayChain;
/// use tdam::config::ArrayConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = ArrayConfig::paper_default().with_stages(4);
/// let chain = DelayChain::new(&[0, 1, 2, 3], &cfg)?;
/// let full_match = chain.evaluate(&[0, 1, 2, 3])?;
/// let one_off = chain.evaluate(&[0, 1, 2, 2])?;
/// assert_eq!(full_match.mismatches, 0);
/// assert_eq!(one_off.mismatches, 1);
/// assert!(one_off.total_delay > full_match.total_delay);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayChain {
    cells: Vec<Cell>,
    encoding: Encoding,
    config: ArrayConfig,
    timing: StageTiming,
}

impl DelayChain {
    /// Builds a chain storing `values` with nominal (variation-free)
    /// cells and an analytically calibrated timing model.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] if `values.len()` differs from
    /// `config.stages`, [`TdamError::ValueOutOfRange`] for elements that
    /// do not fit the encoding, or [`TdamError::InvalidConfig`] for a bad
    /// configuration.
    pub fn new(values: &[u8], config: &ArrayConfig) -> Result<Self, TdamError> {
        let timing = StageTiming::analytic(&config.tech, config.c_load)?;
        Self::with_timing(values, config, timing)
    }

    /// Builds a chain with an explicit timing calibration (e.g. one
    /// extracted from circuit simulation).
    ///
    /// # Errors
    ///
    /// As [`DelayChain::new`].
    pub fn with_timing(
        values: &[u8],
        config: &ArrayConfig,
        timing: StageTiming,
    ) -> Result<Self, TdamError> {
        config.validate()?;
        if values.len() != config.stages {
            return Err(TdamError::LengthMismatch {
                got: values.len(),
                expected: config.stages,
            });
        }
        let cells = values
            .iter()
            .map(|&v| Cell::new(v, config.encoding))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            cells,
            encoding: config.encoding,
            config: *config,
            timing,
        })
    }

    /// Builds a chain from pre-constructed cells (Monte Carlo injects
    /// perturbed thresholds this way).
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] if the cell count differs
    /// from `config.stages`.
    pub fn from_cells(
        cells: Vec<Cell>,
        config: &ArrayConfig,
        timing: StageTiming,
    ) -> Result<Self, TdamError> {
        config.validate()?;
        if cells.len() != config.stages {
            return Err(TdamError::LengthMismatch {
                got: cells.len(),
                expected: config.stages,
            });
        }
        Ok(Self {
            cells,
            encoding: config.encoding,
            config: *config,
            timing,
        })
    }

    /// The stored vector.
    pub fn stored(&self) -> Vec<u8> {
        self.cells.iter().map(Cell::stored).collect()
    }

    /// The cells, in stage order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the chain has no stages (never true for a validated config).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The timing calibration in use.
    pub fn timing(&self) -> &StageTiming {
        &self.timing
    }

    /// The nominal total delay the paper's formula predicts for a given
    /// mismatch count.
    pub fn nominal_delay(&self, mismatches: usize) -> f64 {
        self.timing.chain_delay(self.len(), mismatches)
    }

    /// Searches `query` against the chain using the 2-step scheme.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::LengthMismatch`] or
    /// [`TdamError::ValueOutOfRange`] for malformed queries.
    pub fn evaluate(&self, query: &[u8]) -> Result<ChainResult, TdamError> {
        if query.len() != self.cells.len() {
            return Err(TdamError::LengthMismatch {
                got: query.len(),
                expected: self.cells.len(),
            });
        }
        self.encoding.validate(query)?;

        let tech = &self.config.tech;
        let vdd = tech.vdd;
        let t = &self.timing;

        let mut result = ChainResult {
            rising_delay: 0.0,
            falling_delay: 0.0,
            total_delay: 0.0,
            mismatches: 0,
            even_mismatches: 0,
            odd_mismatches: 0,
            energy: EnergyBreakdown::default(),
        };

        // Ground-truth mismatch counts.
        for (j, cell) in self.cells.iter().enumerate() {
            if cell.stored() != query[j] {
                result.mismatches += 1;
                if j % 2 == 0 {
                    result.even_mismatches += 1;
                } else {
                    result.odd_mismatches += 1;
                }
            }
        }

        // Step I: even stages active; step II: odd stages active.
        for step in 0..2usize {
            let mut edge_time = tech.t_launch;
            let mut step_delay = 0.0;
            for (j, cell) in self.cells.iter().enumerate() {
                let active = j % 2 == step;
                let stage_delay = if active && cell.is_nominal() {
                    // Fast path: nominal thresholds reduce exactly to the
                    // paper's linear formula.
                    if cell.stored() != query[j] {
                        result.energy.load_caps += t.e_c;
                        result.energy.match_nodes += t.e_mn;
                        t.d_inv + t.d_c
                    } else {
                        t.d_inv
                    }
                } else if active {
                    let q = query[j];
                    // Discharge current of the (possibly perturbed) cell at
                    // mid-swing MN voltage.
                    let i_act = cell.discharge_current(q, vdd / 2.0, &tech.nmos)?;
                    // Attachment factor: has MN crossed the switch-PMOS
                    // threshold by the time the edge arrives?
                    let alpha = attachment_factor(i_act, edge_time, tech.c_mn, vdd, tech.pmos.vth);
                    if alpha > 0.0 {
                        // Drive-strength correction relative to the nominal
                        // cell (identical thresholds → correction 1.0).
                        let nominal = Cell::new(cell.stored(), self.encoding)?;
                        let i_nom = nominal.discharge_current(q, vdd / 2.0, &tech.nmos)?;
                        let correction = if cell.stored() != q && i_act > 1e-12 {
                            1.0 + tech.dc_sensitivity * (i_nom / i_act - 1.0)
                        } else {
                            1.0
                        };
                        let e_c = alpha * t.e_c;
                        result.energy.load_caps += e_c;
                        result.energy.match_nodes += t.e_mn;
                        t.d_inv + alpha * t.d_c * correction.max(0.25)
                    } else {
                        t.d_inv
                    }
                } else {
                    // Deactivated stage: both SLs at V_SL0, FeFETs off,
                    // MN holds VDD — pure inverter delay.
                    t.d_inv
                };
                step_delay += stage_delay;
                edge_time += stage_delay;
            }
            if step == 0 {
                result.rising_delay = step_delay;
            } else {
                result.falling_delay = step_delay;
            }
        }

        result.total_delay = result.rising_delay + result.falling_delay;
        // Per-search fixed energies.
        result.energy.inverters = self.cells.len() as f64 * t.e_inv;
        result.energy.search_lines = self.cells.len() as f64 * t.e_sl;
        Ok(result)
    }

    /// Estimates the mismatch count a sensing circuit would decode from a
    /// measured total delay (inverse of the nominal linear formula,
    /// rounded to the nearest count and clamped to `0..=N`).
    pub fn decode_mismatches(&self, total_delay: f64) -> usize {
        let base = 2.0 * self.len() as f64 * self.timing.d_inv;
        let est = ((total_delay - base) / self.timing.d_c).round();
        est.clamp(0.0, self.len() as f64) as usize
    }
}

/// Fraction of the load capacitor effectively attached when the edge
/// arrives `t_arrival` after search-line assertion, given the cell's
/// discharge current: MN ramps down at `I/C_mn`; the switch PMOS conducts
/// once MN falls below `V_DD − |V_TH,P|`, reaching full strength at
/// MN = 0.
fn attachment_factor(i_discharge: f64, t_arrival: f64, c_mn: f64, vdd: f64, vth_p: f64) -> f64 {
    if i_discharge <= 0.0 {
        return 0.0;
    }
    let delta_v = (i_discharge * t_arrival / c_mn).min(vdd);
    let v_mn = vdd - delta_v;
    let turn_on = vdd - vth_p;
    if v_mn >= turn_on {
        0.0
    } else {
        ((turn_on - v_mn) / turn_on).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdam_num::LinearFit;

    fn cfg(stages: usize) -> ArrayConfig {
        ArrayConfig::paper_default().with_stages(stages)
    }

    fn chain_of(values: &[u8]) -> DelayChain {
        DelayChain::new(values, &cfg(values.len())).unwrap()
    }

    #[test]
    fn full_match_is_fastest() {
        let chain = chain_of(&[0, 1, 2, 3, 3, 2, 1, 0]);
        let m = chain.evaluate(&[0, 1, 2, 3, 3, 2, 1, 0]).unwrap();
        assert_eq!(m.mismatches, 0);
        assert!((m.total_delay - chain.nominal_delay(0)).abs() < 1e-15);
        let x = chain.evaluate(&[3, 1, 2, 3, 3, 2, 1, 0]).unwrap();
        assert!(x.total_delay > m.total_delay);
    }

    #[test]
    fn delay_matches_paper_formula_nominal() {
        // With nominal thresholds the detailed model must reduce exactly
        // (within fp noise) to 2·N·d_INV + N_mis·d_C.
        let chain = chain_of(&[1; 16]);
        for n_mis in 0..=16usize {
            let mut q = vec![1u8; 16];
            for item in q.iter_mut().take(n_mis) {
                *item = 2;
            }
            let r = chain.evaluate(&q).unwrap();
            assert_eq!(r.mismatches, n_mis);
            let expect = chain.nominal_delay(n_mis);
            assert!(
                (r.total_delay - expect).abs() < 0.02 * expect,
                "n_mis={n_mis}: {:.4e} vs formula {:.4e}",
                r.total_delay,
                expect
            );
        }
    }

    #[test]
    fn linearity_r_squared() {
        // Fig. 4(c): delay is linear in mismatch count.
        let stages = 32;
        let chain = chain_of(&vec![1u8; stages]);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for n_mis in 0..=stages {
            let mut q = vec![1u8; stages];
            for item in q.iter_mut().take(n_mis) {
                *item = 3;
            }
            let r = chain.evaluate(&q).unwrap();
            xs.push(n_mis as f64);
            ys.push(r.total_delay);
        }
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.999, "R² = {}", fit.r_squared);
        assert!((fit.slope - chain.timing().d_c).abs() < 0.05 * chain.timing().d_c);
    }

    #[test]
    fn even_odd_split() {
        let chain = chain_of(&[0; 8]);
        // Mismatches at positions 0 (even) and 1, 3 (odd).
        let r = chain.evaluate(&[1, 1, 0, 1, 0, 0, 0, 0]).unwrap();
        assert_eq!(r.even_mismatches, 1);
        assert_eq!(r.odd_mismatches, 2);
        assert_eq!(r.mismatches, 3);
        // Step delays reflect the split.
        assert!(r.falling_delay > r.rising_delay);
    }

    #[test]
    fn decode_roundtrip() {
        let chain = chain_of(&[2; 24]);
        for n_mis in [0usize, 1, 7, 24] {
            let mut q = vec![2u8; 24];
            for item in q.iter_mut().take(n_mis) {
                *item = 0;
            }
            let r = chain.evaluate(&q).unwrap();
            assert_eq!(chain.decode_mismatches(r.total_delay), n_mis);
        }
    }

    #[test]
    fn wrong_query_shapes_rejected() {
        let chain = chain_of(&[0; 4]);
        assert!(matches!(
            chain.evaluate(&[0; 3]),
            Err(TdamError::LengthMismatch { .. })
        ));
        assert!(matches!(
            chain.evaluate(&[0, 0, 0, 9]),
            Err(TdamError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_store_shapes_rejected() {
        assert!(DelayChain::new(&[0; 3], &cfg(4)).is_err());
        assert!(DelayChain::new(&[9; 4], &cfg(4)).is_err());
    }

    #[test]
    fn mismatch_distance_does_not_change_nominal_delay_much() {
        // Adjacent-level and far-level mismatches both attach the full cap;
        // the drive-strength correction only matters under variation.
        let chain = chain_of(&[0; 8]);
        let near = chain.evaluate(&[1; 8]).unwrap();
        let far = chain.evaluate(&[3; 8]).unwrap();
        assert!(
            (near.total_delay - far.total_delay).abs() < 0.05 * near.total_delay,
            "near {:.3e} far {:.3e}",
            near.total_delay,
            far.total_delay
        );
    }

    #[test]
    fn energy_grows_with_mismatches() {
        let chain = chain_of(&[1; 16]);
        let e0 = chain.evaluate(&[1; 16]).unwrap().energy.total();
        let e8 = {
            let mut q = vec![1u8; 16];
            for item in q.iter_mut().take(8) {
                *item = 0;
            }
            chain.evaluate(&q).unwrap().energy.total()
        };
        let e16 = chain.evaluate(&[0; 16]).unwrap().energy.total();
        assert!(e0 < e8 && e8 < e16);
        // The load-cap component accounts for the difference.
        let expected_delta = 16.0 * (chain.timing().e_c + chain.timing().e_mn);
        assert!(((e16 - e0) - expected_delta).abs() < 0.05 * expected_delta);
    }

    #[test]
    fn perturbed_cells_shift_delay() {
        // A chain whose conducting FeFETs are weakened (vth raised) shows a
        // longer mismatch delay than nominal.
        let config = cfg(8);
        let timing = StageTiming::analytic(&config.tech, config.c_load).unwrap();
        let enc = config.encoding;
        let cells: Vec<Cell> = (0..8)
            .map(|_| Cell::with_vth(1, enc, 0.6 + 0.05, 1.0 + 0.05).unwrap())
            .collect();
        let weak = DelayChain::from_cells(cells, &config, timing).unwrap();
        let nominal = chain_of(&[1; 8]);
        let q = vec![2u8; 8];
        let d_weak = weak.evaluate(&q).unwrap().total_delay;
        let d_nom = nominal.evaluate(&q).unwrap().total_delay;
        assert!(
            d_weak > d_nom,
            "weakened cells must slow the chain: {d_weak:.3e} vs {d_nom:.3e}"
        );
    }

    #[test]
    fn false_conduction_adds_delay() {
        // A matched cell whose F_A vth dropped below the SL level behaves
        // like a mismatch.
        let config = cfg(4);
        let timing = StageTiming::analytic(&config.tech, config.c_load).unwrap();
        let enc = config.encoding;
        let mut cells: Vec<Cell> = (0..4).map(|_| Cell::new(1, enc).unwrap()).collect();
        cells[0] = Cell::with_vth(1, enc, 0.30, 1.0).unwrap(); // vsl(1)=0.4 > 0.30
        let bad = DelayChain::from_cells(cells, &config, timing).unwrap();
        let good = chain_of(&[1; 4]);
        let q = vec![1u8; 4];
        let d_bad = bad.evaluate(&q).unwrap().total_delay;
        let d_good = good.evaluate(&q).unwrap().total_delay;
        assert!(
            d_bad > d_good + 0.5 * good.timing().d_c,
            "false conduction should cost ~d_C: {d_bad:.3e} vs {d_good:.3e}"
        );
    }

    #[test]
    fn attachment_factor_behaviour() {
        // No current → never attaches.
        assert_eq!(attachment_factor(0.0, 1e-9, 1e-15, 1.1, 0.45), 0.0);
        // Strong current, generous time → fully attaches.
        let full = attachment_factor(10e-6, 1e-9, 1e-15, 1.1, 0.45);
        assert!((full - 1.0).abs() < 1e-12);
        // Weak current, short time → partial.
        let partial = attachment_factor(0.7e-6, 1e-9, 1e-15, 1.1, 0.45);
        assert!(partial > 0.0 && partial < 1.0, "got {partial}");
    }

    proptest! {
        #[test]
        fn delay_monotone_in_mismatches(stored in prop::collection::vec(0u8..4, 8..24),
                                        flips in 1usize..8) {
            let chain = chain_of(&stored);
            let q0 = stored.clone();
            let mut q1 = stored.clone();
            let n = stored.len();
            for i in 0..flips.min(n) {
                q1[i] = (stored[i] + 1) % 4;
            }
            let d0 = chain.evaluate(&q0).unwrap().total_delay;
            let d1 = chain.evaluate(&q1).unwrap().total_delay;
            prop_assert!(d1 > d0);
        }

        #[test]
        fn decode_is_exact_for_nominal(stored in prop::collection::vec(0u8..4, 4..32),
                                       query in prop::collection::vec(0u8..4, 4..32)) {
            let n = stored.len().min(query.len());
            let (stored, query) = (&stored[..n], &query[..n]);
            let chain = chain_of(stored);
            let r = chain.evaluate(query).unwrap();
            prop_assert_eq!(chain.decode_mismatches(r.total_delay), r.mismatches);
        }
    }
}
