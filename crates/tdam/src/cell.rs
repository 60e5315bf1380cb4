//! The 2-FeFET multi-bit IMC cell (paper Fig. 2).
//!
//! Two FeFETs `F_A`, `F_B` sit in parallel between the match node (MN) and
//! ground, with a PMOS precharging MN to `V_DD`. `F_A` is programmed to
//! `V_TH[d]` for stored value `d` and driven by `V_SL[q]` for query `q`;
//! `F_B` stores and is driven with *reversed* indices. The geometry of the
//! two ladders makes the cell a three-way comparator:
//!
//! - `q == d` — both FeFETs stay below threshold, MN holds `V_DD` (match);
//! - `q > d`  — `F_A` conducts and discharges MN;
//! - `q < d`  — `F_B` conducts and discharges MN.
//!
//! With the paper's 2-bit values (`V_TH` = 0.2/0.6/1.0/1.4 V, `V_SL` =
//! 0/0.4/0.8/1.2 V) a one-level mismatch leaves 0.2 V of overdrive on the
//! conducting device.

use crate::config::TechParams;
use crate::encoding::Encoding;
use crate::TdamError;
use serde::{Deserialize, Serialize};
use tdam_ckt::netlist::{Netlist, NodeId};
use tdam_ckt::waveform::Waveform;
use tdam_fefet::mosfet::{ids, MosParams};

/// Which of the two FeFETs conducts on a mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConductingFefet {
    /// `F_A` conducts: the query value is larger than the stored value.
    A,
    /// `F_B` conducts: the query value is smaller than the stored value.
    B,
}

/// The threshold/search-line voltage ladders for a given element encoding.
///
/// The ladder spans the FeFET programming window (0.2–1.4 V); search-line
/// levels sit half a step below the matching thresholds so a matching cell
/// has negative overdrive on both devices and any mismatch has at least
/// half a step of positive overdrive on exactly one device.
///
/// The ladder is `Copy` and holds no table: each level is computed on
/// demand as `lo + step * i` (minus half a step for the search lines),
/// so a [`Cell`] can derive it from its encoding instead of owning one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoltageLadder {
    levels: u8,
    lo: f64,
    step: f64,
}

impl VoltageLadder {
    /// Builds the ladder for `encoding`.
    ///
    /// For the paper's 2-bit encoding this reproduces exactly
    /// `V_TH0..V_TH3` = 0.2/0.6/1.0/1.4 V and `V_SL0..V_SL3` =
    /// 0/0.4/0.8/1.2 V.
    pub fn for_encoding(encoding: Encoding) -> Self {
        let levels = encoding.levels();
        let (lo, hi) = (
            tdam_fefet::PAPER_VTH[0],
            tdam_fefet::PAPER_VTH[tdam_fefet::PAPER_STATES - 1],
        );
        let step = if levels > 1 {
            (hi - lo) / (levels - 1) as f64
        } else {
            hi - lo
        };
        Self { levels, lo, step }
    }

    /// Threshold voltage programmed for level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the ladder.
    pub fn vth(&self, i: u8) -> f64 {
        assert!(
            i < self.levels,
            "level {i} exceeds the {}-level ladder",
            self.levels
        );
        self.lo + self.step * i as f64
    }

    /// Search-line voltage applied for level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds the ladder.
    pub fn vsl(&self, i: u8) -> f64 {
        self.vth(i) - self.step / 2.0
    }

    /// Number of levels.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// The step between adjacent ladder levels, volts.
    pub fn step(&self) -> f64 {
        if self.levels > 1 {
            self.vth(1) - self.vth(0)
        } else {
            0.0
        }
    }
}

/// Result of evaluating a cell against a query value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Which FeFET conducts, or `None` on a match.
    pub conducting: Option<ConductingFefet>,
    /// Gate overdrive (`V_SL − V_TH`) of `F_A`, volts.
    pub overdrive_a: f64,
    /// Gate overdrive of `F_B`, volts.
    pub overdrive_b: f64,
}

impl CellOutcome {
    /// Whether the cell reports a match (MN stays at `V_DD`).
    pub fn is_match(&self) -> bool {
        self.conducting.is_none()
    }

    /// Overdrive of the conducting FeFET (`None` on a match).
    pub fn conducting_overdrive(&self) -> Option<f64> {
        self.conducting.map(|w| match w {
            ConductingFefet::A => self.overdrive_a,
            ConductingFefet::B => self.overdrive_b,
        })
    }
}

/// A 2-FeFET multi-bit IMC cell holding one stored element.
///
/// # Examples
///
/// ```
/// use tdam::cell::Cell;
/// use tdam::Encoding;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cell = Cell::new(1, Encoding::paper_default())?;
/// assert!(cell.evaluate(1)?.is_match());
/// assert!(!cell.evaluate(0)?.is_match());
/// assert!(!cell.evaluate(2)?.is_match());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    stored: u8,
    encoding: Encoding,
    /// Actual programmed thresholds (may deviate from nominal under
    /// variation): `(F_A, F_B)`.
    vth_actual: (f64, f64),
}

impl Cell {
    /// Creates a cell storing `value` with nominal (variation-free)
    /// thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::ValueOutOfRange`] if `value` does not fit the
    /// encoding.
    pub fn new(value: u8, encoding: Encoding) -> Result<Self, TdamError> {
        encoding.validate(&[value])?;
        let ladder = VoltageLadder::for_encoding(encoding);
        let rev = encoding.levels() - 1 - value;
        let vth_actual = (ladder.vth(value), ladder.vth(rev));
        Ok(Self {
            stored: value,
            encoding,
            vth_actual,
        })
    }

    /// Creates a cell with explicitly perturbed thresholds (Monte Carlo).
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::ValueOutOfRange`] if `value` does not fit the
    /// encoding.
    pub fn with_vth(
        value: u8,
        encoding: Encoding,
        vth_a: f64,
        vth_b: f64,
    ) -> Result<Self, TdamError> {
        let mut cell = Self::new(value, encoding)?;
        cell.vth_actual = (vth_a, vth_b);
        Ok(cell)
    }

    /// The stored element value.
    pub fn stored(&self) -> u8 {
        self.stored
    }

    /// The element encoding.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The nominal voltage ladder in use, derived from the encoding.
    pub fn ladder(&self) -> VoltageLadder {
        VoltageLadder::for_encoding(self.encoding)
    }

    /// The actual `(F_A, F_B)` threshold voltages.
    pub fn vth_actual(&self) -> (f64, f64) {
        self.vth_actual
    }

    /// Whether the cell's thresholds sit exactly on the nominal ladder
    /// (no variation). Nominal cells take a fast evaluation path in
    /// [`crate::chain::DelayChain::evaluate`].
    pub fn is_nominal(&self) -> bool {
        let rev = self.reversed(self.stored);
        let ladder = self.ladder();
        self.vth_actual.0 == ladder.vth(self.stored) && self.vth_actual.1 == ladder.vth(rev)
    }

    /// The reversed index `F_B` is programmed/driven with for level `v`.
    fn reversed(&self, v: u8) -> u8 {
        self.encoding.levels() - 1 - v
    }

    /// Evaluates the cell against query value `q` using the actual
    /// (possibly perturbed) thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::ValueOutOfRange`] if `q` does not fit the
    /// encoding.
    pub fn evaluate(&self, q: u8) -> Result<CellOutcome, TdamError> {
        self.encoding.validate(&[q])?;
        let ladder = self.ladder();
        let v_sl_a = ladder.vsl(q);
        let v_sl_b = ladder.vsl(self.reversed(q));
        let overdrive_a = v_sl_a - self.vth_actual.0;
        let overdrive_b = v_sl_b - self.vth_actual.1;
        let conducting = if overdrive_a > 0.0 && overdrive_a >= overdrive_b {
            Some(ConductingFefet::A)
        } else if overdrive_b > 0.0 {
            Some(ConductingFefet::B)
        } else {
            None
        };
        Ok(CellOutcome {
            conducting,
            overdrive_a,
            overdrive_b,
        })
    }

    /// Match-node discharge current for query `q` at the given MN voltage,
    /// amperes (sum of both FeFETs, including subthreshold leakage).
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::ValueOutOfRange`] if `q` does not fit the
    /// encoding.
    pub fn discharge_current(&self, q: u8, v_mn: f64, mos: &MosParams) -> Result<f64, TdamError> {
        self.encoding.validate(&[q])?;
        let ladder = self.ladder();
        let v_sl_a = ladder.vsl(q);
        let v_sl_b = ladder.vsl(self.reversed(q));
        let i_a = ids(&mos.with_vth(self.vth_actual.0), v_sl_a, v_mn).id;
        let i_b = ids(&mos.with_vth(self.vth_actual.1), v_sl_b, v_mn).id;
        Ok(i_a + i_b)
    }

    /// Builds a standalone cell test circuit: precharge PMOS (active-low
    /// pulse on `pre`), both FeFETs as threshold-shifted MOSFETs, MN node
    /// capacitance, and search-line sources asserting the query after
    /// precharge. Returns the netlist; interesting nodes are named
    /// `"mn"`, `"sla"`, `"slb"`, `"pre"`.
    ///
    /// # Errors
    ///
    /// Returns [`TdamError::ValueOutOfRange`] if `q` does not fit the
    /// encoding.
    pub fn build_netlist(&self, q: u8, tech: &TechParams) -> Result<Netlist, TdamError> {
        self.encoding.validate(&[q])?;
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let mn = nl.node("mn");
        let sla = nl.node("sla");
        let slb = nl.node("slb");
        let pre = nl.node("pre");

        nl.vsource("VDD", vdd, Netlist::GND, Waveform::dc(tech.vdd));
        // Precharge: active-low pulse 0..1 ns.
        nl.vsource(
            "VPRE",
            pre,
            Netlist::GND,
            Waveform::Pwl(vec![(0.0, 0.0), (1.0e-9, 0.0), (1.05e-9, tech.vdd)]),
        );
        // Search lines assert at 1.2 ns (after precharge releases).
        let ladder = self.ladder();
        let v_sl_a = ladder.vsl(q);
        let v_sl_b = ladder.vsl(self.reversed(q));
        nl.vsource(
            "VSLA",
            sla,
            Netlist::GND,
            Waveform::Pwl(vec![(0.0, 0.0), (1.2e-9, 0.0), (1.25e-9, v_sl_a)]),
        );
        nl.vsource(
            "VSLB",
            slb,
            Netlist::GND,
            Waveform::Pwl(vec![(0.0, 0.0), (1.2e-9, 0.0), (1.25e-9, v_sl_b)]),
        );

        // Precharge PMOS: source at VDD, drain at MN, gate at PRE.
        nl.mosfet("MPRE", mn, pre, vdd, tech.pmos);
        // The two FeFETs (read mode = MOSFET with programmed vth).
        let fefet_mos: NodeId = mn;
        nl.mosfet(
            "FA",
            fefet_mos,
            sla,
            Netlist::GND,
            tech.nmos.with_vth(self.vth_actual.0),
        );
        nl.mosfet(
            "FB",
            fefet_mos,
            slb,
            Netlist::GND,
            tech.nmos.with_vth(self.vth_actual.1),
        );
        nl.capacitor("CMN", mn, Netlist::GND, tech.c_mn)
            .map_err(TdamError::from)?;
        Ok(nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tdam_ckt::analysis::{TranConfig, Transient};

    fn enc2() -> Encoding {
        Encoding::paper_default()
    }

    #[test]
    fn ladder_matches_paper_voltages() {
        let ladder = VoltageLadder::for_encoding(enc2());
        for (i, (&vth, &vsl)) in tdam_fefet::PAPER_VTH
            .iter()
            .zip(tdam_fefet::PAPER_VSL.iter())
            .enumerate()
        {
            assert!((ladder.vth(i as u8) - vth).abs() < 1e-12);
            assert!((ladder.vsl(i as u8) - vsl).abs() < 1e-12);
        }
        assert!((ladder.step() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ladder_scales_to_other_precisions() {
        for bits in 1..=4u8 {
            let enc = Encoding::new(bits).unwrap();
            let ladder = VoltageLadder::for_encoding(enc);
            assert_eq!(ladder.levels(), enc.levels());
            // Full window is always spanned.
            assert!((ladder.vth(0) - 0.2).abs() < 1e-12);
            assert!((ladder.vth(enc.levels() - 1) - 1.4).abs() < 1e-12);
        }
    }

    #[test]
    fn on_demand_ladder_matches_the_tabulated_ladder_bit_for_bit() {
        // The ladder once stored its levels as tables built exactly like
        // this; computing them on demand must not move a single bit.
        let (lo, hi) = (
            tdam_fefet::PAPER_VTH[0],
            tdam_fefet::PAPER_VTH[tdam_fefet::PAPER_STATES - 1],
        );
        for bits in 1..=4u8 {
            let enc = Encoding::new(bits).unwrap();
            let levels = enc.levels() as usize;
            let step = (hi - lo) / (levels - 1) as f64;
            let vth: Vec<f64> = (0..levels).map(|i| lo + step * i as f64).collect();
            let vsl: Vec<f64> = vth.iter().map(|v| v - step / 2.0).collect();
            let ladder = VoltageLadder::for_encoding(enc);
            for (i, (t, l)) in vth.iter().zip(&vsl).enumerate() {
                assert_eq!(ladder.vth(i as u8).to_bits(), t.to_bits());
                assert_eq!(ladder.vsl(i as u8).to_bits(), l.to_bits());
            }
            assert_eq!(ladder.step().to_bits(), (vth[1] - vth[0]).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn ladder_rejects_a_level_past_its_top() {
        VoltageLadder::for_encoding(enc2()).vth(4);
    }

    #[test]
    fn cell_holds_no_heap_ladder() {
        // stored value + encoding + two f64 thresholds: a heap-backed
        // field (a ladder table, say) would grow every cell of every array.
        assert!(
            std::mem::size_of::<Cell>() <= 24,
            "{}",
            std::mem::size_of::<Cell>()
        );
    }

    #[test]
    fn truth_table_2bit() {
        // Full 4x4 truth table: match iff q == d; F_A iff q > d; F_B iff
        // q < d. This is Fig. 2(d-f) exhaustively.
        for d in 0..4u8 {
            let cell = Cell::new(d, enc2()).unwrap();
            for q in 0..4u8 {
                let out = cell.evaluate(q).unwrap();
                match q.cmp(&d) {
                    std::cmp::Ordering::Equal => {
                        assert!(out.is_match(), "d={d} q={q} should match")
                    }
                    std::cmp::Ordering::Greater => {
                        assert_eq!(out.conducting, Some(ConductingFefet::A), "d={d} q={q}")
                    }
                    std::cmp::Ordering::Less => {
                        assert_eq!(out.conducting, Some(ConductingFefet::B), "d={d} q={q}")
                    }
                }
            }
        }
    }

    #[test]
    fn match_has_negative_overdrive_margin() {
        for d in 0..4u8 {
            let cell = Cell::new(d, enc2()).unwrap();
            let out = cell.evaluate(d).unwrap();
            assert!(out.overdrive_a <= -0.19, "margin A {}", out.overdrive_a);
            assert!(out.overdrive_b <= -0.19, "margin B {}", out.overdrive_b);
        }
    }

    #[test]
    fn adjacent_mismatch_overdrive_is_half_step() {
        let cell = Cell::new(1, enc2()).unwrap();
        let out = cell.evaluate(2).unwrap();
        assert!((out.conducting_overdrive().unwrap() - 0.2).abs() < 1e-12);
        // Larger mismatch distance → more overdrive.
        let out3 = cell.evaluate(3).unwrap();
        assert!(out3.conducting_overdrive().unwrap() > out.conducting_overdrive().unwrap());
    }

    #[test]
    fn variation_can_flip_marginal_match() {
        // Shift F_A's vth down by more than the margin: a nominal match
        // becomes a (false) mismatch.
        let cell = Cell::with_vth(1, enc2(), 0.6 - 0.25, 1.0 - 0.25).unwrap();
        let out = cell.evaluate(1).unwrap();
        assert!(!out.is_match(), "excess vth shift must break the match");
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Cell::new(4, enc2()).is_err());
        let cell = Cell::new(0, enc2()).unwrap();
        assert!(cell.evaluate(4).is_err());
    }

    #[test]
    fn discharge_current_match_vs_mismatch() {
        let tech = TechParams::nominal_40nm();
        let cell = Cell::new(1, enc2()).unwrap();
        let i_match = cell.discharge_current(1, tech.vdd, &tech.nmos).unwrap();
        let i_mis = cell.discharge_current(2, tech.vdd, &tech.nmos).unwrap();
        assert!(
            i_mis / i_match > 100.0,
            "mismatch current {i_mis} should dwarf match leakage {i_match}"
        );
    }

    #[test]
    fn circuit_match_holds_mn_mismatch_discharges() {
        // The Fig. 2(d-f) experiment, in the circuit simulator: store '1',
        // query 0/1/2; MN must hold VDD only for query 1.
        let tech = TechParams::nominal_40nm();
        let cell = Cell::new(1, enc2()).unwrap();
        for q in [0u8, 1, 2] {
            let nl = cell.build_netlist(q, &tech).unwrap();
            let res = Transient::new(&nl, TranConfig::until(6e-9).with_max_step(20e-12))
                .run()
                .unwrap();
            let v_mn_end = res.trace("mn").unwrap().last_value();
            if q == 1 {
                assert!(
                    v_mn_end > tech.vdd * 0.9,
                    "match must hold MN at VDD, got {v_mn_end}"
                );
            } else {
                assert!(
                    v_mn_end < tech.vdd * 0.1,
                    "mismatch (q={q}) must discharge MN, got {v_mn_end}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn behavioral_matches_hamming(d in 0u8..4, q in 0u8..4) {
            let cell = Cell::new(d, enc2()).unwrap();
            let out = cell.evaluate(q).unwrap();
            prop_assert_eq!(out.is_match(), d == q);
        }

        #[test]
        fn higher_precision_truth_table(bits in 1u8..=4, ds in 0u8..16, qs in 0u8..16) {
            let enc = Encoding::new(bits).unwrap();
            let levels = enc.levels();
            let (d, q) = (ds % levels, qs % levels);
            let cell = Cell::new(d, enc).unwrap();
            let out = cell.evaluate(q).unwrap();
            prop_assert_eq!(out.is_match(), d == q, "bits={} d={} q={}", bits, d, q);
            match d.cmp(&q) {
                std::cmp::Ordering::Less => prop_assert_eq!(out.conducting, Some(ConductingFefet::A)),
                std::cmp::Ordering::Greater => prop_assert_eq!(out.conducting, Some(ConductingFefet::B)),
                std::cmp::Ordering::Equal => prop_assert_eq!(out.conducting, None),
            }
        }
    }
}
