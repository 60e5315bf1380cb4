//! Durable state and crash recovery for the TD-AM deployment.
//!
//! A deployed FeFET associative memory is a *non-volatile* store: the
//! programmed thresholds survive power cycles, and so must the software
//! twin's picture of them — which rows were remapped to spares, which
//! columns are masked, how far the devices have aged. This module gives
//! the serving stack that durability, honestly modeling what happens
//! when persistence itself fails mid-write:
//!
//! - **Checkpoints** — [`DeploymentState`] captures the complete
//!   deployment (per-cell programmed levels *and* achieved thresholds,
//!   timing calibration, the [`FaultMap`], spare-row remapping, runtime
//!   backend/breaker/stats) into a versioned, CRC-checksummed binary
//!   file written via temp-file + atomic rename ([`atomic_write`]).
//! - **Write-ahead journal** — mutations between checkpoints
//!   ([`JournalOp`]: stores, fault injections, aging, repairs) append to
//!   a per-generation journal of individually checksummed records; a
//!   torn tail is truncated at the last valid record instead of
//!   poisoning recovery.
//! - **Recovery** — [`CheckpointStore::recover`] walks generations
//!   newest-first, *quarantines* any checkpoint or journal that fails
//!   validation (magic, version, length, CRC), falls back to the last
//!   good generation, and replays the journal's valid prefix.
//!   [`ResilientEngine::restore`] then rebuilds the engine on the
//!   behavioral backend with a bumped array generation — every
//!   pre-checkpoint [`CompiledSnapshot`](crate::array::CompiledSnapshot)
//!   is stale by construction — and the existing known-answer health
//!   probes revalidate the array before promoting back to the
//!   packed-kernel path.
//! - **Crash chaos** — [`run_crash_chaos`] replays thousands of seeded
//!   kill/corruption scenarios (a simulated kill at *every byte
//!   boundary* of the commit sequence, bit flips, truncations) and
//!   cross-checks each recovery against an independently computed
//!   expected state, counting any undetected divergence as a silent
//!   corruption.
//!
//! All serialization is hand-rolled little-endian ([`Writer`] /
//! [`Reader`] / [`Codec`]): `f64` fields travel as raw IEEE-754 bits so
//! a restored array decodes **bit-identically** to the one that was
//! checkpointed.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::clock::{Clock, Timestamp};

use crate::array::TdamArray;
use crate::cell::Cell;
use crate::config::{ArrayConfig, TechParams};
use crate::corpus::{ClusterData, CorpusConfig, CorpusEngine, CorpusTierStatus};
use crate::encoding::Encoding;
use crate::faults::{FaultKind, FaultMap};
use crate::resilience::{ResilienceConfig, ResilientArray, RowHealth, WearPolicy};
use crate::runtime::{
    BackendKind, BatchOutcome, CircuitBreaker, EpochSnapshots, ResilientEngine, RetryConfig,
    RuntimeConfig, RuntimeStats,
};
use crate::timing::StageTiming;
use crate::{BatchQuery, TdamError};
use tdam_fefet::disturb::InhibitScheme;
use tdam_fefet::mosfet::{MosParams, MosPolarity};
use tdam_fefet::programming::RetryPolicy;
use tdam_fefet::retention::{EnduranceParams, Lifetime, RetentionParams};

/// On-disk format version. Bumped on any layout change; recovery
/// refuses newer versions instead of guessing at their layout.
/// Version 3 added the wear-leveling policy to [`ResilienceConfig`] and
/// the online-mutation counters to [`RuntimeStats`]. Version 4 added the
/// retention-scrub counters (`scrub_ticks`/`scrub_probes`/`scrub_heals`)
/// to [`RuntimeStats`]. Version 5 added the corpus-tier snapshot-cache
/// counters (`corpus_cache_hits`/`corpus_cache_misses`/
/// `corpus_cache_evictions`/`corpus_compile_micros`) to [`RuntimeStats`]
/// and the corpus checkpoint file ([`CORPUS_MAGIC`]).
pub const FORMAT_VERSION: u32 = 5;

/// Checkpoint file magic (first 8 bytes).
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"TDAMCKPT";

/// Journal file magic (first 8 bytes).
pub const JOURNAL_MAGIC: [u8; 8] = *b"TDAMJRNL";

/// Corpus checkpoint file magic (first 8 bytes): the centroid table +
/// shard manifests of a [`crate::corpus::CorpusEngine`].
pub const CORPUS_MAGIC: [u8; 8] = *b"TDAMCORP";

/// Checkpoint generations retained after a successful commit (the new
/// one plus fallback history).
pub const KEEP_GENERATIONS: usize = 2;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors from the persistence subsystem.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (not data corruption).
    Io(io::Error),
    /// A file failed validation: bad magic, wrong length, CRC mismatch,
    /// or an undecodable payload.
    Corrupt {
        /// What failed to validate.
        what: String,
    },
    /// The file declares a format version this build does not support.
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// No recoverable checkpoint generation exists.
    NoCheckpoint,
    /// Rebuilding the simulation from a (structurally valid) state
    /// failed.
    Sim(TdamError),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Corrupt { what } => write!(f, "corrupt store data: {what}"),
            Self::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (supported: {FORMAT_VERSION})"
                )
            }
            Self::NoCheckpoint => write!(f, "no recoverable checkpoint generation"),
            Self::Sim(e) => write!(f, "state rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<TdamError> for StoreError {
    fn from(e: TdamError) -> Self {
        Self::Sim(e)
    }
}

fn corrupt(what: impl Into<String>) -> StoreError {
    StoreError::Corrupt { what: what.into() }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected)
// ---------------------------------------------------------------------------

/// CRC-32/ISO-HDLC over `bytes` (the common zlib/PNG polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Codec primitives
// ---------------------------------------------------------------------------

/// Little-endian byte sink for [`Codec`] encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }
}

/// Little-endian byte source for [`Codec`] decoding. Every read is
/// bounds-checked; running out of bytes is a [`StoreError::Corrupt`].
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(corrupt("unexpected end of data"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        usize::try_from(self.get_u64()?).map_err(|_| corrupt("usize overflow"))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool` (one byte, 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("invalid boolean byte")),
        }
    }
}

/// A type with a stable little-endian wire layout. Implementations pin
/// field order; the round-trip tests in this module pin it further with
/// golden byte vectors so format drift is caught in review.
pub trait Codec: Sized {
    /// Appends this value's wire form to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decodes one value, consuming exactly its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] for truncated or invalid data.
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError>;
}

impl Codec for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_u8()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_u64()
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_usize()
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_f64()
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        r.get_bool()
    }
}

impl Codec for (f64, f64) {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.0);
        w.put_f64(self.1);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok((r.get_f64()?, r.get_f64()?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get_usize()?;
        // Every element occupies at least one byte, so a length beyond
        // the remaining buffer is corruption — reject before allocating.
        if n > r.remaining() {
            return Err(corrupt("collection length exceeds payload"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl Codec for Encoding {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Encoding::new(r.get_u8()?).map_err(|_| corrupt("invalid encoding bit width"))
    }
}

impl Codec for MosParams {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self.polarity {
            MosPolarity::Nmos => 0,
            MosPolarity::Pmos => 1,
        });
        w.put_f64(self.vth);
        w.put_f64(self.beta);
        w.put_f64(self.n);
        w.put_f64(self.lambda);
        w.put_f64(self.v_t);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let polarity = match r.get_u8()? {
            0 => MosPolarity::Nmos,
            1 => MosPolarity::Pmos,
            _ => return Err(corrupt("invalid MOS polarity tag")),
        };
        Ok(Self {
            polarity,
            vth: r.get_f64()?,
            beta: r.get_f64()?,
            n: r.get_f64()?,
            lambda: r.get_f64()?,
            v_t: r.get_f64()?,
        })
    }
}

impl Codec for TechParams {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.vdd);
        self.nmos.encode(w);
        self.pmos.encode(w);
        w.put_f64(self.c_mn);
        w.put_f64(self.c_self);
        w.put_f64(self.c_gate);
        w.put_f64(self.c_sl_per_cell);
        w.put_f64(self.switch_width_mult);
        w.put_f64(self.t_precharge);
        w.put_f64(self.t_launch);
        w.put_f64(self.dc_sensitivity);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            vdd: r.get_f64()?,
            nmos: MosParams::decode(r)?,
            pmos: MosParams::decode(r)?,
            c_mn: r.get_f64()?,
            c_self: r.get_f64()?,
            c_gate: r.get_f64()?,
            c_sl_per_cell: r.get_f64()?,
            switch_width_mult: r.get_f64()?,
            t_precharge: r.get_f64()?,
            t_launch: r.get_f64()?,
            dc_sensitivity: r.get_f64()?,
        })
    }
}

impl Codec for ArrayConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.stages);
        w.put_usize(self.rows);
        self.encoding.encode(w);
        w.put_f64(self.c_load);
        self.tech.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            stages: r.get_usize()?,
            rows: r.get_usize()?,
            encoding: Encoding::decode(r)?,
            c_load: r.get_f64()?,
            tech: TechParams::decode(r)?,
        })
    }
}

impl Codec for StageTiming {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.d_inv);
        w.put_f64(self.d_c);
        w.put_f64(self.e_inv);
        w.put_f64(self.e_c);
        w.put_f64(self.e_mn);
        w.put_f64(self.e_sl);
        w.put_f64(self.vdd);
        w.put_f64(self.c_load);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            d_inv: r.get_f64()?,
            d_c: r.get_f64()?,
            e_inv: r.get_f64()?,
            e_c: r.get_f64()?,
            e_mn: r.get_f64()?,
            e_sl: r.get_f64()?,
            vdd: r.get_f64()?,
            c_load: r.get_f64()?,
        })
    }
}

impl Codec for FaultKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            Self::StuckMismatch => w.put_u8(0),
            Self::StuckMatch => w.put_u8(1),
            Self::VthDrift { window_fraction } => {
                w.put_u8(2);
                w.put_f64(*window_fraction);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(Self::StuckMismatch),
            1 => Ok(Self::StuckMatch),
            2 => Ok(Self::VthDrift {
                window_fraction: r.get_f64()?,
            }),
            _ => Err(corrupt("invalid fault kind tag")),
        }
    }
}

impl Codec for FaultMap {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for &(row, stage, kind) in self.iter() {
            w.put_usize(row);
            w.put_usize(stage);
            kind.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(corrupt("fault map length exceeds payload"));
        }
        let mut map = FaultMap::new();
        for _ in 0..n {
            let row = r.get_usize()?;
            let stage = r.get_usize()?;
            map.inject(row, stage, FaultKind::decode(r)?);
        }
        Ok(map)
    }
}

impl Codec for RowHealth {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Self::Healthy => 0,
            Self::Repaired => 1,
            Self::Remapped => 2,
            Self::Degraded => 3,
            Self::Dead => 4,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(Self::Healthy),
            1 => Ok(Self::Repaired),
            2 => Ok(Self::Remapped),
            3 => Ok(Self::Degraded),
            4 => Ok(Self::Dead),
            _ => Err(corrupt("invalid row health tag")),
        }
    }
}

impl Codec for RetryPolicy {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.max_attempts);
        w.put_f64(self.amplitude_step);
        w.put_f64(self.max_amplitude);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            max_attempts: r.get_usize()?,
            amplitude_step: r.get_f64()?,
            max_amplitude: r.get_f64()?,
        })
    }
}

impl Codec for InhibitScheme {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.write_amplitude);
        w.put_f64(self.inhibit_bias);
        w.put_f64(self.pulse_width);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            write_amplitude: r.get_f64()?,
            inhibit_bias: r.get_f64()?,
            pulse_width: r.get_f64()?,
        })
    }
}

impl Codec for WearPolicy {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.rotate_after_writes);
        w.put_u64(self.refresh_after_disturbs);
        self.inhibit.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            rotate_after_writes: r.get_u64()?,
            refresh_after_disturbs: r.get_u64()?,
            inhibit: InhibitScheme::decode(r)?,
        })
    }
}

impl Codec for ResilienceConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.spare_rows);
        w.put_usize(self.reference_rows);
        w.put_usize(self.repair_attempts);
        w.put_f64(self.margin_threshold);
        self.retry.encode(w);
        self.wear.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            spare_rows: r.get_usize()?,
            reference_rows: r.get_usize()?,
            repair_attempts: r.get_usize()?,
            margin_threshold: r.get_f64()?,
            retry: RetryPolicy::decode(r)?,
            wear: WearPolicy::decode(r)?,
        })
    }
}

impl Codec for RetentionParams {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.loss_per_decade);
        w.put_f64(self.t0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            loss_per_decade: r.get_f64()?,
            t0: r.get_f64()?,
        })
    }
}

impl Codec for EnduranceParams {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.wakeup_gain);
        w.put_f64(self.wakeup_cycles);
        w.put_f64(self.fatigue_half_cycles);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            wakeup_gain: r.get_f64()?,
            wakeup_cycles: r.get_f64()?,
            fatigue_half_cycles: r.get_f64()?,
        })
    }
}

impl Codec for Lifetime {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.cycles);
        w.put_f64(self.seconds);
        self.retention.encode(w);
        self.endurance.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            cycles: r.get_f64()?,
            seconds: r.get_f64()?,
            retention: RetentionParams::decode(r)?,
            endurance: EnduranceParams::decode(r)?,
        })
    }
}

impl Codec for BackendKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.tag());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Self::from_tag(r.get_u8()?).ok_or_else(|| corrupt("invalid backend tag"))
    }
}

impl Codec for RuntimeStats {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.batches);
        w.put_usize(self.queries);
        w.put_usize(self.answered);
        w.put_usize(self.timed_out);
        w.put_usize(self.failed);
        w.put_usize(self.retries);
        w.put_usize(self.backoff_waits);
        w.put_usize(self.breaker_trips);
        w.put_usize(self.recompiles);
        w.put_usize(self.health_checks);
        w.put_usize(self.health_misses);
        w.put_usize(self.repairs);
        w.put_usize(self.demotions);
        w.put_usize(self.promotions);
        w.put_usize(self.user_writes);
        w.put_usize(self.physical_writes);
        w.put_usize(self.wear_rotations);
        w.put_usize(self.refresh_rewrites);
        w.put_usize(self.incremental_repacks);
        w.put_usize(self.rows_repacked);
        w.put_usize(self.epoch_swaps);
        w.put_usize(self.scrub_ticks);
        w.put_usize(self.scrub_probes);
        w.put_usize(self.scrub_heals);
        w.put_usize(self.corpus_cache_hits);
        w.put_usize(self.corpus_cache_misses);
        w.put_usize(self.corpus_cache_evictions);
        w.put_usize(self.corpus_compile_micros);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            batches: r.get_usize()?,
            queries: r.get_usize()?,
            answered: r.get_usize()?,
            timed_out: r.get_usize()?,
            failed: r.get_usize()?,
            retries: r.get_usize()?,
            backoff_waits: r.get_usize()?,
            breaker_trips: r.get_usize()?,
            recompiles: r.get_usize()?,
            health_checks: r.get_usize()?,
            health_misses: r.get_usize()?,
            repairs: r.get_usize()?,
            demotions: r.get_usize()?,
            promotions: r.get_usize()?,
            user_writes: r.get_usize()?,
            physical_writes: r.get_usize()?,
            wear_rotations: r.get_usize()?,
            refresh_rewrites: r.get_usize()?,
            incremental_repacks: r.get_usize()?,
            rows_repacked: r.get_usize()?,
            epoch_swaps: r.get_usize()?,
            scrub_ticks: r.get_usize()?,
            scrub_probes: r.get_usize()?,
            scrub_heals: r.get_usize()?,
            corpus_cache_hits: r.get_usize()?,
            corpus_cache_misses: r.get_usize()?,
            corpus_cache_evictions: r.get_usize()?,
            corpus_compile_micros: r.get_usize()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Deployment state
// ---------------------------------------------------------------------------

/// One physical row's persistent state: the stored multi-bit values and
/// each cell's *achieved* `(F_A, F_B)` thresholds — which is what
/// write-verify programming, injected faults, and aging actually left on
/// the devices, so a restore reproduces decode behaviour bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct RowState {
    /// Stored element values, one per stage.
    pub values: Vec<u8>,
    /// Achieved `(vth_a, vth_b)` per cell, in stage order.
    pub vth: Vec<(f64, f64)>,
}

impl Codec for RowState {
    fn encode(&self, w: &mut Writer) {
        self.values.encode(w);
        self.vth.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            values: Vec::<u8>::decode(r)?,
            vth: Vec::<(f64, f64)>::decode(r)?,
        })
    }
}

/// The resilience layer's bookkeeping: spare-row remapping, per-row
/// health, the injected fault map, broken chains, and masked columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceState {
    /// Resilience configuration (spares, references, repair policy).
    pub cfg: ResilienceConfig,
    /// Number of logical data rows.
    pub data_rows: usize,
    /// Logical row → physical row.
    pub remap: Vec<usize>,
    /// Which spare rows are consumed.
    pub spare_used: Vec<bool>,
    /// Per-logical-row health.
    pub health: Vec<RowHealth>,
    /// Injected cell faults (physical coordinates).
    pub faults: FaultMap,
    /// Physical rows with a severed chain.
    pub broken: Vec<usize>,
    /// Columns masked out of the distance metric.
    pub masked: Vec<usize>,
}

impl Codec for ResilienceState {
    fn encode(&self, w: &mut Writer) {
        self.cfg.encode(w);
        w.put_usize(self.data_rows);
        self.remap.encode(w);
        self.spare_used.encode(w);
        self.health.encode(w);
        self.faults.encode(w);
        self.broken.encode(w);
        self.masked.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            cfg: ResilienceConfig::decode(r)?,
            data_rows: r.get_usize()?,
            remap: Vec::<usize>::decode(r)?,
            spare_used: Vec::<bool>::decode(r)?,
            health: Vec::<RowHealth>::decode(r)?,
            faults: FaultMap::decode(r)?,
            broken: Vec::<usize>::decode(r)?,
            masked: Vec::<usize>::decode(r)?,
        })
    }
}

/// The serving runtime's persistent state at checkpoint time.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeState {
    /// Backend that was serving when the checkpoint was taken. Recorded
    /// for observability; a restored engine always starts on
    /// [`BackendKind::Behavioral`] and must pass the known-answer health
    /// probes before promoting back.
    pub backend: BackendKind,
    /// Circuit-breaker consecutive-miss count.
    pub breaker_misses: usize,
    /// Cumulative serving statistics.
    pub stats: RuntimeStats,
}

impl Codec for RuntimeState {
    fn encode(&self, w: &mut Writer) {
        self.backend.encode(w);
        w.put_usize(self.breaker_misses);
        self.stats.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            backend: BackendKind::decode(r)?,
            breaker_misses: r.get_usize()?,
            stats: RuntimeStats::decode(r)?,
        })
    }
}

/// The complete persistent deployment state of a [`ResilientEngine`]:
/// everything needed to rebuild an engine whose decode behaviour is
/// bit-identical to the one that was checkpointed.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentState {
    /// Physical array configuration (`rows` counts data + spares +
    /// references).
    pub config: ArrayConfig,
    /// Stage timing calibration.
    pub timing: StageTiming,
    /// Array mutation generation at capture time. A restore adopts
    /// `generation + 1`, so compiled snapshots taken before the
    /// checkpoint are stale by construction.
    pub generation: u64,
    /// Per physical row: values and achieved thresholds.
    pub rows: Vec<RowState>,
    /// Resilience bookkeeping.
    pub resilience: ResilienceState,
    /// Runtime backend/breaker/stats.
    pub runtime: RuntimeState,
}

impl Codec for DeploymentState {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        self.timing.encode(w);
        w.put_u64(self.generation);
        self.rows.encode(w);
        self.resilience.encode(w);
        self.runtime.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            config: ArrayConfig::decode(r)?,
            timing: StageTiming::decode(r)?,
            generation: r.get_u64()?,
            rows: Vec::<RowState>::decode(r)?,
            resilience: ResilienceState::decode(r)?,
            runtime: RuntimeState::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Checkpoint file framing
// ---------------------------------------------------------------------------

/// Serializes a deployment state into a framed checkpoint file image:
/// magic, version, payload length, payload, CRC32 over everything after
/// the magic.
pub fn encode_checkpoint(state: &DeploymentState) -> Vec<u8> {
    let mut w = Writer::new();
    state.encode(&mut w);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out[8..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates and decodes a checkpoint file image.
///
/// # Errors
///
/// [`StoreError::Corrupt`] for bad magic, a length that disagrees with
/// the file size, a CRC mismatch, or an undecodable payload;
/// [`StoreError::UnsupportedVersion`] for a structurally valid file from
/// a newer format.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<DeploymentState, StoreError> {
    if bytes.len() < 24 {
        return Err(corrupt("checkpoint shorter than its header"));
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt("bad checkpoint magic"));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    if bytes.len() != 24 + payload_len {
        return Err(corrupt("checkpoint length mismatch (torn write?)"));
    }
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(&bytes[8..bytes.len() - 4]) != stored_crc {
        return Err(corrupt("checkpoint CRC mismatch"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let mut r = Reader::new(&bytes[20..bytes.len() - 4]);
    let state = DeploymentState::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after checkpoint payload"));
    }
    Ok(state)
}

// ---------------------------------------------------------------------------
// Corpus checkpoint: centroid table + shard manifests
// ---------------------------------------------------------------------------

impl Codec for CorpusConfig {
    fn encode(&self, w: &mut Writer) {
        self.array.encode(w);
        w.put_usize(self.shard_rows);
        w.put_usize(self.nprobe);
        w.put_usize(self.train_iters);
        w.put_usize(self.train_sample);
        w.put_usize(self.cache_budget_bytes);
        w.put_u64(self.seed);
        w.put_bool(self.threads.is_some());
        w.put_usize(self.threads.unwrap_or(0));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let array = ArrayConfig::decode(r)?;
        let shard_rows = r.get_usize()?;
        let nprobe = r.get_usize()?;
        let train_iters = r.get_usize()?;
        let train_sample = r.get_usize()?;
        let cache_budget_bytes = r.get_usize()?;
        let seed = r.get_u64()?;
        let has_threads = r.get_bool()?;
        let threads = r.get_usize()?;
        Ok(Self {
            array,
            shard_rows,
            nprobe,
            train_iters,
            train_sample,
            cache_budget_bytes,
            seed,
            threads: has_threads.then_some(threads),
        })
    }
}

impl Codec for ClusterData {
    fn encode(&self, w: &mut Writer) {
        self.codes.encode(w);
        w.put_usize(self.ids.len());
        for &id in &self.ids {
            w.put_usize(id as usize);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let codes = Vec::<u8>::decode(r)?;
        let n = r.get_usize()?;
        let mut ids = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let id = r.get_usize()?;
            ids.push(u32::try_from(id).map_err(|_| corrupt("corpus shard id exceeds u32 range"))?);
        }
        Ok(Self { codes, ids })
    }
}

impl Codec for CorpusTierStatus {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.rows);
        w.put_usize(self.clusters);
        w.put_usize(self.nprobe);
        w.put_usize(self.resident);
        w.put_usize(self.resident_bytes);
        w.put_usize(self.budget_bytes);
        self.stats.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            rows: r.get_usize()?,
            clusters: r.get_usize()?,
            nprobe: r.get_usize()?,
            resident: r.get_usize()?,
            resident_bytes: r.get_usize()?,
            budget_bytes: r.get_usize()?,
            stats: RuntimeStats::decode(r)?,
        })
    }
}

/// Serializes a corpus engine's durable state — config, timing
/// calibration, centroid table, shard manifests (per-shard codes
/// unpacked from the stored planes + id lists), and counters — into a
/// framed file image with the same magic/version/length/CRC framing as
/// [`encode_checkpoint`]. The snapshot cache is *not* serialized: its
/// entries are copies of the stored planes, which loading packs again.
pub fn encode_corpus(engine: &CorpusEngine) -> Vec<u8> {
    let (cfg, timing, centroids, clusters, stats) = engine.persistent_parts();
    let mut w = Writer::new();
    cfg.encode(&mut w);
    timing.encode(&mut w);
    centroids.to_vec().encode(&mut w);
    w.put_usize(clusters.len());
    for cluster in clusters {
        cluster.encode(&mut w);
    }
    stats.encode(&mut w);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&CORPUS_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out[8..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates and decodes a corpus checkpoint image, rebuilding the
/// engine on `clock` with an empty (re-derivable) snapshot cache.
///
/// # Errors
///
/// [`StoreError::Corrupt`] for bad magic/length/CRC or an undecodable
/// payload, [`StoreError::UnsupportedVersion`] for a newer format, and
/// [`StoreError::Sim`] wrapping [`TdamError`] for a structurally valid
/// but semantically inconsistent checkpoint (e.g. a centroid table that
/// disagrees with its shard manifest).
pub fn decode_corpus(bytes: &[u8], clock: Clock) -> Result<CorpusEngine, StoreError> {
    if bytes.len() < 24 {
        return Err(corrupt("corpus checkpoint shorter than its header"));
    }
    if bytes[..8] != CORPUS_MAGIC {
        return Err(corrupt("bad corpus checkpoint magic"));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    if bytes.len() != 24 + payload_len {
        return Err(corrupt("corpus checkpoint length mismatch (torn write?)"));
    }
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(&bytes[8..bytes.len() - 4]) != stored_crc {
        return Err(corrupt("corpus checkpoint CRC mismatch"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let mut r = Reader::new(&bytes[20..bytes.len() - 4]);
    let cfg = CorpusConfig::decode(&mut r)?;
    let timing = StageTiming::decode(&mut r)?;
    let centroids = Vec::<u8>::decode(&mut r)?;
    let n_clusters = r.get_usize()?;
    let mut clusters = Vec::with_capacity(n_clusters.min(1 << 20));
    for _ in 0..n_clusters {
        clusters.push(ClusterData::decode(&mut r)?);
    }
    let stats = RuntimeStats::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after corpus checkpoint payload"));
    }
    CorpusEngine::from_persistent_parts(cfg, timing, centroids, clusters, stats, clock)
        .map_err(StoreError::Sim)
}

/// Writes a corpus checkpoint to `path` atomically (tmp + fsync +
/// rename, as [`atomic_write`]).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_corpus(path: &Path, engine: &CorpusEngine) -> io::Result<()> {
    atomic_write(path, &encode_corpus(engine))
}

/// Reads and decodes a corpus checkpoint from `path`, restoring the
/// engine on the wall clock.
///
/// # Errors
///
/// [`StoreError::Io`] for filesystem failures and the
/// [`decode_corpus`] validation errors.
pub fn load_corpus(path: &Path) -> Result<CorpusEngine, StoreError> {
    let bytes = fs::read(path).map_err(StoreError::Io)?; // [real-disk ok] OS storage island
    decode_corpus(&bytes, Clock::wall())
}

// ---------------------------------------------------------------------------
// Write-ahead journal
// ---------------------------------------------------------------------------

/// One journaled post-checkpoint mutation. Replaying the journal's ops,
/// in order, on an engine restored from the owning checkpoint
/// reconstructs the pre-crash state — every op is deterministic
/// (programming uses fresh nominal devices; repair decisions are pure
/// functions of the array).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Store values at a logical data row.
    Store {
        /// Logical row.
        row: usize,
        /// Element values.
        values: Vec<u8>,
    },
    /// Inject a cell fault at physical `(row, stage)`.
    Inject {
        /// Physical row.
        row: usize,
        /// Stage (column).
        stage: usize,
        /// Fault kind.
        kind: FaultKind,
    },
    /// Sever a physical row's chain at a stage.
    BreakStage {
        /// Physical row.
        row: usize,
        /// Stage (column).
        stage: usize,
    },
    /// Stick one column's shared search line at the conducting level.
    StuckColumn {
        /// Stage (column).
        stage: usize,
    },
    /// Age every cell through a lifetime.
    Age {
        /// Cycles endured and retention time elapsed.
        lifetime: Lifetime,
    },
    /// Run a detection + repair cycle (re-derived deterministically on
    /// replay: detection is a pure function of the array, so replay
    /// makes the same repair decisions the live engine made).
    Repair,
}

impl Codec for JournalOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            Self::Store { row, values } => {
                w.put_u8(0);
                w.put_usize(*row);
                values.encode(w);
            }
            Self::Inject { row, stage, kind } => {
                w.put_u8(1);
                w.put_usize(*row);
                w.put_usize(*stage);
                kind.encode(w);
            }
            Self::BreakStage { row, stage } => {
                w.put_u8(2);
                w.put_usize(*row);
                w.put_usize(*stage);
            }
            Self::StuckColumn { stage } => {
                w.put_u8(3);
                w.put_usize(*stage);
            }
            Self::Age { lifetime } => {
                w.put_u8(4);
                lifetime.encode(w);
            }
            Self::Repair => w.put_u8(5),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(Self::Store {
                row: r.get_usize()?,
                values: Vec::<u8>::decode(r)?,
            }),
            1 => Ok(Self::Inject {
                row: r.get_usize()?,
                stage: r.get_usize()?,
                kind: FaultKind::decode(r)?,
            }),
            2 => Ok(Self::BreakStage {
                row: r.get_usize()?,
                stage: r.get_usize()?,
            }),
            3 => Ok(Self::StuckColumn {
                stage: r.get_usize()?,
            }),
            4 => Ok(Self::Age {
                lifetime: Lifetime::decode(r)?,
            }),
            5 => Ok(Self::Repair),
            _ => Err(corrupt("invalid journal op tag")),
        }
    }
}

impl JournalOp {
    /// Applies this op to an engine (used both live and on replay).
    ///
    /// # Errors
    ///
    /// Propagates the underlying mutation's error. Errors are
    /// deterministic: an op that failed live fails identically on
    /// replay, so recovery skips it without diverging.
    pub fn apply(&self, engine: &mut ResilientEngine) -> Result<(), TdamError> {
        match self {
            Self::Store { row, values } => engine.store(*row, values).map(|_| ()),
            Self::Inject { row, stage, kind } => engine.array_mut().inject(*row, *stage, *kind),
            Self::BreakStage { row, stage } => engine.array_mut().break_stage(*row, *stage),
            Self::StuckColumn { stage } => engine.array_mut().stuck_column(*stage),
            Self::Age { lifetime } => engine.array_mut().age(lifetime),
            Self::Repair => {
                let detection = engine.array().check()?;
                if !detection.all_clear() {
                    engine.array_mut().repair(&detection)?;
                    engine.bump_repairs();
                }
                Ok(())
            }
        }
    }
}

/// The 16-byte journal header: magic, version, CRC32 over the version.
fn journal_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(&FORMAT_VERSION.to_le_bytes()).to_le_bytes());
    out
}

/// One framed journal record: payload length, payload, CRC32(payload).
pub fn encode_record(op: &JournalOp) -> Vec<u8> {
    let mut w = Writer::new();
    op.encode(&mut w);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Parses a journal image into its valid-prefix ops.
///
/// Returns `(ops, torn)`: `torn` is true when trailing bytes were
/// discarded (a partial record, a CRC mismatch, or an undecodable
/// payload — the write-ahead contract makes the valid prefix the
/// correct recovery point).
///
/// # Errors
///
/// [`StoreError::Corrupt`] when the *header* is invalid (the whole file
/// is untrustworthy, not just its tail);
/// [`StoreError::UnsupportedVersion`] for a newer format.
pub fn read_journal(bytes: &[u8]) -> Result<(Vec<JournalOp>, bool), StoreError> {
    if bytes.len() < 16 {
        return Err(corrupt("journal shorter than its header"));
    }
    if bytes[..8] != JOURNAL_MAGIC {
        return Err(corrupt("bad journal magic"));
    }
    let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if crc32(&bytes[8..12]) != stored_crc {
        return Err(corrupt("journal header CRC mismatch"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let mut ops = Vec::new();
    let mut pos = 16usize;
    let mut torn = false;
    while pos < bytes.len() {
        if bytes.len() - pos < 4 {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if bytes.len() - pos - 4 < len + 4 {
            torn = true;
            break;
        }
        let payload = &bytes[pos + 4..pos + 4 + len];
        let rec_crc =
            u32::from_le_bytes(bytes[pos + 4 + len..pos + 8 + len].try_into().expect("4"));
        if crc32(payload) != rec_crc {
            torn = true;
            break;
        }
        let mut r = Reader::new(payload);
        match JournalOp::decode(&mut r) {
            Ok(op) if r.remaining() == 0 => ops.push(op),
            _ => {
                torn = true;
                break;
            }
        }
        pos += 8 + len;
    }
    Ok((ops, torn))
}

// ---------------------------------------------------------------------------
// Atomic file writes
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data goes to a `.tmp`
/// sibling first, is fsynced, and is renamed over the destination, so a
/// crash at any byte boundary leaves either the old file or the new one
/// — never a torn hybrid. The parent directory is fsynced afterwards to
/// persist the rename itself.
///
/// Shared by the checkpoint writer and the benchmark result archiver.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?; // [real-disk ok] OS storage island
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?; // [real-disk ok] OS storage island
    if let Some(parent) = path.parent() {
        // [real-disk ok] OS storage island
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Storage abstraction (real disk / deterministic in-memory disk)
// ---------------------------------------------------------------------------

/// The durable-storage surface the checkpoint/WAL layer writes through.
///
/// Production uses [`OsStorage`] (the real filesystem, unchanged
/// behaviour); deterministic simulation uses [`MemStorage`], an
/// in-memory disk that models *durability* separately from *content* —
/// so torn appends, lying fsyncs, `ENOSPC`, and crash-restarts can be
/// injected from a seeded schedule and replayed bit-identically.
///
/// The contract mirrors the handful of POSIX behaviours recovery
/// depends on: `write_atomic` is all-or-nothing (tmp + fsync + rename),
/// `append` extends a file's *visible* content, and `sync` is the only
/// operation that promises appended bytes survive a crash.
pub trait Storage: std::fmt::Debug + Send + Sync {
    /// Creates `dir` (and parents) if missing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Reads a file's current visible content.
    ///
    /// # Errors
    ///
    /// `NotFound` when the file does not exist; other I/O errors.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically replaces `path` with `bytes` (old file or new file
    /// after a crash — never a torn hybrid).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to an existing file. Durability is deferred
    /// until [`Storage::sync`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Makes a file's appended content durable (fsync).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Renames a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file (idempotent: missing files are not an error).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `NotFound`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) directly inside `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// The real filesystem. All methods delegate to `std::fs`; this is the
/// only disk implementation production code paths ever construct.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsStorage;

impl Storage for OsStorage {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir) // [real-disk ok] OS storage island
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path) // [real-disk ok] OS storage island
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        atomic_write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().append(true).open(path)?; // [real-disk ok] OS storage island
        f.write_all(bytes)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        // fsync is per-inode: a fresh descriptor syncs bytes appended
        // through any earlier descriptor.
        OpenOptions::new().append(true).open(path)?.sync_data() // [real-disk ok] OS storage island
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to) // [real-disk ok] OS storage island
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        // [real-disk ok] OS storage island
        match fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        // [real-disk ok] OS storage island
        for entry in fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// A one-shot disk fault consumed by the next matching [`MemStorage`]
/// operation. Injected by the simulation's fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The next `append` writes only a prefix: `keep_num / 256` of the
    /// record's bytes reach the file (the OS crashed mid-write). The
    /// call still reports success — exactly the lie a torn write tells.
    TornAppend {
        /// Numerator of the kept fraction (denominator 256).
        keep_num: u8,
    },
    /// The next `sync` or `write_atomic` reports success without making
    /// anything durable (a lying fsync / unfsynced rename): content is
    /// visible now but reverts on [`MemStorage::crash`].
    FsyncLie,
    /// The next `append` or `write_atomic` fails with `ENOSPC`-style
    /// [`io::ErrorKind::StorageFull`] and changes nothing.
    Full,
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// Content visible to reads right now.
    live: Vec<u8>,
    /// Content that survives a crash (what has actually been fsynced).
    durable: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct MemDisk {
    files: HashMap<PathBuf, MemFile>,
    dirs: BTreeSet<PathBuf>,
    faults: VecDeque<DiskFault>,
    /// Total faults actually consumed (for campaign reporting).
    faults_fired: usize,
}

/// A deterministic in-memory disk with seeded fault injection.
///
/// Content and durability are tracked separately: `append` updates only
/// the *live* view, `sync`/`write_atomic` promote it to *durable*, and
/// [`MemStorage::crash`] discards everything volatile — modelling a
/// machine losing power. Faults queued with [`MemStorage::inject`] are
/// consumed one-shot by the next matching operation, so a fault
/// schedule drawn from a seed perturbs exactly the same operation on
/// every replay.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    inner: Arc<Mutex<MemDisk>>,
}

impl MemStorage {
    /// A fresh, empty in-memory disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a one-shot fault for the next matching operation.
    pub fn inject(&self, fault: DiskFault) {
        self.lock().faults.push_back(fault);
    }

    /// Simulates a power loss: every file reverts to its last durable
    /// content; files never made durable vanish. Queued faults are
    /// dropped (the machine rebooted).
    pub fn crash(&self) {
        let mut d = self.lock();
        d.files.retain(|_, f| f.durable.is_some());
        for f in d.files.values_mut() {
            f.live = f.durable.clone().unwrap_or_default();
        }
        d.faults.clear();
    }

    /// Faults consumed so far.
    pub fn faults_fired(&self) -> usize {
        self.lock().faults_fired
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemDisk> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pops the front fault if `matches` accepts it.
    fn take_fault(d: &mut MemDisk, matches: impl Fn(DiskFault) -> bool) -> Option<DiskFault> {
        if d.faults.front().copied().is_some_and(matches) {
            d.faults_fired += 1;
            d.faults.pop_front()
        } else {
            None
        }
    }
}

impl Storage for MemStorage {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.lock().dirs.insert(dir.to_path_buf());
        Ok(())
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.lock()
            .files
            .get(path)
            .map(|f| f.live.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such simulated file"))
    }
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut d = self.lock();
        if Self::take_fault(&mut d, |f| f == DiskFault::Full).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "simulated disk full",
            ));
        }
        let lie = Self::take_fault(&mut d, |f| f == DiskFault::FsyncLie).is_some();
        let prior_durable = d.files.get(path).and_then(|f| f.durable.clone());
        d.files.insert(
            path.to_path_buf(),
            MemFile {
                live: bytes.to_vec(),
                // A lying fsync leaves the rename volatile: after a
                // crash the *old* durable content (if any) returns.
                durable: if lie {
                    prior_durable
                } else {
                    Some(bytes.to_vec())
                },
            },
        );
        Ok(())
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut d = self.lock();
        if Self::take_fault(&mut d, |f| f == DiskFault::Full).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "simulated disk full",
            ));
        }
        let torn = Self::take_fault(&mut d, |f| matches!(f, DiskFault::TornAppend { .. }));
        let file = d
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such simulated file"))?;
        match torn {
            Some(DiskFault::TornAppend { keep_num }) => {
                let keep = bytes.len() * usize::from(keep_num) / 256;
                file.live.extend_from_slice(&bytes[..keep]);
            }
            _ => file.live.extend_from_slice(bytes),
        }
        Ok(())
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut d = self.lock();
        let lie = Self::take_fault(&mut d, |f| f == DiskFault::FsyncLie).is_some();
        let file = d
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such simulated file"))?;
        if !lie {
            file.durable = Some(file.live.clone());
        }
        Ok(())
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut d = self.lock();
        let file = d
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such simulated file"))?;
        d.files.insert(to.to_path_buf(), file);
        Ok(())
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.lock().files.remove(path);
        Ok(())
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let d = self.lock();
        Ok(d.files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()))
            .map(str::to_string)
            .collect())
    }
    fn exists(&self, path: &Path) -> bool {
        self.lock().files.contains_key(path)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store (directory of generations)
// ---------------------------------------------------------------------------

/// What recovery found and did: the generation served, how much journal
/// replayed, and every file that failed validation and was quarantined.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// The generation recovery restored from.
    pub generation: u64,
    /// Journal ops applied on top of the checkpoint.
    pub ops_replayed: usize,
    /// Journal ops whose (deterministic) application failed and was
    /// skipped — they failed identically before the crash.
    pub ops_skipped: usize,
    /// Whether the journal had a torn/corrupt tail that was truncated.
    pub journal_torn: bool,
    /// Whether a newer generation existed but failed validation.
    pub fell_back: bool,
    /// Files that failed validation, renamed to `*.quarantined`.
    pub quarantined: Vec<PathBuf>,
    /// Whether any damage was detected (fallback, torn journal, or
    /// quarantined file). Never true for a clean recovery.
    pub corruption_detected: bool,
}

/// A directory of numbered checkpoint generations (`ckpt-NNNNNNNN.tdam`)
/// with matching write-ahead journals (`wal-NNNNNNNN.tdam`).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    storage: Arc<dyn Storage>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory on the real
    /// filesystem.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(dir, Arc::new(OsStorage))
    }

    /// Opens a checkpoint directory on an explicit [`Storage`] backend
    /// (the deterministic simulation passes a [`MemStorage`] here).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backend.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        storage: Arc<dyn Storage>,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        storage.create_dir_all(&dir)?;
        Ok(Self { dir, storage })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The storage backend this store writes through.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// The checkpoint file path for a generation.
    pub fn checkpoint_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:08}.tdam"))
    }

    /// The journal file path for a generation.
    pub fn journal_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("wal-{generation:08}.tdam"))
    }

    /// All committed generations, ascending (scanned from file names;
    /// quarantined and temporary files are ignored).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn generations(&self) -> Result<Vec<u64>, StoreError> {
        let mut gens = Vec::new();
        for name in self.storage.list(&self.dir)? {
            if let Some(num) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".tdam"))
            {
                if num.len() == 8 {
                    if let Ok(g) = num.parse::<u64>() {
                        gens.push(g);
                    }
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Commits a new generation: the checkpoint file and a fresh, empty
    /// journal, each written atomically. Returns the new generation
    /// number.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn commit(&self, state: &DeploymentState) -> Result<u64, StoreError> {
        let generation = self.generations()?.last().copied().unwrap_or(0) + 1;
        self.storage
            .write_atomic(&self.checkpoint_path(generation), &encode_checkpoint(state))?;
        self.storage
            .write_atomic(&self.journal_path(generation), &journal_header())?;
        Ok(generation)
    }

    /// Deletes the oldest generations (checkpoint + journal) beyond
    /// `keep`, returning the pruned generation numbers.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn prune(&self, keep: usize) -> Result<Vec<u64>, StoreError> {
        let gens = self.generations()?;
        let mut pruned = Vec::new();
        if gens.len() > keep {
            for &g in &gens[..gens.len() - keep] {
                let _ = self.storage.remove(&self.checkpoint_path(g));
                let _ = self.storage.remove(&self.journal_path(g));
                pruned.push(g);
            }
        }
        Ok(pruned)
    }

    fn quarantine(&self, path: &Path, quarantined: &mut Vec<PathBuf>) -> Result<(), StoreError> {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return Ok(());
        };
        let dest = path.with_file_name(format!("{name}.quarantined"));
        self.storage.rename(path, &dest)?;
        quarantined.push(dest);
        Ok(())
    }

    /// Recovers the newest valid generation: validates checkpoints
    /// newest-first, quarantining any that fail (together with their now
    /// meaningless journals) and falling back to the previous
    /// generation; then parses the surviving generation's journal,
    /// quarantining it too if its header is invalid, or truncating a
    /// torn tail to the valid prefix.
    ///
    /// Returns the decoded state, the journal ops to replay, and the
    /// [`RecoveryReport`] (with `ops_replayed` still zero — the caller
    /// counts as it applies).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoCheckpoint`] when no generation validates.
    pub fn recover(&self) -> Result<(DeploymentState, Vec<JournalOp>, RecoveryReport), StoreError> {
        let gens = self.generations()?;
        let newest = gens.last().copied();
        let mut quarantined = Vec::new();
        for &generation in gens.iter().rev() {
            let ckpt = self.checkpoint_path(generation);
            let state = match self
                .storage
                .read(&ckpt)
                .map_err(StoreError::from)
                .and_then(|bytes| decode_checkpoint(&bytes))
            {
                Ok(state) => state,
                Err(_) => {
                    // Damaged (or vanished) checkpoint: quarantine it and
                    // its journal — ops without their base state are
                    // meaningless — then fall back a generation.
                    if self.storage.exists(&ckpt) {
                        self.quarantine(&ckpt, &mut quarantined)?;
                    }
                    let wal = self.journal_path(generation);
                    if self.storage.exists(&wal) {
                        self.quarantine(&wal, &mut quarantined)?;
                    }
                    continue;
                }
            };
            let wal = self.journal_path(generation);
            let (ops, torn) = match self.storage.read(&wal) {
                Ok(bytes) => match read_journal(&bytes) {
                    Ok(parsed) => parsed,
                    Err(_) => {
                        self.quarantine(&wal, &mut quarantined)?;
                        (Vec::new(), true)
                    }
                },
                // A missing journal is a crash between the checkpoint
                // rename and the journal creation: an empty journal.
                Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), false),
                Err(e) => return Err(e.into()),
            };
            let fell_back = newest != Some(generation);
            let corruption_detected = fell_back || torn || !quarantined.is_empty();
            let report = RecoveryReport {
                generation,
                ops_replayed: 0,
                ops_skipped: 0,
                journal_torn: torn,
                fell_back,
                quarantined,
                corruption_detected,
            };
            return Ok((state, ops, report));
        }
        Err(StoreError::NoCheckpoint)
    }
}

// ---------------------------------------------------------------------------
// ResilientEngine: checkpoint / restore
// ---------------------------------------------------------------------------

impl ResilientEngine {
    /// Captures the complete persistent deployment state: per-cell
    /// levels and achieved thresholds, timing calibration, fault map,
    /// spare-row remapping, and runtime backend/breaker/stats.
    pub fn checkpoint(&self) -> DeploymentState {
        let arr = &self.array;
        let ta = &arr.array;
        let config = *ta.config();
        let rows = (0..config.rows)
            .map(|r| RowState {
                values: ta.stored(r).expect("row index in range"),
                vth: ta
                    .row_cells(r)
                    .expect("row index in range")
                    .iter()
                    .map(Cell::vth_actual)
                    .collect(),
            })
            .collect();
        DeploymentState {
            config,
            timing: *ta.timing(),
            generation: ta.generation(),
            rows,
            resilience: ResilienceState {
                cfg: arr.cfg,
                data_rows: arr.data_rows,
                remap: arr.remap.clone(),
                spare_used: arr.spare_used.clone(),
                health: arr.health.clone(),
                faults: arr.faults.clone(),
                broken: arr.broken.iter().copied().collect(),
                masked: arr.masked.iter().copied().collect(),
            },
            runtime: RuntimeState {
                backend: self.backend,
                breaker_misses: self.breaker.misses,
                stats: self.stats,
            },
        }
    }

    /// Warm-starts an engine from a checkpointed state.
    ///
    /// The rebuilt array adopts generation `state.generation + 1`, so
    /// any [`CompiledSnapshot`](crate::array::CompiledSnapshot) taken
    /// before the checkpoint refuses to serve
    /// ([`TdamError::StaleCompile`]). The engine starts on the
    /// [`BackendKind::Behavioral`] backend with a health probe due on
    /// the first serve: the known-answer probes must revalidate the
    /// restored array before it promotes back to the packed-kernel path.
    ///
    /// # Errors
    ///
    /// [`TdamError::InvalidConfig`] / [`TdamError::LengthMismatch`] /
    /// [`TdamError::ValueOutOfRange`] when the state is internally
    /// inconsistent (shapes that no checkpoint of a live engine can
    /// produce, but a decoded file is still cross-validated here).
    pub fn restore(state: &DeploymentState, cfg: RuntimeConfig) -> Result<Self, TdamError> {
        let config = state.config;
        let rs = &state.resilience;
        if state.rows.len() != config.rows {
            return Err(TdamError::InvalidConfig {
                what: "checkpoint row count does not match its configuration",
            });
        }
        if rs.data_rows + rs.cfg.spare_rows + rs.cfg.reference_rows != config.rows {
            return Err(TdamError::InvalidConfig {
                what: "checkpoint physical layout does not match its resilience config",
            });
        }
        if rs.remap.len() != rs.data_rows
            || rs.health.len() != rs.data_rows
            || rs.spare_used.len() != rs.cfg.spare_rows
        {
            return Err(TdamError::InvalidConfig {
                what: "checkpoint resilience bookkeeping has inconsistent shapes",
            });
        }
        if rs.remap.iter().any(|&p| p >= config.rows) {
            return Err(TdamError::InvalidConfig {
                what: "checkpoint remap targets a row beyond the array",
            });
        }
        let mut ta = TdamArray::with_timing(config, state.timing)?;
        for (r, row) in state.rows.iter().enumerate() {
            if row.vth.len() != row.values.len() {
                return Err(TdamError::LengthMismatch {
                    got: row.vth.len(),
                    expected: row.values.len(),
                });
            }
            let cells = row
                .values
                .iter()
                .zip(&row.vth)
                .map(|(&v, &(vth_a, vth_b))| Cell::with_vth(v, config.encoding, vth_a, vth_b))
                .collect::<Result<Vec<_>, _>>()?;
            ta.store_cells(r, cells)?;
        }
        ta.set_generation(state.generation + 1);
        let array = ResilientArray {
            array: ta,
            cfg: rs.cfg,
            data_rows: rs.data_rows,
            remap: rs.remap.clone(),
            spare_used: rs.spare_used.clone(),
            health: rs.health.clone(),
            faults: rs.faults.clone(),
            broken: rs.broken.iter().copied().collect::<BTreeSet<_>>(),
            masked: rs.masked.iter().copied().collect::<BTreeSet<_>>(),
            // Wear accounting is runtime-only: a restored deployment
            // starts with fresh counters on every replay path alike.
            writes: vec![0; config.rows],
            disturbs: vec![0; config.rows],
            reference_probes: false,
        };
        Ok(Self {
            array,
            cfg,
            epochs: std::sync::Arc::new(EpochSnapshots::new()),
            dirty: None,
            backend: BackendKind::Behavioral,
            breaker: CircuitBreaker {
                misses: state.runtime.breaker_misses,
                threshold: cfg.breaker_threshold.max(1),
            },
            // A probe is due on the very first serve: revalidate before
            // promoting back toward the compiled path.
            batches_since_check: cfg.health_interval.saturating_sub(1),
            chaos: None,
            stats: state.runtime.stats,
            clock: crate::clock::Clock::default(),
            last_scrub: None,
        })
    }

    /// Accounts one repair in the serving statistics (journal replay).
    pub(crate) fn bump_repairs(&mut self) {
        self.stats.repairs += 1;
    }
}

// ---------------------------------------------------------------------------
// Durable engine: WAL-fronted serving
// ---------------------------------------------------------------------------

/// Group-commit policy for the buffered write path
/// ([`DurableEngine::store_buffered`]): journal records accumulate in
/// memory and are flushed — one `write_all` plus one `fsync` for the
/// whole group — when the group reaches `max_ops` or the oldest
/// buffered record has waited `flush_deadline`.
///
/// Buffered mutations are applied to the live engine immediately; only
/// their *durability* is deferred. A crash inside the window loses the
/// unflushed tail cleanly (recovery replays the journal's valid prefix
/// and simply ends earlier) — it can never corrupt or reorder, because
/// records enter the journal in apply order and every synchronous
/// journaling entry point flushes the group first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCommitPolicy {
    /// Flush when this many records are buffered (minimum 1; 1 degrades
    /// to the synchronous fsync-per-op path).
    pub max_ops: usize,
    /// Flush when the oldest buffered record has waited this long.
    /// Checked on every buffered write and every served batch.
    pub flush_deadline: Duration,
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        Self {
            max_ops: 32,
            flush_deadline: Duration::from_millis(2),
        }
    }
}

/// A [`ResilientEngine`] fronted by a [`CheckpointStore`]: every
/// mutation is journaled (write-ahead, fsynced) before it is applied, so
/// [`DurableEngine::recover`] after a crash at *any* point reproduces
/// the pre-crash deployment from the last checkpoint plus the journal's
/// valid prefix. High write rates can amortize the fsync over many
/// mutations through [`DurableEngine::store_buffered`] /
/// [`DurableEngine::store_batch`] under a [`GroupCommitPolicy`].
#[derive(Debug)]
pub struct DurableEngine {
    engine: ResilientEngine,
    store: CheckpointStore,
    generation: u64,
    wal_ops: usize,
    group: GroupCommitPolicy,
    /// Encoded journal records awaiting their group flush.
    pending: Vec<u8>,
    pending_ops: usize,
    pending_since: Option<Timestamp>,
}

impl DurableEngine {
    /// Wraps an engine, committing its current state as the first
    /// checkpoint generation of `store`.
    ///
    /// # Errors
    ///
    /// Propagates commit failures.
    pub fn new(store: CheckpointStore, engine: ResilientEngine) -> Result<Self, StoreError> {
        let generation = store.commit(&engine.checkpoint())?;
        Ok(Self {
            engine,
            store,
            generation,
            wal_ops: 0,
            group: GroupCommitPolicy::default(),
            pending: Vec::new(),
            pending_ops: 0,
            pending_since: None,
        })
    }

    /// Sets the group-commit policy for the buffered write path.
    #[must_use]
    pub fn with_group_commit(mut self, group: GroupCommitPolicy) -> Self {
        self.group = group;
        self
    }

    /// Recovers a durable engine from a checkpoint directory: newest
    /// valid generation, journal replay, quarantine of damaged files.
    /// The journal is compacted to its replayed prefix so subsequent
    /// appends continue from a clean file.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoCheckpoint`] when nothing recoverable exists.
    pub fn recover(
        dir: impl Into<PathBuf>,
        cfg: RuntimeConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::recover_with(
            CheckpointStore::open(dir)?,
            cfg,
            crate::clock::Clock::default(),
        )
    }

    /// [`DurableEngine::recover`] against an already-open store (any
    /// [`Storage`] backend) with the restored engine placed on `clock`.
    /// This is the simulation's crash-restart entry point.
    ///
    /// # Errors
    ///
    /// As [`DurableEngine::recover`].
    pub fn recover_with(
        store: CheckpointStore,
        cfg: RuntimeConfig,
        clock: crate::clock::Clock,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let (state, ops, mut report) = store.recover()?;
        let mut engine = ResilientEngine::restore(&state, cfg)?.with_clock(clock);
        let mut journal_bytes = journal_header();
        for op in &ops {
            match op.apply(&mut engine) {
                Ok(()) => {
                    journal_bytes.extend_from_slice(&encode_record(op));
                    report.ops_replayed += 1;
                }
                Err(_) => report.ops_skipped += 1,
            }
        }
        let wal_path = store.journal_path(report.generation);
        store.storage.write_atomic(&wal_path, &journal_bytes)?;
        let generation = report.generation;
        let wal_ops = report.ops_replayed;
        Ok((
            Self {
                engine,
                store,
                generation,
                wal_ops,
                group: GroupCommitPolicy::default(),
                pending: Vec::new(),
                pending_ops: 0,
                pending_since: None,
            },
            report,
        ))
    }

    /// The wrapped engine (read-only — mutations must go through the
    /// journaling wrappers).
    pub fn engine(&self) -> &ResilientEngine {
        &self.engine
    }

    /// The current checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Journal records appended since the last checkpoint.
    pub fn journal_ops(&self) -> usize {
        self.wal_ops
    }

    /// The backing store.
    pub fn checkpoint_store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Appends and fsyncs `bytes` on the current generation's journal.
    fn append_sync(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.store.journal_path(self.generation);
        self.store.storage.append(&path, bytes)?;
        self.store.storage.sync(&path)?;
        Ok(())
    }

    fn journal(&mut self, op: &JournalOp) -> Result<(), StoreError> {
        // Synchronous records must land *after* any buffered group:
        // the journal replays in apply order.
        self.flush_writes()?;
        self.append_sync(&encode_record(op))?;
        self.wal_ops += 1;
        Ok(())
    }

    fn journaled(&mut self, op: JournalOp) -> Result<(), StoreError> {
        self.journal(&op)?;
        op.apply(&mut self.engine).map_err(StoreError::from)
    }

    /// Stores values at a logical row (journaled).
    ///
    /// # Errors
    ///
    /// Journal I/O errors, or the mutation's own error (the journaled op
    /// is then skipped identically on replay).
    pub fn store(&mut self, row: usize, values: &[u8]) -> Result<(), StoreError> {
        self.journaled(JournalOp::Store {
            row,
            values: values.to_vec(),
        })
    }

    /// Stores values at a logical row through the group-commit path:
    /// the journal record is buffered (write-ahead, in apply order) and
    /// the mutation applied immediately; the group is flushed with a
    /// single fsync when the [`GroupCommitPolicy`] says so. Until that
    /// flush the write is live but not yet durable.
    ///
    /// # Errors
    ///
    /// Journal I/O errors from a triggered flush, or the mutation's own
    /// error (the buffered record is then skipped identically on
    /// replay).
    pub fn store_buffered(&mut self, row: usize, values: &[u8]) -> Result<(), StoreError> {
        let op = JournalOp::Store {
            row,
            values: values.to_vec(),
        };
        self.pending.extend_from_slice(&encode_record(&op));
        self.pending_ops += 1;
        let now = self.engine.clock().now();
        self.pending_since.get_or_insert(now);
        let applied = op.apply(&mut self.engine).map_err(StoreError::from);
        self.maybe_flush()?;
        applied
    }

    /// Group-commits a whole batch of row writes: every record is
    /// appended and fsynced **once**, then the writes are applied. One
    /// durability round-trip amortized over the batch.
    ///
    /// # Errors
    ///
    /// Journal I/O errors, or the first mutation error encountered
    /// (every write is still attempted, matching what replay does).
    pub fn store_batch(&mut self, writes: &[(usize, Vec<u8>)]) -> Result<(), StoreError> {
        self.flush_writes()?;
        let ops: Vec<JournalOp> = writes
            .iter()
            .map(|(row, values)| JournalOp::Store {
                row: *row,
                values: values.clone(),
            })
            .collect();
        let mut bytes = Vec::new();
        for op in &ops {
            bytes.extend_from_slice(&encode_record(op));
        }
        self.append_sync(&bytes)?;
        self.wal_ops += ops.len();
        let mut first_err = None;
        for op in &ops {
            if let Err(e) = op.apply(&mut self.engine) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Flushes the buffered group if the policy deadline or size
    /// threshold is due.
    fn maybe_flush(&mut self) -> Result<(), StoreError> {
        let due = self.pending_ops >= self.group.max_ops.max(1)
            || self
                .pending_since
                .is_some_and(|t| self.engine.clock().elapsed(t) >= self.group.flush_deadline);
        if due {
            self.flush_writes()?;
        }
        Ok(())
    }

    /// Force-flushes the buffered group (one write + one fsync for all
    /// of it); returns how many records became durable.
    ///
    /// # Errors
    ///
    /// Journal I/O errors.
    pub fn flush_writes(&mut self) -> Result<usize, StoreError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let path = self.store.journal_path(self.generation);
        self.store.storage.append(&path, &self.pending)?;
        self.store.storage.sync(&path)?;
        self.wal_ops += self.pending_ops;
        let flushed = self.pending_ops;
        self.pending.clear();
        self.pending_ops = 0;
        self.pending_since = None;
        Ok(flushed)
    }

    /// Buffered records not yet made durable.
    pub fn pending_writes(&self) -> usize {
        self.pending_ops
    }

    /// Injects a cell fault at physical `(row, stage)` (journaled).
    ///
    /// # Errors
    ///
    /// As [`DurableEngine::store`].
    pub fn inject(&mut self, row: usize, stage: usize, kind: FaultKind) -> Result<(), StoreError> {
        self.journaled(JournalOp::Inject { row, stage, kind })
    }

    /// Severs a physical row's chain at a stage (journaled).
    ///
    /// # Errors
    ///
    /// As [`DurableEngine::store`].
    pub fn break_stage(&mut self, row: usize, stage: usize) -> Result<(), StoreError> {
        self.journaled(JournalOp::BreakStage { row, stage })
    }

    /// Sticks one column's shared search line (journaled).
    ///
    /// # Errors
    ///
    /// As [`DurableEngine::store`].
    pub fn stuck_column(&mut self, stage: usize) -> Result<(), StoreError> {
        self.journaled(JournalOp::StuckColumn { stage })
    }

    /// Ages every cell through a lifetime (journaled).
    ///
    /// # Errors
    ///
    /// As [`DurableEngine::store`].
    pub fn age(&mut self, lifetime: &Lifetime) -> Result<(), StoreError> {
        self.journaled(JournalOp::Age {
            lifetime: *lifetime,
        })
    }

    /// Runs a detection + repair cycle now, journaled so a post-crash
    /// replay reaches the same repaired state.
    ///
    /// # Errors
    ///
    /// As [`DurableEngine::store`].
    pub fn repair_now(&mut self) -> Result<(), StoreError> {
        self.journaled(JournalOp::Repair)
    }

    /// Serves a batch. If the health machinery repaired the array during
    /// the batch, a [`JournalOp::Repair`] is appended afterwards — the
    /// repair is re-derivable from detection, so the record only saves
    /// re-paying it on restore, and a crash between the repair and the
    /// append merely re-runs it.
    ///
    /// # Errors
    ///
    /// Batch-level simulation errors ([`StoreError::Sim`]) or journal
    /// I/O errors.
    pub fn serve(&mut self, batch: &BatchQuery) -> Result<BatchOutcome, StoreError> {
        // The flush deadline is also enforced on the read path, so a
        // write burst followed by pure reads cannot park records in the
        // buffer indefinitely.
        if self
            .pending_since
            .is_some_and(|t| self.engine.clock().elapsed(t) >= self.group.flush_deadline)
        {
            self.flush_writes()?;
        }
        let repairs_before = self.engine.stats().repairs;
        let outcome = self.engine.serve(batch)?;
        if self.engine.stats().repairs > repairs_before {
            self.journal(&JournalOp::Repair)?;
        }
        Ok(outcome)
    }

    /// Commits a new checkpoint generation, rotates the journal, and
    /// prunes generations beyond [`KEEP_GENERATIONS`]. Returns the new
    /// generation number.
    ///
    /// # Errors
    ///
    /// Propagates commit failures.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        self.flush_writes()?;
        let generation = self.store.commit(&self.engine.checkpoint())?;
        self.generation = generation;
        self.wal_ops = 0;
        self.store.prune(KEEP_GENERATIONS)?;
        Ok(generation)
    }
}

// ---------------------------------------------------------------------------
// Crash-injection chaos harness
// ---------------------------------------------------------------------------

/// Configuration of the seeded crash-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashChaosConfig {
    /// Stages per row of the reference deployment.
    pub stages: usize,
    /// Logical data rows.
    pub data_rows: usize,
    /// Resilience configuration (spares/references).
    pub resilience: ResilienceConfig,
    /// Byte stride of the kill-mid-checkpoint-commit sweep (1 = every
    /// byte boundary of the commit sequence).
    pub commit_stride: usize,
    /// Byte stride of the kill-mid-journal-append sweep.
    pub journal_stride: usize,
    /// Seeded single-bit flips in the newest checkpoint file.
    pub checkpoint_flips: usize,
    /// Seeded truncations of the newest checkpoint file.
    pub checkpoint_truncations: usize,
    /// Seeded single-bit flips in the journal.
    pub journal_flips: usize,
    /// Undamaged control recoveries (must report *no* corruption).
    pub clean_controls: usize,
    /// Campaign seed.
    pub seed: u64,
}

impl CrashChaosConfig {
    /// The full campaign: every byte boundary of both commit sequences
    /// plus hundreds of seeded corruptions — well over 1000 scenarios.
    pub fn paper_default() -> Self {
        Self {
            stages: 8,
            data_rows: 4,
            resilience: ResilienceConfig {
                spare_rows: 2,
                reference_rows: 2,
                ..Default::default()
            },
            commit_stride: 1,
            journal_stride: 1,
            checkpoint_flips: 300,
            checkpoint_truncations: 150,
            journal_flips: 150,
            clean_controls: 8,
            seed: 0x0D15_C0DE,
        }
    }

    /// A reduced campaign for smoke tests (still full coverage of every
    /// scenario family).
    pub fn quick() -> Self {
        Self {
            commit_stride: 16,
            journal_stride: 4,
            checkpoint_flips: 40,
            checkpoint_truncations: 20,
            journal_flips: 20,
            clean_controls: 2,
            ..Self::paper_default()
        }
    }
}

/// Aggregate results of one crash-injection campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashChaosReport {
    /// Total scenarios run.
    pub scenarios: usize,
    /// Simulated kills mid-checkpoint-commit (per byte boundary).
    pub commit_kills: usize,
    /// Simulated kills mid-journal-append (per byte boundary).
    pub journal_kills: usize,
    /// Bit-flip scenarios against the newest checkpoint.
    pub checkpoint_flips: usize,
    /// Truncation scenarios against the newest checkpoint.
    pub checkpoint_truncations: usize,
    /// Bit-flip scenarios against the journal.
    pub journal_flips: usize,
    /// Undamaged control recoveries.
    pub clean_controls: usize,
    /// Scenarios where recovery flagged corruption.
    pub detected: usize,
    /// Scenarios that fell back to an older generation.
    pub fallbacks: usize,
    /// Scenarios with a truncated journal tail.
    pub torn_journals: usize,
    /// Recoveries whose state diverged from the independently computed
    /// expectation without the damage being detected — **the number
    /// that must be zero**.
    pub silent_corruptions: usize,
    /// Recoveries that errored although a good generation existed, or
    /// that recovered the wrong generation/op count.
    pub failed_recoveries: usize,
    /// Clean recoveries that wrongly reported corruption.
    pub false_alarms: usize,
}

/// SplitMix64: cheap deterministic stream derivation for scenario seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Byte spans `[start, end)` of each journal record in a WAL image
/// (header excluded).
fn record_spans(wal: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 16usize;
    while pos + 4 <= wal.len() {
        let len = u32::from_le_bytes(wal[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let end = pos + 8 + len;
        if end > wal.len() {
            break;
        }
        spans.push((pos, end));
        pos = end;
    }
    spans
}

struct Scenario<'a> {
    /// Files to materialize in the scenario directory.
    files: Vec<(String, &'a [u8])>,
    /// Generation the recovery must come back on.
    expect_generation: u64,
    /// Journal ops the recovery must replay.
    expect_ops: usize,
    /// Recovery must flag corruption.
    must_detect: bool,
    /// Recovery must *not* flag corruption.
    must_be_clean: bool,
}

/// Runs one recovery against a scenario directory and captures the
/// recovered deployment.
fn run_scenario_recovery(
    dir: &Path,
    files: &[(String, &[u8])],
    cfg: RuntimeConfig,
) -> Result<(DeploymentState, RecoveryReport), StoreError> {
    if dir.exists() {
        fs::remove_dir_all(dir)?; // [real-disk ok] crash campaign scratch
    }
    fs::create_dir_all(dir)?; // [real-disk ok] crash campaign scratch
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes)?; // [real-disk ok] crash campaign scratch
    }
    let (engine, report) = DurableEngine::recover(dir, cfg)?;
    Ok((engine.engine().checkpoint(), report))
}

/// Runs the seeded crash-injection campaign in `scratch` (a disposable
/// directory; its contents are recreated per scenario).
///
/// A reference deployment is built from the seed, checkpointed, mutated
/// through journaled ops, and checkpointed again; the campaign then
/// damages copies of those on-disk images — kills at every byte
/// boundary of both commit sequences, seeded bit flips, truncations —
/// runs recovery on each, and compares the recovered deployment
/// *bit-for-bit* against the independently replayed expectation for the
/// generation and op count recovery claims. Any undetected divergence
/// counts as a silent corruption.
///
/// # Errors
///
/// Propagates filesystem errors and reference-deployment construction
/// failures (never scenario-level recovery errors — those are counted).
pub fn run_crash_chaos(
    cfg: &CrashChaosConfig,
    scratch: &Path,
) -> Result<CrashChaosReport, StoreError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let rcfg = RuntimeConfig {
        retry: RetryConfig {
            max_retries: 2,
            backoff: std::time::Duration::ZERO,
            backoff_cap: std::time::Duration::ZERO,
        },
        ..RuntimeConfig::default()
    };
    let data_cfg = ArrayConfig::paper_default()
        .with_stages(cfg.stages)
        .with_rows(cfg.data_rows);
    let levels = data_cfg.encoding.levels() as usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rand_row = |rng: &mut StdRng| -> Vec<u8> {
        (0..cfg.stages)
            .map(|_| rng.gen_range(0..levels) as u8)
            .collect()
    };

    // Reference deployment: seeded rows, checkpoint 1.
    let mut engine = ResilientEngine::new(data_cfg, cfg.resilience, rcfg)?;
    for r in 0..cfg.data_rows {
        let values = rand_row(&mut rng);
        engine.store(r, &values)?;
    }
    let state1 = engine.checkpoint();
    let ckpt1 = encode_checkpoint(&state1);

    // Post-checkpoint mutations (the journal's contents).
    let ops = vec![
        JournalOp::Store {
            row: 0,
            values: rand_row(&mut rng),
        },
        JournalOp::Inject {
            row: 1,
            stage: cfg.stages / 2,
            kind: FaultKind::VthDrift {
                window_fraction: 0.35,
            },
        },
        JournalOp::Repair,
        JournalOp::Age {
            lifetime: Lifetime {
                cycles: 1e6,
                seconds: 1e5,
                retention: RetentionParams::default(),
                endurance: EnduranceParams::default(),
            },
        },
        JournalOp::Store {
            row: cfg.data_rows - 1,
            values: rand_row(&mut rng),
        },
    ];
    let mut wal1 = journal_header();
    for op in &ops {
        wal1.extend_from_slice(&encode_record(op));
    }
    let spans = record_spans(&wal1);

    // Expected states per replayed-op count, computed through the same
    // restore-and-replay path recovery uses.
    let mut exp_g1 = Vec::with_capacity(ops.len() + 1);
    let mut replayed = ResilientEngine::restore(&state1, rcfg)?;
    exp_g1.push(replayed.checkpoint());
    for op in &ops {
        op.apply(&mut replayed)?;
        exp_g1.push(replayed.checkpoint());
    }
    let state2 = exp_g1.last().expect("nonempty").clone();
    let ckpt2 = encode_checkpoint(&state2);
    let wal2 = journal_header();
    let exp_g2 = ResilientEngine::restore(&state2, rcfg)?.checkpoint();

    let n_ops = ops.len();
    let dir = scratch.join("scenario");
    let mut report = CrashChaosReport::default();

    let ckpt1_name = "ckpt-00000001.tdam".to_string();
    let wal1_name = "wal-00000001.tdam".to_string();
    let ckpt2_name = "ckpt-00000002.tdam".to_string();
    let wal2_name = "wal-00000002.tdam".to_string();

    let judge = |report: &mut CrashChaosReport,
                 scenario: &Scenario<'_>,
                 outcome: Result<(DeploymentState, RecoveryReport), StoreError>| {
        report.scenarios += 1;
        match outcome {
            Ok((state, rec)) => {
                report.detected += usize::from(rec.corruption_detected);
                report.fallbacks += usize::from(rec.fell_back);
                report.torn_journals += usize::from(rec.journal_torn);
                let expected = if rec.generation == 2 {
                    Some(&exp_g2)
                } else if rec.generation == 1 {
                    exp_g1.get(rec.ops_replayed)
                } else {
                    None
                };
                let provenance_ok = rec.generation == scenario.expect_generation
                    && rec.ops_replayed == scenario.expect_ops
                    && rec.ops_skipped == 0;
                let state_ok = expected.is_some_and(|e| *e == state);
                if !state_ok {
                    // The recovered deployment diverges from what the
                    // claimed provenance must produce: serving it would
                    // be corruption. Detected or not, it is silent wrt
                    // the data actually returned.
                    report.silent_corruptions += 1;
                } else if !provenance_ok {
                    report.failed_recoveries += 1;
                } else if scenario.must_detect && !rec.corruption_detected {
                    report.silent_corruptions += 1;
                } else if scenario.must_be_clean && rec.corruption_detected {
                    report.false_alarms += 1;
                }
            }
            Err(_) => {
                // An intact older generation always existed in these
                // scenarios, so refusing to recover is a failure (but
                // never a *silent* one).
                report.failed_recoveries += 1;
            }
        }
    };

    // Family A: kill mid-checkpoint-commit, at every byte boundary of
    // the second checkpoint's temp-file write. The WAL already holds
    // every op, so recovery must reproduce the full pre-crash state
    // from generation 1 regardless of where the write died.
    let tmp2_name = format!("{ckpt2_name}.tmp");
    let mut k = 0usize;
    loop {
        let partial = &ckpt2[..k.min(ckpt2.len())];
        let scenario = Scenario {
            files: vec![
                (ckpt1_name.clone(), ckpt1.as_slice()),
                (wal1_name.clone(), wal1.as_slice()),
                (tmp2_name.clone(), partial),
            ],
            expect_generation: 1,
            expect_ops: n_ops,
            must_detect: false,
            must_be_clean: false,
        };
        let outcome = run_scenario_recovery(&dir, &scenario.files, rcfg);
        judge(&mut report, &scenario, outcome);
        report.commit_kills += 1;
        if k >= ckpt2.len() {
            break;
        }
        k = (k + cfg.commit_stride.max(1)).min(ckpt2.len());
    }
    // ...and the kill between the rename and the fresh-journal write:
    // generation 2 exists, its journal does not.
    let scenario = Scenario {
        files: vec![
            (ckpt1_name.clone(), ckpt1.as_slice()),
            (wal1_name.clone(), wal1.as_slice()),
            (ckpt2_name.clone(), ckpt2.as_slice()),
        ],
        expect_generation: 2,
        expect_ops: 0,
        must_detect: false,
        must_be_clean: false,
    };
    let outcome = run_scenario_recovery(&dir, &scenario.files, rcfg);
    judge(&mut report, &scenario, outcome);
    report.commit_kills += 1;

    // Family B: kill mid-journal-append, at every byte boundary of the
    // WAL image. Recovery replays the complete-record prefix; a cut
    // inside a record must be flagged as a torn tail.
    let mut j = 0usize;
    loop {
        let cut = &wal1[..j.min(wal1.len())];
        let complete = spans.iter().filter(|&&(_, end)| end <= j).count();
        let at_boundary = j >= 16 && (j == wal1.len() || spans.iter().any(|&(s, _)| s == j));
        let scenario = Scenario {
            files: vec![
                (ckpt1_name.clone(), ckpt1.as_slice()),
                (wal1_name.clone(), cut),
            ],
            expect_generation: 1,
            expect_ops: if j < 16 { 0 } else { complete },
            must_detect: !at_boundary,
            must_be_clean: false,
        };
        let outcome = run_scenario_recovery(&dir, &scenario.files, rcfg);
        judge(&mut report, &scenario, outcome);
        report.journal_kills += 1;
        if j >= wal1.len() {
            break;
        }
        j = (j + cfg.journal_stride.max(1)).min(wal1.len());
    }

    // Family C: single-bit flips in the committed newest checkpoint.
    // Every flip must be detected (magic/length/CRC) and recovery must
    // fall back to generation 1 + full journal — the identical state.
    for i in 0..cfg.checkpoint_flips {
        let s = mix(cfg.seed ^ mix(0xC001 + i as u64));
        let mut damaged = ckpt2.clone();
        let byte = (s % damaged.len() as u64) as usize;
        damaged[byte] ^= 1 << ((s >> 32) % 8);
        let scenario = Scenario {
            files: vec![
                (ckpt1_name.clone(), ckpt1.as_slice()),
                (wal1_name.clone(), wal1.as_slice()),
                (ckpt2_name.clone(), damaged.as_slice()),
                (wal2_name.clone(), wal2.as_slice()),
            ],
            expect_generation: 1,
            expect_ops: n_ops,
            must_detect: true,
            must_be_clean: false,
        };
        let outcome = run_scenario_recovery(&dir, &scenario.files, rcfg);
        judge(&mut report, &scenario, outcome);
        report.checkpoint_flips += 1;
    }

    // Family D: truncations of the newest checkpoint.
    for i in 0..cfg.checkpoint_truncations {
        let s = mix(cfg.seed ^ mix(0x7A0B + i as u64));
        let cut = (s % ckpt2.len() as u64) as usize;
        let scenario = Scenario {
            files: vec![
                (ckpt1_name.clone(), ckpt1.as_slice()),
                (wal1_name.clone(), wal1.as_slice()),
                (ckpt2_name.clone(), &ckpt2[..cut]),
                (wal2_name.clone(), wal2.as_slice()),
            ],
            expect_generation: 1,
            expect_ops: n_ops,
            must_detect: true,
            must_be_clean: false,
        };
        let outcome = run_scenario_recovery(&dir, &scenario.files, rcfg);
        judge(&mut report, &scenario, outcome);
        report.checkpoint_truncations += 1;
    }

    // Family E: single-bit flips in the journal (pre-commit layout).
    // A flipped header quarantines the journal (base state only); a
    // flipped record stops replay at that record. Either way the damage
    // must be flagged and the recovered state must match the replayed
    // prefix exactly.
    for i in 0..cfg.journal_flips {
        let s = mix(cfg.seed ^ mix(0xF11B + i as u64));
        let mut damaged = wal1.clone();
        let byte = (s % damaged.len() as u64) as usize;
        damaged[byte] ^= 1 << ((s >> 32) % 8);
        let prefix = if byte < 16 {
            0
        } else {
            spans.iter().filter(|&&(_, end)| end <= byte).count()
        };
        let scenario = Scenario {
            files: vec![
                (ckpt1_name.clone(), ckpt1.as_slice()),
                (wal1_name.clone(), damaged.as_slice()),
            ],
            expect_generation: 1,
            expect_ops: prefix,
            must_detect: true,
            must_be_clean: false,
        };
        let outcome = run_scenario_recovery(&dir, &scenario.files, rcfg);
        judge(&mut report, &scenario, outcome);
        report.journal_flips += 1;
    }

    // Family F: undamaged control recoveries — no false alarms allowed.
    for _ in 0..cfg.clean_controls {
        let scenario = Scenario {
            files: vec![
                (ckpt1_name.clone(), ckpt1.as_slice()),
                (wal1_name.clone(), wal1.as_slice()),
                (ckpt2_name.clone(), ckpt2.as_slice()),
                (wal2_name.clone(), wal2.as_slice()),
            ],
            expect_generation: 2,
            expect_ops: 0,
            must_detect: false,
            must_be_clean: true,
        };
        let outcome = run_scenario_recovery(&dir, &scenario.files, rcfg);
        judge(&mut report, &scenario, outcome);
        report.clean_controls += 1;
    }

    if dir.exists() {
        let _ = fs::remove_dir_all(&dir); // [real-disk ok] crash campaign scratch
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tdam-store-{}-{tag}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir).expect("clear scratch");
        }
        fs::create_dir_all(&dir).expect("create scratch");
        dir
    }

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
        let mut w = Writer::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes after {value:?}");
        assert_eq!(&back, value);
    }

    fn small_engine(seed_rows: &[&[u8]]) -> ResilientEngine {
        let cfg = ArrayConfig::paper_default().with_stages(6).with_rows(4);
        let res = ResilienceConfig {
            spare_rows: 1,
            reference_rows: 2,
            ..Default::default()
        };
        let rcfg = RuntimeConfig {
            retry: RetryConfig {
                max_retries: 1,
                backoff: std::time::Duration::ZERO,
                backoff_cap: std::time::Duration::ZERO,
            },
            ..RuntimeConfig::default()
        };
        let mut engine = ResilientEngine::new(cfg, res, rcfg).expect("engine");
        for (r, values) in seed_rows.iter().enumerate() {
            engine.store(r, values).expect("seed row");
        }
        engine
    }

    #[test]
    fn crc32_matches_reference_check_value() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitive_codecs_roundtrip() {
        for v in [0u8, 1, 7, 255] {
            roundtrip(&v);
        }
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            roundtrip(&v);
        }
        for v in [0usize, 3, usize::MAX] {
            roundtrip(&v);
        }
        for v in [0.0f64, -0.0, 1.5, -3.25e-9, f64::MAX, f64::MIN_POSITIVE] {
            roundtrip(&v);
        }
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&vec![1u8, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&(0.42f64, -0.17f64));
    }

    #[test]
    fn nan_survives_bit_exactly() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0001);
        let mut w = Writer::new();
        nan.encode(&mut w);
        let bytes = w.into_bytes();
        let back = f64::decode(&mut Reader::new(&bytes)).expect("decode");
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn bad_bool_is_rejected() {
        assert!(bool::decode(&mut Reader::new(&[2])).is_err());
    }

    #[test]
    fn oversized_vec_length_is_rejected_without_allocation() {
        let mut w = Writer::new();
        w.put_usize(1 << 40);
        let bytes = w.into_bytes();
        assert!(Vec::<u8>::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn domain_codecs_roundtrip() {
        // Field-level compatibility pins for every type in the on-disk
        // format: a changed/added/removed field breaks these.
        for stages in [2usize, 6, 17] {
            roundtrip(
                &ArrayConfig::paper_default()
                    .with_stages(stages)
                    .with_rows(3),
            );
        }
        let engine = small_engine(&[&[1, 2, 3, 0, 1, 2]]);
        roundtrip(engine.array().array().timing());

        let mut faults = FaultMap::new();
        faults.inject(0, 1, FaultKind::StuckMismatch);
        faults.inject(2, 5, FaultKind::StuckMatch);
        faults.inject(
            1,
            3,
            FaultKind::VthDrift {
                window_fraction: 0.37,
            },
        );
        roundtrip(&faults);
        roundtrip(&FaultMap::new());

        roundtrip(&ResilienceConfig::default());
        for health in [
            RowHealth::Healthy,
            RowHealth::Repaired,
            RowHealth::Remapped,
            RowHealth::Degraded,
            RowHealth::Dead,
        ] {
            roundtrip(&health);
        }

        roundtrip(&RetentionParams::default());
        roundtrip(&EnduranceParams::default());
        roundtrip(&Lifetime::fresh());
        roundtrip(&Lifetime {
            cycles: 2.5e7,
            seconds: 3.1e4,
            retention: RetentionParams {
                loss_per_decade: 0.02,
                t0: 2.0,
            },
            endurance: EnduranceParams::default(),
        });

        for backend in [
            BackendKind::Packed,
            BackendKind::Behavioral,
            BackendKind::DegradedMasked,
        ] {
            roundtrip(&backend);
        }
        roundtrip(&RuntimeStats {
            batches: 1,
            queries: 2,
            answered: 3,
            timed_out: 4,
            failed: 5,
            retries: 6,
            backoff_waits: 13,
            breaker_trips: 14,
            recompiles: 7,
            health_checks: 8,
            health_misses: 9,
            repairs: 10,
            demotions: 11,
            promotions: 12,
            user_writes: 15,
            physical_writes: 16,
            wear_rotations: 17,
            refresh_rewrites: 18,
            incremental_repacks: 19,
            rows_repacked: 20,
            epoch_swaps: 21,
            scrub_ticks: 22,
            scrub_probes: 23,
            scrub_heals: 24,
            corpus_cache_hits: 25,
            corpus_cache_misses: 26,
            corpus_cache_evictions: 27,
            corpus_compile_micros: 28,
        });
    }

    #[test]
    fn randomized_states_roundtrip() {
        // Property-style seeded sweep: random deployments (rows, faults,
        // remaps, runtime counters) must survive the full
        // encode → frame → CRC → decode path bit-exactly.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
            let stages = 2 + rng.gen_range(0..6_usize);
            let rows = 1 + rng.gen_range(0..4_usize);
            let cfg = ArrayConfig::paper_default()
                .with_stages(stages)
                .with_rows(rows);
            let levels = cfg.encoding.levels() as usize;
            let resilience = ResilienceConfig {
                spare_rows: rng.gen_range(0..3_usize),
                reference_rows: 2,
                ..Default::default()
            };
            let mut engine =
                ResilientEngine::new(cfg, resilience, RuntimeConfig::default()).expect("engine");
            for r in 0..rows {
                let values: Vec<u8> = (0..stages)
                    .map(|_| rng.gen_range(0..levels) as u8)
                    .collect();
                engine.store(r, &values).expect("store");
            }
            for _ in 0..rng.gen_range(0..4_usize) {
                let row = rng.gen_range(0..rows);
                let stage = rng.gen_range(0..stages);
                let kind = match rng.gen_range(0..3_usize) {
                    0 => FaultKind::StuckMismatch,
                    1 => FaultKind::StuckMatch,
                    _ => FaultKind::VthDrift {
                        window_fraction: 0.1 + 0.05 * rng.gen_range(0..10_usize) as f64,
                    },
                };
                engine.array_mut().inject(row, stage, kind).expect("inject");
            }
            let mut state = engine.checkpoint();
            state.runtime.stats.batches = rng.gen_range(0..1000_usize);
            state.runtime.breaker_misses = rng.gen_range(0..4_usize);
            let bytes = encode_checkpoint(&state);
            assert_eq!(decode_checkpoint(&bytes).expect("decode"), state);
        }
    }

    #[test]
    fn fault_kind_wire_tags_are_pinned() {
        let enc = |kind: FaultKind| {
            let mut w = Writer::new();
            kind.encode(&mut w);
            w.into_bytes()
        };
        assert_eq!(enc(FaultKind::StuckMismatch), vec![0]);
        assert_eq!(enc(FaultKind::StuckMatch), vec![1]);
        let drift = enc(FaultKind::VthDrift {
            window_fraction: 0.5,
        });
        assert_eq!(drift[0], 2);
        assert_eq!(drift[1..], 0.5f64.to_bits().to_le_bytes());
    }

    #[test]
    fn checkpoint_framing_is_pinned() {
        let engine = small_engine(&[&[0, 1, 2, 3, 0, 1]]);
        let bytes = encode_checkpoint(&engine.checkpoint());
        assert_eq!(&bytes[..8], b"TDAMCKPT");
        assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        assert_eq!(bytes.len(), 24 + payload_len);
        let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        assert_eq!(stored_crc, crc32(&bytes[8..bytes.len() - 4]));
        assert!(decode_checkpoint(&bytes).is_ok());
    }

    #[test]
    fn journal_framing_is_pinned() {
        let header = journal_header();
        assert_eq!(header.len(), 16);
        assert_eq!(&header[..8], b"TDAMJRNL");
        assert_eq!(header[8..12], FORMAT_VERSION.to_le_bytes());
        assert_eq!(
            header[12..16],
            crc32(&FORMAT_VERSION.to_le_bytes()).to_le_bytes()
        );

        let op = JournalOp::BreakStage { row: 1, stage: 2 };
        let rec = encode_record(&op);
        let len = u32::from_le_bytes(rec[..4].try_into().expect("4 bytes")) as usize;
        assert_eq!(rec.len(), 8 + len);
        let stored_crc = u32::from_le_bytes(rec[rec.len() - 4..].try_into().expect("4 bytes"));
        assert_eq!(stored_crc, crc32(&rec[4..4 + len]));
    }

    #[test]
    fn journal_ops_roundtrip() {
        let ops = vec![
            JournalOp::Store {
                row: 2,
                values: vec![3, 1, 0, 2, 3, 1],
            },
            JournalOp::Inject {
                row: 0,
                stage: 4,
                kind: FaultKind::VthDrift {
                    window_fraction: 0.25,
                },
            },
            JournalOp::BreakStage { row: 1, stage: 0 },
            JournalOp::StuckColumn { stage: 3 },
            JournalOp::Age {
                lifetime: Lifetime {
                    cycles: 1e5,
                    seconds: 1e3,
                    retention: RetentionParams::default(),
                    endurance: EnduranceParams::default(),
                },
            },
            JournalOp::Repair,
        ];
        let mut wal = journal_header();
        for op in &ops {
            wal.extend_from_slice(&encode_record(op));
        }
        let (back, torn) = read_journal(&wal).expect("journal");
        assert!(!torn);
        assert_eq!(back, ops);
    }

    #[test]
    fn torn_journal_yields_valid_prefix() {
        let ops = [
            JournalOp::StuckColumn { stage: 1 },
            JournalOp::BreakStage { row: 0, stage: 2 },
            JournalOp::Repair,
        ];
        let mut wal = journal_header();
        for op in &ops {
            wal.extend_from_slice(&encode_record(op));
        }
        let cut = wal.len() - 3;
        let (back, torn) = read_journal(&wal[..cut]).expect("journal");
        assert!(torn);
        assert_eq!(back, ops[..2]);
    }

    #[test]
    fn corrupt_journal_header_is_an_error() {
        let mut wal = journal_header();
        wal[3] ^= 0x40;
        assert!(read_journal(&wal).is_err());
        assert!(read_journal(&journal_header()[..7]).is_err());
    }

    #[test]
    fn checkpoint_roundtrips_through_bytes() {
        let mut engine = small_engine(&[&[1, 0, 3, 2, 1, 0], &[2, 2, 2, 2, 2, 2]]);
        engine
            .array_mut()
            .inject(1, 2, FaultKind::StuckMismatch)
            .expect("inject");
        let state = engine.checkpoint();
        let bytes = encode_checkpoint(&state);
        let back = decode_checkpoint(&bytes).expect("decode");
        assert_eq!(back, state);
    }

    #[test]
    fn every_flipped_bit_in_a_checkpoint_is_detected() {
        let engine = small_engine(&[&[1, 2, 3, 0, 1, 2]]);
        let bytes = encode_checkpoint(&engine.checkpoint());
        for byte in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << (byte % 8);
            assert!(
                decode_checkpoint(&damaged).is_err(),
                "flip at byte {byte} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..cut]).is_err(),
                "truncation at byte {cut} went undetected"
            );
        }
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = scratch("atomic");
        let path = dir.join("file.bin");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(fs::read(&path).expect("read"), b"second");
        let residue: Vec<_> = fs::read_dir(&dir)
            .expect("read_dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files left behind: {residue:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_bumps_generation_and_revalidates() {
        let engine = small_engine(&[&[3, 1, 2, 0, 3, 1]]);
        let state = engine.checkpoint();
        let restored = ResilientEngine::restore(&state, *engine.runtime_config()).expect("restore");
        assert_eq!(restored.array().array().generation(), state.generation + 1);
        assert_eq!(restored.backend(), BackendKind::Behavioral);
        for r in 0..restored.array().data_rows() {
            let restored_row = restored
                .array()
                .array()
                .stored(restored.array().physical_row(r).expect("row"))
                .expect("restored row");
            let live_row = engine
                .array()
                .array()
                .stored(engine.array().physical_row(r).expect("row"))
                .expect("live row");
            assert_eq!(restored_row, live_row);
        }
    }

    #[test]
    fn durable_engine_recovers_journaled_mutations() {
        let dir = scratch("recover");
        let rcfg = *small_engine(&[]).runtime_config();
        {
            let store = CheckpointStore::open(&dir).expect("open store");
            let mut durable =
                DurableEngine::new(store, small_engine(&[&[1, 1, 2, 2, 3, 3]])).expect("durable");
            durable.store(1, &[0, 3, 0, 3, 0, 3]).expect("store");
            durable.inject(0, 2, FaultKind::StuckMatch).expect("inject");
            assert_eq!(durable.generation(), 1);
            assert_eq!(durable.journal_ops(), 2);
            // Simulated crash: drop without checkpointing.
        }
        let (durable, report) = DurableEngine::recover(&dir, rcfg).expect("recover");
        assert_eq!(report.generation, 1);
        assert_eq!(report.ops_replayed, 2);
        assert_eq!(report.ops_skipped, 0);
        assert!(!report.corruption_detected);
        assert!(!report.fell_back);
        let arr = durable.engine().array();
        let phys = arr.physical_row(1).expect("row");
        assert_eq!(
            arr.array().stored(phys).expect("stored"),
            vec![0, 3, 0, 3, 0, 3]
        );
        assert_eq!(
            arr.faults().get(phys_of(arr, 0), 2),
            Some(FaultKind::StuckMatch)
        );
        fs::remove_dir_all(&dir).ok();
    }

    fn phys_of(arr: &crate::resilience::ResilientArray, logical: usize) -> usize {
        arr.physical_row(logical).expect("logical row")
    }

    #[test]
    fn group_commit_defers_then_flushes_and_recovers() {
        let dir = scratch("group_commit");
        let rcfg = *small_engine(&[]).runtime_config();
        {
            let store = CheckpointStore::open(&dir).expect("open store");
            let mut durable = DurableEngine::new(store, small_engine(&[&[1, 1, 2, 2, 3, 3]]))
                .expect("durable")
                .with_group_commit(GroupCommitPolicy {
                    max_ops: 3,
                    flush_deadline: Duration::from_secs(3600),
                });
            // Two buffered writes: live immediately, durable later.
            durable.store_buffered(0, &[3, 2, 1, 0, 3, 2]).expect("w0");
            durable.store_buffered(1, &[0, 3, 0, 3, 0, 3]).expect("w1");
            assert_eq!(durable.pending_writes(), 2);
            assert_eq!(durable.journal_ops(), 0, "not yet flushed");
            // Third write reaches max_ops: the group lands with one
            // fsync.
            durable.store_buffered(0, &[2, 2, 2, 2, 2, 2]).expect("w2");
            assert_eq!(durable.pending_writes(), 0);
            assert_eq!(durable.journal_ops(), 3);
            // A synchronous op after a fresh buffered write must flush
            // the buffer first so the journal replays in apply order.
            durable.store_buffered(1, &[1, 0, 1, 0, 1, 0]).expect("w3");
            durable.inject(0, 2, FaultKind::StuckMatch).expect("inject");
            assert_eq!(durable.pending_writes(), 0);
            assert_eq!(durable.journal_ops(), 5);
            // Simulated crash: drop without checkpointing.
        }
        let (durable, report) = DurableEngine::recover(&dir, rcfg).expect("recover");
        assert_eq!(report.ops_replayed, 5);
        assert_eq!(report.ops_skipped, 0);
        let arr = durable.engine().array();
        assert_eq!(
            arr.array().stored(phys_of(arr, 0)).expect("row 0"),
            vec![2, 2, 2, 2, 2, 2]
        );
        assert_eq!(
            arr.array().stored(phys_of(arr, 1)).expect("row 1"),
            vec![1, 0, 1, 0, 1, 0]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_batch_amortizes_one_fsync_over_the_writes() {
        let dir = scratch("store_batch");
        let rcfg = *small_engine(&[]).runtime_config();
        {
            let store = CheckpointStore::open(&dir).expect("open store");
            let mut durable =
                DurableEngine::new(store, small_engine(&[&[1, 1, 2, 2, 3, 3]])).expect("durable");
            durable
                .store_batch(&[
                    (0, vec![3, 3, 3, 3, 3, 3]),
                    (1, vec![0, 1, 2, 3, 0, 1]),
                    (0, vec![1, 1, 1, 1, 1, 1]),
                ])
                .expect("batch");
            assert_eq!(durable.journal_ops(), 3);
            assert_eq!(durable.pending_writes(), 0);
        }
        let (durable, report) = DurableEngine::recover(&dir, rcfg).expect("recover");
        assert_eq!(report.ops_replayed, 3);
        let arr = durable.engine().array();
        assert_eq!(
            arr.array().stored(phys_of(arr, 0)).expect("row 0"),
            vec![1, 1, 1, 1, 1, 1],
            "last write in the batch wins"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_generation_falls_back() {
        let dir = scratch("fallback");
        let rcfg = *small_engine(&[]).runtime_config();
        {
            let store = CheckpointStore::open(&dir).expect("open store");
            let mut durable =
                DurableEngine::new(store, small_engine(&[&[2, 0, 1, 3, 2, 0]])).expect("durable");
            durable.store(0, &[3, 3, 3, 3, 3, 3]).expect("store");
            durable.checkpoint().expect("checkpoint");
            assert_eq!(durable.generation(), 2);
        }
        let ckpt2 = dir.join("ckpt-00000002.tdam");
        let mut bytes = fs::read(&ckpt2).expect("read ckpt2");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&ckpt2, &bytes).expect("damage ckpt2");

        let (durable, report) = DurableEngine::recover(&dir, rcfg).expect("recover");
        assert_eq!(report.generation, 1);
        assert!(report.corruption_detected);
        assert!(report.fell_back);
        assert!(!report.quarantined.is_empty());
        assert!(dir.join("ckpt-00000002.tdam.quarantined").exists());
        // The journaled store op carries the post-checkpoint value.
        let arr = durable.engine().array();
        assert_eq!(
            arr.array().stored(phys_of(arr, 0)).expect("stored"),
            vec![3, 3, 3, 3, 3, 3]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_without_any_checkpoint_is_no_checkpoint() {
        let dir = scratch("empty");
        let rcfg = *small_engine(&[]).runtime_config();
        assert!(matches!(
            DurableEngine::recover(&dir, rcfg),
            Err(StoreError::NoCheckpoint)
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest_generations() {
        let dir = scratch("prune");
        let store = CheckpointStore::open(&dir).expect("open store");
        let mut durable =
            DurableEngine::new(store, small_engine(&[&[1, 2, 1, 2, 1, 2]])).expect("durable");
        for _ in 0..3 {
            durable.store(0, &[0, 0, 0, 0, 0, 0]).expect("store");
            durable.checkpoint().expect("checkpoint");
        }
        assert_eq!(durable.generation(), 4);
        let gens = durable.checkpoint_store().generations().expect("gens");
        assert_eq!(gens, vec![3, 4]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_crash_campaign_has_no_silent_corruption() {
        let dir = scratch("chaos-quick");
        let report = run_crash_chaos(&CrashChaosConfig::quick(), &dir).expect("campaign");
        assert!(report.scenarios > 100, "campaign too small: {report:?}");
        assert_eq!(report.silent_corruptions, 0, "{report:?}");
        assert_eq!(report.failed_recoveries, 0, "{report:?}");
        assert_eq!(report.false_alarms, 0, "{report:?}");
        assert!(report.detected > 0);
        assert!(report.fallbacks > 0);
        assert!(report.torn_journals > 0);
        fs::remove_dir_all(&dir).ok();
    }
}
