//! Library backing the `tdam-sim` command-line tool: argument parsing and
//! the subcommand implementations, separated from `main` so they are
//! testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use tdam::ErrorClass;

/// Top-level CLI error.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Bad command-line usage; the message is shown with the usage text.
    Usage(String),
    /// A simulation- or serving-layer failure, carrying its
    /// [`ErrorClass`] so the process exit code can tell callers whether
    /// a retry is worthwhile (`EX_TEMPFAIL` for transient failures).
    Simulation {
        /// Human-readable description.
        msg: String,
        /// Retryability classification.
        class: ErrorClass,
    },
}

impl CliError {
    /// A permanent simulation failure (the common case for caller
    /// mistakes surfaced by the simulation layer).
    pub fn permanent(msg: impl Into<String>) -> Self {
        Self::Simulation {
            msg: msg.into(),
            class: ErrorClass::Permanent,
        }
    }

    /// How retryable this error is. Usage errors are permanent: the
    /// same command line will fail the same way.
    pub fn class(&self) -> ErrorClass {
        match self {
            Self::Usage(_) => ErrorClass::Permanent,
            Self::Simulation { class, .. } => *class,
        }
    }
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Usage(m) => write!(f, "usage error: {m}"),
            Self::Simulation { msg, .. } => write!(f, "simulation error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<tdam::TdamError> for CliError {
    fn from(e: tdam::TdamError) -> Self {
        Self::Simulation {
            msg: e.to_string(),
            class: e.class(),
        }
    }
}

impl From<tdam::store::StoreError> for CliError {
    fn from(e: tdam::store::StoreError) -> Self {
        use tdam::store::StoreError;
        let class = match &e {
            // A failed disk op may succeed on retry; corrupt or
            // version-skewed state will not.
            StoreError::Io(_) => ErrorClass::Transient,
            StoreError::Sim(inner) => inner.class(),
            _ => ErrorClass::Permanent,
        };
        Self::Simulation {
            msg: e.to_string(),
            class,
        }
    }
}

impl From<tdam::serve::ServeError> for CliError {
    fn from(e: tdam::serve::ServeError) -> Self {
        Self::Simulation {
            msg: e.to_string(),
            class: e.class(),
        }
    }
}

/// The usage text shown by `tdam-sim --help`.
pub const USAGE: &str = "\
tdam-sim — FeFET time-domain associative memory simulator

USAGE:
  tdam-sim search  --store 0,1,2,3;3,2,1,0 --query 0,1,2,2 [--vdd V] [--c-load-ff F] [--bits N]
  tdam-sim mc      [--stages N] [--sigma-mv S | --experimental] [--runs R] [--seed X]
  tdam-sim timing  [--vdd V] [--c-load-ff F] [--circuit]
  tdam-sim margins [--sigma-mv S]
  tdam-sim table1  [--queries Q]
  tdam-sim area    [--stages N] [--rows R] [--c-load-ff F]
  tdam-sim power   [--stages N] [--rows R] [--vdd V]
  tdam-sim faults  [--stages N] [--rows R] [--spares S] [--rate P] [--kind K]
                   [--trials T] [--queries Q] [--seed X] [--no-repair]
  tdam-sim bench-batch [--stages N] [--rows R] [--batch B] [--threads T] [--seed X]
  tdam-sim checkpoint --dir D [--stages N] [--rows R] [--spares S] [--mutations M] [--seed X]
  tdam-sim restore    --dir D
  tdam-sim serve   [--rows R] [--stages N] [--rows-per-shard S] [--clients C]
                   [--requests Q] [--k K] [--deadline-ms D] [--workers W]
                   [--queue-capacity N] [--seed X]
  tdam-sim serve-load --addr HOST:PORT [--clients C] [--requests Q] [--k K]
                   [--deadline-ms D] [--seed X]
  tdam-sim simulate [--seed X] [--scenarios N] [--steps S] [--fault-density P]
                   [--corpus-rows R] [--paper] [--sabotage]
  tdam-sim corpus-search [--rows R] [--stages N] [--protos P] [--shard-rows S]
                   [--nprobe Q] [--queries M] [--k K] [--cache-kb B] [--seed X]

SUBCOMMANDS:
  search    store vectors and run one associative search
  mc        worst-case Monte Carlo under V_TH variation (Fig. 6)
  timing    stage timing calibration (analytic, or --circuit extraction)
  margins   multi-bit sensing-margin feasibility analysis
  table1    the Table I energy-per-bit comparison
  area      array footprint estimate
  power     idle static (leakage) power estimate
  faults    seeded fault campaign with detection + spare-row repair
            (--kind: stuck-mismatch, stuck-match, stuck-mix, drift,
             stuck-column, broken-stage, tdc-miscount, sl-glitch)
  bench-batch  time batched parallel search vs a sequential query loop
  checkpoint   program a seeded deployment and persist it under --dir:
               a CRC-checksummed snapshot plus a write-ahead journal of
               the post-checkpoint mutations (--mutations, left
               unflushed so restore demonstrates replay)
  restore      recover the deployment under --dir: validate checksums,
               fall back past damaged generations, replay the journal,
               then revalidate with known-answer probes
  serve        stand up the sharded TCP serving front-end over a seeded
               corpus on a loopback port, drive it with a steady
               closed loop (the serve-load client driver) whose every
               complete answer is judged against brute force, report
               qps, p50/p99, sheds and per-shard runtime stats, then
               shut down; fails on any wrong complete answer
  serve-load   closed-loop load generator against a front-end some
               other process keeps running (`serve` exits when its own
               run is done): discovers the corpus shape over the wire,
               then reports qps, p50/p99, and explicit shed counts
  simulate     deterministic full-system simulation on virtual time: a
               whole deployment (sharded serving, durable track, device
               aging, stuck cells, wear churn, worker panics) runs
               single-threaded under a seed-derived fault schedule, with every complete answer judged against a
               brute-force replay of the shadow corpus; a failing seed
               replays bit-identically and is shrunk to a minimal
               schedule before it is reported. --scenarios N runs a
               campaign of N worlds derived from the base seed;
               --sabotage self-tests the judge by corrupting an answer;
               --corpus-rows R adds a two-tier corpus side-track whose
               pre-filtered answers are judged against brute force
               restricted to the probed shards
  corpus-search  two-tier search demo over a seeded clustered corpus:
               coarse centroid pre-filter picks nprobe shards, the
               packed re-rank tier answers exactly from LRU-cached
               snapshots; reports recall@k vs full brute force and the
               snapshot-cache hit/miss/evict counters

Vectors are comma-separated elements; multiple vectors are separated
by ';'. Elements must fit the encoding (--bits, default 2 → 0..=3).
Exit codes: 0 success, 1 permanent failure, 2 usage, 75 transient
failure (retry may succeed).
";
