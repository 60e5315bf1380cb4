//! Seeded input generation. Every input of a run is a pure function of
//! the `--seed` argument; the program under test only sees the
//! generated codes.

/// SplitMix64 finalizer, the repository-wide seeding primitive.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small sequential generator over [`splitmix`].
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, tag)`; distinct tags give independent
    /// streams of the same seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        Self(splitmix(seed ^ splitmix(tag)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform code vector of `stages` elements in `0..levels`.
    pub fn codes(&mut self, stages: usize, levels: u8) -> Vec<u8> {
        (0..stages)
            .map(|_| self.below(levels as usize) as u8)
            .collect()
    }

    /// A random row of `rows` with `flips` elements perturbed.
    pub fn near(&mut self, rows: &[Vec<u8>], flips: usize, levels: u8) -> Vec<u8> {
        let base = &rows[self.below(rows.len())];
        self.perturb(base, flips, levels)
    }

    /// `base` with `flips` random elements moved to another level.
    pub fn perturb(&mut self, base: &[u8], flips: usize, levels: u8) -> Vec<u8> {
        let mut q = base.to_vec();
        for _ in 0..flips {
            let j = self.below(q.len());
            let step = 1 + self.below(levels as usize - 1) as u8;
            q[j] = (q[j] + step) % levels;
        }
        q
    }
}

/// Clustered codes: `protos` prototypes, each element replaced by a
/// uniform level with probability 1/10. Clusterable data is the regime
/// the coarse quantizer exists for.
#[derive(Debug, Clone)]
pub struct Clustered {
    seed: u64,
    stages: usize,
    levels: u8,
    protos: u64,
}

impl Clustered {
    /// The generator for `seed`.
    pub fn new(seed: u64, stages: usize, levels: u8, protos: u64) -> Self {
        Self {
            seed,
            stages,
            levels,
            protos,
        }
    }

    /// Row `r`'s prototype.
    fn proto_of(&self, r: u64) -> u64 {
        splitmix(self.seed ^ 0x000A_11CE ^ r) % self.protos
    }

    /// Writes row `r` (a noisy copy of prototype `p`) into `out`.
    fn sample_into(&self, p: u64, r: u64, out: &mut [u8]) {
        let levels = u64::from(self.levels);
        for (j, v) in out.iter_mut().enumerate() {
            let n = splitmix(self.seed ^ 0x0040_15E0 ^ (r << 20 | j as u64));
            *v = if n % 100 < 10 {
                ((n >> 8) % levels) as u8
            } else {
                (splitmix(self.seed ^ 0xB0_55 ^ (p << 20 | j as u64)) % levels) as u8
            };
        }
    }

    /// The first `rows` rows, row-major in one slab.
    pub fn slab(&self, rows: usize) -> Vec<u8> {
        let mut out = vec![0u8; rows * self.stages];
        for (r, row) in out.chunks_exact_mut(self.stages).enumerate() {
            self.sample_into(self.proto_of(r as u64), r as u64, row);
        }
        out
    }

    /// A fresh row (numbered `r`, beyond the slab) of a random prototype.
    pub fn fresh(&self, rng: &mut Rng, r: u64) -> Vec<u8> {
        let mut out = vec![0u8; self.stages];
        self.sample_into(rng.next_u64() % self.protos, r, &mut out);
        out
    }
}
