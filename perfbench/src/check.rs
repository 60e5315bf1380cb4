//! Correctness gates. Every workload checks the program's answers
//! against an independent brute force; a mismatch fails the run
//! instead of letting it print numbers.

use std::collections::HashSet;
use tdam::corpus::CorpusEngine;
use tdam::encoding::Encoding;
use tdam::engine::SearchMetrics;

/// Element-wise Hamming distance: the number of positions where the
/// codes differ (the definition of `Encoding::hamming`, without its
/// range validation). Eight elements at a time: each differing byte of
/// the XOR is folded onto its lowest bit and counted.
pub fn hamming(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len(), "code widths differ");
    let (mut wa, mut wb) = (a.chunks_exact(8), b.chunks_exact(8));
    let mut n = 0;
    for (x, y) in (&mut wa).zip(&mut wb) {
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8 bytes"));
        let mut d = word(x) ^ word(y);
        d |= d >> 4;
        d |= d >> 2;
        d |= d >> 1;
        n += (d & 0x0101_0101_0101_0101).count_ones() as usize;
    }
    n + wa
        .remainder()
        .iter()
        .zip(wb.remainder())
        .filter(|(x, y)| x != y)
        .count()
}

/// Exact top-`k` over `rows` (an iterator of `(id, codes)`), ranked by
/// `(distance, id)` ascending with element-Hamming distances: the
/// order every tdam top-k path promises.
pub fn brute_topk<'a>(
    rows: impl Iterator<Item = (usize, &'a [u8])>,
    query: &[u8],
    k: usize,
) -> Vec<(usize, usize)> {
    let mut best: Vec<(usize, usize)> = Vec::with_capacity(k + 1);
    for (id, codes) in rows {
        let cand = (hamming(codes, query), id);
        if best.len() < k || best.last().is_some_and(|worst| cand < *worst) {
            let at = best.partition_point(|b| *b < cand);
            best.insert(at, cand);
            best.truncate(k);
        }
    }
    best
}

/// Compares a ranked answer with its reference.
///
/// # Errors
///
/// Describes the first difference.
pub fn same_topk(
    what: &str,
    got: &[(usize, usize)],
    want: &[(usize, usize)],
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: answer differs from brute force at rank {at}: got {:?}, want {:?}",
        got.get(at),
        want.get(at)
    ))
}

/// The benchmark's own copy of a corpus: row-major codes, row `id` at
/// `id * stages`, updated alongside every write the engine takes.
#[derive(Debug, Clone)]
pub struct Shadow {
    /// Codes per row.
    pub stages: usize,
    /// Row-major codes.
    pub codes: Vec<u8>,
}

impl Shadow {
    /// Row `id`.
    pub fn row(&self, id: usize) -> &[u8] {
        &self.codes[id * self.stages..(id + 1) * self.stages]
    }

    /// Rows held.
    pub fn rows(&self) -> usize {
        self.codes.len() / self.stages
    }

    /// Exact top-`k` over every row.
    pub fn topk(&self, query: &[u8], k: usize) -> Vec<(usize, usize)> {
        brute_topk(self.codes.chunks_exact(self.stages).enumerate(), query, k)
    }

    /// Brute force over the rows `engine` files under the `probed`
    /// shards only: the exact answer the two-tier search promises for
    /// those probes.
    pub fn probed_topk(
        &self,
        engine: &CorpusEngine,
        probed: &[usize],
        query: &[u8],
        k: usize,
    ) -> Vec<(usize, usize)> {
        let rows = probed.iter().flat_map(|&c| {
            engine
                .shard_ids(c)
                .iter()
                .map(|&id| (id as usize, self.row(id as usize)))
        });
        brute_topk(rows, query, k)
    }
}

/// Checks one answered array query: every logical row's distance and
/// the winner must equal `Encoding::hamming` brute force over the
/// stored rows (winner ties break to the lowest row).
///
/// # Errors
///
/// Describes the first wrong distance or winner.
pub fn array_answer(
    encoding: Encoding,
    stored: &[Vec<u8>],
    query: &[u8],
    got: &SearchMetrics,
) -> Result<(), String> {
    if got.distances.len() != stored.len() {
        return Err(format!(
            "array: {} distances for {} rows",
            got.distances.len(),
            stored.len()
        ));
    }
    let mut best: Option<(usize, usize)> = None;
    for (row, codes) in stored.iter().enumerate() {
        let want = encoding.hamming(codes, query).expect("valid codes");
        if got.distances[row] != Some(want) {
            return Err(format!(
                "array: row {row} distance {:?}, brute force {want}",
                got.distances[row]
            ));
        }
        if best.is_none_or(|(d, _)| want < d) {
            best = Some((want, row));
        }
    }
    let want_row = best.map(|(_, r)| r);
    if got.best_row != want_row {
        return Err(format!(
            "array: winner {:?}, brute force {want_row:?}",
            got.best_row
        ));
    }
    Ok(())
}

/// Recall counters: ids of `got` found among the ids of `exact`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recall {
    /// Reference neighbours found.
    pub hits: usize,
    /// Reference neighbours in total.
    pub total: usize,
}

impl Recall {
    /// Adds one query's answer.
    pub fn add(&mut self, got: &[(usize, usize)], exact: &[(usize, usize)]) {
        let ids: HashSet<usize> = exact.iter().map(|&(_, id)| id).collect();
        self.hits += got.iter().filter(|(_, id)| ids.contains(id)).count();
        self.total += exact.len();
    }

    /// Share of reference neighbours found (1.0 when nothing was asked).
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdam::corpus::{CorpusBuilder, CorpusConfig};

    fn rows() -> Vec<Vec<u8>> {
        (0..40usize)
            .map(|i| (0..8).map(|j| ((i * 7 + j * 3) % 4) as u8).collect())
            .collect()
    }

    #[test]
    fn topk_checker_rejects_a_perturbed_answer() {
        let enc = Encoding::paper_default();
        let corpus = rows();
        let query = corpus[5].clone();
        let want = brute_topk(corpus.iter().map(|r| r.as_slice()).enumerate(), &query, 5);
        let served = tdam::serve::brute_force_topk(&corpus, enc, &query, 5).unwrap();
        assert!(same_topk("serve", &served, &want).is_ok());
        let mut wrong = want.clone();
        wrong[2].1 += 1;
        assert!(same_topk("serve", &wrong, &want).is_err());
        let mut short = want.clone();
        short.pop();
        assert!(same_topk("serve", &short, &want).is_err());
    }

    #[test]
    fn corpus_checker_rejects_a_perturbed_answer() {
        let mut cfg = CorpusConfig::paper_default();
        cfg.array = cfg.array.with_stages(8);
        cfg.shard_rows = 8;
        cfg.nprobe = 2;
        let mut builder = CorpusBuilder::new(cfg).unwrap();
        builder.append_rows(&rows()).unwrap();
        let mut engine = builder.build().unwrap();
        let query = rows()[11].clone();
        let (got, probed) = engine.search_topk_probed(&query, 4).unwrap();
        let shadow = Shadow {
            stages: 8,
            codes: rows().concat(),
        };
        let want = shadow.probed_topk(&engine, &probed, &query, 4);
        assert!(same_topk("corpus", &got, &want).is_ok());
        let mut wrong = got.clone();
        wrong[0].0 += 1;
        assert!(same_topk("corpus", &wrong, &want).is_err());
    }

    #[test]
    fn array_checker_rejects_a_perturbed_answer() {
        let enc = Encoding::paper_default();
        let stored = rows();
        let query = stored[3].clone();
        let distances: Vec<Option<usize>> = stored
            .iter()
            .map(|r| Some(enc.hamming(r, &query).unwrap()))
            .collect();
        let good = SearchMetrics {
            best_row: Some(3),
            distances,
            energy: 0.0,
            latency: 0.0,
        };
        assert!(array_answer(enc, &stored, &query, &good).is_ok());
        let mut far = good.clone();
        far.distances[7] = far.distances[7].map(|d| d + 1);
        assert!(array_answer(enc, &stored, &query, &far).is_err());
        let mut winner = good.clone();
        winner.best_row = Some(4);
        assert!(array_answer(enc, &stored, &query, &winner).is_err());
    }

    #[test]
    fn word_hamming_matches_the_encoding() {
        let enc = Encoding::new(4).unwrap();
        let mut rng = crate::gen::Rng::new(3, 4);
        for len in [0, 1, 7, 8, 9, 32, 37] {
            for _ in 0..200 {
                let a: Vec<u8> = (0..len).map(|_| rng.below(16) as u8).collect();
                let mut b = a.clone();
                for v in b.iter_mut() {
                    if rng.below(3) == 0 {
                        *v ^= 1 << rng.below(4);
                    }
                }
                assert_eq!(hamming(&a, &b), enc.hamming(&a, &b).unwrap());
            }
        }
    }

    #[test]
    fn recall_counts_shared_ids() {
        let mut r = Recall::default();
        r.add(&[(0, 1), (1, 2)], &[(0, 1), (1, 3)]);
        assert_eq!((r.hits, r.total), (1, 2));
        assert_eq!(r.value(), 0.5);
    }
}
