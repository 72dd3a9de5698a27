//! Smith–Waterman local alignment.
//!
//! ClustalW's first stage — ~90% of single-processor runtime in the
//! paper's profiling — computes a distance matrix with the
//! Smith–Waterman dynamic program. This is a real implementation (affine
//! gap penalties, 20-letter protein alphabet) so the examples do genuine
//! work; its cell count (`m × n`) is also the iteration cost model for
//! the scheduling study, since "the time and space complexities for MSA
//! are in the order of the product of the lengths of the sequences".

use rand::prelude::*;
use rand::rngs::StdRng;

/// The 20 standard amino acids.
pub const AMINO_ACIDS: &[u8; 20] = b"ACDEFGHIKLMNPQRSTVWY";

/// Scoring parameters for the alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scoring {
    /// Score for an exact residue match.
    pub match_score: i32,
    /// Score for a mismatch.
    pub mismatch: i32,
    /// Cost to open a gap (negative contribution).
    pub gap_open: i32,
    /// Cost to extend a gap.
    pub gap_extend: i32,
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring {
            match_score: 5,
            mismatch: -4,
            gap_open: 10,
            gap_extend: 1,
        }
    }
}

/// Result of one pairwise alignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alignment {
    /// Optimal local alignment score.
    pub score: i32,
    /// DP cells computed (`m × n`), the work measure.
    pub cells: u64,
}

/// Computes the optimal Smith–Waterman local alignment score with affine
/// gaps (Gotoh's formulation), in O(m·n) time and O(n) space.
pub fn smith_waterman(a: &[u8], b: &[u8], scoring: &Scoring) -> Alignment {
    let n = b.len();
    if a.is_empty() || b.is_empty() {
        return Alignment { score: 0, cells: 0 };
    }
    // h: best score ending anywhere; e: gap in a; f: gap in b.
    let mut h_prev = vec![0i32; n + 1];
    let mut e_row = vec![0i32; n + 1];
    let mut best = 0i32;
    for &ca in a {
        let mut h_curr = vec![0i32; n + 1];
        let mut f = 0i32;
        for j in 1..=n {
            let cb = b[j - 1];
            let sub = if ca == cb {
                scoring.match_score
            } else {
                scoring.mismatch
            };
            e_row[j] = (e_row[j] - scoring.gap_extend)
                .max(h_prev[j] - scoring.gap_open - scoring.gap_extend);
            f = (f - scoring.gap_extend).max(h_curr[j - 1] - scoring.gap_open - scoring.gap_extend);
            let h = 0.max(h_prev[j - 1] + sub).max(e_row[j]).max(f);
            h_curr[j] = h;
            if h > best {
                best = h;
            }
        }
        h_prev = h_curr;
    }
    Alignment {
        score: best,
        cells: a.len() as u64 * b.len() as u64,
    }
}

/// Normalised distance in `[0, 1]`: 1 − score / max_possible_score.
pub fn distance(a: &[u8], b: &[u8], scoring: &Scoring) -> f64 {
    let aln = smith_waterman(a, b, scoring);
    let max_possible = a.len().min(b.len()) as f64 * scoring.match_score as f64;
    if max_possible <= 0.0 {
        return 1.0;
    }
    (1.0 - aln.score as f64 / max_possible).clamp(0.0, 1.0)
}

/// Generates `count` synthetic protein sequences with lengths uniform in
/// `[min_len, max_len]`, deterministically from `seed`.
///
/// Length variation is what skews the pairwise work distribution — the
/// mechanism behind the static-schedule load imbalance of Figure 4(a).
pub fn generate_sequences(count: usize, min_len: usize, max_len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let len = rng.random_range(min_len..=max_len.max(min_len));
            (0..len)
                .map(|_| AMINO_ACIDS[rng.random_range(0..AMINO_ACIDS.len())])
                .collect()
        })
        .collect()
}

/// A family of related sequences: a common ancestor plus point
/// mutations, so alignments find real similarity (used by the
/// quickstart example to show meaningful distances).
pub fn generate_family(
    count: usize,
    ancestor_len: usize,
    mutation_rate: f64,
    seed: u64,
) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ancestor: Vec<u8> = (0..ancestor_len)
        .map(|_| AMINO_ACIDS[rng.random_range(0..AMINO_ACIDS.len())])
        .collect();
    (0..count)
        .map(|_| {
            ancestor
                .iter()
                .map(|&c| {
                    if rng.random::<f64>() < mutation_rate {
                        AMINO_ACIDS[rng.random_range(0..AMINO_ACIDS.len())]
                    } else {
                        c
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Vec<u8> {
        text.as_bytes().to_vec()
    }

    #[test]
    fn identical_sequences_score_full_match() {
        let seq = s("ACDEFGHIKL");
        let aln = smith_waterman(&seq, &seq, &Scoring::default());
        assert_eq!(aln.score, 50); // 10 residues × match 5
        assert_eq!(aln.cells, 100);
    }

    #[test]
    fn local_alignment_finds_embedded_motif() {
        let motif = "MNPQRSTVWY";
        let a = s(&format!("AAAA{motif}CCCC"));
        let b = s(motif);
        let aln = smith_waterman(&a, &b, &Scoring::default());
        assert_eq!(aln.score, 50, "motif aligns fully regardless of flanks");
    }

    #[test]
    fn unrelated_sequences_score_low() {
        let a = s("AAAAAAAAAA");
        let b = s("WWWWWWWWWW");
        let aln = smith_waterman(&a, &b, &Scoring::default());
        assert_eq!(aln.score, 0, "local alignment floors at zero");
    }

    #[test]
    fn gap_allows_bridging_insertions() {
        // b equals a with one insertion; affine gap should still align.
        let a = s("ACDEFGHIKL");
        let b = s("ACDEFXGHIKL");
        let gapped = smith_waterman(&a, &b, &Scoring::default());
        // 10 matches − (gap_open + extend) = 50 − 11 = 39.
        assert_eq!(gapped.score, 39);
    }

    #[test]
    fn score_is_symmetric() {
        let a = s("ACDEFGHIKLMNPQ");
        let b = s("ACDFGHIKLMNQ");
        let sc = Scoring::default();
        assert_eq!(
            smith_waterman(&a, &b, &sc).score,
            smith_waterman(&b, &a, &sc).score
        );
    }

    #[test]
    fn empty_inputs() {
        let sc = Scoring::default();
        assert_eq!(smith_waterman(b"", b"ACD", &sc).score, 0);
        assert_eq!(smith_waterman(b"ACD", b"", &sc).cells, 0);
    }

    #[test]
    fn distance_zero_for_identical_one_for_unrelated() {
        let sc = Scoring::default();
        let a = s("ACDEFGHIKL");
        assert_eq!(distance(&a, &a, &sc), 0.0);
        let b = s("WWWWWWWWWW");
        assert_eq!(distance(&a, &b, &sc), 1.0);
        // Related family members land strictly between.
        let family = generate_family(2, 60, 0.1, 7);
        let d = distance(&family[0], &family[1], &sc);
        assert!(d > 0.0 && d < 0.7, "family distance = {d}");
    }

    #[test]
    fn generated_sequences_are_deterministic_and_in_range() {
        let a = generate_sequences(20, 50, 150, 42);
        let b = generate_sequences(20, 50, 150, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for seq in &a {
            assert!(seq.len() >= 50 && seq.len() <= 150);
            assert!(seq.iter().all(|c| AMINO_ACIDS.contains(c)));
        }
        let c = generate_sequences(20, 50, 150, 43);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn family_members_share_ancestry() {
        let family = generate_family(4, 100, 0.05, 1);
        assert_eq!(family.len(), 4);
        for m in &family {
            assert_eq!(m.len(), 100);
        }
        // Low mutation rate ⇒ high pairwise identity.
        let same: usize = family[0]
            .iter()
            .zip(&family[1])
            .filter(|(a, b)| a == b)
            .count();
        assert!(same > 80);
    }
}

/// Computes the full pairwise distance matrix in parallel with Rayon —
/// the *real* computation the paper's MSA stage performs (the simulated
/// runs only model its cost). Returns a flat symmetric `n × n`
/// [`DenseMatrix`](statistics::DenseMatrix) with zero diagonal, so the
/// result feeds the flat statistics kernels (clustering) without a
/// gather.
pub fn distance_matrix(sequences: &[Vec<u8>], scoring: &Scoring) -> statistics::DenseMatrix {
    use rayon::prelude::*;
    let n = sequences.len();
    // Each strict-upper-triangle pair is one independent alignment —
    // exactly the iteration space the OpenMP case study schedules —
    // flattened into a single work list so no per-row Vec is built.
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let upper: Vec<f64> = pairs
        .par_iter()
        .map(|&(i, j)| distance(&sequences[i], &sequences[j], scoring))
        .collect();
    let mut m = statistics::DenseMatrix::zeros(n, n);
    for (&(i, j), &d) in pairs.iter().zip(&upper) {
        m.set(i, j, d);
        m.set(j, i, d);
    }
    m
}

#[cfg(test)]
mod matrix_tests {
    use super::*;

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) symmetry reads better
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let seqs = generate_family(6, 80, 0.15, 3);
        let m = distance_matrix(&seqs, &Scoring::default());
        assert_eq!(m.rows(), 6);
        assert_eq!(m.cols(), 6);
        for i in 0..6 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..6 {
                assert_eq!(m.get(i, j), m.get(j, i));
                assert!((0.0..=1.0).contains(&m.get(i, j)));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let seqs = generate_sequences(8, 30, 60, 11);
        let sc = Scoring::default();
        let par = distance_matrix(&seqs, &sc);
        for i in 0..8 {
            for j in (i + 1)..8 {
                let seq = distance(&seqs[i], &seqs[j], &sc);
                assert_eq!(par.get(i, j), seq, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn related_sequences_are_closer_than_unrelated() {
        let mut seqs = generate_family(3, 100, 0.05, 5);
        seqs.extend(generate_sequences(1, 100, 100, 99));
        let m = distance_matrix(&seqs, &Scoring::default());
        // Family pair distance well below family-to-random distance.
        assert!(m.get(0, 1) < m.get(0, 3));
        assert!(m.get(1, 2) < m.get(2, 3));
    }
}
