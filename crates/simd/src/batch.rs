//! Inter-sequence SIMD batch scoring for short reads: each vector lane
//! carries one *whole* alignment (the classic inter-sequence scheme the
//! paper uses for the NGS use case (ii), with 16-bit in-lane scores).
//!
//! Lanes must share matrix dimensions, so pairs are bucketed by
//! `(|q|, |s|)` — for Illumina-style reads the dominant bucket is
//! `(150, 150)` and lane occupancy is near-perfect. Leftovers and
//! oversized problems fall back to the scalar engine.
//!
//! Input is borrowed: a slice of [`PairRef`]s (`&[u8]` query/subject
//! codes). The only sequence bytes this module copies are the
//! lane-*transposed* row/column buffers the vector kernel needs —
//! `(|q| + |s|) × L` bytes per lane group, reported as
//! [`TraceStats::bytes_copied`] so callers can verify the pipeline
//! above stayed zero-copy.

use crate::isa::Isa;
use crate::kernel::{block_kernel_kind, from16, max_block_extent, BlockBorders, SimdSubst};
use crate::traceback::TraceStats;
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_obs::Stage;
use anyseq_seq::PairRef;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A batch split into full `L`-lane groups of equal-dimension pairs
/// plus the indices that must take the in-backend scalar path
/// (leftovers, empty sequences, pairs past the 16-bit extent budget).
/// Shared by the score and traceback paths so both fill lanes the
/// same way.
pub struct LaneGroups<const L: usize> {
    /// Input indices of each full lane group (equal `(|q|, |s|)`).
    pub groups: Vec<[usize; L]>,
    /// Input indices handled by per-pair scalar kernels.
    pub scalar_idx: Vec<usize>,
}

impl<const L: usize> LaneGroups<L> {
    /// Buckets `pairs` by matrix dimensions and cuts each bucket into
    /// full lane groups; everything else goes scalar.
    pub fn build(pairs: &[PairRef<'_>], extent_budget: usize) -> LaneGroups<L> {
        let mut buckets: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        let mut scalar_idx: Vec<usize> = Vec::new();
        for (k, p) in pairs.iter().enumerate() {
            let (n, m) = (p.q.len(), p.s.len());
            if n == 0 || m == 0 || n + m > extent_budget {
                scalar_idx.push(k);
            } else {
                buckets.entry((n, m)).or_default().push(k);
            }
        }
        let mut groups: Vec<[usize; L]> = Vec::new();
        for idx in buckets.into_values() {
            let full = idx.len() / L * L;
            for chunk in idx[..full].chunks_exact(L) {
                groups.push(std::array::from_fn(|l| chunk[l]));
            }
            scalar_idx.extend_from_slice(&idx[full..]);
        }
        LaneGroups { groups, scalar_idx }
    }
}

/// The lane transpose of one group of equal-dimension pairs: row `r` of
/// the query block holds byte `r` of every lane's query, column `c` of
/// the subject block byte `c` of every lane's subject. It is the only
/// copy of sequence bytes on the batch paths, `(|q| + |s|) × L` bytes.
/// Each lane's slices are read front to back, one lane at a time.
pub(crate) fn transpose_group<const L: usize>(
    pairs: &[PairRef<'_>],
    lanes: &[usize; L],
) -> (Vec<[u8; L]>, Vec<[u8; L]>) {
    let p0 = pairs[lanes[0]];
    let mut q_rows = vec![[0u8; L]; p0.q.len()];
    let mut s_cols = vec![[0u8; L]; p0.s.len()];
    for (l, &k) in lanes.iter().enumerate() {
        let p = pairs[k];
        debug_assert!(p.q.len() == q_rows.len() && p.s.len() == s_cols.len());
        for (row, &b) in q_rows.iter_mut().zip(p.q) {
            row[l] = b;
        }
        for (col, &b) in s_cols.iter_mut().zip(p.s) {
            col[l] = b;
        }
    }
    (q_rows, s_cols)
}

/// Scores a batch of independent pairs with `L`-lane SIMD and
/// `threads`-way parallelism; returns one kind-`K` score per pair, in
/// input order (bit-identical to `scheme.score`).
pub fn score_batch_simd<K, G, SS, const L: usize>(
    scheme: &Scheme<K, G, SS>,
    pairs: &[PairRef<'_>],
    threads: usize,
) -> Vec<Score>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    score_batch_simd_stats::<K, G, SS, L>(scheme, pairs, threads).0
}

/// [`score_batch_simd`] returning the run's execution counters as well
/// (lane/scalar pair split and the transpose-buffer byte count — the
/// only sequence bytes the batch path copies).
pub fn score_batch_simd_stats<K, G, SS, const L: usize>(
    scheme: &Scheme<K, G, SS>,
    pairs: &[PairRef<'_>],
    threads: usize,
) -> (Vec<Score>, TraceStats)
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    score_batch_simd_xdrop::<K, G, SS, L>(scheme, pairs, threads, 0)
}

/// [`score_batch_simd_stats`] with opt-in X-drop early termination.
///
/// `xdrop > 0` enables per-lane retirement for non-corner kinds: a lane
/// whose current-row maximum has dropped more than `xdrop` below its
/// running best stops relaxing and reports the best it has seen (see
/// [`block_kernel_kind`]). Retired-lane counts surface as
/// [`TraceStats::xdrop_retired`]. `xdrop == 0` (and any corner-optimum
/// kind, where the score lives at `(n, m)` and early exit is
/// meaningless) runs the bit-exact path.
pub fn score_batch_simd_xdrop<K, G, SS, const L: usize>(
    scheme: &Scheme<K, G, SS>,
    pairs: &[PairRef<'_>],
    threads: usize,
    xdrop: i32,
) -> (Vec<Score>, TraceStats)
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let gap = *scheme.gap();
    let subst = *scheme.subst();
    let extent_budget = max_block_extent(&gap, &subst);
    let LaneGroups { groups, scalar_idx } = LaneGroups::<L>::build(pairs, extent_budget);
    let isa = Isa::host();
    // X-drop only applies where an optimum can be frozen early; corner
    // kinds always relax the full matrix. Clamp to the i16 block budget.
    let xdrop16 = if matches!(K::OPT, OptRegion::Corner) {
        0i16
    } else {
        xdrop.clamp(0, 12_000) as i16
    };

    let mut scores = vec![0 as Score; pairs.len()];
    struct Out(*mut Score);
    unsafe impl Send for Out {}
    unsafe impl Sync for Out {}
    let out = Out(scores.as_mut_ptr());
    let next_group = AtomicUsize::new(0);
    let next_scalar = AtomicUsize::new(0);
    let bytes_copied = AtomicU64::new(0);
    let lanes_retired = AtomicU64::new(0);
    let threads = threads.max(1);

    {
        let out = &out;
        let groups = &groups;
        let scalar_idx = &scalar_idx;
        let next_group = &next_group;
        let next_scalar = &next_scalar;
        let bytes_copied = &bytes_copied;
        let lanes_retired = &lanes_retired;
        let gap = &gap;
        let subst = &subst;
        let worker = move || {
            let mut local_bytes = 0u64;
            let mut local_retired = 0u64;
            loop {
                let g = next_group.fetch_add(1, Ordering::Relaxed);
                if g >= groups.len() {
                    break;
                }
                let lanes = &groups[g];
                let p0 = pairs[lanes[0]];
                local_bytes += ((p0.q.len() + p0.s.len()) * L) as u64;
                let (results, retired) =
                    score_lane_group::<K, G, SS, L>(isa, gap, subst, pairs, lanes, xdrop16);
                local_retired += retired.count_ones() as u64;
                for (l, &idx) in lanes.iter().enumerate() {
                    // SAFETY: each pair index is written exactly once.
                    unsafe { *out.0.add(idx) = results[l] };
                }
            }
            bytes_copied.fetch_add(local_bytes, Ordering::Relaxed);
            lanes_retired.fetch_add(local_retired, Ordering::Relaxed);
            loop {
                let k = next_scalar.fetch_add(1, Ordering::Relaxed);
                if k >= scalar_idx.len() {
                    break;
                }
                let idx = scalar_idx[k];
                let p = pairs[idx];
                let score = anyseq_obs::span(Stage::Kernel, || scheme.score_codes(p.q, p.s));
                unsafe { *out.0.add(idx) = score };
            }
        };
        if threads == 1 {
            // Inline: no spawn/join for a single-thread budget (the
            // scheduler pools units at 1 thread each), and stage spans
            // land on the caller's recorder instead of anonymous
            // threads.
            worker();
        } else {
            std::thread::scope(|sc| {
                for _ in 0..threads {
                    sc.spawn(worker);
                }
            });
        }
    }
    let stats = TraceStats {
        lane_pairs: (groups.len() * L) as u64,
        scalar_pairs: scalar_idx.len() as u64,
        bytes_copied: bytes_copied.load(Ordering::Relaxed),
        xdrop_retired: lanes_retired.load(Ordering::Relaxed),
        avx2_groups: groups.len() as u64 * u64::from(isa.is_avx2()),
        ..TraceStats::default()
    };
    (scores, stats)
}

/// Scores `L` equal-dimension pairs in one vector block; returns the
/// per-lane scores plus the X-drop retirement mask (0 when disabled).
fn score_lane_group<K, G, SS, const L: usize>(
    isa: Isa,
    gap: &G,
    subst: &SS,
    pairs: &[PairRef<'_>],
    lanes: &[usize; L],
    xdrop: i16,
) -> ([Score; L], u32)
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let (q_rows, s_cols) = anyseq_obs::span(Stage::Transpose, || transpose_group(pairs, lanes));
    let mut block = BlockBorders::<L>::init::<K, G>(gap, q_rows.len(), s_cols.len());
    let opt = anyseq_obs::span(Stage::Kernel, || {
        let (q, s, b) = (&q_rows[..], &s_cols[..], &mut block);
        if xdrop > 0 {
            block_kernel_kind::<K, G, SS, true, L>(isa, gap, subst, q, s, b, xdrop)
        } else {
            block_kernel_kind::<K, G, SS, false, L>(isa, gap, subst, q, s, b, 0)
        }
    });

    (
        std::array::from_fn(|l| from16(opt.best.0[l], 0)),
        opt.retired,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::prelude::{affine, global, linear, local, semiglobal, simple};
    use anyseq_seq::testsupport::read_pairs;
    use anyseq_seq::{BatchView, Seq};

    #[test]
    fn batch_simd_matches_scalar_linear() {
        let pairs = read_pairs(300, 3);
        let view = BatchView::from_pairs(&pairs);
        let scheme = global(linear(simple(2, -1), -1));
        let (simd, stats) = score_batch_simd_stats::<_, _, _, 16>(&scheme, view.refs(), 8);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(simd[k], scheme.score(q, s), "pair {k}");
        }
        assert_eq!(stats.lane_pairs + stats.scalar_pairs, pairs.len() as u64);
        assert!(
            stats.bytes_copied > 0,
            "the transpose is the one copy and must be accounted"
        );
    }

    #[test]
    fn batch_simd_matches_scalar_affine() {
        let pairs = read_pairs(300, 5);
        let view = BatchView::from_pairs(&pairs);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let simd = score_batch_simd::<_, _, _, 8>(&scheme, view.refs(), 4);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(simd[k], scheme.score(q, s), "pair {k}");
        }
    }

    #[test]
    fn batch_simd_handles_empty_and_tiny() {
        let scheme = global(linear(simple(2, -1), -1));
        assert!(score_batch_simd::<_, _, _, 8>(&scheme, &[], 4).is_empty());
        let a = Seq::from_ascii(b"ACGT").unwrap();
        let empty = Seq::new();
        let pairs = vec![(a.clone(), a.clone()), (a.clone(), empty)];
        let view = BatchView::from_pairs(&pairs);
        let out = score_batch_simd::<_, _, _, 8>(&scheme, view.refs(), 2);
        assert_eq!(out[0], 8);
        assert_eq!(out[1], -4);
    }

    #[test]
    fn batch_simd_matches_scalar_semiglobal_and_local() {
        let pairs = read_pairs(200, 11);
        let view = BatchView::from_pairs(&pairs);
        let semi = semiglobal(affine(simple(2, -3), -3, -1));
        let (out, stats) = score_batch_simd_stats::<_, _, _, 16>(&semi, view.refs(), 4);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(out[k], semi.score(q, s), "semi pair {k}");
        }
        assert!(stats.lane_pairs > 0, "lanes must fill for uniform reads");
        assert_eq!(stats.xdrop_retired, 0, "x-drop is off by default");
        let loc = local(linear(simple(2, -3), -2));
        let out = score_batch_simd::<_, _, _, 8>(&loc, view.refs(), 4);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(out[k], loc.score(q, s), "local pair {k}");
        }
    }

    #[test]
    fn xdrop_huge_threshold_exact_tiny_threshold_retires() {
        // 32 identical prefix-then-divergence pairs fill two 16-lane
        // groups exactly.
        let q = Seq::from_ascii(&[b"A".repeat(10), b"C".repeat(60)].concat()).unwrap();
        let s = Seq::from_ascii(&[b"A".repeat(10), b"G".repeat(60)].concat()).unwrap();
        let pairs: Vec<(Seq, Seq)> = (0..32).map(|_| (q.clone(), s.clone())).collect();
        let view = BatchView::from_pairs(&pairs);
        let semi = semiglobal(linear(simple(2, -3), -2));
        let exact = score_batch_simd::<_, _, _, 16>(&semi, view.refs(), 2);
        let (huge, st_huge) = score_batch_simd_xdrop::<_, _, _, 16>(&semi, view.refs(), 2, 30_000);
        assert_eq!(huge, exact, "huge X must not change results");
        assert_eq!(st_huge.xdrop_retired, 0);
        let (_tiny, st_tiny) = score_batch_simd_xdrop::<_, _, _, 16>(&semi, view.refs(), 2, 20);
        assert_eq!(st_tiny.xdrop_retired, 32, "every lane diverges hard");
        // Corner kinds ignore the knob entirely.
        let glob = global(linear(simple(2, -3), -2));
        let (g_scores, g_stats) = score_batch_simd_xdrop::<_, _, _, 16>(&semi, view.refs(), 2, 0);
        assert_eq!(g_scores, exact);
        assert_eq!(g_stats.xdrop_retired, 0);
        let (gx, gs) = score_batch_simd_xdrop::<_, _, _, 16>(&glob, view.refs(), 2, 5);
        assert_eq!(gs.xdrop_retired, 0, "corner kinds never retire");
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(gx[k], glob.score(q, s), "global pair {k}");
        }
    }

    #[test]
    fn batch_simd_mixed_lengths_bucketed() {
        // Mix several distinct dimension buckets to exercise grouping.
        let mut pairs = read_pairs(100, 7);
        let mut extra = read_pairs(50, 8);
        for (q, _) in extra.iter_mut() {
            *q = q.subseq(0..q.len().min(100));
        }
        pairs.extend(extra);
        let view = BatchView::from_pairs(&pairs);
        let scheme = global(linear(simple(2, -1), -1));
        let simd = score_batch_simd::<_, _, _, 16>(&scheme, view.refs(), 6);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(simd[k], scheme.score(q, s), "pair {k}");
        }
    }
}
