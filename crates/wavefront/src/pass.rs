//! Multithreaded tiled score passes — the paper's CPU parallelization
//! (§IV-A) of the linear-space score computation, built from the core
//! tile kernel plus the dynamic wavefront scheduler.

use crate::shard::{chained_pass, slab_score_pass};
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::pass::{score_pass, PassOutput};
use anyseq_core::relax::BestCell;
use anyseq_core::score::Score;
use anyseq_core::scoring::{GapModel, SubstScore};

/// Smallest matrix (in cells) a lane-tiled pass tiles by default; see
/// [`ParallelCfg::runs_untiled`]. Most Hirschberg half-passes are far
/// below the scalar threshold: on the genome_pair benchmark input, lane
/// alignments ran at 1.5, 1.4, 1.0 and 0.6 GCUPS with this floor at
/// 2^16, 2^18, 2^20 and 2^22 cells.
pub const LANE_MIN_AREA: usize = 1 << 16;

/// Parallel execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelCfg {
    /// Worker threads.
    pub threads: usize,
    /// Square edge of the scalar tiles. Lane-tiled global passes
    /// (`anyseq_simd::SimdPass`) use their own fixed lane tile instead.
    pub tile: usize,
    /// Matrices smaller than this many cells run untiled and
    /// single-threaded (the scheduling overhead would dominate); see
    /// [`ParallelCfg::runs_untiled`] for the lower lane-tile floor.
    pub min_parallel_area: usize,
    /// Use the static barrier-per-diagonal schedule instead of the
    /// dynamic queue (Fig. 6 comparison; dynamic is the default).
    pub static_schedule: bool,
    /// Shard budget in DP cells: pairs larger than this run as a serial
    /// chain of subject slabs with seam hand-off
    /// ([`crate::chained_pass`]), bounding peak resident border + grid
    /// memory to one slab. 0 (the default) disables sharding.
    pub shard_cells: u64,
}

impl ParallelCfg {
    /// Dynamic wavefront with the given thread count and 512-wide tiles.
    pub fn threads(threads: usize) -> ParallelCfg {
        ParallelCfg {
            threads: threads.max(1),
            tile: 512,
            min_parallel_area: 1 << 22,
            static_schedule: false,
            shard_cells: 0,
        }
    }

    /// Uses all available cores.
    pub fn auto() -> ParallelCfg {
        ParallelCfg::threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Overrides the tile size.
    pub fn with_tile(mut self, tile: usize) -> ParallelCfg {
        assert!(tile > 0);
        self.tile = tile;
        self
    }

    /// Switches to the static barrier schedule.
    pub fn with_static_schedule(mut self, yes: bool) -> ParallelCfg {
        self.static_schedule = yes;
        self
    }

    /// Sets the shard budget (0 disables sharding).
    pub fn with_shard_cells(mut self, cells: u64) -> ParallelCfg {
        self.shard_cells = cells;
        self
    }

    /// Whether a pass over an `n × m` matrix runs as a chain of subject
    /// slabs. Sharding applies regardless of thread count — the memory
    /// bound matters even single-threaded — and, because every
    /// Hirschberg half-pass runs through a tiled pass, alignments
    /// shard too.
    pub fn shards(&self, (n, m): (usize, usize)) -> bool {
        self.shard_cells > 0 && n > 0 && m > 1 && (n as u64) * (m as u64) > self.shard_cells
    }

    /// Whether an unsharded pass over an `n × m` matrix skips tiling
    /// for the plain scalar [`score_pass`]. Scalar tiles
    /// (`vectorized == false`) skip it below `min_parallel_area` cells
    /// (scheduling overhead would dominate) and on one thread (tiling
    /// buys nothing). Lane tiles are the unit of vectorization, so they
    /// pay off on one thread and from [`LANE_MIN_AREA`] cells (or
    /// `min_parallel_area`, if lower).
    pub fn runs_untiled(&self, (n, m): (usize, usize), vectorized: bool) -> bool {
        let min_area = if vectorized {
            self.min_parallel_area.min(LANE_MIN_AREA)
        } else {
            self.min_parallel_area
        };
        !self.shards((n, m))
            && (n == 0 || m == 0 || n * m < min_area || (self.threads == 1 && !vectorized))
    }
}

/// Parallel tiled score-only pass of kind `K` on scalar tiles (same
/// contract as [`anyseq_core::pass::score_pass`], including the
/// Hirschberg `tb` boundary adjustment): one [`slab_score_pass`] over
/// the whole subject, or the chain of slabs `cfg.shard_cells` asks for.
pub fn tiled_score_pass<K, G, S>(
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    tb: Score,
    cfg: &ParallelCfg,
) -> PassOutput
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    let dims = (q.len(), s.len());
    if cfg.runs_untiled(dims, false) {
        return score_pass::<K, G, S>(gap, subst, q, s, tb);
    }
    chained_pass::<K, G>(gap, dims, tb, cfg, |cols, seam| {
        slab_score_pass::<K, G, S>(gap, subst, q, s, cols, tb, seam, cfg)
    })
}

/// Applies the kind's optimum conventions to a tracked best cell and the
/// final row — shared by every tiled backend so results are bit-identical
/// with `anyseq_core::pass::score_pass`.
pub fn finalize<K: AlignKind, G: GapModel>(
    gap: &G,
    best: BestCell,
    n: usize,
    m: usize,
    tb: Score,
    last_h: &[Score],
    last_e: Vec<Score>,
) -> PassOutput {
    let (score, end) = finalize_score::<K, G>(gap, best, n, m, tb, last_h[m]);
    PassOutput {
        score,
        end,
        last_h: last_h.to_vec(),
        last_e,
    }
}

/// Score-only tail of [`finalize`]: applies the kind's optimum
/// conventions given just the tracked best cell and the final corner
/// value `h_nm = H(n, m)` — all a sharded score chain retains after
/// dropping the last rows.
pub fn finalize_score<K: AlignKind, G: GapModel>(
    gap: &G,
    mut best: BestCell,
    n: usize,
    m: usize,
    tb: Score,
    h_nm: Score,
) -> (Score, (usize, usize)) {
    match K::OPT {
        OptRegion::Corner => (h_nm, (n, m)),
        OptRegion::Border | OptRegion::Anywhere => {
            if matches!(K::OPT, OptRegion::Anywhere) && !K::NU_ZERO {
                best.update(0, 0, 0);
            }
            if matches!(K::OPT, OptRegion::Border) {
                let h_0m = K::h_init(gap, m);
                let h_n0 = if K::FREE_BEGIN {
                    0
                } else {
                    tb + (n as Score) * gap.extend()
                };
                best.update(h_0m, 0, m);
                best.update(h_n0, n, 0);
            }
            if K::NU_ZERO && best.score <= 0 {
                (0, (0, 0))
            } else {
                (best.score, (best.i, best.j))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{Global, Local, SemiGlobal};
    use anyseq_core::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::genome::GenomeSim;

    fn test_cfg(threads: usize, tile: usize) -> ParallelCfg {
        ParallelCfg {
            threads,
            tile,
            min_parallel_area: 0,
            static_schedule: false,
            shard_cells: 0,
        }
    }

    #[test]
    fn matches_scalar_pass_linear_global() {
        let mut sim = GenomeSim::new(1);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.05);
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        for (threads, tile) in [(1, 128), (4, 128), (8, 64), (23, 256)] {
            let par = tiled_score_pass::<Global, _, _>(
                &gap,
                &subst,
                q.codes(),
                s.codes(),
                gap.open(),
                &test_cfg(threads, tile),
            );
            assert_eq!(par.score, scalar.score, "threads={threads} tile={tile}");
            assert_eq!(par.last_h, scalar.last_h);
        }
    }

    #[test]
    fn matches_scalar_pass_affine_all_kinds() {
        let mut sim = GenomeSim::new(7);
        let q = sim.generate(1500);
        let s = sim.mutate(&q, 0.10);
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let cfg = test_cfg(6, 100);
        macro_rules! check {
            ($kind:ty) => {{
                let scalar =
                    score_pass::<$kind, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
                let par = tiled_score_pass::<$kind, _, _>(
                    &gap,
                    &subst,
                    q.codes(),
                    s.codes(),
                    gap.open(),
                    &cfg,
                );
                assert_eq!(
                    par.score,
                    scalar.score,
                    "{} score",
                    <$kind as AlignKind>::NAME
                );
                assert_eq!(par.end, scalar.end, "{} end", <$kind as AlignKind>::NAME);
                assert_eq!(par.last_h, scalar.last_h);
                assert_eq!(par.last_e, scalar.last_e);
            }};
        }
        check!(Global);
        check!(Local);
        check!(SemiGlobal);
    }

    #[test]
    fn static_schedule_same_result() {
        let mut sim = GenomeSim::new(3);
        let q = sim.generate(2000);
        let s = sim.mutate(&q, 0.08);
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        let mut cfg = test_cfg(5, 128);
        cfg.static_schedule = true;
        let par =
            tiled_score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open(), &cfg);
        assert_eq!(par.score, scalar.score);
    }

    #[test]
    fn small_inputs_fall_back_to_scalar() {
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let q = [0u8, 1, 2, 3];
        let cfg = ParallelCfg::threads(8); // min_parallel_area big
        let out = tiled_score_pass::<Global, _, _>(&gap, &subst, &q, &q, gap.open(), &cfg);
        assert_eq!(out.score, 8);
    }

    #[test]
    fn hirschberg_tb_respected_in_parallel() {
        // tb != open must flow into the left column init.
        let mut sim = GenomeSim::new(9);
        let q = sim.generate(900);
        let s = sim.generate(700);
        let gap = AffineGap {
            open: -5,
            extend: -1,
        };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), 0);
        let par = tiled_score_pass::<Global, _, _>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            0,
            &test_cfg(4, 64),
        );
        assert_eq!(par.score, scalar.score);
        assert_eq!(par.last_h, scalar.last_h);
        assert_eq!(par.last_e, scalar.last_e);
    }
}
