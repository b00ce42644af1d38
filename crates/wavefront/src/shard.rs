//! Cross-shard border stitching — the paper's Fig. 2 border stripes
//! promoted from an intra-pass detail to a first-class contract between
//! *subject shards* of one alignment pair.
//!
//! A shard is a contiguous slab of subject columns. The only state one
//! slab needs from its left neighbour is the DP frontier at the cut
//! column — `H(1..=n, col)` plus `F(1..=n, col)` for affine models (`E`
//! propagates *down* rows, never *right* across a column cut, so it
//! never crosses a vertical seam). That frontier is a [`ShardSeam`]:
//! small (`O(n)`), serializable, and sufficient to restart the pass on
//! the other side of the cut — which bounds the resident border +
//! grid working set of a chromosome-scale pair to one slab, and is the
//! hand-off a multi-process deployment would ship over the wire.

use crate::borders::{BorderStore, HStripe, VStripe};
use crate::grid::{TileGrid, TileId};
use crate::pass::{finalize, ParallelCfg};
use crate::scheduler::{run_dynamic, run_static};
use anyseq_core::kind::AlignKind;
use anyseq_core::pass::PassOutput;
use anyseq_core::relax::BestCell;
use anyseq_core::score::Score;
use anyseq_core::scoring::{GapModel, SubstScore};
use anyseq_core::tile::{relax_tile, NoSink, TileIn, TileOut};
use std::ops::Range;

/// The complete DP frontier at one absolute subject column: everything
/// a pass over the columns to its right needs from the columns to its
/// left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSeam {
    /// Absolute subject column the frontier sits on (1-based; column
    /// `col` is the last column the producing shard relaxed).
    pub col: usize,
    /// `H(1..=n, col)` — one value per query row.
    pub h: Vec<Score>,
    /// `F(1..=n, col)` — one value per query row; empty for linear gap
    /// models (the linear kernel derives vertical moves from `H`).
    pub f: Vec<Score>,
}

impl ShardSeam {
    /// Resident payload bytes of the frontier.
    pub fn bytes(&self) -> usize {
        (self.h.len() + self.f.len()) * std::mem::size_of::<Score>()
    }

    /// Serializes the seam (little-endian `col`/`h.len`/`f.len` header
    /// followed by the raw score payloads) — the wire format a
    /// multi-process shard chain would exchange.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.bytes());
        out.extend_from_slice(&(self.col as u64).to_le_bytes());
        out.extend_from_slice(&(self.h.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.f.len() as u64).to_le_bytes());
        for v in &self.h {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.f {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes a seam produced by [`ShardSeam::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardSeam, String> {
        let word = |at: usize| -> Result<u64, String> {
            bytes
                .get(at..at + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(|| "seam header truncated".to_string())
        };
        let col = word(0)? as usize;
        let hn = word(8)? as usize;
        let fn_ = word(16)? as usize;
        let need = 24 + (hn + fn_) * std::mem::size_of::<Score>();
        if bytes.len() != need {
            return Err(format!(
                "seam payload length mismatch: have {}, need {need}",
                bytes.len()
            ));
        }
        let score_at = |at: usize| Score::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let h = (0..hn).map(|k| score_at(24 + 4 * k)).collect();
        let f = (0..fn_).map(|k| score_at(24 + 4 * (hn + k))).collect();
        Ok(ShardSeam { col, h, f })
    }
}

/// Cuts an `n × m` DP matrix into contiguous subject-column slabs of at
/// most `shard_cells` cells each (at least one column per slab). Returns
/// half-open `(c0, c1]`-style column ranges `(c0, c1)` with `c0` the
/// number of columns already consumed — slab `k` relaxes absolute
/// columns `c0+1..=c1`.
pub fn plan_columns(n: usize, m: usize, shard_cells: u64) -> Vec<(usize, usize)> {
    if n == 0 || m == 0 {
        return vec![(0, m)];
    }
    let width = ((shard_cells / n as u64).max(1) as usize).min(m);
    let mut plan = Vec::with_capacity(m.div_ceil(width));
    let mut c0 = 0;
    while c0 < m {
        let c1 = (c0 + width).min(m);
        plan.push((c0, c1));
        c0 = c1;
    }
    plan
}

/// Tiles one pass relaxed, by kernel — the "which specialized variant
/// ran" half of the wavefront telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCounts {
    /// Tiles relaxed `L` at a time in 16-bit vector lanes.
    pub simd: u64,
    /// Tiles relaxed one at a time by the scalar i32 tile kernel.
    pub scalar: u64,
}

impl std::ops::AddAssign for TileCounts {
    fn add_assign(&mut self, other: TileCounts) {
        self.simd += other.simd;
        self.scalar += other.scalar;
    }
}

/// Result of one slab pass: the outgoing frontier plus the slab's share
/// of the final DP row and the slab-local optimum.
#[derive(Debug, Clone)]
pub struct SlabOutput {
    /// Frontier at the slab's last column — input for the next slab.
    pub seam: ShardSeam,
    /// `H(n, c0..=c1)` — width + 1 values including the left corner
    /// (concatenate, dropping the corner on every slab but the first,
    /// to rebuild the full last row).
    pub last_h: Vec<Score>,
    /// `E(n, c0+1..=c1)` — width values; empty for linear models.
    pub last_e: Vec<Score>,
    /// Best cell seen inside the slab (absolute coordinates).
    pub best: BestCell,
    /// Tiles the slab relaxed, by kernel.
    pub tiles: TileCounts,
}

/// Per-worker scratch of the scalar tile kernel: reusable stripe and
/// output buffers plus the worker's running optimum and tile count.
/// Lane kernels embed one for their scalar fallback and expose it
/// through `AsRef`, which is how [`slab_pass`] merges every worker's
/// optimum and counts.
#[derive(Debug, Default)]
pub struct TileScratch {
    out: TileOut,
    top: HStripe,
    left: VStripe,
    best: BestCell,
    /// Tiles this worker relaxed.
    pub tiles: TileCounts,
}

impl AsRef<TileScratch> for TileScratch {
    fn as_ref(&self) -> &TileScratch {
        self
    }
}

/// One slab pass in flight: its tile grid and live border stripes,
/// handed to the per-batch compute callback of [`slab_pass`].
pub struct Slab {
    /// Tiling of the slab's `n × width` sub-matrix.
    pub grid: TileGrid,
    borders: BorderStore,
    /// Subject columns left of the slab: slab-local column `j` is
    /// absolute column `c0 + j`.
    c0: usize,
    /// Subject length of the whole pair.
    m: usize,
}

impl Slab {
    /// Swaps tile `t`'s border slots with `h` (its column slot) and `v`
    /// (its row slot): before relaxing, this takes the tile's input
    /// stripes; after, it publishes the outputs (bottom stripe in `h`,
    /// right stripe in `v`). Buffers trade places, nothing is copied.
    pub fn exchange(&self, t: TileId, h: &mut HStripe, v: &mut VStripe) {
        {
            let mut slot = self.borders.col[t.tj as usize].lock();
            std::mem::swap(&mut h.h, &mut slot.h);
            std::mem::swap(&mut h.e, &mut slot.e);
        }
        let mut slot = self.borders.row[t.ti as usize].lock();
        std::mem::swap(&mut v.h, &mut slot.h);
        std::mem::swap(&mut v.f, &mut slot.f);
    }

    /// Query code positions (0-based) of tile `t`'s rows.
    #[inline]
    pub fn q_span(&self, t: TileId) -> Range<usize> {
        let (i0, h) = self.grid.rows(t.ti);
        i0 - 1..i0 - 1 + h
    }

    /// Subject code positions (0-based, absolute in the pair) of tile
    /// `t`'s columns.
    #[inline]
    pub fn s_span(&self, t: TileId) -> Range<usize> {
        let (j0, w) = self.grid.cols(t.tj);
        self.c0 + j0 - 1..self.c0 + j0 - 1 + w
    }

    /// Relaxes tile `t` with the scalar tile kernel: takes its stripes,
    /// relaxes, merges the tile optimum into `scr` and publishes.
    pub fn relax_scalar<K, G, S>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        t: TileId,
        scr: &mut TileScratch,
    ) where
        K: AlignKind,
        G: GapModel,
        S: SubstScore,
    {
        self.exchange(t, &mut scr.top, &mut scr.left);
        let (qs, ss) = (self.q_span(t), self.s_span(t));
        // Absolute coordinates: the kind's border-optimum detection
        // needs the pair's true dimensions.
        relax_tile::<K, G, S, _>(
            gap,
            subst,
            &q[qs.clone()],
            &s[ss.clone()],
            (qs.start + 1, ss.start + 1),
            (q.len(), self.m),
            TileIn {
                top_h: &scr.top.h,
                top_e: &scr.top.e,
                left_h: &scr.left.h,
                left_f: &scr.left.f,
            },
            &mut scr.out,
            &mut NoSink,
        );
        scr.best.merge(&scr.out.best);
        scr.tiles.scalar += 1;
        std::mem::swap(&mut scr.top.h, &mut scr.out.bot_h);
        std::mem::swap(&mut scr.top.e, &mut scr.out.bot_e);
        std::mem::swap(&mut scr.left.h, &mut scr.out.right_h);
        std::mem::swap(&mut scr.left.f, &mut scr.out.right_f);
        self.exchange(t, &mut scr.top, &mut scr.left);
    }
}

/// The one tiled pass: relaxes subject slab `cols = (c0, c1)` of an
/// `n × m` pair (`dims`) on square tiles of edge `tile`, seeded from
/// `seam` (the frontier at column `c0`) or from the kind's standard
/// initialization when `seam` is `None`. Only the slab's own
/// `O(n + width)` border stripes are resident.
///
/// The kernel is the caller's: `compute` receives up to `batch` ready
/// tiles at a time (1 for scalar tiles; the lane count for a vector
/// kernel, which falls back to [`Slab::relax_scalar`] for short
/// batches) and must relax every one of them. Border set-up, the
/// wavefront schedule (`cfg.threads`; `cfg.static_schedule` when
/// `batch == 1`), last-row assembly, seam export and the merge of the
/// workers' optima and tile counts happen here, once for every kernel.
#[allow(clippy::too_many_arguments)]
pub fn slab_pass<K, G, W>(
    gap: &G,
    dims: (usize, usize),
    cols: (usize, usize),
    tb: Score,
    seam: Option<&ShardSeam>,
    cfg: &ParallelCfg,
    (tile, batch): (usize, usize),
    make_scratch: impl Fn() -> W + Sync,
    compute: impl Fn(&mut W, &Slab, &[TileId]) + Sync,
) -> SlabOutput
where
    K: AlignKind,
    G: GapModel,
    W: AsRef<TileScratch> + Send,
{
    let (n, m) = dims;
    let (c0, c1) = cols;
    assert!(n > 0 && c0 < c1 && c1 <= m, "degenerate slab {cols:?}");
    if let Some(seam) = seam {
        assert_eq!(seam.col, c0, "seam column does not meet the slab");
        assert_eq!(seam.h.len(), n, "seam height does not match the query");
    }

    let grid = TileGrid::new(n, c1 - c0, tile);
    let slab = Slab {
        grid,
        borders: BorderStore::init_slab::<K, G>(&grid, gap, tb, c0, seam),
        c0,
        m,
    };
    let work = |scr: &mut W, tiles: &[TileId]| compute(scr, &slab, tiles);
    let threads = cfg.threads.max(1);
    let scratches = if cfg.static_schedule && batch == 1 {
        run_static(&grid, threads, make_scratch, work)
    } else {
        run_dynamic(&grid, threads, batch, make_scratch, work)
    };

    let (last_h, last_e) = slab.borders.assemble_last_rows(&grid);
    let mut best = BestCell::empty();
    let mut tiles = TileCounts::default();
    for scr in &scratches {
        best.merge(&scr.as_ref().best);
        tiles += scr.as_ref().tiles;
    }
    SlabOutput {
        seam: slab.borders.export_seam(&grid, c1),
        last_h,
        last_e,
        best,
        tiles,
    }
}

/// [`slab_pass`] on scalar tiles of edge `cfg.tile`. Bit-identical to
/// the same columns of an unsharded pass.
#[allow(clippy::too_many_arguments)]
pub fn slab_score_pass<K, G, S>(
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    cols: (usize, usize),
    tb: Score,
    seam: Option<&ShardSeam>,
    cfg: &ParallelCfg,
) -> SlabOutput
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    slab_pass::<K, G, _>(
        gap,
        (q.len(), s.len()),
        cols,
        tb,
        seam,
        cfg,
        (cfg.tile, 1),
        TileScratch::default,
        |scr: &mut TileScratch, slab, tiles| {
            for &t in tiles {
                slab.relax_scalar::<K, G, S>(gap, subst, q, s, t, scr);
            }
        },
    )
}

/// Runs a whole `n × m` pass (`dims`) as the chain of `slab` calls
/// `cfg`'s shard plan asks for — a single slab `(0, m)` when the pair
/// is not sharded — handing each slab's seam to the next, and
/// finalizes the kind's optimum. Same contract (and bit-identical
/// output) as [`anyseq_core::pass::score_pass`]; peak resident border
/// + grid memory is bounded by one slab.
pub fn chained_pass<K, G>(
    gap: &G,
    dims: (usize, usize),
    tb: Score,
    cfg: &ParallelCfg,
    mut slab: impl FnMut((usize, usize), Option<&ShardSeam>) -> SlabOutput,
) -> PassOutput
where
    K: AlignKind,
    G: GapModel,
{
    let (n, m) = dims;
    let plan = if cfg.shards(dims) {
        plan_columns(n, m, cfg.shard_cells)
    } else {
        vec![(0, m)]
    };
    let mut last_h = Vec::with_capacity(m + 1);
    let mut last_e = Vec::with_capacity(m);
    let mut best = BestCell::empty();
    let mut seam: Option<ShardSeam> = None;
    for (k, &cols) in plan.iter().enumerate() {
        let out = slab(cols, seam.as_ref());
        let corner = usize::from(k > 0);
        last_h.extend_from_slice(&out.last_h[corner..]);
        last_e.extend_from_slice(&out.last_e);
        best.merge(&out.best);
        seam = Some(out.seam);
    }
    finalize::<K, G>(gap, best, n, m, tb, &last_h, last_e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::tiled_score_pass;
    use anyseq_core::kind::{Global, Local, SemiGlobal};
    use anyseq_core::pass::score_pass;
    use anyseq_core::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::genome::GenomeSim;

    #[test]
    fn seam_round_trips_stripe_exactly() {
        let seam = ShardSeam {
            col: 1234,
            h: vec![0, -3, 7, Score::MIN / 4, 42],
            f: vec![-9, -8, -7, -6, -5],
        };
        let back = ShardSeam::from_bytes(&seam.to_bytes()).unwrap();
        assert_eq!(back, seam);
        // Linear seams carry no F stripe.
        let lin = ShardSeam {
            col: 1,
            h: vec![5, -5],
            f: Vec::new(),
        };
        assert_eq!(ShardSeam::from_bytes(&lin.to_bytes()).unwrap(), lin);
        assert!(ShardSeam::from_bytes(&lin.to_bytes()[..9]).is_err());
        assert!(ShardSeam::from_bytes(&[0u8; 25]).is_err());
    }

    #[test]
    fn plan_covers_all_columns_without_overlap() {
        for (n, m, cells) in [(100, 1000, 20_000u64), (7, 13, 1), (5, 5, 1_000_000)] {
            let plan = plan_columns(n, m, cells);
            let mut next = 0;
            for &(c0, c1) in &plan {
                assert_eq!(c0, next);
                assert!(c1 > c0);
                next = c1;
            }
            assert_eq!(next, m);
        }
        assert_eq!(plan_columns(100, 1000, 20_000).len(), 5);
        assert_eq!(plan_columns(5, 5, 1_000_000).len(), 1);
    }

    #[test]
    fn sharded_pass_matches_unsharded_all_kinds() {
        let mut sim = GenomeSim::new(11);
        let q = sim.generate(1100);
        let s = sim.mutate(&q, 0.08);
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let mut cfg = ParallelCfg::threads(4).with_tile(96);
        // Force ~6 slabs of the subject.
        cfg.shard_cells = (q.len() as u64) * (s.len() as u64) / 6;
        macro_rules! check {
            ($kind:ty) => {{
                let scalar =
                    score_pass::<$kind, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
                let sharded = tiled_score_pass::<$kind, _, _>(
                    &gap,
                    &subst,
                    q.codes(),
                    s.codes(),
                    gap.open(),
                    &cfg,
                );
                assert_eq!(sharded.score, scalar.score);
                assert_eq!(sharded.end, scalar.end);
                assert_eq!(sharded.last_h, scalar.last_h);
                assert_eq!(sharded.last_e, scalar.last_e);
            }};
        }
        check!(Global);
        check!(Local);
        check!(SemiGlobal);
    }

    #[test]
    fn sharded_pass_matches_linear_and_single_thread() {
        let mut sim = GenomeSim::new(12);
        let q = sim.generate(700);
        let s = sim.generate(900);
        let gap = LinearGap { gap: -2 };
        let subst = simple(1, -1);
        let mut cfg = ParallelCfg::threads(1).with_tile(64);
        cfg.shard_cells = 64 * 700;
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        let sharded =
            tiled_score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open(), &cfg);
        assert_eq!(sharded.score, scalar.score);
        assert_eq!(sharded.last_h, scalar.last_h);
    }

    #[test]
    fn slab_seam_matches_unsharded_interior_column() {
        // The exported frontier must equal the H column of a full pass.
        let mut sim = GenomeSim::new(13);
        let q = sim.generate(300);
        let s = sim.mutate(&q, 0.05);
        let gap = AffineGap {
            open: -3,
            extend: -1,
        };
        let subst = simple(2, -2);
        let cfg = ParallelCfg::threads(2).with_tile(64);
        let cut = 150;
        let slab = slab_score_pass::<Global, _, _>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            (0, cut),
            gap.open(),
            None,
            &cfg,
        );
        assert_eq!(slab.seam.col, cut);
        assert_eq!(slab.seam.h.len(), q.len());
        assert_eq!(slab.seam.f.len(), q.len());
        // A prefix-only full pass ends exactly at the cut: its last row
        // corner H(n, cut) must agree with the seam's last entry.
        let prefix =
            score_pass::<Global, _, _>(&gap, &subst, q.codes(), &s.codes()[..cut], gap.open());
        assert_eq!(slab.seam.h[q.len() - 1], prefix.last_h[cut]);
    }
}
