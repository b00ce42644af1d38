//! SIMD-accelerated tiled wavefront pass: vector lanes are filled with
//! `L` independent ready tiles popped from the dynamic work queue
//! (paper §IV-A + Fig. 3: "A thread only computes a vectorized block, if
//! l work items are enqueued ... In these cases threads will compute
//! single submatrices using the scalar method").
//!
//! One departure from the paper: a batch of fewer than `l` ready
//! full-size tiles (but at least [`MIN_LANES`]) still runs as one
//! vector block, its spare lanes recomputing a real lane's tile — the
//! vector op costs the same, and it beats relaxing the tiles one by one.
//!
//! This module supplies only the lane compute; the slab plumbing —
//! border stripes, schedule, seams, shard chain — is the wavefront
//! crate's one [`slab_pass`] / [`chained_pass`].

use crate::isa::Isa;
use crate::kernel::{block_kernel_kind, from16, max_block_extent, to16, BlockBorders, SimdSubst};
use crate::lanes::I16s;
use anyseq_core::hirschberg::HalfPass;
use anyseq_core::kind::{AlignKind, Global, OptRegion};
use anyseq_core::pass::{score_pass, PassOutput};
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_wavefront::borders::{HStripe, VStripe};
use anyseq_wavefront::grid::TileId;
use anyseq_wavefront::pass::ParallelCfg;
use anyseq_wavefront::shard::{
    chained_pass, slab_pass, slab_score_pass, ShardSeam, Slab, SlabOutput, TileCounts, TileScratch,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Edge of the square tiles global passes relax in vector lanes.
///
/// Chosen by measurement: a global affine (2, −1, −2, −1) score pass
/// and Hirschberg alignment of the genome_pair benchmark input (9.7 ×
/// 10.2 kbp, 4 subject slabs, 16 lanes, baseline x86-64 build, 2
/// threads on a shared 2-vCPU host, three alternating runs per size)
/// ran at
///
/// | tile | score GCUPS | align GCUPS |
/// |------|-------------|-------------|
/// | 16   | 0.8–0.9     | 0.8–1.0     |
/// | 24   | 1.4–1.8     | 1.2–1.4     |
/// | 32   | 1.8–2.5     | 1.4–1.7     |
/// | 48   | 2.2–3.3     | 1.5–2.1     |
/// | 64   | 2.4–3.3     | 1.4–1.9     |
/// | 128  | 1.9–2.2     | 1.0–1.3     |
///
/// against 0.4 / 0.35 for the 512-wide scalar tiles. Small tiles pay
/// the i32 ↔ i16 stripe conversion and the border locks over few
/// cells; large ones leave fewer ready tiles per anti-diagonal to fill
/// the lanes (a 2.5 k-column slab is 53 tiles of 48 wide, but only 5
/// of 512).
pub const LANE_TILE: usize = 48;

/// Smallest lane tile worth vectorizing. Schemes whose i16 budget
/// ([`max_block_extent`]) allows less run scalar tiles instead.
pub const MIN_LANE_TILE: usize = 16;

/// Fewest ready full-size tiles worth one vector block (its unused
/// lanes compute discarded copies); smaller batches run scalar. On the
/// genome_pair input 2 and 4 ran alike, while 8 lost 10–20 % of the
/// alignment throughput to batches that fell back to scalar tiles.
pub const MIN_LANES: usize = 2;

/// The lane tile edge for a scheme: [`LANE_TILE`] capped by the i16
/// differential budget (a block's `h + w` must stay within
/// [`max_block_extent`]), or `None` when that budget is below
/// [`MIN_LANE_TILE`] and the pass must run scalar tiles to stay exact.
pub fn lane_tile<G: GapModel, SS: SimdSubst>(gap: &G, subst: &SS) -> Option<usize> {
    let tile = LANE_TILE.min(max_block_extent(gap, subst) / 2);
    (tile >= MIN_LANE_TILE).then_some(tile)
}

/// Per-worker scratch for the lane compute.
struct Scratch<const L: usize> {
    /// Scalar fallback buffers, running optimum and tile counts.
    scalar: TileScratch,
    // Per-lane i32 stripes taken from the border store.
    top: Vec<HStripe>,
    left: Vec<VStripe>,
    base: [Score; L],
    // i16 block representation.
    block: BlockBorders<L>,
    q_rows: Vec<[u8; L]>,
    s_cols: Vec<[u8; L]>,
    /// The current batch's full-size tiles.
    lanes: Vec<TileId>,
}

impl<const L: usize> Scratch<L> {
    fn new() -> Scratch<L> {
        Scratch {
            scalar: TileScratch::default(),
            top: (0..L).map(|_| HStripe::default()).collect(),
            left: (0..L).map(|_| VStripe::default()).collect(),
            base: [0; L],
            block: BlockBorders {
                top_h: Vec::new(),
                top_e: Vec::new(),
                left_h: Vec::new(),
                left_f: Vec::new(),
            },
            q_rows: Vec::new(),
            s_cols: Vec::new(),
            lanes: Vec::with_capacity(L),
        }
    }
}

impl<const L: usize> AsRef<TileScratch> for Scratch<L> {
    fn as_ref(&self) -> &TileScratch {
        &self.scalar
    }
}

/// Global score pass over subject slab `cols` (the contract of
/// [`slab_score_pass`]) on [`lane_tile`]-sized tiles: the full-size
/// tiles of each batch of up to `L` ready ones share one vector block
/// when there are at least [`MIN_LANES`] of them; the rest, and edge
/// tiles, run the scalar tile kernel. Runs scalar tiles of `cfg.tile`
/// when the scheme's i16 budget rules lanes out. Bit-identical to the
/// scalar pass either way.
///
/// `L` is the lane count: 16 reproduces the paper's AVX2 variant
/// (16 × 16-bit = 256 bit), 32 the AVX512 variant.
#[allow(clippy::too_many_arguments)]
pub fn simd_slab_score_pass<G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    q: &[u8],
    s: &[u8],
    cols: (usize, usize),
    tb: Score,
    seam: Option<&ShardSeam>,
    cfg: &ParallelCfg,
) -> SlabOutput
where
    G: GapModel,
    SS: SimdSubst,
{
    let Some(tile) = lane_tile(gap, subst) else {
        return slab_score_pass::<Global, G, SS>(gap, subst, q, s, cols, tb, seam, cfg);
    };
    let isa = Isa::host();
    slab_pass::<Global, G, _>(
        gap,
        (q.len(), s.len()),
        cols,
        tb,
        seam,
        cfg,
        (tile, L),
        Scratch::<L>::new,
        |scr: &mut Scratch<L>, slab, tiles| {
            // Edge tiles (cut short by the slab border) run scalar; the
            // full-size ones share one vector block when there are
            // enough of them to beat the scalar kernel.
            let mut lanes = std::mem::take(&mut scr.lanes);
            lanes.clear();
            for &t in tiles {
                if slab.grid.rows(t.ti).1 == tile && slab.grid.cols(t.tj).1 == tile {
                    lanes.push(t);
                } else {
                    slab.relax_scalar::<Global, G, SS>(gap, subst, q, s, t, &mut scr.scalar);
                }
            }
            if lanes.len() >= MIN_LANES.min(L) {
                compute_block::<G, SS, L>(isa, gap, subst, q, s, slab, &lanes, scr, tile);
                scr.scalar.tiles.simd += lanes.len() as u64;
            } else {
                for &t in &lanes {
                    slab.relax_scalar::<Global, G, SS>(gap, subst, q, s, t, &mut scr.scalar);
                }
            }
            scr.lanes = lanes;
        },
    )
}

/// Vectorized multithreaded score-only pass for **global** alignments:
/// one [`simd_slab_score_pass`] over the whole subject, or the chain of
/// slabs `cfg.shard_cells` asks for (see [`SimdPass`]).
pub fn simd_tiled_score_pass<G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    q: &[u8],
    s: &[u8],
    tb: Score,
    cfg: &ParallelCfg,
) -> PassOutput
where
    G: GapModel,
    SS: SimdSubst,
{
    SimdPass::<L>::new(*cfg).pass::<Global>(gap, subst, q, s, tb)
}

#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)]
fn compute_block<G: GapModel, SS: SimdSubst, const L: usize>(
    isa: Isa,
    gap: &G,
    subst: &SS,
    q: &[u8],
    s: &[u8],
    slab: &Slab,
    tiles: &[TileId],
    scr: &mut Scratch<L>,
    tile: usize,
) {
    // Lanes past the batch mirror lane 0: they compute a discarded copy
    // of its tile, which costs nothing extra in a full-width vector op.
    let k = tiles.len();
    debug_assert!((1..=L).contains(&k));
    let src: [usize; L] = std::array::from_fn(|l| if l < k { l } else { 0 });
    // 1. Take the input stripes and record the per-lane rebase constant
    //    (the incoming corner H value).
    let mut q0 = [0usize; L];
    let mut s0 = [0usize; L];
    for (l, &t) in tiles.iter().enumerate() {
        slab.exchange(t, &mut scr.top[l], &mut scr.left[l]);
        q0[l] = slab.q_span(t).start;
        s0[l] = slab.s_span(t).start;
    }
    for l in 0..L {
        scr.base[l] = scr.top[src[l]].h[0];
        q0[l] = q0[src[l]];
        s0[l] = s0[src[l]];
    }

    // 2. Convert to the interleaved i16 block representation.
    let (top, left, base) = (&scr.top, &scr.left, &scr.base);
    let block = &mut scr.block;
    block.top_h.clear();
    block
        .top_h
        .extend((0..=tile).map(|c| lanes16(base, |l| top[src[l]].h[c])));
    block.top_e.clear();
    block.left_h.clear();
    block
        .left_h
        .extend((0..tile).map(|r| lanes16(base, |l| left[src[l]].h[r])));
    block.left_f.clear();
    if G::AFFINE {
        block
            .top_e
            .extend((0..tile).map(|c| lanes16(base, |l| top[src[l]].e[c])));
        block
            .left_f
            .extend((0..tile).map(|r| lanes16(base, |l| left[src[l]].f[r])));
    }
    scr.q_rows.clear();
    scr.q_rows
        .extend((0..tile).map(|r| std::array::from_fn(|l| q[q0[l] + r])));
    scr.s_cols.clear();
    scr.s_cols
        .extend((0..tile).map(|c| std::array::from_fn(|l| s[s0[l] + c])));

    // 3. Vector relaxation (the `Corner` instantiation tracks no
    //    optimum: a global score lives on the borders).
    let (q_rows, s_cols) = (&scr.q_rows[..], &scr.s_cols[..]);
    block_kernel_kind::<Global, G, SS, false, L>(isa, gap, subst, q_rows, s_cols, block, 0);

    // 4. Convert the output stripes back and publish them.
    for (l, &t) in tiles.iter().enumerate() {
        let base = scr.base[l];
        let (top, left) = (&mut scr.top[l], &mut scr.left[l]);
        for (dst, v) in top.h.iter_mut().zip(&block.top_h) {
            *dst = from16(v.0[l], base);
        }
        for (dst, v) in left.h.iter_mut().zip(&block.left_h) {
            *dst = from16(v.0[l], base);
        }
        if G::AFFINE {
            for (dst, v) in top.e.iter_mut().zip(&block.top_e) {
                *dst = from16(v.0[l], base);
            }
            for (dst, v) in left.f.iter_mut().zip(&block.left_f) {
                *dst = from16(v.0[l], base);
            }
        }
        slab.exchange(t, top, left);
    }
}

/// One interleaved i16 vector: lane `l` holds `value(l)` rebased on
/// `base[l]`.
#[inline(always)]
fn lanes16<const L: usize>(base: &[Score; L], value: impl Fn(usize) -> Score) -> I16s<L> {
    I16s(std::array::from_fn(|l| to16(value(l), base[l])))
}

/// Pass provider running global (`Corner`) passes on lane tiles
/// ([`simd_slab_score_pass`]) and every other kind on scalar tiles
/// ([`slab_score_pass`]), both single-slab or as the shard chain
/// `cfg.shard_cells` asks for. Pluggable into the Hirschberg recursion;
/// counts the tiles each kernel relaxed over its lifetime.
#[derive(Debug)]
pub struct SimdPass<const L: usize> {
    /// Parallel execution parameters.
    pub cfg: ParallelCfg,
    simd_tiles: AtomicU64,
    scalar_tiles: AtomicU64,
}

impl<const L: usize> SimdPass<L> {
    /// A provider with zeroed tile counts.
    pub fn new(cfg: ParallelCfg) -> SimdPass<L> {
        SimdPass {
            cfg,
            simd_tiles: AtomicU64::new(0),
            scalar_tiles: AtomicU64::new(0),
        }
    }

    /// Tiles relaxed so far, by kernel.
    pub fn tiles(&self) -> TileCounts {
        TileCounts {
            simd: self.simd_tiles.load(Ordering::Relaxed),
            scalar: self.scalar_tiles.load(Ordering::Relaxed),
        }
    }

    /// Edge of the tiles a pass of kind `K` runs on under this scheme:
    /// the lane tile for `Corner` kinds whose i16 budget allows one,
    /// `cfg.tile` otherwise.
    pub fn tile<K: AlignKind, G: GapModel, SS: SimdSubst>(&self, gap: &G, subst: &SS) -> usize {
        self.lane_tile::<K, G, SS>(gap, subst)
            .unwrap_or(self.cfg.tile)
    }

    fn lane_tile<K: AlignKind, G: GapModel, SS: SimdSubst>(
        &self,
        gap: &G,
        subst: &SS,
    ) -> Option<usize> {
        // Global is the one `Corner` kind: its optimum lives on the
        // borders, so lane blocks need no per-cell optimum tracking.
        matches!(K::OPT, OptRegion::Corner)
            .then(|| lane_tile(gap, subst))
            .flatten()
    }

    /// Runs one subject slab of kind `K` (the contract of
    /// [`slab_score_pass`]) with the kernel [`SimdPass`] picks for `K`,
    /// and counts its tiles.
    #[allow(clippy::too_many_arguments)]
    pub fn slab<K: AlignKind, G: GapModel, SS: SimdSubst>(
        &self,
        gap: &G,
        subst: &SS,
        q: &[u8],
        s: &[u8],
        cols: (usize, usize),
        tb: Score,
        seam: Option<&ShardSeam>,
    ) -> SlabOutput {
        let out = if matches!(K::OPT, OptRegion::Corner) {
            simd_slab_score_pass::<G, SS, L>(gap, subst, q, s, cols, tb, seam, &self.cfg)
        } else {
            slab_score_pass::<K, G, SS>(gap, subst, q, s, cols, tb, seam, &self.cfg)
        };
        self.simd_tiles.fetch_add(out.tiles.simd, Ordering::Relaxed);
        self.scalar_tiles
            .fetch_add(out.tiles.scalar, Ordering::Relaxed);
        out
    }
}

impl<G, SS, const L: usize> HalfPass<G, SS> for SimdPass<L>
where
    G: GapModel,
    SS: SimdSubst,
{
    fn pass<K: AlignKind>(&self, gap: &G, subst: &SS, q: &[u8], s: &[u8], tb: Score) -> PassOutput {
        let dims = (q.len(), s.len());
        let vectorized = self.lane_tile::<K, G, SS>(gap, subst).is_some();
        if self.cfg.runs_untiled(dims, vectorized) {
            return score_pass::<K, G, SS>(gap, subst, q, s, tb);
        }
        chained_pass::<K, G>(gap, dims, tb, &self.cfg, |cols, seam| {
            self.slab::<K, G, SS>(gap, subst, q, s, cols, tb, seam)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::genome::GenomeSim;

    fn cfg(threads: usize, tile: usize) -> ParallelCfg {
        ParallelCfg {
            threads,
            tile,
            min_parallel_area: 0,
            static_schedule: false,
            shard_cells: 0,
        }
    }

    #[test]
    fn simd_pass_matches_scalar_linear() {
        let mut sim = GenomeSim::new(21);
        let q = sim.generate(4000);
        let s = sim.mutate(&q, 0.07);
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        let out = simd_tiled_score_pass::<_, _, 8>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            gap.open(),
            &cfg(4, 64),
        );
        assert_eq!(out.score, scalar.score);
        assert_eq!(out.last_h, scalar.last_h);
    }

    #[test]
    fn simd_pass_matches_scalar_affine_various_lanes() {
        let mut sim = GenomeSim::new(23);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.12);
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        macro_rules! lanes {
            ($l:literal) => {{
                let out = simd_tiled_score_pass::<_, _, $l>(
                    &gap,
                    &subst,
                    q.codes(),
                    s.codes(),
                    gap.open(),
                    &cfg(6, 96),
                );
                assert_eq!(out.score, scalar.score, "L = {}", $l);
                assert_eq!(out.last_h, scalar.last_h, "L = {}", $l);
                assert_eq!(out.last_e, scalar.last_e, "L = {}", $l);
            }};
        }
        lanes!(4);
        lanes!(8);
        lanes!(16);
        lanes!(32);
    }

    #[test]
    fn simd_respects_hirschberg_tb() {
        let mut sim = GenomeSim::new(29);
        let q = sim.generate(1200);
        let s = sim.generate(900);
        let gap = AffineGap {
            open: -4,
            extend: -1,
        };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), 0);
        let out =
            simd_tiled_score_pass::<_, _, 8>(&gap, &subst, q.codes(), s.codes(), 0, &cfg(3, 64));
        assert_eq!(out.score, scalar.score);
        assert_eq!(out.last_e, scalar.last_e);
    }

    /// Two random sequences of `len` bases.
    fn random_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = || (0..len).map(|_| rng.gen_range(0..4u8)).collect::<Vec<u8>>();
        (seq(), seq())
    }

    #[test]
    fn schemes_past_the_i16_budget_run_exact_scalar_tiles() {
        // Regression: the lane tile used to be clamped *up* to 16 past
        // the i16 budget, which overflowed the i16 differentials and
        // turned these optima into garbage.
        let (q, s) = random_pair(600, 5);
        let subst = simple(2000, -2000);
        let lin = LinearGap { gap: -2000 };
        let aff = AffineGap {
            open: -2000,
            extend: -1000,
        };
        let pass = SimdPass::<16>::new(cfg(2, 64));
        let want = score_pass::<Global, _, _>(&lin, &subst, &q, &s, lin.open()).score;
        let got = pass.pass::<Global>(&lin, &subst, &q, &s, lin.open()).score;
        assert_eq!(
            (got, want),
            (104_000, 104_000),
            "linear (2000, -2000, -2000)"
        );
        let want = score_pass::<Global, _, _>(&aff, &subst, &q, &s, aff.open()).score;
        let got = simd_tiled_score_pass::<_, _, 16>(&aff, &subst, &q, &s, aff.open(), &cfg(2, 64));
        assert_eq!(got.score, want, "affine (2000, -2000, -2000, -1000)");
        assert_eq!(lane_tile(&lin, &subst), None);
        assert_eq!(lane_tile(&aff, &subst), None);
        assert_eq!(pass.tiles().simd, 0);
        assert!(pass.tiles().scalar > 0);
    }

    #[test]
    fn lane_tile_shrinks_to_the_i16_budget() {
        // Step 300: the budget allows h + w <= 40, so 20-wide lanes.
        let (q, s) = random_pair(700, 6);
        let subst = simple(300, -300);
        let gap = LinearGap { gap: -300 };
        assert_eq!(lane_tile(&gap, &subst), Some(20));
        assert_eq!(
            lane_tile(&LinearGap { gap: -1 }, &simple(2, -1)),
            Some(LANE_TILE)
        );
        let pass = SimdPass::<16>::new(cfg(2, 64));
        let out = pass.pass::<Global>(&gap, &subst, &q, &s, gap.open());
        let want = score_pass::<Global, _, _>(&gap, &subst, &q, &s, gap.open());
        assert_eq!(out.score, want.score);
        assert_eq!(out.last_h, want.last_h);
        assert!(pass.tiles().simd > 0, "{:?}", pass.tiles());
    }

    #[test]
    fn seeded_simd_slab_exports_the_scalar_seam() {
        let mut sim = GenomeSim::new(37);
        let q = sim.generate(900);
        let s = sim.mutate(&q, 0.08);
        let (q, s) = (q.codes(), s.codes());
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let cfg = cfg(2, 64);
        let cut = 400;
        let first = slab_score_pass::<Global, _, _>(&gap, &subst, q, s, (0, cut), -2, None, &cfg);
        let seam = Some(&first.seam);
        let cols = (cut, s.len());
        let scalar = slab_score_pass::<Global, _, _>(&gap, &subst, q, s, cols, -2, seam, &cfg);
        let lanes = simd_slab_score_pass::<_, _, 16>(&gap, &subst, q, s, cols, -2, seam, &cfg);
        assert_eq!(lanes.seam, scalar.seam);
        assert_eq!(lanes.last_h, scalar.last_h);
        assert_eq!(lanes.last_e, scalar.last_e);
        assert!(lanes.tiles.simd > 0, "{:?}", lanes.tiles);
        assert_eq!(scalar.tiles.simd, 0);
    }

    #[test]
    fn simd_pass_honours_the_shard_budget() {
        let mut sim = GenomeSim::new(41);
        let q = sim.generate(1500);
        let s = sim.mutate(&q, 0.06);
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let cfg = ParallelCfg::threads(2).with_shard_cells(1500 * 300);
        assert!(cfg.shards((q.len(), s.len())));
        let pass = SimdPass::<16>::new(cfg);
        let out = pass.pass::<Global>(&gap, &subst, q.codes(), s.codes(), gap.open());
        let want = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        assert_eq!(out.score, want.score);
        assert_eq!(out.last_h, want.last_h);
        assert!(pass.tiles().simd > 0, "{:?}", pass.tiles());
    }

    #[test]
    fn matrix_subst_gather_path() {
        use anyseq_core::scoring::MatrixSubst;
        let mut sim = GenomeSim::new(31);
        let q = sim.generate(2000);
        let s = sim.mutate(&q, 0.05);
        let gap = LinearGap { gap: -1 };
        let subst = MatrixSubst::dna(2, -1, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        let out = simd_tiled_score_pass::<_, _, 16>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            gap.open(),
            &cfg(4, 80),
        );
        assert_eq!(out.score, scalar.score);
    }
}
