//! The vectorized block kernel: relaxes `L` *independent* equally-sized
//! tiles, one per SIMD lane, with 16-bit differential scores
//! (paper §IV-A: "Vectorization is done over blocks that consist of rows
//! from independent submatrices ... we use smaller data types (e.g.
//! 16 bits ...) for scores within a block" — here whole independent tiles
//! per lane, the natural strengthening of rows-per-lane that needs no
//! auxiliary score-lookup array).
//!
//! Scores inside a block are *differences to the block's incoming corner
//! value* (one rebase constant per lane); the i32 ↔ i16 conversion happens
//! only on the `O(h + w)` boundary stripes. Saturating arithmetic keeps
//! the −∞ sentinel pinned instead of wrapping.

use crate::isa::Isa;
use crate::lanes::I16s;
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::pass::{init_left_f, init_left_h, init_top_e, init_top_h};
use anyseq_core::score::{Score, NEG_INF};
use anyseq_core::scoring::{GapModel, MatrixSubst, SimpleSubst, SubstScore};

/// The 16-bit −∞ sentinel. Large enough below any legitimate
/// differential score (bounded by `(h+w)·max|step|`, see
/// [`max_block_extent`]) that saturated drift never climbs back into the
/// legitimate range before a `max` rescues the cell.
pub const SENT16: i16 = -25_000;

/// Largest `h + w` a block may have for i16 differential scores to be
/// provably exact under the given scheme (paper §IV-A's bound: the
/// largest differential magnitude is `(h+w)` steps of the largest
/// per-step score change).
pub fn max_block_extent<G: GapModel, S: SubstScore>(gap: &G, subst: &S) -> usize {
    let step = subst
        .max_score()
        .abs()
        .max(subst.min_score().abs())
        .max(gap.extend().abs())
        .max((gap.open() + gap.extend()).abs())
        .max(1);
    // Keep differential values within ±12000, far from SENT16.
    (12_000 / step) as usize
}

/// Converts an absolute i32 score to a lane-local differential i16.
#[inline(always)]
pub fn to16(v: Score, base: Score) -> i16 {
    if v <= NEG_INF / 2 {
        SENT16
    } else {
        let d = v - base;
        debug_assert!(
            (-12_000..=12_000).contains(&d),
            "differential {d} exceeds the i16 block budget"
        );
        d as i16
    }
}

/// Converts a lane-local differential i16 back to an absolute i32 score.
#[inline(always)]
pub fn from16(v: i16, base: Score) -> Score {
    if v <= SENT16 / 2 {
        NEG_INF
    } else {
        base + v as Score
    }
}

/// Substitution functions usable inside the vector kernel.
///
/// The extra method is the paper's "substitution function" specialized
/// per lane block; [`SimpleSubst`] compiles to a branchless compare+blend,
/// [`MatrixSubst`] to per-lane gathers.
pub trait SimdSubst: SubstScore {
    /// σ over `L` lanes of base-code pairs.
    fn lanes_score<const L: usize>(&self, q: &[u8; L], s: &[u8; L]) -> I16s<L>;
}

impl SimdSubst for SimpleSubst {
    #[inline(always)]
    fn lanes_score<const L: usize>(&self, q: &[u8; L], s: &[u8; L]) -> I16s<L> {
        crate::lanes::select_eq(q, s, self.matches as i16, self.mismatch as i16)
    }
}

impl SimdSubst for MatrixSubst {
    #[inline(always)]
    fn lanes_score<const L: usize>(&self, q: &[u8; L], s: &[u8; L]) -> I16s<L> {
        let mut out = [0i16; L];
        for l in 0..L {
            out[l] = self.table[q[l] as usize][s[l] as usize] as i16;
        }
        I16s(out)
    }
}

/// Boundary stripes of a block of `L` independent tiles, in lane-local
/// differential i16 representation.
///
/// The kernel works **in place**: on return `top_h`/`top_e` hold the
/// bottom stripes and `left_h`/`left_f` hold the right stripes (the same
/// rolling-buffer trick as the scalar tile kernel).
#[derive(Debug, PartialEq, Eq)]
pub struct BlockBorders<const L: usize> {
    /// `H` crossing the top edge, `w + 1` vectors (corner included).
    pub top_h: Vec<I16s<L>>,
    /// `E` crossing the top edge, `w` vectors (empty for linear models).
    pub top_e: Vec<I16s<L>>,
    /// `H` crossing the left edge, `h` vectors.
    pub left_h: Vec<I16s<L>>,
    /// `F` crossing the left edge, `h` vectors (empty for linear models).
    pub left_f: Vec<I16s<L>>,
}

impl<const L: usize> BlockBorders<L> {
    /// Kind `K`'s init stripes of an `h × w` block at differential base
    /// 0, the same in every lane: the borders a block of `L` whole
    /// `h × w` problems starts from.
    pub fn init<K: AlignKind, G: GapModel>(gap: &G, h: usize, w: usize) -> BlockBorders<L> {
        let splat = |v: &Score| I16s::splat(to16(*v, 0));
        BlockBorders {
            top_h: init_top_h::<K, G>(gap, w).iter().map(splat).collect(),
            top_e: init_top_e::<K, G>(gap, w).iter().map(splat).collect(),
            left_h: init_left_h::<K, G>(gap, h, gap.open())
                .iter()
                .map(splat)
                .collect(),
            left_f: init_left_f::<G>(h).iter().map(splat).collect(),
        }
    }
}

/// Per-lane optimum produced by [`block_kernel_kind`].
#[derive(Debug, PartialEq, Eq)]
pub struct KernelOpt<const L: usize> {
    /// Best score per lane over the kind's optimum region, in the same
    /// lane-local differential representation as the block borders. For
    /// `Corner` kinds this is the bottom-right cell.
    pub best: I16s<L>,
    /// Bit mask of lanes retired early by X-drop (0 when X-drop is off).
    pub retired: u32,
}

/// Relaxes a block of `L` independent `h × w` tiles, one per lane, in
/// place on `borders`, deriving the per-cell dataflow from `K`'s
/// contract:
///
/// * `q_rows[r]` — the `L` query codes of tile-local row `r` (one per lane),
/// * `s_cols[c]` — the `L` subject codes of tile-local column `c`.
///
/// `NU_ZERO` clamps every cell at 0 (local alignment), and the per-lane
/// optimum is tracked over `K::OPT`'s region — `Corner`: the
/// bottom-right cell; `Border`: last row + last column + the
/// initialization seeds `H(0,w)`/`H(h,0)`; `Anywhere`: every cell plus
/// the empty-alignment score 0. For `Corner` kinds every extra
/// accumulator folds out (the tiled wavefront pass reads a global score
/// off the borders and ignores the returned optimum).
///
/// With `XDROP = true` (non-`Corner` kinds only) a lane is *retired* once
/// the maximum of its current row drops more than `xdrop` below the
/// lane's running block maximum: its optimum freezes at the best already
/// seen and, when every lane has retired, the remaining rows are skipped
/// entirely. Retired lanes may under-report the true optimum — X-drop is
/// a heuristic; the default `XDROP = false` path is bit-exact.
///
/// `isa` picks the compiled variant of the one body (see [`crate::isa`]);
/// every variant gives bit-identical results.
pub fn block_kernel_kind<K, G, SS, const XDROP: bool, const L: usize>(
    isa: Isa,
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
    xdrop: i16,
) -> KernelOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if isa.is_avx2() {
        #[target_feature(enable = "avx2")]
        fn avx2<K, G, SS, const XDROP: bool, const L: usize>(
            gap: &G,
            subst: &SS,
            q_rows: &[[u8; L]],
            s_cols: &[[u8; L]],
            borders: &mut BlockBorders<L>,
            xdrop: i16,
        ) -> KernelOpt<L>
        where
            K: AlignKind,
            G: GapModel,
            SS: SimdSubst,
        {
            block_kernel_body::<K, G, SS, XDROP, L>(gap, subst, q_rows, s_cols, borders, xdrop)
        }
        // SAFETY: an AVX2 `Isa` only exists on hosts that have AVX2.
        return unsafe { avx2::<K, G, SS, XDROP, L>(gap, subst, q_rows, s_cols, borders, xdrop) };
    }
    let _ = isa; // non-x86 targets have only the portable variant
    block_kernel_body::<K, G, SS, XDROP, L>(gap, subst, q_rows, s_cols, borders, xdrop)
}

/// The one body of [`block_kernel_kind`], inlined into each ISA variant.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn block_kernel_body<K, G, SS, const XDROP: bool, const L: usize>(
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
    xdrop: i16,
) -> KernelOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let h = q_rows.len();
    let w = s_cols.len();
    assert!(h > 0 && w > 0);
    assert_eq!(borders.top_h.len(), w + 1);
    assert_eq!(borders.left_h.len(), h);
    if G::AFFINE {
        assert_eq!(borders.top_e.len(), w);
        assert_eq!(borders.left_f.len(), h);
    }
    debug_assert!(
        !XDROP || !matches!(K::OPT, OptRegion::Corner),
        "X-drop is meaningless for corner-optimum kinds"
    );

    let ext = gap.extend() as i16;
    let openext = (gap.open() + gap.extend()) as i16;
    let all: u32 = if L >= 32 { u32::MAX } else { (1u32 << L) - 1 };

    // Optimum seeds: Border kinds can end on the init stripes at H(0,w)
    // (H(h,0) is folded in at the end, it sits in the final bottom
    // stripe); Anywhere kinds always have the empty alignment (score 0).
    let mut best = match K::OPT {
        OptRegion::Corner => I16s::splat(SENT16),
        OptRegion::Border => borders.top_h[w],
        OptRegion::Anywhere => I16s::splat(0),
    };
    let mut active = all;
    let mut retired = 0u32;
    let mut run_max = I16s::<L>::splat(SENT16);

    for r in 0..h {
        let qc = &q_rows[r];
        let mut diag = borders.top_h[0];
        borders.top_h[0] = borders.left_h[r];
        let mut left = borders.top_h[0];
        let mut f = if G::AFFINE {
            borders.left_f[r]
        } else {
            I16s::splat(SENT16)
        };
        let mut row_max = I16s::<L>::splat(SENT16);
        for c in 0..w {
            let up = borders.top_h[c + 1];
            let e = if G::AFFINE {
                borders.top_e[c].sat_adds(ext).max(up.sat_adds(openext))
            } else {
                up.sat_adds(ext)
            };
            f = if G::AFFINE {
                f.sat_adds(ext).max(left.sat_adds(openext))
            } else {
                left.sat_adds(ext)
            };
            let sub = subst.lanes_score(qc, &s_cols[c]);
            let mut hval = diag.sat_add(sub).max(e).max(f);
            if K::NU_ZERO {
                hval = hval.maxs(0);
            }
            if XDROP || matches!(K::OPT, OptRegion::Anywhere) {
                row_max = row_max.max(hval);
            }
            diag = up;
            borders.top_h[c + 1] = hval;
            if G::AFFINE {
                borders.top_e[c] = e;
            }
            left = hval;
        }
        borders.left_h[r] = borders.top_h[w];
        if G::AFFINE {
            borders.left_f[r] = f;
        }
        match K::OPT {
            OptRegion::Corner => {}
            // Right-column candidate H(r+1, w).
            OptRegion::Border => best = borders.top_h[w].max(best).blend(active, best),
            OptRegion::Anywhere => best = row_max.max(best).blend(active, best),
        }
        if XDROP {
            run_max = run_max.max(row_max).blend(active, run_max);
            let cutoff = run_max.sat_adds(xdrop.saturating_neg());
            let dropped = cutoff.gt_mask(row_max) & active;
            if dropped != 0 {
                retired |= dropped;
                active &= !dropped;
                if active == 0 {
                    break;
                }
            }
        }
    }

    match K::OPT {
        OptRegion::Corner => best = borders.top_h[w],
        // Bottom-row candidates H(h, 0..=w) — including the H(h, 0) seed,
        // which the rolling buffers leave in `top_h[0]` after the last row.
        OptRegion::Border => {
            let mut bottom = borders.top_h[0];
            for c in 1..=w {
                bottom = bottom.max(borders.top_h[c]);
            }
            best = bottom.max(best).blend(active, best);
        }
        OptRegion::Anywhere => {}
    }
    KernelOpt { best, retired }
}

/// Masked-dataflow variant of [`block_kernel_kind`] used by the SeqAn-like
/// baseline: intrinsics-level SIMD code "requires to emulate control flow
/// constructs such as if, while, or break with masked data flow — a
/// time-consuming and error-prone process" (paper §V). This kernel
/// therefore unconditionally maintains the affine E/F lanes (even for
/// linear schemes), a running block maximum, and a ν floor mask — the
/// redundant lane work a masked translation of the general variant
/// carries. Results are identical; only the instruction count differs.
/// It runs on the same `isa` variants as [`block_kernel_kind`], so the
/// two stay comparable like for like.
pub fn block_kernel_masked<G, SS, const L: usize>(
    isa: Isa,
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
) where
    G: GapModel,
    SS: SimdSubst,
{
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if isa.is_avx2() {
        #[target_feature(enable = "avx2")]
        fn avx2<G: GapModel, SS: SimdSubst, const L: usize>(
            gap: &G,
            subst: &SS,
            q_rows: &[[u8; L]],
            s_cols: &[[u8; L]],
            borders: &mut BlockBorders<L>,
        ) {
            block_kernel_masked_body(gap, subst, q_rows, s_cols, borders)
        }
        // SAFETY: an AVX2 `Isa` only exists on hosts that have AVX2.
        return unsafe { avx2(gap, subst, q_rows, s_cols, borders) };
    }
    let _ = isa; // non-x86 targets have only the portable variant
    block_kernel_masked_body(gap, subst, q_rows, s_cols, borders)
}

/// The one body of [`block_kernel_masked`], inlined into each ISA
/// variant.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn block_kernel_masked_body<G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
) where
    G: GapModel,
    SS: SimdSubst,
{
    let h = q_rows.len();
    let w = s_cols.len();
    assert!(h > 0 && w > 0);
    assert_eq!(borders.top_h.len(), w + 1);
    assert_eq!(borders.left_h.len(), h);

    let ext = gap.extend() as i16;
    let openext = (gap.open() + gap.extend()) as i16;
    // Masked-flow ballast: these accumulators exist in the "general"
    // masked translation whether or not the variant needs them.
    let mut running_max = I16s::<L>::splat(SENT16);
    let nu_floor = I16s::<L>::splat(SENT16);

    // E/F stripes are materialized even for linear gap models.
    if borders.top_e.len() != w {
        borders.top_e = (0..w)
            .map(|c| borders.top_h[c + 1].sat_adds(gap.open() as i16))
            .collect();
    }
    if borders.left_f.len() != h {
        borders.left_f = vec![I16s::splat(SENT16); h];
    }

    for r in 0..h {
        let qc = &q_rows[r];
        let mut diag = borders.top_h[0];
        borders.top_h[0] = borders.left_h[r];
        let mut left = borders.top_h[0];
        let mut f = borders.left_f[r];
        for c in 0..w {
            let up = borders.top_h[c + 1];
            let e = borders.top_e[c].sat_adds(ext).max(up.sat_adds(openext));
            f = f.sat_adds(ext).max(left.sat_adds(openext));
            let sub = subst.lanes_score(qc, &s_cols[c]);
            let mut hval = diag.sat_add(sub).max(e).max(f);
            // ν mask applied unconditionally (a no-op floor for global).
            hval = hval.max(nu_floor);
            running_max = running_max.max(hval);
            diag = up;
            borders.top_h[c + 1] = hval;
            borders.top_e[c] = e;
            left = hval;
        }
        borders.left_h[r] = borders.top_h[w];
        borders.left_f[r] = f;
    }
    // Keep the running maximum live so the optimizer cannot drop the
    // masked ballast.
    std::hint::black_box(running_max.hmax());
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::Global;
    use anyseq_core::pass::{init_left_f, init_left_h, init_top_e, init_top_h};
    use anyseq_core::scoring::{simple, AffineGap, GapModel, LinearGap};
    use anyseq_core::tile::{relax_tile, NoSink, TileIn, TileOut};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Run the block kernel with L whole small problems and compare every
    /// lane against the scalar tile kernel.
    fn check_against_scalar<G: GapModel + Copy>(gap: G, seed: u64) {
        const L: usize = 8;
        let subst = simple(2, -1);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = 17;
        let w = 23;
        let qs: Vec<Vec<u8>> = (0..L)
            .map(|_| (0..h).map(|_| rng.gen_range(0..4u8)).collect())
            .collect();
        let ss: Vec<Vec<u8>> = (0..L)
            .map(|_| (0..w).map(|_| rng.gen_range(0..4u8)).collect())
            .collect();

        // Block setup (global init stripes, base = corner H(0,0) = 0).
        let top_h_i32 = init_top_h::<Global, G>(&gap, w);
        let top_e_i32 = init_top_e::<Global, G>(&gap, w);
        let left_h_i32 = init_left_h::<Global, G>(&gap, h, gap.open());
        let left_f_i32 = init_left_f::<G>(h);
        let mut borders = BlockBorders::<L>::init::<Global, G>(&gap, h, w);
        let q_rows: Vec<[u8; L]> = (0..h).map(|r| std::array::from_fn(|l| qs[l][r])).collect();
        let s_cols: Vec<[u8; L]> = (0..w).map(|c| std::array::from_fn(|l| ss[l][c])).collect();
        block_kernel_kind::<Global, G, _, false, L>(
            Isa::host(),
            &gap,
            &subst,
            &q_rows,
            &s_cols,
            &mut borders,
            0,
        );

        for l in 0..L {
            let mut out = TileOut::new();
            relax_tile::<Global, G, _, _>(
                &gap,
                &subst,
                &qs[l],
                &ss[l],
                (1, 1),
                (h, w),
                TileIn {
                    top_h: &top_h_i32,
                    top_e: &top_e_i32,
                    left_h: &left_h_i32,
                    left_f: &left_f_i32,
                },
                &mut out,
                &mut NoSink,
            );
            for c in 0..=w {
                assert_eq!(
                    from16(borders.top_h[c].0[l], 0),
                    out.bot_h[c],
                    "lane {l} bottom H at {c}"
                );
            }
            for r in 0..h {
                assert_eq!(
                    from16(borders.left_h[r].0[l], 0),
                    out.right_h[r],
                    "lane {l} right H at {r}"
                );
            }
            if G::AFFINE {
                for c in 0..w {
                    assert_eq!(from16(borders.top_e[c].0[l], 0), out.bot_e[c]);
                }
                for r in 0..h {
                    assert_eq!(from16(borders.left_f[r].0[l], 0), out.right_f[r]);
                }
            }
        }
    }

    #[test]
    fn block_matches_scalar_linear() {
        for seed in 0..4 {
            check_against_scalar(LinearGap { gap: -1 }, seed);
        }
    }

    #[test]
    fn block_matches_scalar_affine() {
        for seed in 0..4 {
            check_against_scalar(
                AffineGap {
                    open: -2,
                    extend: -1,
                },
                seed,
            );
        }
    }

    /// Full-width kind-generic kernel vs the scalar score pass, every
    /// lane carrying a different random problem of the same shape.
    fn check_kind_against_pass<K: anyseq_core::kind::AlignKind, G: GapModel + Copy>(
        gap: G,
        seed: u64,
    ) {
        const L: usize = 8;
        let subst = simple(2, -3);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = 21;
        let w = 15;
        let qs: Vec<Vec<u8>> = (0..L)
            .map(|_| (0..h).map(|_| rng.gen_range(0..4u8)).collect())
            .collect();
        let ss: Vec<Vec<u8>> = (0..L)
            .map(|_| (0..w).map(|_| rng.gen_range(0..4u8)).collect())
            .collect();

        let mut borders = BlockBorders::<L>::init::<K, G>(&gap, h, w);
        let q_rows: Vec<[u8; L]> = (0..h).map(|r| std::array::from_fn(|l| qs[l][r])).collect();
        let s_cols: Vec<[u8; L]> = (0..w).map(|c| std::array::from_fn(|l| ss[l][c])).collect();
        let opt = block_kernel_kind::<K, G, _, false, L>(
            Isa::host(),
            &gap,
            &subst,
            &q_rows,
            &s_cols,
            &mut borders,
            0,
        );
        assert_eq!(opt.retired, 0);
        for l in 0..L {
            let pass =
                anyseq_core::pass::score_pass::<K, G, _>(&gap, &subst, &qs[l], &ss[l], gap.open());
            assert_eq!(
                from16(opt.best.0[l], 0),
                pass.score,
                "{} lane {l} seed {seed}",
                K::NAME
            );
        }
    }

    #[test]
    fn kind_kernel_matches_scalar_pass_all_kinds() {
        use anyseq_core::kind::{Extension, FreeEnd, Local, SemiGlobal};
        for seed in 0..4 {
            let lin = LinearGap { gap: -2 };
            let aff = AffineGap {
                open: -3,
                extend: -1,
            };
            check_kind_against_pass::<Global, _>(lin, seed);
            check_kind_against_pass::<Global, _>(aff, seed);
            check_kind_against_pass::<SemiGlobal, _>(lin, seed);
            check_kind_against_pass::<SemiGlobal, _>(aff, seed);
            check_kind_against_pass::<Local, _>(lin, seed);
            check_kind_against_pass::<Local, _>(aff, seed);
            check_kind_against_pass::<FreeEnd, _>(lin, seed);
            check_kind_against_pass::<FreeEnd, _>(aff, seed);
            check_kind_against_pass::<Extension, _>(lin, seed);
            check_kind_against_pass::<Extension, _>(aff, seed);
        }
    }

    #[test]
    fn huge_xdrop_threshold_is_bit_exact() {
        use anyseq_core::kind::SemiGlobal;
        const L: usize = 4;
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let mut rng = StdRng::seed_from_u64(7);
        let h = 12;
        let w = 9;
        let qs: Vec<Vec<u8>> = (0..L)
            .map(|_| (0..h).map(|_| rng.gen_range(0..4u8)).collect())
            .collect();
        let ss: Vec<Vec<u8>> = (0..L)
            .map(|_| (0..w).map(|_| rng.gen_range(0..4u8)).collect())
            .collect();
        let build = || BlockBorders::<L>::init::<SemiGlobal, _>(&gap, h, w);
        let q_rows: Vec<[u8; L]> = (0..h).map(|r| std::array::from_fn(|l| qs[l][r])).collect();
        let s_cols: Vec<[u8; L]> = (0..w).map(|c| std::array::from_fn(|l| ss[l][c])).collect();
        let mut exact_b = build();
        let exact = block_kernel_kind::<SemiGlobal, _, _, false, L>(
            Isa::host(),
            &gap,
            &subst,
            &q_rows,
            &s_cols,
            &mut exact_b,
            0,
        );
        let mut xd_b = build();
        let xd = block_kernel_kind::<SemiGlobal, _, _, true, L>(
            Isa::host(),
            &gap,
            &subst,
            &q_rows,
            &s_cols,
            &mut xd_b,
            10_000,
        );
        assert_eq!(xd.retired, 0);
        assert_eq!(xd.best.0, exact.best.0);
    }

    #[test]
    fn xdrop_retires_diverged_lanes() {
        use anyseq_core::kind::SemiGlobal;
        const L: usize = 4;
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        // Matching prefix, then long hard divergence: the running max is
        // reached early and every later row only sinks.
        let q: Vec<u8> = [vec![0u8; 10], vec![1u8; 60]].concat();
        let s: Vec<u8> = [vec![0u8; 10], vec![2u8; 60]].concat();
        let h = q.len();
        let w = s.len();
        let mut borders = BlockBorders::<L>::init::<SemiGlobal, _>(&gap, h, w);
        let q_rows: Vec<[u8; L]> = q.iter().map(|&b| [b; L]).collect();
        let s_cols: Vec<[u8; L]> = s.iter().map(|&b| [b; L]).collect();
        let opt = block_kernel_kind::<SemiGlobal, _, _, true, L>(
            Isa::host(),
            &gap,
            &subst,
            &q_rows,
            &s_cols,
            &mut borders,
            20,
        );
        assert_eq!(opt.retired, (1u32 << L) - 1, "all lanes should retire");
        // Here retirement is lossless: the exact semi-global optimum is
        // the free-begin seed (score 0), seen before any lane retires.
        let exact =
            anyseq_core::pass::score_pass::<SemiGlobal, _, _>(&gap, &subst, &q, &s, gap.open());
        for l in 0..L {
            assert_eq!(from16(opt.best.0[l], 0), exact.score, "lane {l}");
        }
    }

    #[test]
    fn conversion_round_trip() {
        for v in [-3000, -1, 0, 5, 11_999] {
            assert_eq!(from16(to16(v + 1000, 1000), 1000), v + 1000);
        }
        assert_eq!(to16(NEG_INF, 0), SENT16);
        assert_eq!(from16(SENT16, 12345), NEG_INF);
    }

    #[test]
    fn extent_budget_reasonable() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let ext = max_block_extent(&gap, &subst);
        // 2×512 tiles must fit comfortably.
        assert!(ext >= 2048, "extent {ext}");
    }
}
