//! Runtime instruction-set dispatch for the lane kernels.
//!
//! AnySeq gets its CPU variants from one generic kernel that AnyDSL's
//! vectorizer emits for the host's own ISA. Here each lane kernel keeps
//! one generic body, marked `#[inline(always)]`, that is compiled twice:
//! once for the build target (baseline x86-64, where an `I16s<16>`
//! operation splits into two SSE2 halves) and once inside a
//! `#[target_feature(enable = "avx2")]` wrapper, where LLVM lowers the
//! same lane loops to single 256-bit instructions (`vpaddsw`,
//! `vpmaxsw`, ...). [`Isa::host`] picks the variant at run time with
//! `is_x86_feature_detected!`; no build flag, feature or environment
//! variable selects it, and non-x86 targets only ever run the portable
//! body.
//!
//! An AVX-512BW variant of the 16-lane kernels was measured and not
//! kept: it scored the reads_batch benchmark no faster and aligned it
//! a third slower than the AVX2 variant (see `docs/ARCHITECTURE.md`,
//! *Runtime ISA dispatch*).

/// The instruction set a lane kernel runs on.
///
/// A value that names AVX2 can only be obtained on a host that has
/// AVX2 ([`Isa::avx2`], [`Isa::host`]), which is what makes the
/// dispatch into the `#[target_feature]` variants sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The body compiled for the build target; runs everywhere.
    pub const PORTABLE: Isa = Isa { avx2: false };

    /// The AVX2 variant, or `None` when the host lacks AVX2.
    pub fn avx2() -> Option<Isa> {
        avx2_detected().then_some(Isa { avx2: true })
    }

    /// The widest variant the host runs: AVX2 where detected, else
    /// portable. Detection is cached by `std`, so this is one atomic
    /// load per call.
    pub fn host() -> Isa {
        Isa::avx2().unwrap_or(Isa::PORTABLE)
    }

    /// Whether this is the AVX2 variant.
    pub fn is_avx2(self) -> bool {
        self.avx2
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
fn avx2_detected() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{block_kernel_kind, block_kernel_masked, max_block_extent, BlockBorders};
    use crate::traceback::{band_range, banded_group_kernel, DirStore};
    use anyseq_core::kind::{AlignKind, Global, Local, OptRegion, SemiGlobal};
    use anyseq_core::scoring::{simple, AffineGap, GapModel, LinearGap, SimpleSubst};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn host_is_avx2_exactly_when_detected() {
        assert_eq!(Isa::host().is_avx2(), Isa::avx2().is_some());
        assert!(!Isa::PORTABLE.is_avx2());
        assert!(Isa::avx2().is_none_or(Isa::is_avx2));
    }

    /// Runs every lane kernel of one `h × w` lane block on the portable
    /// and the `avx2` variant and requires bit-identical borders,
    /// optima, retirement masks and direction bit-planes.
    fn variants_agree<K: AlignKind, G: GapModel, const L: usize>(
        avx2: Isa,
        gap: &G,
        subst: &SimpleSubst,
        (h, w): (usize, usize),
        band: usize,
        xdrop: i16,
        rng: &mut StdRng,
    ) {
        let mut codes = |len| -> Vec<[u8; L]> {
            (0..len)
                .map(|_| std::array::from_fn(|_| rng.gen_range(0..5u8)))
                .collect()
        };
        let (q_rows, s_cols) = (codes(h), codes(w));
        let block = |isa, xd: i16| {
            let mut b = BlockBorders::<L>::init::<K, G>(gap, h, w);
            let opt = if xd > 0 {
                block_kernel_kind::<K, G, _, true, L>(isa, gap, subst, &q_rows, &s_cols, &mut b, xd)
            } else {
                block_kernel_kind::<K, G, _, false, L>(isa, gap, subst, &q_rows, &s_cols, &mut b, 0)
            };
            (b, opt)
        };
        assert!(block(Isa::PORTABLE, 0) == block(avx2, 0), "block kernel");
        if !matches!(K::OPT, OptRegion::Corner) {
            let xd = (block(Isa::PORTABLE, xdrop), block(avx2, xdrop));
            assert!(xd.0 == xd.1, "block kernel, X-drop {xdrop}");
        }
        let masked = |isa| {
            let mut b = BlockBorders::<L>::init::<K, G>(gap, h, w);
            block_kernel_masked(isa, gap, subst, &q_rows, &s_cols, &mut b);
            b
        };
        assert!(masked(Isa::PORTABLE) == masked(avx2), "masked kernel");
        let (dlo, dhi) = band_range(h, w, band);
        let banded = |isa| {
            let cells = h * (dhi - dlo + 1) as usize;
            let mut store = DirStore::new(cells, G::AFFINE, K::NU_ZERO);
            let opt = banded_group_kernel::<K, G, _, L>(
                isa, gap, subst, &q_rows, &s_cols, dlo, dhi, &mut store,
            );
            (store, opt)
        };
        assert!(banded(Isa::PORTABLE) == banded(avx2), "banded kernel");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random scheme whose largest per-step score is `step`, so the
        /// i16 extent budget is `12000 / step`; blocks sit at that budget
        /// ± 1. `combo` picks kind × gap model × lane count.
        #[test]
        fn portable_and_avx2_variants_are_bit_identical(
            step in 40i32..=300,
            combo in 0usize..12,
            delta in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let Some(avx2) = Isa::avx2() else {
                eprintln!("host lacks AVX2: the AVX2 side of the variant comparison was skipped");
                return;
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = [
                rng.gen_range(1..=step),
                -rng.gen_range(1..=step),
                -rng.gen_range(0..=step),
                0,
            ];
            // [match, mismatch, extend, open]; one of match, mismatch and
            // the gap step (linear gap, affine open + extend) carries the
            // full step.
            p[3] = -rng.gen_range(0..=step + p[2]);
            let carrier = rng.gen_range(0..3);
            match carrier {
                0 => p[0] = step,
                1 => p[1] = -step,
                _ => p[3] = -(step + p[2]),
            }
            let subst = simple(p[0], p[1]);
            let lin = LinearGap { gap: if carrier == 2 { -step } else { p[2] } };
            let aff = AffineGap { open: p[3], extend: p[2] };
            let xdrop = rng.gen_range(1..=4 * step) as i16;
            let dims = |extent: usize, rng: &mut StdRng| {
                let total = extent + delta - 1;
                let h = rng.gen_range(1..total);
                (h, total - h)
            };
            macro_rules! run {
                ($k:ty, $gap:expr, $l:literal) => {{
                    let (h, w) = dims(max_block_extent($gap, &subst), &mut rng);
                    let band = rng.gen_range(1..=h.max(w));
                    variants_agree::<$k, _, $l>(
                        avx2, $gap, &subst, (h, w), band, xdrop, &mut rng,
                    );
                }};
            }
            match combo {
                0 => run!(Global, &lin, 16),
                1 => run!(Global, &aff, 16),
                2 => run!(SemiGlobal, &lin, 16),
                3 => run!(SemiGlobal, &aff, 16),
                4 => run!(Local, &lin, 16),
                5 => run!(Local, &aff, 16),
                6 => run!(Global, &lin, 32),
                7 => run!(Global, &aff, 32),
                8 => run!(SemiGlobal, &lin, 32),
                9 => run!(SemiGlobal, &aff, 32),
                10 => run!(Local, &lin, 32),
                _ => run!(Local, &aff, 32),
            }
        }
    }
}
