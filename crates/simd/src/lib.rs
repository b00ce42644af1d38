//! # anyseq-simd — portable SIMD kernels with 16-bit differential scores
//!
//! Reproduces the paper's CPU vectorization (§IV-A) without
//! architecture-specific intrinsics: lane-array arithmetic
//! autovectorizes, and each lane kernel is compiled both for the build
//! target and for AVX2, picked at run time ([`isa`]; L = 16 16-bit lanes
//! fill one AVX2 register). Three execution shapes:
//!
//! * [`simd_tiled_score_pass`] / [`SimdPass`] — long-genome
//!   intra-sequence: vector lanes are filled with independent tiles
//!   popped from the dynamic wavefront queue (paper Fig. 3), scalar
//!   fallback for a single ready tile and for edge tiles; the wavefront
//!   engine's global passes run here,
//! * [`score_batch_simd`] — short-read inter-sequence: one whole
//!   alignment per lane, bucketed by matrix dimensions,
//! * [`align_batch_simd`] — inter-sequence with full tracebacks: a
//!   banded DP records 2 packed direction bits per lane per cell
//!   (plus affine extend bits), the band widens adaptively until each
//!   lane's corner matches its exact score, and lanes decode into
//!   per-pair CIGARs ([`traceback`]).
//!
//! Scores inside a block are 16-bit *differences to the block's incoming
//! corner* (paper: "only differences to the global score are relevant"),
//! with the block extent bounded by [`kernel::max_block_extent`].

pub mod batch;
pub mod isa;
pub mod kernel;
pub mod lanes;
pub mod tiled;
pub mod traceback;

pub use batch::{score_batch_simd, score_batch_simd_stats, score_batch_simd_xdrop, LaneGroups};
pub use isa::Isa;
pub use kernel::{block_kernel_kind, max_block_extent, BlockBorders, KernelOpt, SimdSubst, SENT16};
pub use lanes::I16s;
pub use tiled::{
    lane_tile, simd_slab_score_pass, simd_tiled_score_pass, SimdPass, LANE_TILE, MIN_LANE_TILE,
};
pub use traceback::{align_batch_simd, BandCfg, TraceStats};

/// Lane count matching AVX2 (256-bit registers of 16-bit scores).
pub const LANES_AVX2: usize = 16;
/// Lane count matching AVX512 (512-bit registers of 16-bit scores).
pub const LANES_AVX512: usize = 32;
