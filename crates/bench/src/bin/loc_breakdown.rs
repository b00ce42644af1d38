//! Reproduces the paper's §IV code-base breakdown claim: "approximately
//! 23% of all lines of code are specifically written for the GPU, 14% are
//! specific to CPU vectorization and less than 11% are only needed for
//! the non-vectorized CPU version while the remaining 52% are shared
//! among all three variants" (excluding benchmarking, I/O and interface
//! code, and the FPGA-specific parts — same exclusions applied here).
//!
//! Usage: `loc_breakdown [workspace-root]`

use std::path::Path;

fn count_loc(dir: &Path) -> usize {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                total += count_loc(&path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    total += text
                        .lines()
                        .filter(|l| {
                            let t = l.trim();
                            !t.is_empty() && !t.starts_with("//")
                        })
                        .count();
                }
            }
        }
    }
    total
}

fn main() {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let root = Path::new(&root);

    // Categories per the paper's methodology: shared = core algorithm +
    // scheduling substrate (used by every backend); CPU-scalar = the
    // scalar-only pieces; SIMD = vectorization-specific; GPU = the GPU
    // mapping. Excluded: seq (I/O), bench, cli, fpga-sim, tests.
    let file_loc = |rel: &str| -> usize {
        let p = root.join(rel);
        std::fs::read_to_string(&p)
            .map(|text| {
                text.lines()
                    .filter(|l| {
                        let t = l.trim();
                        !t.is_empty() && !t.starts_with("//")
                    })
                    .count()
            })
            .unwrap_or(0)
    };

    let core = count_loc(&root.join("crates/core/src"));
    // `shard.rs` holds the one tiled slab pass that the scalar and the
    // SIMD tile kernels both plug into.
    let wavefront_shared = file_loc("crates/wavefront/src/grid.rs")
        + file_loc("crates/wavefront/src/borders.rs")
        + file_loc("crates/wavefront/src/scheduler.rs")
        + file_loc("crates/wavefront/src/shard.rs");
    let cpu_scalar = file_loc("crates/wavefront/src/pass.rs")
        + file_loc("crates/wavefront/src/aligner.rs")
        + file_loc("crates/wavefront/src/lib.rs");
    let simd = count_loc(&root.join("crates/simd/src"));
    let gpu = count_loc(&root.join("crates/gpu-sim/src"));

    let shared_total = core + wavefront_shared;
    let total = shared_total + cpu_scalar + simd + gpu;
    println!(
        "Code-base breakdown (non-blank, non-comment lines; excludes \
         seq/bench/cli/fpga per the paper's exclusions):\n"
    );
    let pct = |x: usize| 100.0 * x as f64 / total as f64;
    println!(
        "  shared (core + grid/borders/scheduler/shard): {shared_total:>6} ({:.0}%)",
        pct(shared_total)
    );
    println!(
        "  CPU scalar (tiled pass + aligner):            {cpu_scalar:>6} ({:.0}%)",
        pct(cpu_scalar)
    );
    println!(
        "  CPU SIMD:                                     {simd:>6} ({:.0}%)",
        pct(simd)
    );
    println!(
        "  GPU:                                          {gpu:>6} ({:.0}%)",
        pct(gpu)
    );
    println!("  total:                                        {total:>6}");
    println!("\n(paper: 52% shared / 11% CPU-scalar / 14% SIMD / 23% GPU)");
}
