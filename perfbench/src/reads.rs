//! `reads_batch`: Mason-like 150 bp read pairs with indels (the paper's
//! short-read workload) through `BatchScheduler` with `Policy::Auto`,
//! `nproc` threads and the cache off, in score and align mode.

use crate::batch::{ingest, BatchBench};
use crate::check::{counter, scalar_scores, score_mismatches};
use crate::common::{median, nproc, peak_rss_mb, timed, Args, Report, Tracer};
use anyseq_bench::workloads::read_batch;
use anyseq_core::scheme::global;
use anyseq_core::scoring::{linear, simple};
use anyseq_core::GapModel;
use anyseq_engine::{DispatchPolicy, SchemeSpec};
use anyseq_seq::SeqStore;
use anyseq_simd::{align_batch_simd, max_block_extent, score_batch_simd, BandCfg, LaneGroups};
use anyseq_wavefront::{tiled_score_pass, ParallelCfg};

/// Read pairs in the measured batch.
const PAIRS: usize = 12_000;
/// Pairs in the set-up's warm-up batch.
const WARM_PAIRS: usize = 1_024;
/// Set-ups before the measured loop; one more follows every loop
/// iteration, and the reported `setup_s` is the median of them all.
const SETUP_REPS: usize = 3;
/// SIMD lanes of the engine's default backend (AVX2-shaped, 16 × i16).
const LANES: usize = 16;

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let threads = nproc();
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let pairs = read_batch(PAIRS, args.seed);
    let reference = scalar_scores(&spec, &pairs, threads);
    let warm = pairs[..WARM_PAIRS].to_vec();
    let bench = BatchBench {
        spec,
        pairs: &pairs,
        reference: &reference,
        warm: &warm,
        warm_reference: &reference[..WARM_PAIRS],
        policy: DispatchPolicy::auto(),
        threads,
    };
    let mut report = Report::default();
    let (setup, mut setup_times) = tracer.span("setup", || bench.setups(SETUP_REPS, &mut report));

    if !args.trace {
        let (score, align, call_ms) =
            bench.run_e2e(&setup, args.seconds, 5, 1, &mut setup_times, &mut report);
        report.timing("setup_s", "s", &setup_times, false);
        report.timing("score_gcups", "GCUPS", &score, true);
        report.timing("align_gcups", "GCUPS", &align, true);
        // A score-mode batch call is this workload's request: its
        // latency is the one a library user waits for.
        report.timing("serve_p50_ms", "ms", &call_ms, false);
        report.value("peak_rss_mb", "MB", peak_rss_mb());
        return report;
    }

    let traced = bench.run_traced(&setup, args.seconds * 0.5, 3, &mut report, tracer);
    let n = pairs.len() as f64;
    let cells = bench.cells() as f64;
    let reps = 5;

    // seq: arena ingest + view build.
    let ingest_ns: Vec<f64> = (0..reps)
        .map(|_| {
            let ((), secs) = timed(|| {
                tracer.span("seq.ingest", || {
                    let mut store = SeqStore::with_capacity(0);
                    let ids = ingest(&mut store, &pairs);
                    std::hint::black_box(store.view(&ids).len());
                })
            });
            secs * 1e9 / n
        })
        .collect();
    report.value("seq.ingest_ns_per_pair", "ns/pair", median(&ingest_ns));

    // simd: the inter-sequence kernels called directly, one thread, on
    // the pre-built view (no scheduler).
    let scheme = global(linear(simple(2, -1), -1));
    let view = setup.store.view(&setup.ids);
    let mut kernel = Vec::new();
    let mut align_kernel = Vec::new();
    for _ in 0..3 {
        let (scores, secs) = tracer.span("simd.score_batch_simd", || {
            timed(|| score_batch_simd::<_, _, _, LANES>(&scheme, view.refs(), 1))
        });
        let bad = score_mismatches(&scores, &reference);
        report.check(n as u64, bad, || {
            format!("direct simd score: {bad} mismatches")
        });
        kernel.push(cells / secs / 1e9);
        let ((alns, _), secs) = tracer.span("simd.align_batch_simd", || {
            timed(|| {
                align_batch_simd::<_, _, _, LANES>(&scheme, view.refs(), 1, BandCfg::default())
            })
        });
        let bad = crate::check::alignment_mismatches(&spec, &pairs, &alns, &reference);
        report.check(n as u64, bad, || {
            format!("direct simd align: {bad} mismatches")
        });
        align_kernel.push(2.0 * cells / secs / 1e9);
    }
    report.value("simd.score_kernel_gcups", "GCUPS", median(&kernel));
    report.value("simd.align_kernel_gcups", "GCUPS", median(&align_kernel));

    let obs = &traced.observed;
    let score_pairs = traced.observed_score_pairs.max(1) as f64;
    let align_pairs = traced.observed_align_pairs.max(1) as f64;
    report.value(
        "simd.transpose_ns_per_pair",
        "ns/pair",
        counter(obs, "stage.transpose_ns") as f64 / (score_pairs + align_pairs),
    );
    let groups = tracer.span("simd.lane_groups", || {
        LaneGroups::<LANES>::build(view.refs(), max_block_extent(scheme.gap(), scheme.subst()))
    });
    let lane_cells: u64 = groups
        .groups
        .iter()
        .flatten()
        .map(|&k| view.get(k).cells())
        .sum();
    report.value("simd.lane_fill", "fraction", lane_cells as f64 / cells);
    // Counters of the plain passes: half of them score, half align.
    let plain = &traced.plain;
    let plain_pairs = (traced.iterations as f64 * n).max(1.0);
    report.value(
        "simd.scalar_tail_frac",
        "fraction",
        counter(plain, "simd.scalar_pairs") as f64 / (2.0 * plain_pairs),
    );
    report.value(
        "simd.band_cells_ratio",
        "fraction",
        counter(plain, "simd.band_cells") as f64 / (plain_pairs * cells / n),
    );
    report.value(
        "simd.band_widenings_per_pair",
        "count/pair",
        counter(plain, "simd.band_widenings") as f64 / plain_pairs,
    );

    // wavefront: the tiled pass called directly on the same pairs (the
    // engine never routes short reads here).
    let gap = *scheme.gap();
    let subst = *scheme.subst();
    let cfg = ParallelCfg::threads(threads);
    let sample = &pairs[..2_000];
    let sample_cells: u64 = sample.iter().map(|(q, s)| (q.len() * s.len()) as u64).sum();
    let (tiled, secs) = tracer.span("wavefront.tiled_score_pass", || {
        timed(|| {
            sample
                .iter()
                .map(|(q, s)| {
                    tiled_score_pass::<anyseq_core::Global, _, _>(
                        &gap,
                        &subst,
                        q.codes(),
                        s.codes(),
                        gap.open(),
                        &cfg,
                    )
                    .score
                })
                .collect::<Vec<_>>()
        })
    });
    let bad = score_mismatches(&tiled, &reference[..sample.len()]);
    report.check(sample.len() as u64, bad, || {
        format!("direct tiled pass: {bad} mismatches")
    });
    report.value(
        "wavefront.tiled_gcups",
        "GCUPS",
        sample_cells as f64 / secs / 1e9,
    );

    // core: traceback share of the engine path, and the plain scalar
    // 1-thread baseline on a sample.
    report.value(
        "core.traceback_ns",
        "ns/pair",
        counter(obs, "stage.traceback_ns") as f64 / align_pairs,
    );
    let sample = &pairs[..500];
    let sample_cells: u64 = sample.iter().map(|(q, s)| (q.len() * s.len()) as u64).sum();
    let (scalar, secs) = tracer.span("core.scheme_score", || {
        timed(|| {
            sample
                .iter()
                .map(|(q, s)| scheme.score(q, s))
                .collect::<Vec<_>>()
        })
    });
    let bad = score_mismatches(&scalar, &reference[..sample.len()]);
    report.check(sample.len() as u64, bad, || {
        format!("scalar sample: {bad} mismatches")
    });
    report.value(
        "core.scalar_1t_gcups",
        "GCUPS",
        sample_cells as f64 / secs / 1e9,
    );

    // engine: scheduler-only cost, stage split, utilization, fallbacks.
    let sched_ns = tracer.span("engine.noop_batch", || {
        bench.sched_ns_per_pair(&setup, reps)
    });
    report.value("engine.sched_ns_per_pair", "ns/pair", sched_ns);
    traced.report_common(&mut report);

    // cache: off on this workload, so its counters read zero.
    let hits = counter(plain, "cache.hits") as f64;
    let lookups = hits + counter(plain, "cache.misses") as f64;
    report.value(
        "cache.hit_ratio",
        "fraction",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    report.value(
        "cache.evictions",
        "count",
        counter(plain, "cache.evictions") as f64,
    );
    report.value("cache.bytes", "bytes", counter(plain, "cache.bytes") as f64);
    report
}
