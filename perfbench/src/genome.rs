//! `genome_pair`: one scaled Table-I pair (M. tuberculosis vs E. coli,
//! `workloads::genome_pairs`) scored and aligned through `Policy::Auto`
//! with a `shard_cells` budget that cuts it into several subject slabs
//! — the chromosome-scale configuration.

use crate::batch::{ingest, BatchBench};
use crate::check::{alignment_mismatches, counter, score_mismatches};
use crate::common::{median, nproc, peak_rss_mb, timed, Args, Report, Tracer};
use anyseq_bench::workloads::genome_pairs;
use anyseq_core::scheme::global;
use anyseq_core::scoring::{affine, simple};
use anyseq_core::{GapModel, Global};
use anyseq_engine::{DispatchPolicy, SchemeSpec};
use anyseq_seq::{Seq, SeqStore};
use anyseq_simd::{align_batch_simd, score_batch_simd, simd_tiled_score_pass, BandCfg};
use anyseq_wavefront::{plan_columns, slab_score_pass, tiled_score_pass, ParallelCfg, ShardSeam};

/// Table-I scale: about 9.7 kbp × 10.2 kbp, ~0.1 G cells per pass.
const SCALE: f64 = 0.0022;
/// Slabs the shard budget cuts the pair into.
const SLABS: u64 = 4;
/// Set-ups before the measured loop; one more follows every
/// [`SETUP_EVERY`]-th loop iteration, and the reported `setup_s` is the
/// median of them all.
const SETUP_REPS: usize = 3;
const SETUP_EVERY: usize = 2;
/// Share of each genome in the warm-up pair (a prefix sub-pair, large
/// enough to cross the shard budget).
const WARM_FRACTION: f64 = 0.6;
/// SIMD lanes of the engine's default backend.
const LANES: usize = 16;

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let threads = nproc();
    let spec = SchemeSpec::global_affine(2, -1, -2, -1);
    let (_, a, b) = genome_pairs(SCALE, args.seed).swap_remove(0);
    let cells = (a.len() * b.len()) as u64;
    let shard_cells = cells / SLABS;
    let warm = vec![(
        a.subseq(0..(a.len() as f64 * WARM_FRACTION) as usize),
        b.subseq(0..(b.len() as f64 * WARM_FRACTION) as usize),
    )];
    let pairs = vec![(a, b)];

    // Reference: the unsharded tiled pass (checked against the scalar
    // pass on the warm-up pair, which is small enough for it).
    let scheme = global(affine(simple(2, -1), -2, -1));
    let gap = *scheme.gap();
    let subst = *scheme.subst();
    let cfg = ParallelCfg::threads(threads);
    let unsharded = |pairs: &[(Seq, Seq)]| -> Vec<i32> {
        pairs
            .iter()
            .map(|(q, s)| {
                tiled_score_pass::<Global, _, _>(
                    &gap,
                    &subst,
                    q.codes(),
                    s.codes(),
                    gap.open(),
                    &cfg,
                )
                .score
            })
            .collect()
    };
    let (reference, unsharded_secs) = timed(|| unsharded(&pairs));
    let warm_reference = unsharded(&warm);
    let mut report = Report::default();
    let warm_scalar = crate::check::scalar_scores(&spec, &warm, threads);
    let bad = score_mismatches(&warm_reference, &warm_scalar);
    report.check(1, bad, || "unsharded tiled pass differs from scalar".into());

    let bench = BatchBench {
        spec,
        pairs: &pairs,
        reference: &reference,
        warm: &warm,
        warm_reference: &warm_reference,
        policy: DispatchPolicy::auto().shard_cells(shard_cells),
        threads,
    };
    let (setup, mut setup_times) = tracer.span("setup", || bench.setups(SETUP_REPS, &mut report));

    if !args.trace {
        let (score, align, call_ms) = bench.run_e2e(
            &setup,
            args.seconds,
            3,
            SETUP_EVERY,
            &mut setup_times,
            &mut report,
        );
        report.timing("setup_s", "s", &setup_times, false);
        report.timing("score_gcups", "GCUPS", &score, true);
        report.timing("align_gcups", "GCUPS", &align, true);
        // A score-mode batch call is this workload's request: its
        // latency is the one a library user waits for.
        report.timing("serve_p50_ms", "ms", &call_ms, false);
        report.value("peak_rss_mb", "MB", peak_rss_mb());
        return report;
    }

    let traced = bench.run_traced(&setup, args.seconds * 0.4, 1, &mut report, tracer);
    let (q, s) = (&pairs[0].0, &pairs[0].1);
    let reps = 3;

    let ingest_ns: Vec<f64> = (0..reps)
        .map(|_| {
            let ((), secs) = timed(|| {
                tracer.span("seq.ingest", || {
                    let mut store = SeqStore::with_capacity(0);
                    let ids = ingest(&mut store, &pairs);
                    std::hint::black_box(store.view(&ids).len());
                })
            });
            secs * 1e9
        })
        .collect();
    report.value("seq.ingest_ns_per_pair", "ns/pair", median(&ingest_ns));

    // simd: the lane-tiled intra-sequence pass (headroom: the engine
    // does not route genomes to it), then the inter-sequence batch
    // kernels on this input, where the pair exceeds the 16-bit extent
    // budget and takes their in-kernel scalar path.
    let mut simd_tiled = Vec::new();
    let mut wf_tiled = vec![cells as f64 / unsharded_secs / 1e9];
    for _ in 0..reps {
        let (out, secs) = tracer.span("simd.simd_tiled_score_pass", || {
            timed(|| {
                simd_tiled_score_pass::<_, _, LANES>(
                    &gap,
                    &subst,
                    q.codes(),
                    s.codes(),
                    gap.open(),
                    &cfg,
                )
            })
        });
        let bad = u64::from(out.score != reference[0]);
        report.check(1, bad, || {
            "simd tiled pass differs from the reference".into()
        });
        simd_tiled.push(cells as f64 / secs / 1e9);
        let (got, secs) = tracer.span("wavefront.tiled_score_pass", || timed(|| unsharded(&pairs)));
        let bad = score_mismatches(&got, &reference);
        report.check(1, bad, || "tiled pass is not deterministic".into());
        wf_tiled.push(cells as f64 / secs / 1e9);
    }
    report.value("simd.tiled_gcups", "GCUPS", median(&simd_tiled));
    report.value("wavefront.tiled_gcups", "GCUPS", median(&wf_tiled));
    let view = setup.store.view(&setup.ids);
    let (got, secs) = tracer.span("simd.score_batch_simd", || {
        timed(|| score_batch_simd::<_, _, _, LANES>(&scheme, view.refs(), 1))
    });
    let bad = score_mismatches(&got, &reference);
    report.check(1, bad, || "direct simd batch score differs".into());
    report.value(
        "simd.score_kernel_gcups",
        "GCUPS",
        cells as f64 / secs / 1e9,
    );
    let ((alns, _), secs) = tracer.span("simd.align_batch_simd", || {
        timed(|| align_batch_simd::<_, _, _, LANES>(&scheme, view.refs(), 1, BandCfg::default()))
    });
    let bad = alignment_mismatches(&spec, &pairs, &alns, &reference);
    report.check(1, bad, || {
        "direct simd batch align fails score/replay".into()
    });
    report.value(
        "simd.align_kernel_gcups",
        "GCUPS",
        2.0 * cells as f64 / secs / 1e9,
    );

    // wavefront + engine shard counters (plain passes: half score).
    let plain = &traced.plain;
    let passes = traced.iterations.max(1) as f64;
    report.value(
        "wavefront.border_mb",
        "MB",
        counter(plain, "wavefront.border_bytes") as f64 / (2.0 * passes) / (1 << 20) as f64,
    );
    report.value(
        "wavefront.peak_shard_mb",
        "MB",
        counter(plain, "wavefront.peak_shard_mb") as f64,
    );
    report.value(
        "engine.shards",
        "count",
        counter(plain, "sched.shards") as f64 / (2.0 * passes),
    );
    report.value(
        "engine.seam_bytes",
        "bytes",
        counter(plain, "sched.seam_bytes") as f64 / passes,
    );

    // engine: one seam hand-off (serialize + parse), timed directly on
    // a real frontier exported by the first slab.
    let plan = plan_columns(q.len(), s.len(), shard_cells);
    let first = tracer.span("wavefront.slab_score_pass", || {
        slab_score_pass::<Global, _, _>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            plan[0],
            gap.open(),
            None,
            &cfg,
        )
    });
    let hops = 200;
    let (ok, secs) = tracer.span("engine.seam_handoff", || {
        timed(|| {
            (0..hops).all(|_| {
                let bytes = first.seam.to_bytes();
                ShardSeam::from_bytes(&bytes)
                    .map(|back| back == first.seam)
                    .unwrap_or(false)
            })
        })
    });
    report.check(1, u64::from(!ok), || {
        "seam round trip changed the frontier".into()
    });
    report.value("engine.seam_ns", "ns/seam", secs * 1e9 / hops as f64);

    // core: traceback share, scalar 1-thread baseline on a prefix.
    report.value(
        "core.traceback_ns",
        "ns/pair",
        counter(&traced.observed, "stage.traceback_ns") as f64
            / traced.observed_align_pairs.max(1) as f64,
    );
    let (qs, ss) = (q.subseq(0..2_000), s.subseq(0..2_000));
    let (score, secs) = tracer.span("core.scheme_score", || timed(|| scheme.score(&qs, &ss)));
    let want = spec.score_scalar(&qs, &ss);
    report.check(1, u64::from(score != want), || {
        "scalar sample differs".into()
    });
    report.value(
        "core.scalar_1t_gcups",
        "GCUPS",
        (qs.len() * ss.len()) as f64 / secs / 1e9,
    );

    let sched_ns = tracer.span("engine.noop_batch", || bench.sched_ns_per_pair(&setup, 50));
    report.value("engine.sched_ns_per_pair", "ns/pair", sched_ns);
    traced.report_common(&mut report);
    report
}
