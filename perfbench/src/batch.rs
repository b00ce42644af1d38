//! The batch-engine harness shared by `reads_batch` and `genome_pair`:
//! set-up (dispatch + scheduler + ingest + warm-up), the timed
//! score/align loop, and the traced loop that interleaves plain and
//! observed dispatches.

use crate::check::{add_counters, alignment_mismatches, score_mismatches, NoopEngine};
use crate::common::{median, timed, Report, Tracer};
use anyseq_core::Score;
use anyseq_engine::stats::TRACEBACK_CELL_FACTOR;
use anyseq_engine::{
    BackendId, BatchCfg, BatchScheduler, BatchStats, Dispatch, DispatchPolicy, SchemeSpec,
};
use anyseq_seq::{Seq, SeqId, SeqStore};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One batch workload: its pairs, scheme, reference scores and policy.
pub struct BatchBench<'a> {
    /// Scheme every pair runs under.
    pub spec: SchemeSpec,
    /// The measured batch.
    pub pairs: &'a [(Seq, Seq)],
    /// Scalar reference scores of `pairs`.
    pub reference: &'a [Score],
    /// The warm-up batch run once during set-up.
    pub warm: &'a [(Seq, Seq)],
    /// Scalar reference scores of `warm`.
    pub warm_reference: &'a [Score],
    /// Dispatch policy of the end-to-end path (observability off).
    pub policy: DispatchPolicy,
    /// Scheduler threads.
    pub threads: usize,
}

/// A built engine with the workload ingested.
pub struct Setup {
    /// The dispatch under test.
    pub dispatch: Dispatch,
    /// The scheduler under test.
    pub sched: BatchScheduler,
    /// Arena holding the batch (and warm-up) sequences.
    pub store: SeqStore,
    /// Store ids of the measured batch, in input order.
    pub ids: Vec<(SeqId, SeqId)>,
}

/// Copies `pairs` into `store`, returning their ids.
pub fn ingest(store: &mut SeqStore, pairs: &[(Seq, Seq)]) -> Vec<(SeqId, SeqId)> {
    pairs
        .iter()
        .map(|(q, s)| {
            (
                store.push(q).expect("sequence store full"),
                store.push(s).expect("sequence store full"),
            )
        })
        .collect()
}

impl BatchBench<'_> {
    /// Logical DP cells of one pass over the batch.
    pub fn cells(&self) -> u64 {
        self.pairs
            .iter()
            .map(|(q, s)| (q.len() * s.len()) as u64)
            .sum()
    }

    /// Builds the dispatch and scheduler, ingests the batch and runs the
    /// warm-up batch (score and align), verifying its outputs. Returns
    /// the set-up and its wall seconds.
    fn setup(&self, report: &mut Report) -> (Setup, f64) {
        let t0 = Instant::now();
        let dispatch = self.policy.standard();
        let sched = BatchScheduler::new(BatchCfg::threads(self.threads));
        let bytes = self
            .pairs
            .iter()
            .chain(self.warm)
            .map(|(q, s)| q.len() + s.len())
            .sum();
        let mut store = SeqStore::with_capacity(bytes);
        let ids = ingest(&mut store, self.pairs);
        let warm_ids = ingest(&mut store, self.warm);
        let view = store.view(&warm_ids);
        let score = sched.try_score_batch(&dispatch, &self.spec, &view);
        let align = sched.try_align_batch(&dispatch, &self.spec, &view);
        let secs = t0.elapsed().as_secs_f64();
        self.verify_score(
            report,
            "warm-up score",
            score.map(|r| r.results),
            self.warm,
            self.warm_reference,
        );
        self.verify_align(
            report,
            "warm-up align",
            align.map(|r| r.results),
            self.warm,
            self.warm_reference,
        );
        drop(view);
        let setup = Setup {
            dispatch,
            sched,
            store,
            ids,
        };
        (setup, secs)
    }

    /// Runs `reps` set-ups and keeps the last; returns it with every
    /// set-up's wall seconds.
    pub fn setups(&self, reps: usize, report: &mut Report) -> (Setup, Vec<f64>) {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            let (s, t) = self.setup(report);
            times.push(t);
            last = Some(s);
        }
        (last.expect("at least one set-up"), times)
    }

    /// Verifies score-mode results against the scalar reference.
    fn verify_score(
        &self,
        report: &mut Report,
        label: &str,
        got: Result<Vec<Score>, anyseq_engine::EngineError>,
        pairs: &[(Seq, Seq)],
        want: &[Score],
    ) {
        let n = pairs.len() as u64;
        match got {
            Ok(got) => {
                let bad = score_mismatches(&got, want);
                report.check(n, bad, || {
                    format!("{label}: {bad} of {n} scores differ from the reference")
                });
            }
            Err(e) => report.check(n, n, || format!("{label}: refused: {e}")),
        }
    }

    /// Verifies align-mode results: each score equals the scalar
    /// reference and each alignment replays to it.
    fn verify_align(
        &self,
        report: &mut Report,
        label: &str,
        got: Result<Vec<anyseq_core::Alignment>, anyseq_engine::EngineError>,
        pairs: &[(Seq, Seq)],
        want: &[Score],
    ) {
        let n = pairs.len() as u64;
        match got {
            Ok(got) => {
                let bad = alignment_mismatches(&self.spec, pairs, &got, want);
                report.check(n, bad, || {
                    format!("{label}: {bad} of {n} alignments fail score/replay")
                });
            }
            Err(e) => report.check(n, n, || format!("{label}: refused: {e}")),
        }
    }

    /// One verified score pass through `dispatch`; returns the stats
    /// and the wall seconds.
    fn score_pass(
        &self,
        setup: &Setup,
        dispatch: &Dispatch,
        report: &mut Report,
    ) -> (Option<BatchStats>, f64) {
        let view = setup.store.view(&setup.ids);
        let (run, secs) = timed(|| setup.sched.try_score_batch(dispatch, &self.spec, &view));
        let (results, stats) = match run {
            Ok(r) => (Ok(r.results), Some(r.stats)),
            Err(e) => (Err(e), None),
        };
        self.verify_score(report, "score", results, self.pairs, self.reference);
        (stats, secs)
    }

    /// One verified align pass through `dispatch`.
    fn align_pass(
        &self,
        setup: &Setup,
        dispatch: &Dispatch,
        report: &mut Report,
    ) -> (Option<BatchStats>, f64) {
        let view = setup.store.view(&setup.ids);
        let (run, secs) = timed(|| setup.sched.try_align_batch(dispatch, &self.spec, &view));
        let (results, stats) = match run {
            Ok(r) => (Ok(r.results), Some(r.stats)),
            Err(e) => (Err(e), None),
        };
        self.verify_align(report, "align", results, self.pairs, self.reference);
        (stats, secs)
    }

    /// The end-to-end loop: alternating verified score and align
    /// passes for `seconds` (at least `min_iters` of each), with one
    /// more (discarded) set-up after every `setup_every`-th iteration,
    /// so the set-up samples in `setup_times` span the run like the
    /// pass samples do instead of one burst of host noise at its start.
    /// Returns the score and align GCUPS samples and the wall
    /// milliseconds of every score-mode call into the scheduler.
    pub fn run_e2e(
        &self,
        setup: &Setup,
        seconds: f64,
        min_iters: usize,
        setup_every: usize,
        setup_times: &mut Vec<f64>,
        report: &mut Report,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let cells = self.cells() as f64;
        let (mut score, mut align, mut call_ms) = (Vec::new(), Vec::new(), Vec::new());
        let t0 = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        while score.len() < min_iters || t0.elapsed() < budget {
            let (_, s) = self.score_pass(setup, &setup.dispatch, report);
            score.push(cells / s / 1e9);
            let (_, a) = self.align_pass(setup, &setup.dispatch, report);
            align.push(cells * TRACEBACK_CELL_FACTOR as f64 / a / 1e9);
            call_ms.push(s * 1e3);
            if score.len() % setup_every.max(1) == 0 {
                setup_times.push(self.setup(report).1);
            }
        }
        (score, align, call_ms)
    }

    /// The traced loop: each iteration runs score and align through
    /// the plain dispatch and through an observed one (same policy
    /// plus `observe(true)`), so the overhead of the engine's own
    /// tracing is measured side by side.
    pub fn run_traced(
        &self,
        setup: &Setup,
        seconds: f64,
        min_iters: usize,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Traced {
        let observed = self.policy.observe(true).standard();
        let mut out = Traced::default();
        let (mut plain_s, mut obs_s) = (0.0, 0.0);
        let t0 = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        while out.iterations < min_iters || t0.elapsed() < budget {
            for align in [false, true] {
                let name = if align {
                    "engine.align_batch"
                } else {
                    "engine.score_batch"
                };
                let pass = |d: &Dispatch, report: &mut Report, tracer: &mut Tracer| {
                    let start = tracer.now_ns();
                    let (stats, secs) = tracer.span(name, || {
                        if align {
                            self.align_pass(setup, d, report)
                        } else {
                            self.score_pass(setup, d, report)
                        }
                    });
                    (stats, secs, start)
                };
                let (stats, secs, _) = pass(&setup.dispatch, report, tracer);
                plain_s += secs;
                if let Some(stats) = stats {
                    out.utilization.push(stats.utilization(self.threads));
                    out.fallbacks += stats.fallbacks;
                    add_counters(&mut out.plain, &stats);
                }
                let (stats, secs, start) = pass(&observed, report, tracer);
                obs_s += secs;
                if let Some(stats) = stats {
                    tracer.engine_batch(start, (secs * 1e9) as u64, &stats.spans);
                    add_counters(&mut out.observed, &stats);
                    if align {
                        out.observed_align_pairs += stats.pairs;
                    } else {
                        out.observed_score_pairs += stats.pairs;
                    }
                }
            }
            out.iterations += 1;
        }
        out.overhead_frac = obs_s / plain_s - 1.0;
        out
    }

    /// Scheduler-only cost: the same batch through a dispatch whose
    /// kernels are replaced by [`NoopEngine`]. Returns ns per pair.
    pub fn sched_ns_per_pair(&self, setup: &Setup, reps: usize) -> f64 {
        let noop = DispatchPolicy::auto()
            .standard()
            .with_engine(BackendId::Simd, Box::new(NoopEngine))
            .with_engine(BackendId::Wavefront, Box::new(NoopEngine));
        let view = setup.store.view(&setup.ids);
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let (run, secs) = timed(|| setup.sched.try_score_batch(&noop, &self.spec, &view));
                run.expect("the no-op engine never refuses");
                secs * 1e9 / self.pairs.len() as f64
            })
            .collect();
        median(&samples)
    }
}

/// What the traced loop gathered.
#[derive(Debug, Default)]
pub struct Traced {
    /// Iterations (each: score + align, plain + observed).
    pub iterations: usize,
    /// Observed wall over plain wall, minus one.
    pub overhead_frac: f64,
    /// Summed counters of the plain passes.
    pub plain: BTreeMap<&'static str, u64>,
    /// Summed counters (incl. `stage.*_ns`) of the observed passes.
    pub observed: BTreeMap<&'static str, u64>,
    /// Pairs scored by observed score passes.
    pub observed_score_pairs: u64,
    /// Pairs aligned by observed align passes.
    pub observed_align_pairs: u64,
    /// Pool utilization of each plain pass.
    pub utilization: Vec<f64>,
    /// Fallbacks summed over the plain passes.
    pub fallbacks: u64,
}

impl Traced {
    /// Reports the metrics every batch workload shares: per-stage ns
    /// per pair, utilization, fallbacks and tracing overhead.
    pub fn report_common(&self, report: &mut Report) {
        let pairs = (self.observed_score_pairs + self.observed_align_pairs).max(1) as f64;
        for stage in anyseq_obs::Stage::ALL {
            let ns = crate::check::counter(&self.observed, stage.counter_key()) as f64;
            report.value(
                &format!("engine.stage.{}_ns_per_pair", stage.name()),
                "ns/pair",
                ns / pairs,
            );
        }
        report.value("engine.utilization", "fraction", median(&self.utilization));
        report.value(
            "engine.fallbacks",
            "count/batch",
            self.fallbacks as f64 / (2 * self.iterations.max(1)) as f64,
        );
        report.value("trace.overhead_frac", "fraction", self.overhead_frac);
    }
}
