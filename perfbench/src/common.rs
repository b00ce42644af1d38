//! Shared measurement plumbing: sample summaries, the run report, the
//! benchmark-side span recorder and its Chrome-trace writer.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Command-line settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (`reads_batch`, `genome_pair`, `serve_mixed`).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget of the run, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for run artifacts (Chrome trace, daemon socket).
    pub out_dir: std::path::PathBuf,
}

/// Worker threads and connections the load may use: the host's
/// available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Median and tail of a sample set, as the report prints them.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Label of the reported tail percentile (`p99`, `p1`, ...), or
    /// `-` when fewer than 20 samples leave no percentile with ten
    /// samples beyond it.
    pub tail_label: String,
    /// Value at the tail percentile (the median when there is none).
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
}

/// Linear-interpolated quantile of an ascending-sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `xs` ascending (NaN-free input assumed).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// Median of a sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// Summarizes `xs`: the median plus the highest percentile that still
/// has at least ten samples beyond it, taken on the *worse* side (the
/// high end when lower is better, the low end when higher is better).
pub fn summarize(xs: &[f64], higher_is_better: bool) -> Summary {
    let s = sorted(xs);
    let n = s.len();
    let median = quantile_sorted(&s, 0.5);
    let tail = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0);
    let (tail_label, tail) = match tail {
        Some(p) if higher_is_better => (
            format!("p{}", fmt_pct(100.0 - p)),
            quantile_sorted(&s, 1.0 - p / 100.0),
        ),
        Some(p) => (format!("p{}", fmt_pct(p)), quantile_sorted(&s, p / 100.0)),
        None => ("-".to_string(), median),
    };
    Summary {
        median,
        tail_label,
        tail,
        n,
    }
}

fn fmt_pct(p: f64) -> String {
    let t = format!("{p:.1}");
    t.trim_end_matches(".0").to_string()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// The reported value (the median for timings).
    pub value: f64,
    /// Sample summary behind a timing, when there is one.
    pub summary: Option<Summary>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Verified operations (pairs scored/aligned, requests answered).
    pub attempted: u64,
    /// Operations that failed, were refused or mis-verified.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Adds a plain value.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        });
    }

    /// Adds a timing: the median of `samples`, with its tail and count.
    pub fn timing(
        &mut self,
        name: &str,
        unit: &'static str,
        samples: &[f64],
        higher_is_better: bool,
    ) {
        let summary = summarize(samples, higher_is_better);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: summary.median,
            summary: Some(summary),
        });
    }

    /// Records `n` verified operations, `bad` of which failed; `what`
    /// describes the failure for the log.
    pub fn check(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// The per-metric detail line: median, tail percentile and sample
    /// count of every timing.
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for m in &self.metrics {
            let Some(s) = &m.summary else { continue };
            if !std::mem::take(&mut first) {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                r#""{}": {{"median": {}, "tail": "{}", "tail_value": {}, "n": {}}}"#,
                m.name,
                num(s.median),
                s.tail_label,
                num(s.tail),
                s.n
            );
        }
        out.push('}');
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (k, m) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A run is correct when it verified at least one operation and
    /// none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// JSON number with all its digits (non-finite values become `null`,
/// which the result checker refuses).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One benchmark-side span: a call into a layer, timed from outside.
#[derive(Debug, Clone)]
struct TraceSpan {
    pid: u32,
    tid: u32,
    name: String,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span recorder for the traced run. Spans on the benchmark
/// lane never nest: each wraps one whole call into a layer. Engine
/// stage spans of observed batches are shifted onto the same clock and
/// kept on their own lanes. Disabled recorders only run the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<TraceSpan>,
    /// Wall time of end-to-end calls whose inner spans were attributed.
    attr_wall_ns: u64,
    /// Part of that wall time covered by at least one inner span.
    attr_covered_ns: u64,
}

/// Chrome-trace process id of the benchmark's own layer spans.
const PID_BENCH: u32 = 1;
/// Chrome-trace process id of engine stage spans.
const PID_ENGINE: u32 = 2;

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            attr_wall_ns: 0,
            attr_covered_ns: 0,
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one span named `name` on the benchmark lane.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let dur_ns = self.now_ns() - start_ns;
        self.spans.push(TraceSpan {
            pid: PID_BENCH,
            tid: 0,
            name: name.to_string(),
            start_ns,
            dur_ns,
        });
        r
    }

    /// Adds the engine stage spans of one observed batch that ran from
    /// `call_start_ns` for `call_ns`, and books how much of that wall
    /// time the spans cover.
    pub fn engine_batch(&mut self, call_start_ns: u64, call_ns: u64, spans: &[anyseq_obs::Span]) {
        if !self.enabled {
            return;
        }
        let mut intervals: Vec<(u64, u64)> = spans
            .iter()
            .map(|s| (s.start_ns, (s.start_ns + s.dur_ns).min(call_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = 0u64;
        for (a, b) in intervals {
            if b > cursor {
                covered += b - a.max(cursor);
                cursor = b;
            }
        }
        self.attr_wall_ns += call_ns;
        self.attr_covered_ns += covered.min(call_ns);
        for s in spans {
            self.spans.push(TraceSpan {
                pid: PID_ENGINE,
                tid: s.worker,
                name: s.stage.name().to_string(),
                start_ns: call_start_ns + s.start_ns,
                dur_ns: s.dur_ns,
            });
        }
    }

    /// Books externally attributed wall time (e.g. per-request stage
    /// sums against client-observed latency).
    pub fn attribute(&mut self, wall_ns: u64, covered_ns: u64) {
        self.attr_wall_ns += wall_ns;
        self.attr_covered_ns += covered_ns.min(wall_ns);
    }

    /// Share of attributed end-to-end wall time no layer span covers.
    pub fn unattributed_frac(&self) -> f64 {
        if self.attr_wall_ns == 0 {
            return f64::NAN;
        }
        1.0 - self.attr_covered_ns as f64 / self.attr_wall_ns as f64
    }

    /// Writes the spans as a Chrome trace-event array (`ts` in µs):
    /// per lane, `B`/`E` pairs in time order.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let mut lanes: Vec<(u32, u32)> = self.spans.iter().map(|s| (s.pid, s.tid)).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut out = String::from("[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&ev);
        };
        for &(pid, tid) in &lanes {
            let name = match (pid, tid) {
                (PID_BENCH, 0) => "coordinator".to_string(),
                (PID_ENGINE, 0) => "engine-coordinator".to_string(),
                (_, t) => format!("engine-worker-{t}"),
            };
            push(
                &mut out,
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{name}"}}}}"#
                ),
            );
            let mut lane: Vec<&TraceSpan> = self
                .spans
                .iter()
                .filter(|s| s.pid == pid && s.tid == tid)
                .collect();
            lane.sort_by_key(|s| s.start_ns);
            let mut cursor = 0u64;
            for s in lane {
                // Clamp so lanes stay strictly sequential even when two
                // batches' clock offsets round into each other.
                let start = s.start_ns.max(cursor);
                let end = (s.start_ns + s.dur_ns).max(start);
                cursor = end;
                for (ph, t) in [("B", start), ("E", end)] {
                    push(
                        &mut out,
                        format!(
                            r#"{{"name":"{}","ph":"{ph}","ts":{:.3},"pid":{pid},"tid":{tid}}}"#,
                            s.name,
                            t as f64 / 1000.0
                        ),
                    );
                }
            }
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)?;
        Ok(self.spans.len())
    }
}

/// Small deterministic PRNG (splitmix64) for schedules and mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a per-stream salt.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs, false);
        assert_eq!(s.tail_label, "p99");
        assert_eq!(s.n, 1000);
        let s = summarize(&xs[..200], false);
        assert_eq!(s.tail_label, "p95");
        let s = summarize(&xs[..200], true);
        assert_eq!(s.tail_label, "p5");
        assert!(s.tail < s.median);
        assert_eq!(summarize(&xs[..15], false).tail_label, "-");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(10, 0, String::new);
        r.value("setup_s", "s", 0.5);
        assert_eq!(
            r.result_json(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
        r.check(1, 1, || "bad".into());
        assert!(!r.correct());
    }
}
