//! The anyseq benchmark: one named workload per run, generated from a
//! seed, every output verified, every metric printed by name and unit.
//!
//! ```text
//! anyseq-perfbench --workload <reads_batch|genome_pair|serve_mixed>
//!                  --seed N --seconds S --trace <0|1> --out-dir DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics (and writes the run's spans as a Chrome trace
//! into `--out-dir`). The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! (`detail {...}`) gives each timing's median, tail percentile and
//! sample count. A run that verifies an output wrong exits with 1.
//! `perfbench/run.py` builds this binary and stamps its results.

mod batch;
mod check;
mod common;
mod genome;
mod reads;
mod serve;

use common::{Args, Report, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("anyseq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "anyseq-perfbench: cannot create {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut report: Report = match args.workload.as_str() {
        "reads_batch" => reads::run(&args, &mut tracer),
        "genome_pair" => genome::run(&args, &mut tracer),
        "serve_mixed" => serve::run(&args, &mut tracer),
        other => {
            eprintln!("anyseq-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        report.value(
            "trace.unattributed_frac",
            "fraction",
            tracer.unattributed_frac(),
        );
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        match tracer.write_chrome(&path) {
            Ok(n) => eprintln!("trace: {} ({n} spans)", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    println!("detail {}", report.detail_json());
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
