//! Output verification and the no-op engine used to time the
//! scheduler on its own.

use anyseq_core::{Alignment, Score};
use anyseq_engine::engine::ALL_KINDS;
use anyseq_engine::{BatchStats, Caps, Engine, EngineError, SchemeSpec};
use anyseq_seq::{PairRef, Seq};
use std::collections::BTreeMap;

/// Reference scores from the plain scalar `Scheme::score`, computed on
/// `threads` threads.
pub fn scalar_scores(spec: &SchemeSpec, pairs: &[(Seq, Seq)], threads: usize) -> Vec<Score> {
    let chunk = pairs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|sc| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|c| {
                sc.spawn(move || {
                    c.iter()
                        .map(|(q, s)| spec.score_scalar(q, s))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}

/// Whether `a` carries exactly the score `want` and its operations
/// replay to it on `(q, s)` (`Alignment::validate`).
pub fn alignment_ok(spec: &SchemeSpec, a: &Alignment, q: &Seq, s: &Seq, want: Score) -> bool {
    a.score == want
        && anyseq_engine::with_scheme!(spec, |scheme, K| {
            a.validate::<K, _, _>(q, s, scheme.gap(), scheme.subst())
                .is_ok()
        })
}

/// Counts positions where `got` differs from `want` (a length mismatch
/// counts every missing or extra result).
pub fn score_mismatches(got: &[Score], want: &[Score]) -> u64 {
    let diff = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (diff + got.len().abs_diff(want.len())) as u64
}

/// Counts alignments that fail [`alignment_ok`] against the reference
/// scores.
pub fn alignment_mismatches(
    spec: &SchemeSpec,
    pairs: &[(Seq, Seq)],
    got: &[Alignment],
    want: &[Score],
) -> u64 {
    let bad = got
        .iter()
        .zip(pairs.iter().zip(want))
        .filter(|(a, ((q, s), w))| !alignment_ok(spec, a, q, s, **w))
        .count();
    (bad + got.len().abs_diff(pairs.len())) as u64
}

/// Adds every counter of `stats` into `acc` (`.peak_` high-water
/// marks combine by maximum, as in `BatchStats::record_counter`).
pub fn add_counters(acc: &mut BTreeMap<&'static str, u64>, stats: &BatchStats) {
    for (&k, &v) in &stats.counters {
        let slot = acc.entry(k).or_insert(0);
        *slot = if k.contains(".peak_") {
            (*slot).max(v)
        } else {
            *slot + v
        };
    }
}

/// A counter value, 0 when absent.
pub fn counter(acc: &BTreeMap<&'static str, u64>, name: &str) -> u64 {
    acc.get(name).copied().unwrap_or(0)
}

/// An engine that does no work: registered in place of the real
/// backends, it leaves only the scheduler's own cost (binning, units,
/// gather, pool, merge) in a batch's wall time.
pub struct NoopEngine;

impl Engine for NoopEngine {
    fn caps(&self) -> Caps {
        Caps {
            name: "noop",
            score_kinds: ALL_KINDS,
            align_kinds: ALL_KINDS,
            alphabet: "dna4+n",
            max_native_extent: None,
            batch_native: true,
            max_unit_cells: None,
        }
    }

    fn score_batch(
        &self,
        _spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        _threads: usize,
    ) -> Result<Vec<Score>, EngineError> {
        Ok(vec![0; pairs.len()])
    }

    fn align_batch(
        &self,
        _spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        _threads: usize,
    ) -> Result<Vec<Alignment>, EngineError> {
        Ok(vec![Alignment::empty(0); pairs.len()])
    }
}
