//! `serve_mixed`: an open-loop, seeded arrival schedule against an
//! in-process `anyseq-serve` daemon with its default configuration
//! (result cache on, 2 ms window).
//!
//! Traffic: mostly score requests under two schemes, some align
//! requests, request sizes from 1 to 700 pairs, and about a third of
//! requests repeating the content of a recent request. The largest
//! size class crosses the window's pair target, so windows flush on
//! pair count as well as on deadline. Each request is
//! timed from its *due* time, so a stalled daemon (or a late generator)
//! shows in the latency of everything queued behind it. The generator
//! uses `nproc` threads, each owning one connection that both sends on
//! schedule and reads replies in between.

use crate::check::alignment_ok;
use crate::common::{
    nproc, peak_rss_mb, quantile_sorted, sorted, timed, Args, Report, Rng, Tracer,
};
use anyseq_bench::workloads::read_batch;
use anyseq_core::Score;
use anyseq_engine::stats::TRACEBACK_CELL_FACTOR;
use anyseq_engine::{BatchCfg, BatchScheduler, CacheKey, Dispatch, Policy, ResultCache};
use anyseq_seq::{BatchView, PairRef, Seq};
use anyseq_serve::proto::{
    decode_message, encode_request, encode_response, write_frame, CodePair, ErrCode, Message,
    Request, Response, Results,
};
use anyseq_serve::{ReqKind, SchemeSpec, ServeConfig, Server, ServerHandle, SystemClock};
use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh read pairs generated per run (reused with a per-wrap point
/// mutation once exhausted, so fresh content never hits the cache).
const POOL_PAIRS: usize = 8_000;
/// Nominal offered load for the latency metrics, in pairs per second.
const NOMINAL_PAIRS_S: f64 = 12_000.0;
/// Size classes of fresh requests: (requests per deck of 50, fewest
/// pairs, most pairs). The last class reaches the default window's
/// 512-pair target alone or with company, so some windows flush on pair
/// count.
const SIZES: [(usize, usize, usize); 4] = [(29, 1, 4), (15, 8, 32), (5, 64, 160), (1, 300, 700)];
/// Requests per [`KIND_DECK`] of each size class that align (15 %); the
/// rest score, half under each scheme.
const ALIGNS: usize = 6;
const KIND_DECK: usize = 40;
/// Client latency limit on p99 for the goodput ladder.
const LIMIT_MS: f64 = 50.0;
/// Ladder rung ratio (finer than the goodput metric's bound).
const RUNG: f64 = 1.05;
/// Length of one ladder probe, in seconds.
const PROBE_S: f64 = 0.75;
/// First ladder rung (about 100 k pairs/s, near capacity on a 2-core
/// host) and the staircase step before its first reversal.
const START: i32 = 44;
const CLIMB: i32 = 4;
/// Set-ups before the nominal phase, and again after it (the reported
/// `setup_s` is the median of both bursts; one set-up takes a few ms,
/// so many, at two points of the run, keep host jitter out of it).
/// Neither burst overlaps the measured daemon.
const SETUP_REPS: usize = 16;
/// Share of requests that repeat a recent request's content.
const REPEAT_FRAC: f64 = 1.0 / 3.0;
/// Repeats draw from this many most recent distinct contents.
const REPEAT_WINDOW: usize = 256;
/// Most pairs per local reference run in [`expected`].
const CHECK_CHUNK_PAIRS: usize = 8_192;
/// Flight-recorder poll period in the traced run (the ring holds the
/// last 256 requests).
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// The two schemes the traffic runs under (two score windows open at
/// once, plus align windows under the first).
fn schemes() -> [SchemeSpec; 2] {
    [
        SchemeSpec::global_linear(2, -1, -1),
        SchemeSpec::global_affine(2, -1, -2, -1),
    ]
}

/// One distinct request content: `len` consecutive pairs of the
/// [`Pool`] from `first` on. Its codes are built from the pool when
/// they are needed, so the benchmark holds no copy of the traffic and
/// the process's peak memory is mostly the daemon's.
#[derive(Debug, Clone, Copy)]
struct Content {
    spec: SchemeSpec,
    kind: ReqKind,
    first: usize,
    len: usize,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Due time, ns after the phase start.
    due_ns: u64,
    /// Index into the phase's content table.
    content: usize,
}

/// Fresh-content source: the seeded read-pair pool plus a cursor.
/// Pair `k` is pool pair `k mod len`, point-mutated once it wraps, so
/// fresh content does not repeat earlier content (or hit the cache).
struct Pool {
    pairs: Vec<(Seq, Seq)>,
    cursor: usize,
}

impl Pool {
    /// A fresh content of `n` pairs.
    fn take(&mut self, spec: SchemeSpec, kind: ReqKind, n: usize) -> Content {
        let first = self.cursor;
        self.cursor += n;
        Content {
            spec,
            kind,
            first,
            len: n,
        }
    }

    /// The codes of pair `k`.
    fn pair(&self, k: usize) -> CodePair {
        let (q, s) = &self.pairs[k % self.pairs.len()];
        let mut q = q.codes().to_vec();
        let wrap = k / self.pairs.len();
        if wrap > 0 {
            let at = (wrap * 37 + k) % q.len();
            q[at] = (q[at] + 1) % 4;
        }
        (q, s.codes().to_vec())
    }

    /// Logical DP cells of a content (mutation keeps lengths).
    fn cells(&self, c: &Content) -> u64 {
        (c.first..c.first + c.len)
            .map(|k| {
                let (q, s) = &self.pairs[k % self.pairs.len()];
                (q.len() * s.len()) as u64
            })
            .sum()
    }

    /// The codes of a content's pairs.
    fn codes(&self, c: &Content) -> Vec<CodePair> {
        (c.first..c.first + c.len).map(|k| self.pair(k)).collect()
    }

    /// A content as a request frame with wire id `id`.
    fn frame(&self, c: &Content, id: u64) -> Vec<u8> {
        encode_request(&Request {
            id,
            mode: c.kind,
            spec: c.spec,
            pairs: self.codes(c),
        })
    }
}

/// Mean pairs per fresh request of the [`SIZES`] mix.
fn mean_pairs_per_request() -> f64 {
    SIZES
        .iter()
        .map(|&(n, lo, hi)| n as f64 * (lo + hi) as f64 / 2.0)
        .sum::<f64>()
        / SIZES.iter().map(|s| s.0).sum::<usize>() as f64
}

/// Draws without replacement from a fixed multiset, reshuffled each
/// time it runs out, so every run offers the mix in its exact
/// proportions (a random draw per request would move the offered align
/// work by about 20 % from seed to seed).
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(counts: &[(usize, T)]) -> Deck<T> {
        let items = counts
            .iter()
            .flat_map(|&(n, item)| std::iter::repeat_n(item, n))
            .collect();
        Deck { items, next: 0 }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == 0 {
            for i in (1..self.items.len()).rev() {
                self.items.swap(i, rng.range(0, i));
            }
        }
        let item = self.items[self.next];
        self.next = (self.next + 1) % self.items.len();
        item
    }
}

/// Builds an open-loop schedule: Poisson arrivals at `rate` pairs/s
/// for `seconds`, with the kind/scheme/size/repeat mix.
fn schedule(rng: &mut Rng, pool: &mut Pool, rate: f64, seconds: f64) -> (Vec<Content>, Vec<Req>) {
    let [a, b] = schemes();
    let mean_gap_s = mean_pairs_per_request() / rate;
    let classes: Vec<(usize, usize)> = SIZES.iter().enumerate().map(|(c, s)| (s.0, c)).collect();
    let mut classes = Deck::new(&classes);
    let scores = (KIND_DECK - ALIGNS) / 2;
    let mut kinds: Vec<Deck<(SchemeSpec, ReqKind)>> = SIZES
        .iter()
        .map(|_| {
            Deck::new(&[
                (ALIGNS, (a, ReqKind::Align)),
                (scores, (a, ReqKind::Score)),
                (scores, (b, ReqKind::Score)),
            ])
        })
        .collect();
    let mut contents: Vec<Content> = Vec::new();
    let mut reqs = Vec::new();
    let mut t = 0.0;
    loop {
        t += -mean_gap_s * (1.0 - rng.unit()).ln();
        if t >= seconds {
            break;
        }
        let content = if contents.len() >= 8 && rng.unit() < REPEAT_FRAC {
            let lo = contents.len().saturating_sub(REPEAT_WINDOW);
            rng.range(lo, contents.len() - 1)
        } else {
            let class = classes.draw(rng);
            let (spec, kind) = kinds[class].draw(rng);
            let (_, lo, hi) = SIZES[class];
            let size = rng.range(lo, hi);
            contents.push(pool.take(spec, kind, size));
            contents.len() - 1
        };
        reqs.push(Req {
            due_ns: (t * 1e9) as u64,
            content,
        });
    }
    (contents, reqs)
}

/// What one request went through, seen from the client.
#[derive(Debug, Clone, Default)]
struct Outcome {
    send_ns: Option<u64>,
    done_ns: Option<u64>,
    reply: Option<Vec<u8>>,
}

/// Drives one connection through its share of the schedule: sends each
/// request when due, reads replies while waiting for the next. Stops at
/// `deadline_ns` even if replies are missing.
fn drive(
    stream: &mut UnixStream,
    mine: &[(usize, Req)],
    contents: &[Content],
    pool: &Pool,
    id_base: u64,
    epoch: Instant,
    deadline_ns: u64,
) -> Result<(Vec<(usize, Outcome)>, usize), String> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut out: Vec<(usize, Outcome)> =
        mine.iter().map(|&(i, _)| (i, Outcome::default())).collect();
    let mut inflight: VecDeque<usize> = VecDeque::new(); // positions in `mine`
    let mut rbuf: Vec<u8> = Vec::new();
    let mut tmp = vec![0u8; 1 << 16];
    let mut next = 0;
    let mut backlog_at_last_send = 0;
    loop {
        while next < mine.len() && mine[next].1.due_ns <= now() {
            let (i, req) = mine[next];
            let frame = pool.frame(&contents[req.content], id_base + i as u64);
            out[next].1.send_ns = Some(now());
            write_frame(stream, &frame).map_err(|e| format!("send: {e}"))?;
            inflight.push_back(next);
            next += 1;
            if next == mine.len() {
                backlog_at_last_send = inflight.len();
            }
        }
        if next == mine.len() && inflight.is_empty() {
            break;
        }
        let t = now();
        if t >= deadline_ns {
            break;
        }
        let wait = if next < mine.len() {
            mine[next].1.due_ns.saturating_sub(t)
        } else {
            deadline_ns - t
        };
        if wait == 0 {
            continue;
        }
        stream
            .set_read_timeout(Some(Duration::from_nanos(wait.max(20_000))))
            .map_err(|e| format!("timeout: {e}"))?;
        match stream.read(&mut tmp) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => {
                let done = now();
                rbuf.extend_from_slice(&tmp[..n]);
                let mut at = 0;
                while rbuf.len() - at >= 4 {
                    let len = u32::from_le_bytes(rbuf[at..at + 4].try_into().unwrap()) as usize;
                    if rbuf.len() - at < 4 + len {
                        break;
                    }
                    let pos = inflight.pop_front().ok_or("reply without a request")?;
                    out[pos].1.done_ns = Some(done);
                    out[pos].1.reply = Some(rbuf[at + 4..at + 4 + len].to_vec());
                    at += 4 + len;
                }
                rbuf.drain(..at);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
    Ok((out, backlog_at_last_send))
}

/// One phase's client-side results.
struct PhaseRun {
    contents: Vec<Content>,
    reqs: Vec<Req>,
    outcomes: Vec<Outcome>,
    /// Requests still in flight when the last one was sent.
    backlog_at_end: usize,
    /// Offered rate, pairs/s.
    rate: f64,
    /// Request id of `reqs[0]` on the wire.
    id_base: u64,
}

/// Runs one open-loop phase over the connections.
fn run_phase(
    streams: &mut [UnixStream],
    pool: &Pool,
    contents: Vec<Content>,
    reqs: Vec<Req>,
    rate: f64,
    id_base: u64,
) -> Result<PhaseRun, String> {
    let conns = streams.len();
    let last_due = reqs.last().map_or(0, |r| r.due_ns);
    let deadline = last_due + 5_000_000_000;
    let epoch = Instant::now();
    let mut outcomes = vec![Outcome::default(); reqs.len()];
    let mut backlog = 0;
    let results: Vec<_> = std::thread::scope(|sc| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<(usize, Req)> = reqs
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % conns == c)
                    .collect();
                let contents = &contents;
                sc.spawn(move || drive(stream, &mine, contents, pool, id_base, epoch, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    for r in results {
        let (outs, b) = r?;
        backlog += b;
        for (i, o) in outs {
            outcomes[i] = o;
        }
    }
    Ok(PhaseRun {
        contents,
        reqs,
        outcomes,
        backlog_at_end: backlog,
        rate,
        id_base,
    })
}

/// Per-phase verdicts after verification.
#[derive(Default)]
struct Verdict {
    /// Latency from due time per request, ms (refused or failed
    /// requests are infinite: they miss any limit).
    latency_ms: Vec<f64>,
    /// Generator lateness per request, ms.
    lag_ms: Vec<f64>,
    refused: u64,
    failed: u64,
    /// Logical DP cells of the verified score and align replies.
    score_cells: u64,
    align_cells: u64,
    /// Latest reply, ns after the phase start.
    wall_ns: u64,
}

/// Local reference results for every content of a phase:
/// `BatchScheduler` runs per `(scheme, kind)` group, in chunks of at
/// most [`CHECK_CHUNK_PAIRS`] pairs so the codes built for them stay
/// small.
fn expected(
    contents: &[Content],
    pool: &Pool,
    local: &Dispatch,
    sched: &BatchScheduler,
) -> Vec<Option<Results>> {
    let mut groups: HashMap<(u64, bool), Vec<usize>> = HashMap::new();
    for (i, c) in contents.iter().enumerate() {
        groups
            .entry((c.spec.fingerprint(), c.kind == ReqKind::Align))
            .or_default()
            .push(i);
    }
    let mut out: Vec<Option<Results>> = (0..contents.len()).map(|_| None).collect();
    for ((_, align), idx) in groups {
        let spec = contents[idx[0]].spec;
        let mut rest = &idx[..];
        while !rest.is_empty() {
            let mut take = 1;
            let mut n = contents[rest[0]].len;
            while take < rest.len() && n + contents[rest[take]].len <= CHECK_CHUNK_PAIRS {
                n += contents[rest[take]].len;
                take += 1;
            }
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let codes: Vec<CodePair> = chunk
                .iter()
                .flat_map(|&i| pool.codes(&contents[i]))
                .collect();
            let view =
                BatchView::from_refs(codes.iter().map(|(q, s)| PairRef::new(q, s)).collect());
            let mut at = 0;
            if align {
                let Ok(run) = sched.try_align_batch(local, &spec, &view) else {
                    continue;
                };
                for &i in chunk {
                    let n = contents[i].len;
                    out[i] = Some(Results::Alignments(run.results[at..at + n].to_vec()));
                    at += n;
                }
            } else {
                let Ok(run) = sched.try_score_batch(local, &spec, &view) else {
                    continue;
                };
                for &i in chunk {
                    let n = contents[i].len;
                    out[i] = Some(Results::Scores(run.results[at..at + n].to_vec()));
                    at += n;
                }
            }
        }
    }
    out
}

/// Whether a daemon reply matches the local reference: scores
/// bit-identical; alignments with the identical score whose operations
/// replay to it (lane-group composition may pick a different
/// co-optimal path).
fn reply_ok(c: &Content, pool: &Pool, got: &Results, want: &Results) -> bool {
    match (got, want) {
        (Results::Scores(g), Results::Scores(w)) => g == w,
        (Results::Alignments(g), Results::Alignments(w)) => {
            g.len() == w.len()
                && g.iter().zip(w).enumerate().all(|(j, (a, b))| {
                    a == b || {
                        let (q, s) = pool.pair(c.first + j);
                        alignment_ok(&c.spec, a, &seq(&q), &seq(&s), b.score)
                    }
                })
        }
        _ => false,
    }
}

fn seq(codes: &[u8]) -> Seq {
    Seq::from_codes(codes.to_vec()).expect("workload codes are valid")
}

/// Verifies every reply of a phase against `want` (from [`expected`])
/// and derives its latencies.
fn verify(
    phase: &PhaseRun,
    pool: &Pool,
    want: &[Option<Results>],
    report: &mut Report,
    label: &str,
) -> Verdict {
    let mut v = Verdict {
        latency_ms: Vec::with_capacity(phase.reqs.len()),
        lag_ms: Vec::with_capacity(phase.reqs.len()),
        ..Verdict::default()
    };
    for (i, (req, o)) in phase.reqs.iter().zip(&phase.outcomes).enumerate() {
        let c = &phase.contents[req.content];
        if let Some(send) = o.send_ns {
            v.lag_ms.push(send.saturating_sub(req.due_ns) as f64 / 1e6);
        }
        let ok = match o.reply.as_deref().map(decode_message) {
            Some(Ok(Message::Response(resp))) => {
                resp.id == phase.id_base + i as u64
                    && want[req.content]
                        .as_ref()
                        .is_some_and(|w| reply_ok(c, pool, &resp.results, w))
            }
            Some(Ok(Message::Error(e))) if e.code == ErrCode::Overloaded => {
                v.refused += 1;
                false
            }
            _ => false,
        };
        if ok {
            let done = o.done_ns.expect("a reply has a completion time");
            v.latency_ms
                .push(done.saturating_sub(req.due_ns) as f64 / 1e6);
            v.wall_ns = v.wall_ns.max(done);
            match c.kind {
                ReqKind::Align => v.align_cells += pool.cells(c),
                _ => v.score_cells += pool.cells(c),
            }
        } else {
            v.failed += 1;
            v.latency_ms.push(f64::INFINITY);
        }
    }
    let n = phase.reqs.len() as u64;
    let (failed, refused) = (v.failed, v.refused);
    report.check(n, failed, || {
        format!("{label}: {failed} of {n} requests failed ({refused} refused as overloaded)")
    });
    v
}

/// A started daemon with its client connections.
struct Daemon {
    handle: ServerHandle,
    streams: Vec<UnixStream>,
}

impl Daemon {
    fn stop(self) {
        drop(self.streams);
        self.handle.shutdown();
    }
}

/// Starts the daemon, connects the clients and runs the warm-up
/// requests (one per window key), verifying their replies.
fn start(
    args: &Args,
    rep: usize,
    pool: &mut Pool,
    local: &Dispatch,
    sched: &BatchScheduler,
    report: &mut Report,
) -> Result<(Daemon, f64), String> {
    let [a, b] = schemes();
    let warm = vec![
        pool.take(a, ReqKind::Score, 64),
        pool.take(b, ReqKind::Score, 64),
        pool.take(a, ReqKind::Align, 16),
    ];
    let path = args
        .out_dir
        .join(format!("serve-{}-{rep}.sock", std::process::id()));
    let t0 = Instant::now();
    let handle = Server::start(&path, ServeConfig::default(), Arc::new(SystemClock::new()))
        .map_err(|e| format!("daemon start at {}: {e}", path.display()))?;
    let mut streams = (0..nproc())
        .map(|_| UnixStream::connect(&path))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let reqs: Vec<Req> = (0..warm.len())
        .map(|k| Req {
            due_ns: 0,
            content: k,
        })
        .collect();
    let phase = run_phase(&mut streams[..1], pool, warm, reqs, 1.0, 1)?;
    let secs = t0.elapsed().as_secs_f64();
    let want = expected(&phase.contents, pool, local, sched);
    verify(&phase, pool, &want, report, "warm-up");
    Ok((Daemon { handle, streams }, secs))
}

/// Reads one value from the `STATS` exposition.
fn stat(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The percentile `q` of latencies, ms (infinite entries sort last).
fn pct(latency_ms: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(latency_ms), q)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    match run_inner(args, tracer, &mut report) {
        Ok(()) => {}
        Err(e) => report.check(1, 1, || format!("serve_mixed aborted: {e}")),
    }
    report
}

fn run_inner(args: &Args, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let threads = nproc();
    let mut pool = Pool {
        pairs: read_batch(POOL_PAIRS, args.seed),
        cursor: 0,
    };
    let mut rng = Rng::new(args.seed, 0x5e7e);
    let local = Dispatch::standard(Policy::Auto);
    let sched = BatchScheduler::new(BatchCfg::threads(threads));

    let mut setup_times = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let (d, secs) = tracer.span("setup", || {
            start(args, rep, &mut pool, &local, &sched, report)
        })?;
        setup_times.push(secs);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");
    // Wire ids are unique across the run, so daemon records join to
    // client requests by id.
    let mut next_id: u64 = 1_000;
    if !args.trace {
        // Latency at the nominal rate.
        let (contents, reqs) = schedule(&mut rng, &mut pool, NOMINAL_PAIRS_S, args.seconds * 0.8);
        let base = take_ids(&mut next_id, reqs.len());
        let phase = run_phase(
            &mut daemon.streams,
            &pool,
            contents,
            reqs,
            NOMINAL_PAIRS_S,
            base,
        )?;
        let want = expected(&phase.contents, &pool, &local, &sched);
        let v = verify(&phase, &pool, &want, report, "nominal");
        eprintln!(
            "nominal {NOMINAL_PAIRS_S} pairs/s: {} requests ({} failed, {} refused): \
             p50 {:.3} ms, p99 {:.3} ms, lag p99 {:.3} ms",
            v.latency_ms.len(),
            v.failed,
            v.refused,
            pct(&v.latency_ms, 0.5),
            pct(&v.latency_ms, 0.99),
            pct(&v.lag_ms, 0.99)
        );
        daemon.stop();
        for rep in SETUP_REPS..2 * SETUP_REPS {
            let (d, secs) = start(args, rep, &mut pool, &local, &sched, report)?;
            setup_times.push(secs);
            d.stop();
        }
        report.timing("setup_s", "s", &setup_times, false);
        // Served throughput: cells of verified replies over the phase
        // (align cells count twice, as on the batch workloads). Below
        // capacity it follows the offered load; it drops when the
        // daemon falls behind.
        let wall_ns = v.wall_ns.max(1) as f64;
        report.value("score_gcups", "GCUPS", v.score_cells as f64 / wall_ns);
        report.value(
            "align_gcups",
            "GCUPS",
            (v.align_cells * TRACEBACK_CELL_FACTOR) as f64 / wall_ns,
        );
        // The p99 rides in the detail line as serve_p50_ms's tail: on a
        // shared 2-vCPU host it follows the host's scheduling jitter
        // (run-to-run spread up to 0.33), too wide to gate a change on.
        report.timing("serve_p50_ms", "ms", &v.latency_ms, false);
        report.value("peak_rss_mb", "MB", peak_rss_mb());
        return Ok(());
    }

    // Traced run: the nominal phase twice, without and with the
    // flight-recorder sampler, then direct layer calls.
    let half = args.seconds * 0.3;
    let (contents, reqs) = schedule(&mut rng, &mut pool, NOMINAL_PAIRS_S, half);
    let base = take_ids(&mut next_id, reqs.len());
    let plain = tracer.span("serve.nominal_plain", || {
        run_phase(
            &mut daemon.streams,
            &pool,
            contents,
            reqs,
            NOMINAL_PAIRS_S,
            base,
        )
    })?;
    let want = expected(&plain.contents, &pool, &local, &sched);
    let plain_v = verify(&plain, &pool, &want, report, "nominal (untraced)");
    drop(plain);

    let (contents, reqs) = schedule(&mut rng, &mut pool, NOMINAL_PAIRS_S, half);
    let base = take_ids(&mut next_id, reqs.len());
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (phase, records) = tracer.span("serve.nominal_traced", || {
        std::thread::scope(|sc| {
            let handle = &daemon.handle;
            let stop = &stop;
            let sampler = sc.spawn(move || {
                let mut seen: HashMap<u64, anyseq_serve::RequestRecord> = HashMap::new();
                loop {
                    let done = stop.load(std::sync::atomic::Ordering::Acquire);
                    for r in handle.flight_requests() {
                        seen.entry(r.id).or_insert(r);
                    }
                    if done {
                        break seen;
                    }
                    std::thread::sleep(SAMPLE_EVERY);
                }
            });
            let phase = run_phase(
                &mut daemon.streams,
                &pool,
                contents,
                reqs,
                NOMINAL_PAIRS_S,
                base,
            );
            stop.store(true, std::sync::atomic::Ordering::Release);
            (phase, sampler.join().expect("sampler panicked"))
        })
    });
    let phase = phase?;
    let want = expected(&phase.contents, &pool, &local, &sched);
    let v = verify(&phase, &pool, &want, report, "nominal (traced)");
    report.value(
        "trace.overhead_frac",
        "fraction",
        pct(&v.latency_ms, 0.5) / pct(&plain_v.latency_ms, 0.5) - 1.0,
    );
    report.value("serve.p99_ms", "ms", pct(&v.latency_ms, 0.99));
    report.value("loadgen.lag_p99_ms", "ms", pct(&v.lag_ms, 0.99));

    // Request stages from the daemon's records, joined to the client's
    // view by the wire id; the stages' sum against client latency is
    // the attributed share.
    let by_client: HashMap<u64, &anyseq_serve::RequestRecord> = records
        .values()
        .filter(|r| r.client_id >= phase.id_base)
        .map(|r| (r.client_id, r))
        .collect();
    let mut stages: [Vec<f64>; 4] = Default::default();
    let mut matched = 0usize;
    for (i, o) in phase.outcomes.iter().enumerate() {
        let Some(rec) = by_client.get(&(phase.id_base + i as u64)) else {
            continue;
        };
        let (Some(send), Some(done)) = (o.send_ns, o.done_ns) else {
            continue;
        };
        matched += 1;
        for (slot, ns) in stages.iter_mut().zip([
            rec.window_wait_ns(),
            rec.queue_wait_ns(),
            rec.dispatch_ns(),
            rec.reply_write_ns(),
        ]) {
            slot.push(ns as f64 / 1e6);
        }
        let covered = rec.decode_ns()
            + rec.window_wait_ns()
            + rec.queue_wait_ns()
            + rec.dispatch_ns()
            + rec.reply_write_ns();
        tracer.attribute(done.saturating_sub(send), covered);
    }
    eprintln!(
        "flight sampler: {matched} of {} requests matched to daemon records",
        phase.reqs.len()
    );
    for (name, xs) in ["window_wait", "queue_wait", "dispatch", "reply_write"]
        .iter()
        .zip(&stages)
    {
        report.value(&format!("serve.{name}_p50_ms"), "ms", pct(xs, 0.5));
        report.value(&format!("serve.{name}_p99_ms"), "ms", pct(xs, 0.99));
    }
    // Flush triggers per batch: a window that became ready before its
    // deadline (first admission + max delay) crossed the pair target
    // (the byte budget is far out of this traffic's reach); the rest
    // flushed on deadline.
    let window = ServeConfig::default().window;
    let mut windows: HashMap<u64, (u64, u64)> = HashMap::new();
    for r in by_client.values().filter(|r| r.batch_seq != 0) {
        let w = windows.entry(r.batch_seq).or_insert((u64::MAX, u64::MAX));
        w.0 = w.0.min(r.admit_ns);
        w.1 = w.1.min(r.ready_ns);
    }
    let by_count = windows
        .values()
        .filter(|(admit, ready)| ready.saturating_sub(*admit) < window.max_delay_ns * 19 / 20)
        .count();
    eprintln!(
        "flush triggers: {by_count} of {} batches on pair count (target {}), the rest on deadline",
        windows.len(),
        window.target_pairs
    );
    report.value(
        "serve.count_flush_frac",
        "fraction",
        by_count as f64 / windows.len().max(1) as f64,
    );

    // Daemon-side counters: STATS scrape, queue high-water, cache.
    let text = daemon.handle.stats_text();
    let batches = stat(&text, "anyseq_serve_batches_total");
    report.value(
        "serve.batch_pairs",
        "pairs/batch",
        stat(&text, "anyseq_serve_batch_pairs_total") / batches.max(1.0),
    );
    report.value(
        "serve.rejected",
        "count",
        stat(&text, "anyseq_serve_rejected_total"),
    );
    report.value(
        "serve.queue_peak_bytes",
        "bytes",
        daemon.handle.peak_queued_bytes() as f64,
    );
    let cum = daemon.handle.engine().cumulative();
    let c = |k: &str| cum.counters.get(k).copied().unwrap_or(0) as f64;
    let hits = c("cache.hits");
    report.value(
        "cache.hit_ratio",
        "fraction",
        hits / (hits + c("cache.misses")).max(1.0),
    );
    let cache = daemon.handle.engine().dispatch().cache();
    report.value(
        "cache.evictions",
        "count",
        cache.map_or(0, |c| c.evictions()) as f64,
    );
    report.value(
        "cache.bytes",
        "bytes",
        cache.map_or(0, |c| c.bytes()) as f64,
    );
    for stage in ["cache_probe", "hash", "cache_insert"] {
        report.value(
            &format!("engine.stage.{stage}_ns_per_pair"),
            "ns/pair",
            c(&format!("stage.{stage}_ns")) / (cum.pairs.max(1) as f64),
        );
    }

    // Direct layer calls on this workload's frames and pairs.
    let frames: Vec<Vec<u8>> = phase.contents.iter().map(|c| pool.frame(c, 1)).collect();
    let pairs: f64 = phase.contents.iter().map(|c| c.len as f64).sum();
    let (decoded, secs) = tracer.span("serve.proto_decode", || {
        timed(|| frames.iter().filter(|f| decode_message(f).is_ok()).count())
    });
    report.check(frames.len() as u64, (frames.len() - decoded) as u64, || {
        "workload frames failed to decode".into()
    });
    report.value("serve.decode_ns_per_pair", "ns/pair", secs * 1e9 / pairs);
    let responses: Vec<Response> = want
        .iter()
        .flatten()
        .map(|r| Response {
            id: 1,
            results: r.clone(),
        })
        .collect();
    let (bytes, secs) = tracer.span("serve.proto_encode", || {
        timed(|| {
            responses
                .iter()
                .map(|r| encode_response(r).len())
                .sum::<usize>()
        })
    });
    std::hint::black_box(bytes);
    report.value("serve.encode_ns_per_pair", "ns/pair", secs * 1e9 / pairs);

    let spec = schemes()[0];
    let sample: Vec<(CodePair, Score)> = phase
        .contents
        .iter()
        .zip(&want)
        .filter(|(c, _)| c.spec == spec && c.kind == ReqKind::Score)
        .flat_map(|(c, w)| match w {
            Some(Results::Scores(s)) => pool.codes(c).into_iter().zip(s.clone()).collect(),
            _ => Vec::new(),
        })
        .take(4_000)
        .collect();
    let cache = ResultCache::with_budget(32 << 20);
    let keyed: Vec<(CacheKey, PairRef<'_>, Score)> = sample
        .iter()
        .map(|((q, s), score)| {
            let p = PairRef::new(q, s);
            (CacheKey::for_pair(&spec, &p, ReqKind::Score), p, *score)
        })
        .collect();
    let ((), secs) = tracer.span("cache.insert", || {
        timed(|| {
            for (k, p, v) in &keyed {
                cache.insert(k, p, v);
            }
        })
    });
    report.value(
        "cache.insert_ns",
        "ns/op",
        secs * 1e9 / keyed.len().max(1) as f64,
    );
    let (hit, secs) = tracer.span("cache.get", || {
        timed(|| {
            keyed
                .iter()
                .filter(|(k, p, v)| cache.get::<Score>(k, p) == Some(*v))
                .count()
        })
    });
    report.check(keyed.len() as u64, (keyed.len() - hit) as u64, || {
        "direct cache get missed an inserted pair".into()
    });
    report.value(
        "cache.get_hit_ns",
        "ns/op",
        secs * 1e9 / keyed.len().max(1) as f64,
    );
    // Goodput is reported here, ungated: it is the host's capacity, and
    // on a shared 2-vCPU host it moved by up to 0.3 between runs.
    let rate = goodput(
        args.seed,
        args.seconds * 0.7,
        &mut daemon.streams,
        &mut pool,
        &local,
        &sched,
        &mut next_id,
        report,
        tracer,
    )?;
    report.value("serve.goodput_pairs_s", "pairs/s", rate);
    daemon.stop();
    Ok(())
}

/// Goodput within a `seconds` probe budget: an up-down staircase on
/// the ladder. A probe that meets the limit steps up, one that misses
/// steps down; CLIMB rungs until the first reversal, one rung after
/// it. The goodput is the median rung probed after the first reversal,
/// which averages over host stalls that break a single probe.
#[allow(clippy::too_many_arguments)]
fn goodput(
    seed: u64,
    seconds: f64,
    streams: &mut [UnixStream],
    pool: &mut Pool,
    local: &Dispatch,
    sched: &BatchScheduler,
    next_id: &mut u64,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let mut ladder = Ladder {
        seed,
        probes_left: (seconds / PROBE_S).round().max(4.0) as usize,
        probes_run: 0,
    };
    let mut probe = |k: i32, report: &mut Report, tracer: &mut Tracer| {
        ladder.probe(
            k,
            &mut *streams,
            &mut *pool,
            local,
            sched,
            &mut *next_id,
            report,
            tracer,
        )
    };
    // Warm-up: the first probe after the step up from the nominal
    // rate fails whatever the capacity; its verdict is discarded.
    probe(START, report, tracer)?;
    let (mut k, mut step) = (START, CLIMB);
    let mut last: Option<bool> = None;
    let mut tracking: Vec<i32> = Vec::new();
    let mut best_pass: Option<i32> = None;
    while let Some(pass) = probe(k, report, tracer)? {
        if last.is_some_and(|l| l != pass) {
            step = 1;
        }
        if step == 1 {
            tracking.push(k);
        }
        if pass {
            best_pass = best_pass.max(Some(k));
        }
        last = Some(pass);
        k += if pass { step } else { -step };
    }
    tracking.sort_unstable();
    Ok(
        match (
            tracking.get(tracking.len().saturating_sub(1) / 2),
            best_pass,
        ) {
            (Some(&median), _) => rate_of(median),
            (None, Some(best)) => rate_of(best),
            (None, None) => rate_of(k),
        },
    )
}

/// Reserves `n` consecutive wire ids, returning the first.
fn take_ids(next: &mut u64, n: usize) -> u64 {
    let base = *next;
    *next += n as u64;
    base
}

/// Ladder rung `k`: the nominal rate times `RUNG^k`.
fn rate_of(k: i32) -> f64 {
    NOMINAL_PAIRS_S * RUNG.powi(k)
}

/// The goodput ladder's probe budget and seeds.
struct Ladder {
    seed: u64,
    probes_left: usize,
    probes_run: u64,
}

impl Ladder {
    /// Runs one verified `PROBE_S` probe at rung `k`; `None` once the
    /// probe budget is spent, else whether the rung met the limit.
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        k: i32,
        streams: &mut [UnixStream],
        pool: &mut Pool,
        local: &Dispatch,
        sched: &BatchScheduler,
        next_id: &mut u64,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<Option<bool>, String> {
        if self.probes_left == 0 {
            return Ok(None);
        }
        self.probes_left -= 1;
        self.probes_run += 1;
        let rate = rate_of(k);
        let mut rng = Rng::new(self.seed, 0x1add + self.probes_run);
        let (contents, reqs) = schedule(&mut rng, pool, rate, PROBE_S);
        let base = take_ids(next_id, reqs.len());
        let phase = tracer.span("serve.probe", || {
            run_phase(streams, pool, contents, reqs, rate, base)
        })?;
        let want = expected(&phase.contents, pool, local, sched);
        let v = verify_probe(&phase, pool, &want, report);
        let limit_req = rate / mean_pairs_per_request() * LIMIT_MS / 1e3;
        let p99 = pct(&v.latency_ms, 0.99);
        let pass = v.refused == 0
            && v.failed == 0
            && p99 <= LIMIT_MS
            && (phase.backlog_at_end as f64) <= limit_req.max(8.0);
        eprintln!(
            "probe {}: {rate:.0} pairs/s, {} requests ({} failed, {} refused): p99 {p99:.2} ms, \
             backlog {} -> {}",
            self.probes_run,
            phase.reqs.len(),
            v.failed,
            v.refused,
            phase.backlog_at_end,
            if pass { "pass" } else { "fail" }
        );
        Ok(Some(pass))
    }
}

/// [`verify`] for a ladder probe: refusals and over-limit latencies
/// there are the probe's verdict, not a failure of the run; only
/// wrong answers count against it.
fn verify_probe(
    phase: &PhaseRun,
    pool: &Pool,
    want: &[Option<Results>],
    report: &mut Report,
) -> Verdict {
    let mut scratch = Report::default();
    let v = verify(phase, pool, want, &mut scratch, "probe");
    let wrong =
        v.failed - v.refused - phase.outcomes.iter().filter(|o| o.reply.is_none()).count() as u64;
    report.check(phase.reqs.len() as u64, wrong, || {
        format!("probe at {:.0} pairs/s: {wrong} wrong replies", phase.rate)
    });
    v
}
