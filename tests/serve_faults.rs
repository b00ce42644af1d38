//! Fault injection against the serving layer: clients that vanish
//! mid-flight, garbage on the wire, and bursts past the admission
//! budget. The daemon's contracts under fire:
//!
//! * a disconnect never stalls the window, leaks queue bytes, or
//!   poisons another connection's results;
//! * a malformed frame gets a *typed* error reply, not a hangup, and
//!   the connection stays usable;
//! * overload is a synchronous, accounted refusal (`Overloaded`,
//!   counted in `anyseq_serve_rejected_total`) — accepted requests
//!   still complete, the queue gauge is bounded by the budget and
//!   returns to exactly 0 after the storm.

use anyseq::core::score::Score;
use anyseq::serve::proto::Results;
use anyseq::serve::{
    ErrCode, FakeClock, ReqKind, SchemeSpec, ServeClient, ServeConfig, Server, ServerHandle,
    ServerReply, SystemClock, WindowCfg,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn socket_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "anyseq-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Extracts one value from the daemon's Prometheus exposition.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("STATS exposition is missing {name}"))
}

/// Polls until the batcher queue is fully drained (both the live
/// accounting and the exported gauges must reach exactly 0).
fn wait_for_drained_queue(server: &ServerHandle) {
    for _ in 0..500 {
        if server.queued_bytes() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.queued_bytes(), 0, "queue bytes leaked");
    let stats = server.stats_text();
    assert_eq!(
        metric(&stats, "anyseq_serve_queue_bytes"),
        0.0,
        "queue-bytes gauge did not return to 0"
    );
    assert_eq!(
        metric(&stats, "anyseq_serve_queue_depth"),
        0.0,
        "queue-depth gauge did not return to 0"
    );
}

fn spec() -> SchemeSpec {
    SchemeSpec::global_linear(2, -1, -1)
}

/// `n` pairs of `len`-byte sequences: `2 * n * len` queue bytes each.
fn bulk_pairs(n: usize, len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|k| (vec![(k % 4) as u8; len], vec![0u8; len]))
        .collect()
}

#[test]
fn disconnect_mid_flight_does_not_poison_other_connections() {
    let server = Server::start(
        socket_path("faults-disco"),
        ServeConfig::default(),
        Arc::new(SystemClock::new()),
    )
    .expect("daemon start failed");

    // The vanishing client: submit into the window, then hang up
    // before the reply can be written.
    let mut ghost = ServeClient::connect(server.path()).expect("connect failed");
    ghost
        .submit(ReqKind::Score, spec(), bulk_pairs(8, 64))
        .expect("submit failed");
    drop(ghost);

    // A well-behaved client in (at least potentially) the same window
    // must be unaffected: exact scores, no stall, no error.
    let mut client = ServeClient::connect(server.path()).expect("connect failed");
    let results = client
        .roundtrip(
            ReqKind::Score,
            spec(),
            vec![(vec![0, 1, 2, 3], vec![0, 1, 3, 3])],
        )
        .expect("roundtrip failed")
        .expect("request refused");
    assert_eq!(results, Results::Scores(vec![5]));

    // The ghost's queue bytes were released when its batch was taken,
    // receiver liveness notwithstanding.
    wait_for_drained_queue(&server);
    let stats = server.stats_text();
    assert_eq!(metric(&stats, "anyseq_serve_requests_total"), 2.0);
    assert_eq!(metric(&stats, "anyseq_serve_rejected_total"), 0.0);
    server.shutdown();
}

#[test]
fn malformed_frame_gets_a_typed_error_not_a_hangup() {
    let server = Server::start(
        socket_path("faults-proto"),
        ServeConfig::default(),
        Arc::new(SystemClock::new()),
    )
    .expect("daemon start failed");
    let mut client = ServeClient::connect(server.path()).expect("connect failed");

    // Garbage verb + trailing junk: must come back as a typed
    // `Malformed` error frame on the same connection.
    client.send_raw(&[0xFF, 1, 2, 3]).expect("send failed");
    match client.recv().expect("recv failed") {
        ServerReply::Error(err) => {
            assert_eq!(err.code, ErrCode::Malformed);
            assert!(!err.message.is_empty(), "error frame should say why");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    // A truncated-but-valid-verb payload is malformed too.
    client.send_raw(&[0x01, 9]).expect("send failed");
    match client.recv().expect("recv failed") {
        ServerReply::Error(err) => assert_eq!(err.code, ErrCode::Malformed),
        other => panic!("expected a typed error, got {other:?}"),
    }

    // The connection survived both: a well-formed request still works.
    let results = client
        .roundtrip(
            ReqKind::Score,
            spec(),
            vec![(vec![0, 1, 2, 3], vec![0, 1, 3, 3])],
        )
        .expect("roundtrip failed")
        .expect("request refused");
    assert_eq!(results, Results::Scores(vec![5]));

    let stats = client.stats().expect("stats failed");
    assert_eq!(metric(&stats, "anyseq_serve_malformed_total"), 2.0);
    server.shutdown();
}

/// A request whose scheme no kernel can run (a positive linear gap)
/// used to reach `scoring::linear`'s assertion inside a scheduler
/// worker and kill the dispatcher, so every later client hung. The
/// decoder now refuses it with a typed error, and the daemon keeps
/// serving.
#[test]
fn poison_scheme_gets_a_typed_error_and_the_next_client_is_served() {
    let server = Server::start(
        socket_path("faults-scheme"),
        ServeConfig::default(),
        Arc::new(SystemClock::new()),
    )
    .expect("daemon start failed");
    // The clients run on their own thread, so a daemon that stops
    // answering fails the test instead of hanging it.
    let path = server.path().to_path_buf();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pairs = vec![(vec![0, 1, 2, 3], vec![0, 1, 3, 3])];
        let mut poison = ServeClient::connect(&path).expect("connect failed");
        let refused = poison
            .roundtrip(
                ReqKind::Score,
                SchemeSpec::global_linear(2, -1, 5),
                pairs.clone(),
            )
            .expect("the poison request must get a reply, not a hangup");
        let mut next = ServeClient::connect(&path).expect("connect failed");
        let served = next.roundtrip(ReqKind::Score, spec(), pairs);
        tx.send((refused, served)).unwrap();
    });
    let (refused, served) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the daemon stopped answering after the poison request");
    let refused = refused.expect_err("a positive gap must be refused");
    assert_eq!(refused.code, ErrCode::Malformed);
    assert!(refused.message.contains("gap"), "{}", refused.message);
    let results = served.expect("roundtrip failed").expect("request refused");
    assert_eq!(results, Results::Scores(vec![5]));
    server.shutdown();
}

/// Deterministic backpressure: with the clock frozen nothing can
/// flush, so admission arithmetic is exact — requests 1–2 fit the
/// budget, 3–6 are refused synchronously. Thawing the clock completes
/// the accepted ones; every reply arrives in submission order.
#[test]
fn overload_is_synchronous_accounted_and_recoverable() {
    let clock = Arc::new(FakeClock::new());
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns: 1_000_000,
            target_pairs: 1 << 20,
            max_batch_bytes: u64::MAX,
            queue_budget_bytes: 2_000,
        },
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(socket_path("faults-burst"), cfg, clock.clone() as Arc<_>)
        .expect("daemon start failed");
    let mut client = ServeClient::connect(server.path()).expect("connect failed");

    // 6 requests x 800 queue bytes against a 2000-byte budget.
    for _ in 0..6 {
        client
            .submit(ReqKind::Score, spec(), bulk_pairs(4, 100))
            .expect("submit failed");
    }

    // Nothing has flushed yet (fake time is frozen), so the refusals
    // are already decided; thaw the clock to let the accepted two run.
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let (clock, stop) = (clock.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(2_000_000);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for k in 0..6 {
        match client.recv().expect("recv failed") {
            ServerReply::Response { id, results } => {
                assert_eq!(id, k + 1, "reply out of submission order");
                accepted += 1;
                match results {
                    Results::Scores(v) => assert_eq!(v.len(), 4),
                    other => panic!("score request answered with {other:?}"),
                }
            }
            ServerReply::Error(err) => {
                assert_eq!(err.code, ErrCode::Overloaded);
                assert_eq!(err.id, k + 1, "refusal out of submission order");
                rejected += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!((accepted, rejected), (2, 4));

    // Accounting: the metric equals the observed refusals, and the
    // peak queue level never exceeded the budget.
    let stats = client.stats().expect("stats failed");
    assert_eq!(metric(&stats, "anyseq_serve_rejected_total"), 4.0);
    assert_eq!(metric(&stats, "anyseq_serve_requests_total"), 6.0);
    assert!(server.peak_queued_bytes() <= 2_000);
    assert_eq!(server.peak_queued_bytes(), 1_600);
    wait_for_drained_queue(&server);

    // Recovery: the same connection is admitted again after the storm.
    let results = client
        .roundtrip(ReqKind::Score, spec(), bulk_pairs(2, 50))
        .expect("roundtrip failed")
        .expect("post-storm request refused");
    assert!(matches!(results, Results::Scores(ref v) if v.len() == 2));

    stop.store(true, Ordering::Relaxed);
    pump.join().expect("clock pump panicked");
    server.shutdown();
}

/// The concurrent storm: several clients burst past the budget at
/// once. Rejection *counts* are interleaving-dependent, but the books
/// must balance — client-observed refusals equal the metric, every
/// accepted request completes with exact scores, the peak stays under
/// budget, and the whole thing terminates (no deadlock).
#[test]
fn concurrent_burst_balances_the_books() {
    const CLIENTS: usize = 3;
    const REQS: u64 = 6;
    let clock = Arc::new(FakeClock::new());
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns: 1_000_000,
            target_pairs: 1 << 20,
            max_batch_bytes: u64::MAX,
            queue_budget_bytes: 2_000,
        },
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(socket_path("faults-storm"), cfg, clock.clone() as Arc<_>)
        .expect("daemon start failed");

    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let (clock, stop) = (clock.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(2_000_000);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    // Local baseline for the one workload every client sends.
    let pairs = bulk_pairs(4, 100);
    let expected: Vec<Score> = {
        use anyseq::prelude::*;
        pairs
            .iter()
            .map(|(q, s)| {
                let q = Seq::from_codes(q.clone()).unwrap();
                let s = Seq::from_codes(s.clone()).unwrap();
                global(linear(simple(2, -1), -1)).score(&q, &s)
            })
            .collect()
    };

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let sock = server.path().to_path_buf();
            let pairs = pairs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&sock).expect("connect failed");
                for _ in 0..REQS {
                    client
                        .submit(ReqKind::Score, spec(), pairs.clone())
                        .expect("submit failed");
                }
                let mut rejected = 0u64;
                for _ in 0..REQS {
                    match client.recv().expect("recv failed") {
                        ServerReply::Response { results, .. } => {
                            assert_eq!(results, Results::Scores(expected.clone()));
                        }
                        ServerReply::Error(err) => {
                            assert_eq!(err.code, ErrCode::Overloaded);
                            rejected += 1;
                        }
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
                rejected
            })
        })
        .collect();
    let client_rejections: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("client panicked"))
        .sum();

    let stats = server.stats_text();
    assert_eq!(
        metric(&stats, "anyseq_serve_rejected_total"),
        client_rejections as f64,
        "metric and client-observed refusals disagree"
    );
    assert_eq!(
        metric(&stats, "anyseq_serve_requests_total"),
        (CLIENTS as u64 * REQS) as f64
    );
    assert!(server.peak_queued_bytes() <= 2_000, "budget breached");
    wait_for_drained_queue(&server);

    stop.store(true, Ordering::Relaxed);
    pump.join().expect("clock pump panicked");
    server.shutdown();
}
