//! The length-prefixed wire protocol.
//!
//! Every frame on the socket is `u32-LE payload length` + payload; the
//! payload's first byte is a verb tag. All integers are little-endian,
//! sequences travel as 2-bit-alphabet code bytes (`0..=4`, 4 = `N`) and
//! are validated on decode, and alignment ops travel one byte each.
//!
//! ```text
//! REQUEST    = 0x01 id:u64 mode:u8 kind:u8 match:i32 mismatch:i32
//!              gap_tag:u8 (0 ⇒ gap:i32 | 1 ⇒ open:i32 extend:i32)
//!              n_pairs:u32 { q_len:u32 s_len:u32 q:bytes s:bytes }*
//! RESPONSE   = 0x02 id:u64 mode:u8 n:u32
//!              { score:i32 }*                            (mode = score)
//!              { score:i32 q_start:u64 q_end:u64 s_start:u64 s_end:u64
//!                n_ops:u32 ops:bytes }*                  (mode = align)
//! ERROR      = 0x03 id:u64 code:u8 msg_len:u32 msg:utf8
//! STATS      = 0x04                                      (client → server)
//! STATS_TEXT = 0x05 len:u32 text:utf8                    (server → client)
//! HEALTH     = 0x06                                      (client → server)
//! DUMP       = 0x07                                      (client → server)
//! ```
//!
//! `HEALTH` and `DUMP` are both answered with a `STATS_TEXT` frame:
//! `HEALTH` carries a JSON health document (queue depth, window
//! occupancy, and the slow-request log — "SLOWLOG"), `DUMP` carries
//! the flight recorder's Chrome-trace JSON. Reusing the text-reply
//! verb keeps old clients decoding new servers' replies.
//!
//! Decoding is strict: unknown tags, truncated payloads, trailing
//! bytes, invalid sequence codes, schemes the kernels cannot run
//! ([`SchemeSpec::validate`], pairs past [`SchemeSpec::max_pair_len`])
//! and bad UTF-8 all produce a typed
//! [`ProtoError`] — the session layer answers with an `ERROR` frame
//! (code [`ErrCode::Malformed`]) instead of hanging up, so one bad
//! client frame cannot silently desync into a dropped connection.

use anyseq_core::alignment::{AlignOp, Alignment};
use anyseq_core::score::Score;
use anyseq_engine::{GapSpec, KindSpec, ReqKind, SchemeError, SchemeSpec};
use std::io::{Read, Write};

/// Default cap on a single frame's payload (64 MiB). A frame above the
/// cap aborts the connection (the stream can no longer be trusted to
/// be frame-aligned), unlike in-frame decode errors which are typed.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const VERB_REQUEST: u8 = 0x01;
const VERB_RESPONSE: u8 = 0x02;
const VERB_ERROR: u8 = 0x03;
const VERB_STATS: u8 = 0x04;
const VERB_STATS_TEXT: u8 = 0x05;
const VERB_HEALTH: u8 = 0x06;
const VERB_DUMP: u8 = 0x07;

/// Mints a process-unique server-side request id, starting at 1 and
/// strictly increasing. Minted at frame decode in the session layer,
/// the id names the request in the slow log, the flight recorder, and
/// trace lanes — identity the client-chosen [`Request::id`] cannot
/// provide, since clients pick ids independently.
pub fn mint_request_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One owned query/subject pair of validated sequence codes.
pub type CodePair = (Vec<u8>, Vec<u8>);

/// A client's alignment request: one scheme, one mode, many pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id echoed on the response; a client that
    /// pipelines keeps its own books with it (responses also arrive in
    /// submission order, so the id is a cross-check, not a necessity).
    pub id: u64,
    /// Score-only or full alignment.
    pub mode: ReqKind,
    /// The alignment scheme every pair of this request runs under.
    pub spec: SchemeSpec,
    /// Query/subject code pairs.
    pub pairs: Vec<CodePair>,
}

impl Request {
    /// Sequence payload bytes — the unit of queue-budget accounting.
    pub fn payload_bytes(&self) -> u64 {
        self.pairs
            .iter()
            .map(|(q, s)| (q.len() + s.len()) as u64)
            .sum()
    }
}

/// Per-pair results, shaped by the request's mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Results {
    /// Scores, in the request's pair order.
    Scores(Vec<Score>),
    /// Full alignments, in the request's pair order.
    Alignments(Vec<Alignment>),
}

impl Results {
    /// Number of per-pair results carried.
    pub fn len(&self) -> usize {
        match self {
            Results::Scores(v) => v.len(),
            Results::Alignments(v) => v.len(),
        }
    }

    /// Whether no results are carried.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A successful reply to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// Per-pair results in the request's pair order.
    pub results: Results,
}

/// Typed error classes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Admission control refused the request (queue budget exhausted).
    /// Retry later; nothing was enqueued.
    Overloaded,
    /// The frame failed to decode; the connection stays usable.
    Malformed,
    /// The request decodes but asks for something the server cannot
    /// run.
    Unsupported,
    /// The server lost the ability to answer (e.g. shutdown mid-batch).
    Internal,
}

impl ErrCode {
    fn tag(self) -> u8 {
        match self {
            ErrCode::Overloaded => 1,
            ErrCode::Malformed => 2,
            ErrCode::Unsupported => 3,
            ErrCode::Internal => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<ErrCode> {
        match tag {
            1 => Some(ErrCode::Overloaded),
            2 => Some(ErrCode::Malformed),
            3 => Some(ErrCode::Unsupported),
            4 => Some(ErrCode::Internal),
            _ => None,
        }
    }
}

/// An error reply (`id` = 0 when the request id never decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The request id being refused, or 0 if unknown.
    pub id: u64,
    /// Error class.
    pub code: ErrCode,
    /// Human-readable detail.
    pub message: String,
}

/// Any decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A client request.
    Request(Request),
    /// A server response.
    Response(Response),
    /// A server error.
    Error(ErrorFrame),
    /// A client metrics scrape.
    Stats,
    /// The Prometheus text exposition answering a scrape.
    StatsText(String),
    /// A client health probe (queue depth + slow-request log); the
    /// server answers with a JSON document in a `StatsText` frame.
    Health,
    /// A client flight-recorder dump request; the server answers with
    /// Chrome-trace JSON in a `StatsText` frame.
    Dump,
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before a field completed.
    Truncated,
    /// Bytes remained after the message ended.
    Trailing(usize),
    /// Unknown verb tag.
    UnknownVerb(u8),
    /// Unknown mode tag.
    UnknownMode(u8),
    /// Unknown alignment-kind tag.
    UnknownKind(u8),
    /// Unknown gap-model tag.
    UnknownGap(u8),
    /// Unknown alignment-op tag.
    UnknownOp(u8),
    /// Unknown error-code tag.
    UnknownErrCode(u8),
    /// A sequence byte outside the `0..=4` code alphabet.
    BadCode {
        /// Offending byte value.
        code: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A request scheme the kernels cannot run, or a pair too long for
    /// it.
    BadScheme(SchemeError),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::UnknownVerb(t) => write!(f, "unknown verb tag {t:#04x}"),
            ProtoError::UnknownMode(t) => write!(f, "unknown mode tag {t}"),
            ProtoError::UnknownKind(t) => write!(f, "unknown alignment-kind tag {t}"),
            ProtoError::UnknownGap(t) => write!(f, "unknown gap-model tag {t}"),
            ProtoError::UnknownOp(t) => write!(f, "unknown alignment-op tag {t}"),
            ProtoError::UnknownErrCode(t) => write!(f, "unknown error-code tag {t}"),
            ProtoError::BadCode { code } => {
                write!(f, "sequence byte {code} outside the 0..=4 code alphabet")
            }
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::BadScheme(e) => write!(f, "invalid scheme: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------- encode

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn mode_tag(mode: ReqKind) -> u8 {
    match mode {
        ReqKind::Score => 0,
        ReqKind::Align => 1,
    }
}

fn kind_tag(kind: KindSpec) -> u8 {
    match kind {
        KindSpec::Global => 0,
        KindSpec::Local => 1,
        KindSpec::SemiGlobal => 2,
        KindSpec::FreeEnd => 3,
    }
}

fn op_tag(op: AlignOp) -> u8 {
    match op {
        AlignOp::Match => 0,
        AlignOp::Mismatch => 1,
        AlignOp::GapS => 2,
        AlignOp::GapQ => 3,
    }
}

/// Encodes a request payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let seq_bytes: usize = req.pairs.iter().map(|(q, s)| q.len() + s.len()).sum();
    let mut out = Vec::with_capacity(32 + req.pairs.len() * 8 + seq_bytes);
    out.push(VERB_REQUEST);
    put_u64(&mut out, req.id);
    out.push(mode_tag(req.mode));
    out.push(kind_tag(req.spec.kind));
    put_i32(&mut out, req.spec.match_score);
    put_i32(&mut out, req.spec.mismatch);
    match req.spec.gap {
        GapSpec::Linear { gap } => {
            out.push(0);
            put_i32(&mut out, gap);
        }
        GapSpec::Affine { open, extend } => {
            out.push(1);
            put_i32(&mut out, open);
            put_i32(&mut out, extend);
        }
    }
    put_u32(&mut out, req.pairs.len() as u32);
    for (q, s) in &req.pairs {
        put_u32(&mut out, q.len() as u32);
        put_u32(&mut out, s.len() as u32);
        out.extend_from_slice(q);
        out.extend_from_slice(s);
    }
    out
}

/// Encodes a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + resp.results.len() * 8);
    out.push(VERB_RESPONSE);
    put_u64(&mut out, resp.id);
    match &resp.results {
        Results::Scores(scores) => {
            out.push(mode_tag(ReqKind::Score));
            put_u32(&mut out, scores.len() as u32);
            for &sc in scores {
                put_i32(&mut out, sc);
            }
        }
        Results::Alignments(alns) => {
            out.push(mode_tag(ReqKind::Align));
            put_u32(&mut out, alns.len() as u32);
            for aln in alns {
                put_i32(&mut out, aln.score);
                put_u64(&mut out, aln.q_start as u64);
                put_u64(&mut out, aln.q_end as u64);
                put_u64(&mut out, aln.s_start as u64);
                put_u64(&mut out, aln.s_end as u64);
                put_u32(&mut out, aln.ops.len() as u32);
                out.extend(aln.ops.iter().map(|&op| op_tag(op)));
            }
        }
    }
    out
}

/// Encodes an error payload (no length prefix).
pub fn encode_error(err: &ErrorFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + err.message.len());
    out.push(VERB_ERROR);
    put_u64(&mut out, err.id);
    out.push(err.code.tag());
    put_u32(&mut out, err.message.len() as u32);
    out.extend_from_slice(err.message.as_bytes());
    out
}

/// Encodes a metrics-scrape payload (no length prefix).
pub fn encode_stats() -> Vec<u8> {
    vec![VERB_STATS]
}

/// Encodes a health-probe payload (no length prefix).
pub fn encode_health() -> Vec<u8> {
    vec![VERB_HEALTH]
}

/// Encodes a flight-recorder dump request payload (no length prefix).
pub fn encode_dump() -> Vec<u8> {
    vec![VERB_DUMP]
}

/// Encodes a metrics exposition payload (no length prefix).
pub fn encode_stats_text(text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + text.len());
    out.push(VERB_STATS_TEXT);
    put_u32(&mut out, text.len() as u32);
    out.extend_from_slice(text.as_bytes());
    out
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, ProtoError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() > 0 {
            Err(ProtoError::Trailing(self.remaining()))
        } else {
            Ok(())
        }
    }
}

fn decode_mode(tag: u8) -> Result<ReqKind, ProtoError> {
    match tag {
        0 => Ok(ReqKind::Score),
        1 => Ok(ReqKind::Align),
        t => Err(ProtoError::UnknownMode(t)),
    }
}

fn decode_codes(r: &mut Reader<'_>, len: usize) -> Result<Vec<u8>, ProtoError> {
    let bytes = r.take(len)?;
    if let Some(&code) = bytes.iter().find(|&&b| b > 4) {
        return Err(ProtoError::BadCode { code });
    }
    Ok(bytes.to_vec())
}

/// Decodes one payload into a typed [`Message`].
pub fn decode_message(payload: &[u8]) -> Result<Message, ProtoError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let verb = r.u8()?;
    let msg = match verb {
        VERB_REQUEST => {
            let id = r.u64()?;
            let mode = decode_mode(r.u8()?)?;
            let kind = match r.u8()? {
                0 => KindSpec::Global,
                1 => KindSpec::Local,
                2 => KindSpec::SemiGlobal,
                3 => KindSpec::FreeEnd,
                t => return Err(ProtoError::UnknownKind(t)),
            };
            let match_score = r.i32()?;
            let mismatch = r.i32()?;
            let gap = match r.u8()? {
                0 => GapSpec::Linear { gap: r.i32()? },
                1 => GapSpec::Affine {
                    open: r.i32()?,
                    extend: r.i32()?,
                },
                t => return Err(ProtoError::UnknownGap(t)),
            };
            let spec = SchemeSpec {
                kind,
                match_score,
                mismatch,
                gap,
            };
            spec.validate().map_err(ProtoError::BadScheme)?;
            let max = spec.max_pair_len();
            let n = r.u32()? as usize;
            // Capacity is clamped by what the payload could possibly
            // hold (≥8 bytes per pair), so a forged count cannot force
            // a huge allocation before truncation is detected.
            let mut pairs = Vec::with_capacity(n.min(r.remaining() / 8));
            for _ in 0..n {
                let q_len = r.u32()? as usize;
                let s_len = r.u32()? as usize;
                let len = q_len.saturating_add(s_len);
                if len > max {
                    return Err(ProtoError::BadScheme(SchemeError::TooLong { len, max }));
                }
                let q = decode_codes(&mut r, q_len)?;
                let s = decode_codes(&mut r, s_len)?;
                pairs.push((q, s));
            }
            Message::Request(Request {
                id,
                mode,
                spec,
                pairs,
            })
        }
        VERB_RESPONSE => {
            let id = r.u64()?;
            let mode = decode_mode(r.u8()?)?;
            let n = r.u32()? as usize;
            let results = match mode {
                ReqKind::Score => {
                    let mut scores = Vec::with_capacity(n.min(r.remaining() / 4));
                    for _ in 0..n {
                        scores.push(r.i32()?);
                    }
                    Results::Scores(scores)
                }
                ReqKind::Align => {
                    let mut alns = Vec::with_capacity(n.min(r.remaining() / 40));
                    for _ in 0..n {
                        let score = r.i32()?;
                        let q_start = r.u64()? as usize;
                        let q_end = r.u64()? as usize;
                        let s_start = r.u64()? as usize;
                        let s_end = r.u64()? as usize;
                        let n_ops = r.u32()? as usize;
                        let op_bytes = r.take(n_ops)?;
                        let mut ops = Vec::with_capacity(n_ops);
                        for &b in op_bytes {
                            ops.push(match b {
                                0 => AlignOp::Match,
                                1 => AlignOp::Mismatch,
                                2 => AlignOp::GapS,
                                3 => AlignOp::GapQ,
                                t => return Err(ProtoError::UnknownOp(t)),
                            });
                        }
                        alns.push(Alignment {
                            score,
                            ops,
                            q_start,
                            q_end,
                            s_start,
                            s_end,
                        });
                    }
                    Results::Alignments(alns)
                }
            };
            Message::Response(Response { id, results })
        }
        VERB_ERROR => {
            let id = r.u64()?;
            let code = ErrCode::from_tag(r.u8()?).ok_or_else(|| {
                // Re-read impossible here; the tag was consumed. Report
                // the value via the error variant instead.
                ProtoError::UnknownErrCode(payload[9])
            })?;
            let len = r.u32()? as usize;
            let message =
                String::from_utf8(r.take(len)?.to_vec()).map_err(|_| ProtoError::BadUtf8)?;
            Message::Error(ErrorFrame { id, code, message })
        }
        VERB_STATS => Message::Stats,
        VERB_HEALTH => Message::Health,
        VERB_DUMP => Message::Dump,
        VERB_STATS_TEXT => {
            let len = r.u32()? as usize;
            let text = String::from_utf8(r.take(len)?.to_vec()).map_err(|_| ProtoError::BadUtf8)?;
            Message::StatsText(text)
        }
        t => return Err(ProtoError::UnknownVerb(t)),
    };
    r.finish()?;
    Ok(msg)
}

// --------------------------------------------------------------- framing

/// Writes one `u32-LE length` + payload frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. `Ok(None)` is a clean EOF (the peer
/// closed between frames); EOF inside a frame, or a length above
/// `max_bytes`, is an error — the stream is no longer frame-aligned.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_bytes {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_bytes}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            id: 7,
            mode: ReqKind::Align,
            spec: SchemeSpec::global_affine(2, -1, -2, -1),
            pairs: vec![(vec![0, 1, 2, 3], vec![0, 1, 3, 3, 4]), (vec![2], vec![])],
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        assert_eq!(req.payload_bytes(), 10);
        let payload = encode_request(&req);
        assert_eq!(decode_message(&payload), Ok(Message::Request(req)));
        // Linear gaps and score mode take the other branches.
        let req = Request {
            id: u64::MAX,
            mode: ReqKind::Score,
            spec: SchemeSpec::global_linear(1, -3, -2),
            pairs: vec![],
        };
        let payload = encode_request(&req);
        assert_eq!(decode_message(&payload), Ok(Message::Request(req)));
    }

    #[test]
    fn response_round_trips() {
        let scores = Response {
            id: 1,
            results: Results::Scores(vec![5, -17, i32::MIN]),
        };
        assert_eq!(
            decode_message(&encode_response(&scores)),
            Ok(Message::Response(scores))
        );
        let alns = Response {
            id: 2,
            results: Results::Alignments(vec![Alignment {
                score: -4,
                ops: vec![
                    AlignOp::Match,
                    AlignOp::GapS,
                    AlignOp::Mismatch,
                    AlignOp::GapQ,
                ],
                q_start: 0,
                q_end: 3,
                s_start: 1,
                s_end: 4,
            }]),
        };
        assert_eq!(
            decode_message(&encode_response(&alns)),
            Ok(Message::Response(alns))
        );
    }

    #[test]
    fn error_and_stats_round_trip() {
        let err = ErrorFrame {
            id: 9,
            code: ErrCode::Overloaded,
            message: "queued 128 B over the 64 B budget".into(),
        };
        assert_eq!(decode_message(&encode_error(&err)), Ok(Message::Error(err)));
        assert_eq!(decode_message(&encode_stats()), Ok(Message::Stats));
        assert_eq!(decode_message(&encode_health()), Ok(Message::Health));
        assert_eq!(decode_message(&encode_dump()), Ok(Message::Dump));
        // Single-byte verbs reject trailing bytes like every frame.
        assert_eq!(
            decode_message(&[encode_health()[0], 0]),
            Err(ProtoError::Trailing(1))
        );
        assert_eq!(
            decode_message(&encode_stats_text("serve_requests_total 3\n")),
            Ok(Message::StatsText("serve_requests_total 3\n".into()))
        );
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert_eq!(decode_message(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_message(&[0x7f]), Err(ProtoError::UnknownVerb(0x7f)));
        let mut ok = encode_request(&sample_request());
        // Truncation anywhere inside the payload is detected.
        for cut in [1, 10, ok.len() - 1] {
            assert_eq!(decode_message(&ok[..cut]), Err(ProtoError::Truncated));
        }
        // Trailing garbage is rejected, not ignored.
        ok.push(0);
        assert_eq!(decode_message(&ok), Err(ProtoError::Trailing(1)));
        ok.pop();
        // A sequence byte outside the code alphabet is rejected.
        let bad_code_at = ok.len() - 1;
        let saved = ok[bad_code_at];
        ok[bad_code_at] = 9;
        assert_eq!(decode_message(&ok), Err(ProtoError::BadCode { code: 9 }));
        ok[bad_code_at] = saved;
        // Unknown mode/kind/gap tags are rejected.
        let mut bad = ok.clone();
        bad[9] = 7;
        assert_eq!(decode_message(&bad), Err(ProtoError::UnknownMode(7)));
        let mut bad = ok.clone();
        bad[10] = 9;
        assert_eq!(decode_message(&bad), Err(ProtoError::UnknownKind(9)));
        let mut bad = ok;
        bad[19] = 5;
        assert_eq!(decode_message(&bad), Err(ProtoError::UnknownGap(5)));
        // A forged pair count larger than the payload cannot allocate
        // unboundedly and is reported as truncation.
        let mut forged = encode_request(&Request {
            id: 0,
            mode: ReqKind::Score,
            spec: SchemeSpec::global_linear(2, -1, -1),
            pairs: vec![],
        });
        let n_off = forged.len() - 4;
        forged[n_off..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_message(&forged), Err(ProtoError::Truncated));
    }

    #[test]
    fn schemes_the_kernels_cannot_run_are_refused() {
        let request = |spec, len| {
            encode_request(&Request {
                id: 3,
                mode: ReqKind::Score,
                spec,
                pairs: vec![(vec![0; len], vec![1; len])],
            })
        };
        // A positive linear gap used to reach `scoring::linear`'s
        // assertion inside a scheduler worker.
        assert_eq!(
            decode_message(&request(SchemeSpec::global_linear(2, -1, 5), 4)),
            Err(ProtoError::BadScheme(SchemeError::PositiveGap {
                field: "gap",
                value: 5
            }))
        );
        // Pairs past the scheme's i32 length budget are refused too.
        let huge = SchemeSpec::global_linear(1 << 16, -(1 << 16), -1);
        let (max, half) = (huge.max_pair_len(), huge.max_pair_len() / 2);
        assert!(decode_message(&request(huge, half)).is_ok());
        assert_eq!(
            decode_message(&request(huge, half + 1)),
            Err(ProtoError::BadScheme(SchemeError::TooLong {
                len: 2 * (half + 1),
                max
            }))
        );
    }

    #[test]
    fn minted_request_ids_are_unique_and_increasing() {
        let a = mint_request_id();
        let b = mint_request_id();
        assert!(b > a && a >= 1);
        let from_threads: Vec<u64> = (0..4)
            .map(|_| std::thread::spawn(|| (0..100).map(|_| mint_request_id()).collect::<Vec<_>>()))
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        let mut sorted = from_threads.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), from_threads.len(), "ids must never collide");
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_stats()).unwrap();
        write_frame(&mut wire, &encode_stats_text("x 1\n")).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some(encode_stats().as_slice())
        );
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().as_deref(),
            Some(encode_stats_text("x 1\n").as_slice())
        );
        // Clean EOF between frames.
        assert_eq!(read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap(), None);
    }

    #[test]
    fn oversized_and_split_frames_are_io_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 100]).unwrap();
        let err = read_frame(&mut std::io::Cursor::new(&wire), 10).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // EOF mid-header and mid-payload are not clean EOFs.
        let err = read_frame(&mut std::io::Cursor::new(&wire[..2]), 1024).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let err = read_frame(&mut std::io::Cursor::new(&wire[..30]), 1024).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
