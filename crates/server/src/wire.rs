//! The wire protocol: compact length-prefixed frames.
//!
//! Every frame is `[u32 LE length][u8 opcode][payload]`, where `length`
//! counts the opcode byte plus the payload (so the minimum legal value is
//! 1). Requests and responses share the envelope; opcodes above `0x80` are
//! responses.
//!
//! | opcode | frame            | payload                              |
//! |--------|------------------|--------------------------------------|
//! | `0x01` | `PUT`            | `[u16 LE klen][key][value]`          |
//! | `0x02` | `GET`            | `[key]`                              |
//! | `0x03` | `DEL`            | `[key]`                              |
//! | `0x04` | `STATS`          | empty                                |
//! | `0x05` | `FLUSH`          | empty                                |
//! | `0x06` | `SHUTDOWN`       | empty                                |
//! | `0x07` | `PING`           | empty                                |
//! | `0x08` | `MULTI`          | `[u16 LE count][count nested frames]`|
//! | `0x09` | `REPL_BATCH`     | `[u32 LE shard][u64 LE seq][u16 LE count][count entries]` |
//! | `0x0A` | `PROMOTE`        | empty                                |
//! | `0x0B` | `REPL_HELLO`     | `[u32 LE shard count]`               |
//! | `0x80` | `OK`             | empty                                |
//! | `0x81` | `VALUE`          | `[value]`                            |
//! | `0x82` | `NOT_FOUND`      | empty                                |
//! | `0x83` | `ERR`            | UTF-8 message                        |
//! | `0x84` | `BUSY`           | empty                                |
//! | `0x85` | `STATS_BODY`     | UTF-8 `key=value` lines              |
//! | `0x86` | `PONG`           | empty                                |
//! | `0x87` | `MULTI_BODY`     | `[u16 LE count][count nested frames]`|
//! | `0x88` | `REPL_ACK`       | `[u32 LE shard][u64 LE seq]`         |
//!
//! `MULTI` carries a batch of complete nested frames (each with its own
//! length prefix) and is answered by a single `MULTI_BODY` with one nested
//! response per nested request, in order. Nesting is one level deep:
//! `MULTI` inside `MULTI` and `SHUTDOWN` inside `MULTI` are body errors,
//! rejected by opcode *before* the nested payload is parsed so a
//! pathological frame cannot recurse. The whole batch is validated eagerly
//! at parse time — a malformed nested frame is a body error on the outer
//! frame (the outer length prefix still bounds it, so the stream stays in
//! sync).
//!
//! `REPL_BATCH` is the primary→backup log-shipping frame: the redo payload
//! of one group-commit batch (`count` put/del entries, each
//! `[u8 kind][u16 LE klen][key]` plus `[u32 LE vlen][value]` for puts) for
//! shard `shard`, sequence-numbered per shard. Sequence numbers are dense
//! (each shipped frame consumes exactly one), so the backup validates them
//! and poisons the shard's stream on any gap, duplicate, or reorder. A
//! logical commit batch larger than one frame is chunked by the shipper
//! into several consecutive `REPL_BATCH`es; [`MAX_PUT_PAYLOAD`] guarantees
//! every accepted write's entry fits a frame. The backup applies each
//! frame behind its own durability boundary and answers `REPL_ACK` echoing
//! the same `(shard, seq)`. `REPL_HELLO` opens a replication connection:
//! the primary announces its shard count and the backup refuses a
//! mismatch. `PROMOTE` flips a backup into a primary: it drains in-flight
//! replication, fences every shard, and rejects further `REPL_BATCH`es.
//! Like `SHUTDOWN`, no replication frame may ride inside a `MULTI`, and
//! the batch body is validated eagerly at parse time.
//!
//! Decoding is zero-copy: [`decode_frame`] borrows the payload from the
//! connection buffer and [`parse_request`]/[`parse_response`] return
//! key/value slices into it. Errors split into two severities the server
//! relies on: *envelope* errors ([`WireError::is_envelope`]) mean the
//! length prefix cannot be trusted and the connection must be torn down
//! after an `ERR`, while *body* errors leave the frame boundary intact so
//! the stream stays in sync and service continues with the next frame.

use std::fmt;

/// Hard cap on `length` (opcode + payload). Values in this workspace are
/// ~1 KiB; 1 MiB leaves generous headroom while bounding per-connection
/// buffering.
pub const MAX_FRAME: usize = 1 << 20;

/// Envelope size: the `u32` length prefix.
pub const PREFIX: usize = 4;

/// Hard cap on a `PUT`'s key+value bytes, a shade under [`MAX_FRAME`]. The
/// slack is what makes every accepted write *replicable*: a redo entry
/// wraps the same key and value in 7 bytes of entry framing, and the
/// `REPL_BATCH` frame adds an opcode plus a 14-byte header — without this
/// cap a maximal `PUT` would be committed locally yet impossible to frame
/// for the backup. Enforced at parse time (body error) and asserted by the
/// encoder.
pub const MAX_PUT_PAYLOAD: usize = MAX_FRAME - 64;

// Request opcodes.
pub(crate) const OP_PUT: u8 = 0x01;
pub(crate) const OP_GET: u8 = 0x02;
pub(crate) const OP_DEL: u8 = 0x03;
pub(crate) const OP_STATS: u8 = 0x04;
pub(crate) const OP_FLUSH: u8 = 0x05;
pub(crate) const OP_SHUTDOWN: u8 = 0x06;
pub(crate) const OP_PING: u8 = 0x07;
pub(crate) const OP_MULTI: u8 = 0x08;
pub(crate) const OP_REPL_BATCH: u8 = 0x09;
pub(crate) const OP_PROMOTE: u8 = 0x0A;
pub(crate) const OP_REPL_HELLO: u8 = 0x0B;

// Response opcodes.
pub(crate) const OP_OK: u8 = 0x80;
pub(crate) const OP_VALUE: u8 = 0x81;
pub(crate) const OP_NOT_FOUND: u8 = 0x82;
pub(crate) const OP_ERR: u8 = 0x83;
pub(crate) const OP_BUSY: u8 = 0x84;
pub(crate) const OP_STATS_BODY: u8 = 0x85;
pub(crate) const OP_PONG: u8 = 0x86;
pub(crate) const OP_MULTI_BODY: u8 = 0x87;
pub(crate) const OP_REPL_ACK: u8 = 0x88;

/// A client request, borrowing key/value bytes from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Insert or update; acked only after the write is flushed + fenced.
    Put {
        /// The key.
        key: &'a [u8],
        /// The value.
        value: &'a [u8],
    },
    /// Look up a key.
    Get {
        /// The key.
        key: &'a [u8],
    },
    /// Remove a key.
    Del {
        /// The key.
        key: &'a [u8],
    },
    /// Engine introspection (key count, resident bytes, chain shape).
    Stats,
    /// Drain outstanding device writes (flush + fence).
    Flush,
    /// Graceful server shutdown: acked, then the listener quiesces.
    Shutdown,
    /// Liveness probe.
    Ping,
    /// A pipelined batch of nested requests, validated at parse time.
    /// Iterate with [`MultiBody::requests`].
    Multi(MultiBody<'a>),
    /// One replicated group-commit batch shipped primary→backup, validated
    /// at parse time. Iterate with [`ReplBatchBody::ops`].
    ReplBatch(ReplBatchBody<'a>),
    /// Promote a backup to primary: fence every shard and stop accepting
    /// `REPL_BATCH`.
    Promote,
    /// Replication handshake: the primary announces its shard count and
    /// the backup acks `OK` only when it matches its own layout, so
    /// mismatched ring configurations are refused before any batch ships.
    ReplHello {
        /// The primary's shard count.
        shards: u32,
    },
}

/// A server response, borrowing payload bytes from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response<'a> {
    /// Operation applied (and, for writes, durable).
    Ok,
    /// `GET` hit.
    Value(&'a [u8]),
    /// `GET`/`DEL` miss.
    NotFound,
    /// Protocol or engine error; the message is human-readable.
    Err(&'a str),
    /// Connection limit reached: the server closes the connection right
    /// after this frame; the client reconnects later.
    Busy,
    /// `STATS` body: UTF-8 `key=value` lines.
    Stats(&'a str),
    /// `PING` reply.
    Pong,
    /// Batched responses to a `MULTI`, one per nested request, in order.
    /// Iterate with [`MultiBody::responses`].
    Multi(MultiBody<'a>),
    /// The backup's acknowledgement that a `REPL_BATCH` is durable on its
    /// side, echoing the batch's shard and sequence number.
    ReplAck {
        /// The shard whose batch is being acknowledged.
        shard: u32,
        /// The per-shard batch sequence number being acknowledged.
        seq: u64,
    },
}

/// The validated body of a `MULTI`/`MULTI_BODY` frame: `count` nested
/// frames packed back to back, each with its own length prefix. Produced
/// only by [`parse_request`]/[`parse_response`], which verify every nested
/// frame up front, so the iterators below cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiBody<'a> {
    count: u16,
    body: &'a [u8],
}

impl<'a> MultiBody<'a> {
    /// Number of nested frames in the batch (always ≥ 1).
    pub fn count(&self) -> u16 {
        self.count
    }

    /// Iterate the nested requests of a validated `MULTI` body.
    pub fn requests(&self) -> impl Iterator<Item = Request<'a>> + '_ {
        NestedFrames {
            body: self.body,
            remaining: self.count,
        }
        .map(|f| parse_request(&f).expect("MultiBody was validated at parse time"))
    }

    /// Iterate the nested responses of a validated `MULTI_BODY` body.
    pub fn responses(&self) -> impl Iterator<Item = Response<'a>> + '_ {
        NestedFrames {
            body: self.body,
            remaining: self.count,
        }
        .map(|f| parse_response(&f).expect("MultiBody was validated at parse time"))
    }
}

/// Raw-frame iterator over a validated nested-frame run.
struct NestedFrames<'a> {
    body: &'a [u8],
    remaining: u16,
}

impl<'a> Iterator for NestedFrames<'a> {
    type Item = RawFrame<'a>;

    fn next(&mut self) -> Option<RawFrame<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let f = decode_frame(self.body)
            .expect("MultiBody was validated at parse time")
            .expect("MultiBody was validated at parse time");
        self.body = &self.body[f.consumed..];
        Some(f)
    }
}

/// One redo entry inside a `REPL_BATCH`, borrowing from the receive
/// buffer. The entry kinds mirror the group committer's write batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplOp<'a> {
    /// Insert or update `key` with `value`.
    Put {
        /// The key.
        key: &'a [u8],
        /// The value.
        value: &'a [u8],
    },
    /// Remove `key`.
    Del {
        /// The key.
        key: &'a [u8],
    },
}

/// Entry-kind byte for a replicated put.
const REPL_KIND_PUT: u8 = 0;
/// Entry-kind byte for a replicated delete.
const REPL_KIND_DEL: u8 = 1;
/// Fixed `REPL_BATCH` header: `[u32 shard][u64 seq][u16 count]`.
const REPL_HEADER: usize = 4 + 8 + 2;

/// Most entry bytes one `REPL_BATCH` frame may carry: [`MAX_FRAME`] minus
/// the opcode byte and the fixed header. The shipping side chunks a
/// logical batch into frames that each respect this budget; thanks to
/// [`MAX_PUT_PAYLOAD`], any single accepted write's entry always fits.
pub(crate) const REPL_MAX_ENTRY_BYTES: usize = MAX_FRAME - 1 - REPL_HEADER;

/// Encoded size of one redo entry, mirroring [`encode_repl_batch`].
pub(crate) fn repl_entry_size(op: &ReplOp<'_>) -> usize {
    match op {
        ReplOp::Put { key, value } => 1 + 2 + key.len() + 4 + value.len(),
        ReplOp::Del { key } => 1 + 2 + key.len(),
    }
}

/// The validated body of a `REPL_BATCH` frame. Produced only by
/// [`parse_request`], which verifies every entry up front, so [`ops`]
/// cannot fail.
///
/// [`ops`]: ReplBatchBody::ops
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplBatchBody<'a> {
    /// The shard this batch belongs to.
    pub shard: u32,
    /// Per-shard monotonic batch sequence number.
    pub seq: u64,
    count: u16,
    entries: &'a [u8],
}

impl<'a> ReplBatchBody<'a> {
    /// Number of redo entries in the batch (always ≥ 1).
    pub fn count(&self) -> u16 {
        self.count
    }

    /// Iterate the validated redo entries.
    pub fn ops(&self) -> impl Iterator<Item = ReplOp<'a>> + '_ {
        ReplEntries {
            entries: self.entries,
            remaining: self.count,
        }
    }
}

/// Entry iterator over a validated `REPL_BATCH` body.
struct ReplEntries<'a> {
    entries: &'a [u8],
    remaining: u16,
}

impl<'a> Iterator for ReplEntries<'a> {
    type Item = ReplOp<'a>;

    fn next(&mut self) -> Option<ReplOp<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (op, rest) =
            split_repl_entry(self.entries).expect("ReplBatchBody was validated at parse time");
        self.entries = rest;
        Some(op)
    }
}

/// Split one redo entry off `e`, returning it and the remaining bytes.
fn split_repl_entry(e: &[u8]) -> Result<(ReplOp<'_>, &[u8]), &'static str> {
    let (&kind, e) = e.split_first().ok_or("truncated entry kind")?;
    if e.len() < 2 {
        return Err("missing key-length prefix");
    }
    let klen = u16::from_le_bytes([e[0], e[1]]) as usize;
    let e = &e[2..];
    if e.len() < klen {
        return Err("key length exceeds payload");
    }
    let (key, e) = e.split_at(klen);
    match kind {
        REPL_KIND_DEL => Ok((ReplOp::Del { key }, e)),
        REPL_KIND_PUT => {
            if e.len() < 4 {
                return Err("missing value-length prefix");
            }
            let vlen = u32::from_le_bytes([e[0], e[1], e[2], e[3]]) as usize;
            let e = &e[4..];
            if e.len() < vlen {
                return Err("value length exceeds payload");
            }
            let (value, e) = e.split_at(vlen);
            Ok((ReplOp::Put { key, value }, e))
        }
        _ => Err("unknown entry kind"),
    }
}

/// Validate a `REPL_BATCH` payload: the fixed header followed by exactly
/// `count` well-formed entries and nothing else.
fn validate_repl_batch(p: &[u8]) -> Result<ReplBatchBody<'_>, WireError> {
    let bad = |reason| WireError::BadPayload {
        opcode: OP_REPL_BATCH,
        reason,
    };
    if p.len() < REPL_HEADER {
        return Err(bad("truncated header"));
    }
    let shard = u32::from_le_bytes([p[0], p[1], p[2], p[3]]);
    let seq = u64::from_le_bytes([p[4], p[5], p[6], p[7], p[8], p[9], p[10], p[11]]);
    let count = u16::from_le_bytes([p[12], p[13]]);
    if count == 0 {
        return Err(bad("empty batch"));
    }
    let entries = &p[REPL_HEADER..];
    let mut rest = entries;
    for _ in 0..count {
        rest = split_repl_entry(rest).map_err(bad)?.1;
    }
    if !rest.is_empty() {
        return Err(bad("trailing bytes after final entry"));
    }
    Ok(ReplBatchBody {
        shard,
        seq,
        count,
        entries,
    })
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME`]; the stream cannot be
    /// trusted to resynchronise.
    FrameTooLarge {
        /// The declared length.
        len: usize,
    },
    /// The length prefix is zero (no opcode byte); envelope-level garbage.
    EmptyFrame,
    /// Unknown opcode; the frame boundary is still known.
    BadOpcode(u8),
    /// The payload does not match the opcode's schema.
    BadPayload {
        /// The opcode whose payload was malformed.
        opcode: u8,
        /// What was wrong.
        reason: &'static str,
    },
}

impl WireError {
    /// Whether this is an envelope error — the framing itself is broken, so
    /// the connection must be closed (after an `ERR`) rather than resynced.
    pub fn is_envelope(&self) -> bool {
        matches!(
            self,
            WireError::FrameTooLarge { .. } | WireError::EmptyFrame
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME}")
            }
            WireError::EmptyFrame => write!(f, "zero-length frame (no opcode)"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadPayload { opcode, reason } => {
                write!(f, "malformed payload for opcode {opcode:#04x}: {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A framed-but-unparsed message: opcode, borrowed payload, and the number
/// of buffer bytes the frame occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// The opcode byte.
    pub opcode: u8,
    /// The payload, borrowed from the receive buffer.
    pub payload: &'a [u8],
    /// Total encoded size (prefix + opcode + payload): advance the buffer
    /// by this much once the frame is handled.
    pub consumed: usize,
}

/// Split the next frame off `buf`. `Ok(None)` means more bytes are needed
/// (a truncated prefix or partial payload is not an error — the peer may
/// still be sending); errors are envelope-level only.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] / [`WireError::EmptyFrame`].
pub fn decode_frame(buf: &[u8]) -> Result<Option<RawFrame<'_>>, WireError> {
    if buf.len() < PREFIX {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 {
        return Err(WireError::EmptyFrame);
    }
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    if buf.len() < PREFIX + len {
        return Ok(None);
    }
    Ok(Some(RawFrame {
        opcode: buf[PREFIX],
        payload: &buf[PREFIX + 1..PREFIX + len],
        consumed: PREFIX + len,
    }))
}

/// Parse a request body. Body errors leave the stream in sync.
///
/// # Errors
///
/// [`WireError::BadOpcode`] / [`WireError::BadPayload`].
pub fn parse_request<'a>(frame: &RawFrame<'a>) -> Result<Request<'a>, WireError> {
    let p = frame.payload;
    let bad = |reason| WireError::BadPayload {
        opcode: frame.opcode,
        reason,
    };
    match frame.opcode {
        OP_PUT => {
            if p.len() < 2 {
                return Err(bad("missing key-length prefix"));
            }
            let klen = u16::from_le_bytes([p[0], p[1]]) as usize;
            if p.len() < 2 + klen {
                return Err(bad("key length exceeds payload"));
            }
            if p.len() > 2 + MAX_PUT_PAYLOAD {
                return Err(bad("key+value exceed MAX_PUT_PAYLOAD"));
            }
            Ok(Request::Put {
                key: &p[2..2 + klen],
                value: &p[2 + klen..],
            })
        }
        OP_GET => Ok(Request::Get { key: p }),
        OP_DEL => Ok(Request::Del { key: p }),
        OP_STATS => expect_empty(p, Request::Stats, bad),
        OP_FLUSH => expect_empty(p, Request::Flush, bad),
        OP_SHUTDOWN => expect_empty(p, Request::Shutdown, bad),
        OP_PING => expect_empty(p, Request::Ping, bad),
        OP_MULTI => Ok(Request::Multi(validate_multi(p, frame.opcode, true)?)),
        OP_REPL_BATCH => Ok(Request::ReplBatch(validate_repl_batch(p)?)),
        OP_PROMOTE => expect_empty(p, Request::Promote, bad),
        OP_REPL_HELLO => {
            if p.len() != 4 {
                return Err(bad("REPL_HELLO payload must be 4 bytes"));
            }
            Ok(Request::ReplHello {
                shards: u32::from_le_bytes([p[0], p[1], p[2], p[3]]),
            })
        }
        op => Err(WireError::BadOpcode(op)),
    }
}

/// Validate a `MULTI`/`MULTI_BODY` payload: `[u16 LE count]` followed by
/// exactly `count` well-formed nested frames and nothing else. Nested
/// `MULTI`/`SHUTDOWN` opcodes are rejected *before* their payloads are
/// parsed, so recursion never goes more than one level deep regardless of
/// input.
fn validate_multi(p: &[u8], opcode: u8, is_request: bool) -> Result<MultiBody<'_>, WireError> {
    let bad = |reason| WireError::BadPayload { opcode, reason };
    if p.len() < 2 {
        return Err(bad("missing batch count"));
    }
    let count = u16::from_le_bytes([p[0], p[1]]);
    if count == 0 {
        return Err(bad("empty batch"));
    }
    let body = &p[2..];
    let mut rest = body;
    for _ in 0..count {
        let frame = match decode_frame(rest) {
            Ok(Some(f)) => f,
            Ok(None) => return Err(bad("truncated nested frame")),
            Err(_) => return Err(bad("nested frame envelope is malformed")),
        };
        // Opcode screen first: keeps validation non-recursive.
        if frame.opcode == OP_MULTI || frame.opcode == OP_MULTI_BODY {
            return Err(bad("MULTI may not nest"));
        }
        if frame.opcode == OP_SHUTDOWN {
            return Err(bad("SHUTDOWN may not ride in a MULTI"));
        }
        if frame.opcode == OP_REPL_BATCH
            || frame.opcode == OP_PROMOTE
            || frame.opcode == OP_REPL_HELLO
        {
            return Err(bad("replication frames may not ride in a MULTI"));
        }
        let parsed = if is_request {
            parse_request(&frame).map(|_| ())
        } else {
            parse_response(&frame).map(|_| ())
        };
        if parsed.is_err() {
            return Err(bad("malformed nested frame body"));
        }
        rest = &rest[frame.consumed..];
    }
    if !rest.is_empty() {
        return Err(bad("trailing bytes after final nested frame"));
    }
    Ok(MultiBody { count, body })
}

/// Parse a response body.
///
/// # Errors
///
/// [`WireError::BadOpcode`] / [`WireError::BadPayload`].
pub fn parse_response<'a>(frame: &RawFrame<'a>) -> Result<Response<'a>, WireError> {
    let p = frame.payload;
    let bad = |reason| WireError::BadPayload {
        opcode: frame.opcode,
        reason,
    };
    match frame.opcode {
        OP_OK => expect_empty(p, Response::Ok, bad),
        OP_VALUE => Ok(Response::Value(p)),
        OP_NOT_FOUND => expect_empty(p, Response::NotFound, bad),
        OP_ERR => Ok(Response::Err(
            std::str::from_utf8(p).map_err(|_| bad("ERR message is not UTF-8"))?,
        )),
        OP_BUSY => expect_empty(p, Response::Busy, bad),
        OP_STATS_BODY => Ok(Response::Stats(
            std::str::from_utf8(p).map_err(|_| bad("STATS body is not UTF-8"))?,
        )),
        OP_PONG => expect_empty(p, Response::Pong, bad),
        OP_MULTI_BODY => Ok(Response::Multi(validate_multi(p, frame.opcode, false)?)),
        OP_REPL_ACK => {
            if p.len() != 12 {
                return Err(bad("REPL_ACK payload must be 12 bytes"));
            }
            Ok(Response::ReplAck {
                shard: u32::from_le_bytes([p[0], p[1], p[2], p[3]]),
                seq: u64::from_le_bytes([p[4], p[5], p[6], p[7], p[8], p[9], p[10], p[11]]),
            })
        }
        op => Err(WireError::BadOpcode(op)),
    }
}

fn expect_empty<T>(
    payload: &[u8],
    ok: T,
    bad: impl Fn(&'static str) -> WireError,
) -> Result<T, WireError> {
    if payload.is_empty() {
        Ok(ok)
    } else {
        Err(bad("payload must be empty"))
    }
}

/// Decode one complete request (envelope + body) from `buf`.
///
/// # Errors
///
/// Any [`WireError`].
pub fn decode_request(buf: &[u8]) -> Result<Option<(Request<'_>, usize)>, WireError> {
    match decode_frame(buf)? {
        None => Ok(None),
        Some(frame) => Ok(Some((parse_request(&frame)?, frame.consumed))),
    }
}

/// Decode one complete response (envelope + body) from `buf`.
///
/// # Errors
///
/// Any [`WireError`].
pub fn decode_response(buf: &[u8]) -> Result<Option<(Response<'_>, usize)>, WireError> {
    match decode_frame(buf)? {
        None => Ok(None),
        Some(frame) => Ok(Some((parse_response(&frame)?, frame.consumed))),
    }
}

fn frame_header(out: &mut Vec<u8>, opcode: u8, payload_len: usize) {
    debug_assert!(payload_len < MAX_FRAME, "frame exceeds MAX_FRAME");
    out.extend_from_slice(&((1 + payload_len) as u32).to_le_bytes());
    out.push(opcode);
}

/// Append the encoding of `req` to `out`.
///
/// # Panics
///
/// Panics if a `PUT` key exceeds `u16::MAX` bytes or its key+value exceed
/// [`MAX_PUT_PAYLOAD`] (the blocking client validates sizes before
/// encoding).
pub fn encode_request(out: &mut Vec<u8>, req: &Request<'_>) {
    match req {
        Request::Put { key, value } => {
            assert!(key.len() <= u16::MAX as usize, "PUT key too long");
            assert!(
                key.len() + value.len() <= MAX_PUT_PAYLOAD,
                "PUT payload exceeds MAX_PUT_PAYLOAD"
            );
            frame_header(out, OP_PUT, 2 + key.len() + value.len());
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(value);
        }
        Request::Get { key } => {
            frame_header(out, OP_GET, key.len());
            out.extend_from_slice(key);
        }
        Request::Del { key } => {
            frame_header(out, OP_DEL, key.len());
            out.extend_from_slice(key);
        }
        Request::Stats => frame_header(out, OP_STATS, 0),
        Request::Flush => frame_header(out, OP_FLUSH, 0),
        Request::Shutdown => frame_header(out, OP_SHUTDOWN, 0),
        Request::Ping => frame_header(out, OP_PING, 0),
        Request::Multi(mb) => {
            frame_header(out, OP_MULTI, 2 + mb.body.len());
            out.extend_from_slice(&mb.count.to_le_bytes());
            out.extend_from_slice(mb.body);
        }
        Request::ReplBatch(rb) => {
            frame_header(out, OP_REPL_BATCH, REPL_HEADER + rb.entries.len());
            out.extend_from_slice(&rb.shard.to_le_bytes());
            out.extend_from_slice(&rb.seq.to_le_bytes());
            out.extend_from_slice(&rb.count.to_le_bytes());
            out.extend_from_slice(rb.entries);
        }
        Request::Promote => frame_header(out, OP_PROMOTE, 0),
        Request::ReplHello { shards } => {
            frame_header(out, OP_REPL_HELLO, 4);
            out.extend_from_slice(&shards.to_le_bytes());
        }
    }
}

/// Encode one replicated group-commit batch as a `REPL_BATCH` frame
/// appended to `out`.
///
/// # Panics
///
/// Panics if the batch is empty, exceeds `u16::MAX` entries, a key exceeds
/// `u16::MAX` bytes, a value exceeds `u32::MAX` bytes, or the assembled
/// frame would exceed [`MAX_FRAME`].
pub fn encode_repl_batch(out: &mut Vec<u8>, shard: u32, seq: u64, ops: &[ReplOp<'_>]) {
    assert!(!ops.is_empty(), "REPL_BATCH must be non-empty");
    assert!(ops.len() <= u16::MAX as usize, "REPL_BATCH too large");
    let mut entries = Vec::new();
    for op in ops {
        match op {
            ReplOp::Put { key, value } => {
                assert!(key.len() <= u16::MAX as usize, "REPL_BATCH key too long");
                assert!(
                    value.len() <= u32::MAX as usize,
                    "REPL_BATCH value too long"
                );
                entries.push(REPL_KIND_PUT);
                entries.extend_from_slice(&(key.len() as u16).to_le_bytes());
                entries.extend_from_slice(key);
                entries.extend_from_slice(&(value.len() as u32).to_le_bytes());
                entries.extend_from_slice(value);
            }
            ReplOp::Del { key } => {
                assert!(key.len() <= u16::MAX as usize, "REPL_BATCH key too long");
                entries.push(REPL_KIND_DEL);
                entries.extend_from_slice(&(key.len() as u16).to_le_bytes());
                entries.extend_from_slice(key);
            }
        }
    }
    assert!(
        1 + REPL_HEADER + entries.len() <= MAX_FRAME,
        "REPL_BATCH exceeds MAX_FRAME"
    );
    frame_header(out, OP_REPL_BATCH, REPL_HEADER + entries.len());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(ops.len() as u16).to_le_bytes());
    out.extend_from_slice(&entries);
}

/// Encode a batch of requests as one `MULTI` frame appended to `out`.
///
/// # Panics
///
/// Panics if the batch is empty, exceeds `u16::MAX` entries, contains a
/// nested `Multi` or `Shutdown`, or the assembled frame would exceed
/// [`MAX_FRAME`].
pub fn encode_multi_request(out: &mut Vec<u8>, reqs: &[Request<'_>]) {
    assert!(!reqs.is_empty(), "MULTI batch must be non-empty");
    assert!(reqs.len() <= u16::MAX as usize, "MULTI batch too large");
    let mut body = Vec::new();
    for r in reqs {
        assert!(
            !matches!(
                r,
                Request::Multi(_)
                    | Request::Shutdown
                    | Request::ReplBatch(_)
                    | Request::Promote
                    | Request::ReplHello { .. }
            ),
            "MULTI may not nest MULTI, SHUTDOWN, or replication frames"
        );
        encode_request(&mut body, r);
    }
    assert!(1 + 2 + body.len() <= MAX_FRAME, "MULTI exceeds MAX_FRAME");
    frame_header(out, OP_MULTI, 2 + body.len());
    out.extend_from_slice(&(reqs.len() as u16).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Encode a batch of responses as one `MULTI_BODY` frame appended to `out`.
///
/// # Panics
///
/// Panics under the same conditions as [`encode_multi_request`].
pub fn encode_multi_response(out: &mut Vec<u8>, resps: &[Response<'_>]) {
    assert!(
        try_encode_multi_response(out, resps),
        "MULTI_BODY exceeds MAX_FRAME"
    );
}

/// Fallible variant of [`encode_multi_response`] for the server side, where
/// aggregate size is driven by stored values a client chose (a `MULTI` of
/// `GET`s can fan out to more bytes than the request frame): returns `false`
/// and leaves `out` untouched when the assembled frame would exceed
/// [`MAX_FRAME`], instead of panicking.
///
/// # Panics
///
/// Still panics on programmer errors: an empty batch, more than `u16::MAX`
/// entries, or a nested `Multi`.
pub fn try_encode_multi_response(out: &mut Vec<u8>, resps: &[Response<'_>]) -> bool {
    assert!(!resps.is_empty(), "MULTI_BODY batch must be non-empty");
    assert!(
        resps.len() <= u16::MAX as usize,
        "MULTI_BODY batch too large"
    );
    let mut body = Vec::new();
    for r in resps {
        assert!(
            !matches!(r, Response::Multi(_)),
            "MULTI_BODY may not nest MULTI_BODY"
        );
        encode_response(&mut body, r);
    }
    if 1 + 2 + body.len() > MAX_FRAME {
        return false;
    }
    frame_header(out, OP_MULTI_BODY, 2 + body.len());
    out.extend_from_slice(&(resps.len() as u16).to_le_bytes());
    out.extend_from_slice(&body);
    true
}

/// Append the encoding of `resp` to `out`.
pub fn encode_response(out: &mut Vec<u8>, resp: &Response<'_>) {
    match resp {
        Response::Ok => frame_header(out, OP_OK, 0),
        Response::Value(v) => {
            frame_header(out, OP_VALUE, v.len());
            out.extend_from_slice(v);
        }
        Response::NotFound => frame_header(out, OP_NOT_FOUND, 0),
        Response::Err(msg) => {
            frame_header(out, OP_ERR, msg.len());
            out.extend_from_slice(msg.as_bytes());
        }
        Response::Busy => frame_header(out, OP_BUSY, 0),
        Response::Stats(body) => {
            frame_header(out, OP_STATS_BODY, body.len());
            out.extend_from_slice(body.as_bytes());
        }
        Response::Pong => frame_header(out, OP_PONG, 0),
        Response::Multi(mb) => {
            frame_header(out, OP_MULTI_BODY, 2 + mb.body.len());
            out.extend_from_slice(&mb.count.to_le_bytes());
            out.extend_from_slice(mb.body);
        }
        Response::ReplAck { shard, seq } => {
            frame_header(out, OP_REPL_ACK, 12);
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Put {
                key: b"0123456789abcdef",
                value: b"hello",
            },
            Request::Put {
                key: b"",
                value: b"",
            },
            Request::Get { key: b"k" },
            Request::Del { key: b"gone" },
            Request::Stats,
            Request::Flush,
            Request::Shutdown,
            Request::Ping,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            encode_request(&mut buf, r);
        }
        let mut off = 0;
        for r in &reqs {
            let (got, n) = decode_request(&buf[off..]).unwrap().unwrap();
            assert_eq!(&got, r);
            off += n;
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn response_roundtrips() {
        let resps = [
            Response::Ok,
            Response::Value(b"v"),
            Response::Value(b""),
            Response::NotFound,
            Response::Err("bad \u{1F525}"),
            Response::Busy,
            Response::Stats("keys=3\nbytes=99\n"),
            Response::Pong,
        ];
        let mut buf = Vec::new();
        for r in &resps {
            encode_response(&mut buf, r);
        }
        let mut off = 0;
        for r in &resps {
            let (got, n) = decode_response(&buf[off..]).unwrap().unwrap();
            assert_eq!(&got, r);
            off += n;
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn truncated_prefix_and_payload_want_more() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Get { key: b"wanted" });
        for cut in 0..buf.len() {
            assert_eq!(decode_request(&buf[..cut]).unwrap(), None, "cut={cut}");
        }
    }

    #[test]
    fn oversized_frame_is_envelope_error() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        buf.push(OP_GET);
        let err = decode_frame(&buf).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
        assert!(err.is_envelope());
    }

    #[test]
    fn zero_frame_is_envelope_error() {
        let buf = 0u32.to_le_bytes();
        let err = decode_frame(&buf).unwrap_err();
        assert_eq!(err, WireError::EmptyFrame);
        assert!(err.is_envelope());
    }

    #[test]
    fn bad_opcode_is_body_error_with_known_boundary() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0x7F, 1, 2]);
        let frame = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(frame.consumed, buf.len());
        let err = parse_request(&frame).unwrap_err();
        assert_eq!(err, WireError::BadOpcode(0x7F));
        assert!(!err.is_envelope());
    }

    #[test]
    fn put_key_longer_than_payload_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.push(OP_PUT);
        buf.extend_from_slice(&100u16.to_le_bytes());
        buf.push(b'k');
        let frame = decode_frame(&buf).unwrap().unwrap();
        assert!(matches!(
            parse_request(&frame).unwrap_err(),
            WireError::BadPayload { .. }
        ));
    }

    #[test]
    fn nonempty_payload_on_empty_ops_rejected() {
        for op in [OP_STATS, OP_FLUSH, OP_SHUTDOWN, OP_PING, OP_OK, OP_PONG] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&2u32.to_le_bytes());
            buf.extend_from_slice(&[op, 0xEE]);
            let frame = decode_frame(&buf).unwrap().unwrap();
            let res = if op < 0x80 {
                parse_request(&frame).map(|_| ())
            } else {
                parse_response(&frame).map(|_| ())
            };
            assert!(matches!(res, Err(WireError::BadPayload { .. })), "{op:#x}");
        }
    }

    #[test]
    fn multi_request_roundtrips() {
        let reqs = [
            Request::Put {
                key: b"0123456789abcdef",
                value: b"v0",
            },
            Request::Get { key: b"k" },
            Request::Del { key: b"gone" },
            Request::Ping,
            Request::Stats,
            Request::Flush,
        ];
        let mut buf = Vec::new();
        encode_multi_request(&mut buf, &reqs);
        let (got, n) = decode_request(&buf).unwrap().unwrap();
        assert_eq!(n, buf.len());
        let Request::Multi(mb) = got else {
            panic!("expected Multi, got {got:?}");
        };
        assert_eq!(mb.count() as usize, reqs.len());
        let nested: Vec<_> = mb.requests().collect();
        assert_eq!(nested, reqs);
    }

    #[test]
    fn multi_response_roundtrips() {
        let resps = [
            Response::Ok,
            Response::Value(b"payload"),
            Response::NotFound,
            Response::Err("engine said no"),
            Response::Busy,
            Response::Pong,
        ];
        let mut buf = Vec::new();
        encode_multi_response(&mut buf, &resps);
        let (got, n) = decode_response(&buf).unwrap().unwrap();
        assert_eq!(n, buf.len());
        let Response::Multi(mb) = got else {
            panic!("expected Multi, got {got:?}");
        };
        let nested: Vec<_> = mb.responses().collect();
        assert_eq!(nested, resps);
    }

    #[test]
    fn multi_reencodes_byte_identically() {
        let reqs = [Request::Get { key: b"a" }, Request::Ping];
        let mut buf = Vec::new();
        encode_multi_request(&mut buf, &reqs);
        let (got, _) = decode_request(&buf).unwrap().unwrap();
        let mut again = Vec::new();
        encode_request(&mut again, &got);
        assert_eq!(again, buf);
    }

    #[test]
    fn multi_rejects_nested_multi_and_shutdown() {
        // Hand-build MULTI bodies: count=1, one nested frame.
        for inner_op in [OP_MULTI, OP_MULTI_BODY, OP_SHUTDOWN] {
            let mut nested = Vec::new();
            frame_header(&mut nested, inner_op, 0);
            let mut buf = Vec::new();
            frame_header(&mut buf, OP_MULTI, 2 + nested.len());
            buf.extend_from_slice(&1u16.to_le_bytes());
            buf.extend_from_slice(&nested);
            let frame = decode_frame(&buf).unwrap().unwrap();
            let err = parse_request(&frame).unwrap_err();
            assert!(
                matches!(err, WireError::BadPayload { .. }),
                "{inner_op:#x}: {err:?}"
            );
            assert!(!err.is_envelope());
        }
    }

    #[test]
    fn multi_rejects_zero_count_truncation_and_trailing_bytes() {
        // count = 0
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_MULTI, 2);
        buf.extend_from_slice(&0u16.to_le_bytes());
        let f = decode_frame(&buf).unwrap().unwrap();
        assert!(parse_request(&f).is_err());

        // count = 2 but only one nested frame present
        let mut nested = Vec::new();
        encode_request(&mut nested, &Request::Ping);
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_MULTI, 2 + nested.len());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&nested);
        let f = decode_frame(&buf).unwrap().unwrap();
        assert!(parse_request(&f).is_err());

        // count = 1 with garbage after the nested frame
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_MULTI, 2 + nested.len() + 1);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&nested);
        buf.push(0xEE);
        let f = decode_frame(&buf).unwrap().unwrap();
        assert!(parse_request(&f).is_err());
    }

    #[test]
    fn malformed_multi_keeps_stream_in_sync() {
        // A MULTI whose nested frame is bodily malformed, followed by a
        // PING: the MULTI is a body error and the PING still parses.
        let mut nested = Vec::new();
        frame_header(&mut nested, OP_STATS, 1);
        nested.push(0xAA); // STATS payload must be empty
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_MULTI, 2 + nested.len());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&nested);
        encode_request(&mut buf, &Request::Ping);

        let f = decode_frame(&buf).unwrap().unwrap();
        let err = parse_request(&f).unwrap_err();
        assert!(!err.is_envelope());
        let (next, _) = decode_request(&buf[f.consumed..]).unwrap().unwrap();
        assert_eq!(next, Request::Ping);
    }

    #[test]
    fn deeply_nested_multi_does_not_recurse() {
        // MULTI(MULTI(MULTI(...))) stacked ~100k deep must be rejected in
        // O(1) without walking (or recursing into) the nesting.
        let mut inner = Vec::new();
        frame_header(&mut inner, OP_PING, 0);
        for _ in 0..100_000 {
            let mut outer = Vec::new();
            frame_header(&mut outer, OP_MULTI, 2 + inner.len());
            outer.extend_from_slice(&1u16.to_le_bytes());
            outer.extend_from_slice(&inner);
            if outer.len() > MAX_FRAME {
                break;
            }
            inner = outer;
        }
        let f = decode_frame(&inner).unwrap().unwrap();
        assert!(matches!(
            parse_request(&f).unwrap_err(),
            WireError::BadPayload { .. }
        ));
    }

    #[test]
    fn repl_batch_roundtrips() {
        let ops = [
            ReplOp::Put {
                key: b"0123456789abcdef",
                value: b"v0",
            },
            ReplOp::Del { key: b"gone" },
            ReplOp::Put {
                key: b"k",
                value: b"",
            },
        ];
        let mut buf = Vec::new();
        encode_repl_batch(&mut buf, 3, 42, &ops);
        let (got, n) = decode_request(&buf).unwrap().unwrap();
        assert_eq!(n, buf.len());
        let Request::ReplBatch(rb) = got else {
            panic!("expected ReplBatch, got {got:?}");
        };
        assert_eq!((rb.shard, rb.seq, rb.count() as usize), (3, 42, ops.len()));
        let nested: Vec<_> = rb.ops().collect();
        assert_eq!(nested, ops);

        // Re-encoding the parsed body is byte-identical.
        let mut again = Vec::new();
        encode_request(&mut again, &Request::ReplBatch(rb));
        assert_eq!(again, buf);
    }

    #[test]
    fn promote_and_repl_ack_roundtrip() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Promote);
        let (got, _) = decode_request(&buf).unwrap().unwrap();
        assert_eq!(got, Request::Promote);

        let mut buf = Vec::new();
        encode_response(&mut buf, &Response::ReplAck { shard: 7, seq: 900 });
        let (got, n) = decode_response(&buf).unwrap().unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(got, Response::ReplAck { shard: 7, seq: 900 });
    }

    #[test]
    fn repl_batch_rejects_malformed_bodies() {
        // Truncated header.
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_REPL_BATCH, 5);
        buf.extend_from_slice(&[0; 5]);
        let f = decode_frame(&buf).unwrap().unwrap();
        assert!(matches!(
            parse_request(&f).unwrap_err(),
            WireError::BadPayload { .. }
        ));

        // count = 0.
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_REPL_BATCH, REPL_HEADER);
        buf.extend_from_slice(&[0; REPL_HEADER]);
        let f = decode_frame(&buf).unwrap().unwrap();
        assert!(parse_request(&f).is_err());

        // Entry with an unknown kind byte.
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_REPL_BATCH, REPL_HEADER + 1);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(9);
        let f = decode_frame(&buf).unwrap().unwrap();
        assert!(parse_request(&f).is_err());

        // Valid single-entry batch with trailing garbage.
        let mut good = Vec::new();
        encode_repl_batch(&mut good, 0, 1, &[ReplOp::Del { key: b"k" }]);
        let mut buf = good[..PREFIX].to_vec();
        let len = u32::from_le_bytes([good[0], good[1], good[2], good[3]]) + 1;
        buf.clear();
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&good[PREFIX..]);
        buf.push(0xEE);
        let f = decode_frame(&buf).unwrap().unwrap();
        assert!(parse_request(&f).is_err());
    }

    #[test]
    fn repl_hello_roundtrips_and_rejects_bad_payloads() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::ReplHello { shards: 7 });
        let (got, n) = decode_request(&buf).unwrap().unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(got, Request::ReplHello { shards: 7 });

        // Anything but exactly 4 payload bytes is a body error.
        for plen in [0usize, 3, 5] {
            let mut buf = Vec::new();
            frame_header(&mut buf, OP_REPL_HELLO, plen);
            buf.extend(std::iter::repeat_n(0u8, plen));
            let f = decode_frame(&buf).unwrap().unwrap();
            let err = parse_request(&f).unwrap_err();
            assert!(matches!(err, WireError::BadPayload { .. }), "{plen}");
            assert!(!err.is_envelope());
        }
    }

    #[test]
    fn put_over_payload_cap_is_body_error() {
        // Hand-build a PUT whose key+value exceed MAX_PUT_PAYLOAD but whose
        // frame is still within MAX_FRAME: the envelope is legal, the body
        // is rejected, and the stream stays in sync.
        let key = [0u8; 16];
        let vlen = MAX_PUT_PAYLOAD - key.len() + 1;
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_PUT, 2 + key.len() + vlen);
        buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
        buf.extend_from_slice(&key);
        buf.extend(std::iter::repeat_n(0xABu8, vlen));
        encode_request(&mut buf, &Request::Ping);

        let f = decode_frame(&buf).unwrap().unwrap();
        let err = parse_request(&f).unwrap_err();
        assert!(matches!(err, WireError::BadPayload { .. }), "{err:?}");
        assert!(!err.is_envelope());
        let (next, _) = decode_request(&buf[f.consumed..]).unwrap().unwrap();
        assert_eq!(next, Request::Ping);

        // One byte less is accepted — the cap is exact.
        let vlen = MAX_PUT_PAYLOAD - key.len();
        let mut buf = Vec::new();
        frame_header(&mut buf, OP_PUT, 2 + key.len() + vlen);
        buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
        buf.extend_from_slice(&key);
        buf.extend(std::iter::repeat_n(0xABu8, vlen));
        let f = decode_frame(&buf).unwrap().unwrap();
        assert!(parse_request(&f).is_ok());
    }

    #[test]
    #[should_panic(expected = "MAX_PUT_PAYLOAD")]
    fn encoding_oversized_put_panics() {
        let value = vec![0u8; MAX_PUT_PAYLOAD + 1];
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            &Request::Put {
                key: b"",
                value: &value,
            },
        );
    }

    #[test]
    fn max_put_entry_always_fits_a_repl_frame() {
        // The invariant MAX_PUT_PAYLOAD exists for: the largest accepted
        // write's redo entry must fit a REPL_BATCH frame's entry budget.
        let largest_entry = 1 + 2 + 4 + MAX_PUT_PAYLOAD;
        assert!(largest_entry <= REPL_MAX_ENTRY_BYTES);
    }

    #[test]
    fn repl_frames_may_not_ride_in_multi() {
        for build in [
            |nested: &mut Vec<u8>| encode_repl_batch(nested, 0, 1, &[ReplOp::Del { key: b"k" }]),
            |nested: &mut Vec<u8>| encode_request(nested, &Request::Promote),
            |nested: &mut Vec<u8>| encode_request(nested, &Request::ReplHello { shards: 1 }),
        ] {
            let mut nested = Vec::new();
            build(&mut nested);
            let mut buf = Vec::new();
            frame_header(&mut buf, OP_MULTI, 2 + nested.len());
            buf.extend_from_slice(&1u16.to_le_bytes());
            buf.extend_from_slice(&nested);
            let f = decode_frame(&buf).unwrap().unwrap();
            let err = parse_request(&f).unwrap_err();
            assert!(matches!(err, WireError::BadPayload { .. }), "{err:?}");
            assert!(!err.is_envelope());
        }
    }

    #[test]
    fn decode_is_zero_copy() {
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            &Request::Put {
                key: b"key0",
                value: b"value0",
            },
        );
        let (req, _) = decode_request(&buf).unwrap().unwrap();
        if let Request::Put { key, value } = req {
            // Borrowed slices point into the receive buffer itself.
            let range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
            assert!(range.contains(&(key.as_ptr() as usize)));
            assert!(range.contains(&(value.as_ptr() as usize)));
        } else {
            panic!("wrong request");
        }
    }
}
