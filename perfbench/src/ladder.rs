//! The layer ladder of the wire workloads: one seeded op stream replayed,
//! on one connection in a closed loop, through rungs of increasing depth —
//! `KvEngine` calls, then `GroupCommitter::submit`, then the `wire` codec,
//! then a `Client` against 1 shard, 2 shards, and 2 shards with a sync
//! backup. A rung's per-op time minus the rung below is that layer's cost.

use std::sync::Arc;
use std::time::Instant;

use spp_server::wire::{
    decode_frame, encode_request, encode_response, parse_request, parse_response,
};
use spp_server::{Client, GroupCommitter, KvEngine, ReplOp, Reply, Request, Response, WriteOp};

use crate::ops::{check_value, key, value, Op, KEY_LEN};
use crate::report::Report;
use crate::trace::SpanBuf;

/// A replayable stream: runs of ops (runs of one for the open-loop
/// workload).
pub struct Replay {
    /// The runs, in order.
    pub runs: Vec<Vec<Op>>,
    /// Value length.
    pub value_len: usize,
}

impl Replay {
    fn ops(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }
}

/// Versions written by the ladder sit far above the workloads' own.
const LADDER_VERSION: u64 = 1 << 56;

fn owned_writes(run: &[Op], value_len: usize, version: &mut u64) -> Vec<WriteOp> {
    run.iter()
        .filter(|o| !o.get)
        .map(|o| {
            *version += 1;
            let k = key(o.key);
            WriteOp::Put {
                key: k.to_vec(),
                value: value(&k, *version, value_len),
            }
        })
        .collect()
}

fn check_get(rep: &mut Report, k: u64, got: Option<&[u8]>, value_len: usize) {
    rep.attempted += 1;
    match got {
        Some(v) => {
            if let Err(e) = check_value(&key(k), v, value_len) {
                rep.mismatch(format!("ladder GET key {k}: {e}"));
            }
        }
        None => rep.mismatch(format!("ladder GET key {k}: missing")),
    }
}

/// One round trip of the codec for `req`: encode, frame and parse it, then
/// encode, frame and parse `resp`.
fn codec_round(buf: &mut Vec<u8>, req: &Request<'_>, resp: &Response<'_>) {
    buf.clear();
    encode_request(buf, req);
    let f = decode_frame(buf)
        .expect("own frame decodes")
        .expect("complete frame");
    std::hint::black_box(parse_request(&f).expect("own request parses"));
    buf.clear();
    encode_response(buf, resp);
    let f = decode_frame(buf)
        .expect("own frame decodes")
        .expect("complete frame");
    std::hint::black_box(parse_response(&f).expect("own response parses"));
}

/// Rungs 1–3: direct engine calls, through the group committer, and with
/// the codec on top. Returns per-op µs.
pub fn rung_direct(
    engine: &KvEngine,
    committer: Option<&GroupCommitter>,
    codec: bool,
    r: &Replay,
    rep: &mut Report,
    spans: &mut SpanBuf,
) -> f64 {
    let (write_span, rung_span) = match (committer, codec) {
        (None, _) => ("engine.apply_write_batch", "ladder.engine"),
        (Some(_), false) => ("group.submit", "ladder.group"),
        (Some(_), true) => ("group.submit", "ladder.wire"),
    };
    let mut version = LADDER_VERSION;
    let mut buf = Vec::new();
    let mut wire = Vec::new();
    let value = vec![0u8; r.value_len];
    let start = Instant::now();
    for (i, run) in r.runs.iter().enumerate() {
        let root = spans.begin(rung_span, i as u64, None);
        let ops = owned_writes(run, r.value_len, &mut version);
        if codec {
            let s = spans.begin("wire.codec", i as u64, Some(root));
            for o in run {
                let k = key(o.key);
                let (req, resp) = if o.get {
                    (Request::Get { key: &k }, Response::Value(&value))
                } else {
                    (
                        Request::Put {
                            key: &k,
                            value: &value,
                        },
                        Response::Ok,
                    )
                };
                codec_round(&mut wire, &req, &resp);
            }
            spans.end(s);
        }
        if !ops.is_empty() {
            let s = spans.begin(write_span, i as u64, Some(root));
            let replies = match committer {
                None => engine.apply_write_batch(&ops),
                Some(c) => c.submit(ops).expect("ladder committer open"),
            };
            spans.end(s);
            rep.attempted += replies.len() as u64;
            rep.failed += replies
                .iter()
                .filter(|r| **r != spp_server::WriteReply::Ok)
                .count() as u64;
        }
        for o in run.iter().filter(|o| o.get) {
            buf.clear();
            let s = spans.begin("engine.get", i as u64, Some(root));
            let hit = engine.get(&key(o.key), &mut buf).expect("ladder GET");
            spans.end(s);
            check_get(rep, o.key, hit.then_some(&buf[..]), r.value_len);
        }
        spans.end(root);
    }
    start.elapsed().as_secs_f64() * 1e6 / r.ops() as f64
}

/// Rungs 4–6: a `Client` on one connection. Runs of one use the
/// round-trip calls; longer runs alternate a `MULTI` frame and raw
/// pipelined frames, as `wire_write_repl` does. Returns per-op µs.
pub fn rung_client(
    client: &mut Client,
    rung: &'static str,
    r: &Replay,
    rep: &mut Report,
    spans: &mut SpanBuf,
) -> f64 {
    let mut version = LADDER_VERSION;
    let mut vals: Vec<Vec<u8>> = Vec::new();
    let mut keys: Vec<[u8; KEY_LEN]> = Vec::new();
    let mut out = Vec::new();
    let start = Instant::now();
    for (i, run) in r.runs.iter().enumerate() {
        let root = spans.begin(rung, i as u64, None);
        if let [o] = run.as_slice() {
            let k = key(o.key);
            let s = spans.begin(
                if o.get { "client.get" } else { "client.put" },
                i as u64,
                Some(root),
            );
            if o.get {
                out.clear();
                let hit = client.get(&k, &mut out);
                spans.end(s);
                match hit {
                    Ok(h) => check_get(rep, o.key, h.then_some(&out[..]), r.value_len),
                    Err(e) => fail(rep, &e),
                }
            } else {
                version += 1;
                let v = value(&k, version, r.value_len);
                let res = client.put(&k, &v);
                spans.end(s);
                rep.attempted += 1;
                if let Err(e) = res {
                    fail(rep, &e);
                }
            }
            spans.end(root);
            continue;
        }
        keys.clear();
        vals.clear();
        for o in run {
            let k = key(o.key);
            keys.push(k);
            version += 1;
            vals.push(if o.get {
                Vec::new()
            } else {
                value(&k, version, r.value_len)
            });
        }
        let reqs: Vec<Request<'_>> = run
            .iter()
            .zip(keys.iter().zip(&vals))
            .map(|(o, (k, v))| {
                if o.get {
                    Request::Get { key: k }
                } else {
                    Request::Put { key: k, value: v }
                }
            })
            .collect();
        let multi = i % 2 == 0;
        let s = spans.begin(
            if multi {
                "client.multi"
            } else {
                "client.pipeline"
            },
            i as u64,
            Some(root),
        );
        let res = if multi {
            client.multi(&reqs)
        } else {
            client.pipeline(&reqs)
        };
        spans.end(s);
        match res {
            Ok(replies) => {
                for (o, reply) in run.iter().zip(replies) {
                    match (o.get, reply) {
                        (true, Reply::Value(v)) => check_get(rep, o.key, Some(&v), r.value_len),
                        (true, Reply::NotFound) => check_get(rep, o.key, None, r.value_len),
                        (false, Reply::Ok) => rep.attempted += 1,
                        (_, other) => {
                            rep.attempted += 1;
                            rep.failed += 1;
                            eprintln!("ladder {rung}: reply {other:?}");
                        }
                    }
                }
            }
            Err(e) => {
                rep.attempted += run.len() as u64;
                rep.failed += run.len() as u64 - 1;
                fail(rep, &e);
            }
        }
        spans.end(root);
    }
    start.elapsed().as_secs_f64() * 1e6 / r.ops() as f64
}

fn fail(rep: &mut Report, e: &spp_server::ClientError) {
    rep.failed += 1;
    eprintln!("ladder client: {e}");
}

/// Mean ns of one codec round trip (request and response) over the
/// replay's ops, in a tight loop.
pub fn codec_ns(r: &Replay) -> f64 {
    let value = vec![7u8; r.value_len];
    let mut buf = Vec::new();
    let ops: Vec<Op> = r.runs.iter().flatten().copied().collect();
    let rounds = (200_000 / ops.len().max(1)).max(1);
    let start = Instant::now();
    for _ in 0..rounds {
        for o in &ops {
            let k = key(o.key);
            if o.get {
                codec_round(
                    &mut buf,
                    &Request::Get { key: &k },
                    &Response::Value(&value),
                );
            } else {
                codec_round(
                    &mut buf,
                    &Request::Put {
                        key: &k,
                        value: &value,
                    },
                    &Response::Ok,
                );
            }
        }
    }
    start.elapsed().as_nanos() as f64 / (rounds * ops.len()) as f64
}

/// Mean µs of `apply_write_batch` and of `GroupCommitter::submit` on
/// batches of `size` puts over keys `[0, keys)`.
pub fn batch_us(
    engine: &Arc<KvEngine>,
    committer: &GroupCommitter,
    size: usize,
    keys: u64,
    value_len: usize,
) -> (f64, f64) {
    const BATCHES: usize = 500;
    let mut rng = crate::ops::Rng::new(0, 99);
    let mut version = LADDER_VERSION << 1;
    let mut run = Vec::new();
    let mut make = || {
        crate::ops::write_run(&mut rng, 0, keys, size, &mut run);
        run.iter()
            .map(|o| {
                version += 1;
                let k = key(o.key);
                WriteOp::Put {
                    key: k.to_vec(),
                    value: value(&k, version, value_len),
                }
            })
            .collect::<Vec<_>>()
    };
    let batches: Vec<Vec<WriteOp>> = (0..BATCHES).map(|_| make()).collect();
    let start = Instant::now();
    for b in &batches {
        std::hint::black_box(engine.apply_write_batch(b));
    }
    let direct = start.elapsed().as_secs_f64() * 1e6 / BATCHES as f64;
    let batches: Vec<Vec<WriteOp>> = (0..BATCHES).map(|_| make()).collect();
    let start = Instant::now();
    for b in batches {
        std::hint::black_box(committer.submit(b).expect("committer open"));
    }
    let grouped = start.elapsed().as_secs_f64() * 1e6 / BATCHES as f64;
    (direct, grouped)
}

/// Mean µs of one `REPL_BATCH` of `size` puts to a fresh backup at
/// `addr` with `shards` shards.
pub fn repl_rtt_us(addr: std::net::SocketAddr, shards: u32, size: usize, value_len: usize) -> f64 {
    const BATCHES: u64 = 500;
    let mut client = crate::stack::connect(addr);
    client.repl_hello(shards).expect("REPL_HELLO accepted");
    let keys: Vec<[u8; KEY_LEN]> = (0..size as u64).map(key).collect();
    let vals: Vec<Vec<u8>> = keys.iter().map(|k| value(k, 1, value_len)).collect();
    let ops: Vec<ReplOp<'_>> = keys
        .iter()
        .zip(&vals)
        .map(|(k, v)| ReplOp::Put { key: k, value: v })
        .collect();
    let start = Instant::now();
    for seq in 1..=BATCHES {
        client.repl_batch(0, seq, &ops).expect("REPL_BATCH acked");
    }
    start.elapsed().as_secs_f64() * 1e6 / BATCHES as f64
}
