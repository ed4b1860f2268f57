//! `wire_read_open`: independent users making small reads, as an open
//! loop against a 1-shard epoll server with no replication.
//!
//! Requests arrive at one fixed offered rate (exponential gaps), 95% GET /
//! 5% PUT of 64 B values over Zipf-skewed keys from a set that fits L2.
//! One sender thread writes frames on schedule through `wire`'s public
//! encoder; one receiver thread decodes the replies. Latency runs from each
//! request's scheduled send time, so a stall also charges the requests
//! queued behind it. The policies' servers take alternating slices of the
//! schedule.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use spp_server::wire::{decode_frame, encode_request, parse_response};
use spp_server::{GroupCommitter, GroupConfig, Request, Response};

use crate::ladder::{self, Replay};
use crate::ops::{self, check_value, key, open_op, Op, Rng, Zipf};
use crate::procfs::Cpu;
use crate::report::Report;
use crate::samples::{median, Samples};
use crate::stack::{self, policy_of_slice, Stack, StackCfg, POLICIES, WARM_SLICES};
use crate::trace::{Ladder, SpanBuf, Trace};
use crate::Args;

struct Sizes {
    keys: u64,
    value_len: usize,
    pool_bytes: u64,
    nbuckets: u64,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            keys: 1024,
            value_len: 64,
            pool_bytes: 8 << 20,
            nbuckets: 1024,
        }
    } else {
        // 16 Ki keys x 64 B: about 1 MiB of values, 3 MiB with nodes —
        // within L2.
        Sizes {
            keys: 16 << 10,
            value_len: 64,
            pool_bytes: 32 << 20,
            nbuckets: 16 << 10,
        }
    }
}

/// Offered load (requests/s), fixed: about half of one connection's
/// closed-loop round-trip capacity on a 2-CPU host (measured once with
/// a closed loop of `Client` round trips, then recorded here as an
/// absolute rate).
pub const RATE: f64 = 8000.0;
/// The p99 latency limit (µs) the offered rate is expected to meet.
pub const P99_LIMIT_US: f64 = 2000.0;
const THETA: f64 = 0.99;
const SLICE: Duration = Duration::from_millis(150);
const SETUP_REPS: usize = 3;
const SPP: usize = 1;
/// A PING rides along after every this many requests of a traced phase.
const PING_EVERY: u64 = 32;
/// Requests replayed through each ladder rung.
const LADDER_OPS: usize = 4000;
/// How long the receiver waits for one reply before declaring it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

fn stack_cfg(s: &Sizes, stats: bool) -> StackCfg {
    StackCfg {
        shards: 1,
        repl: false,
        pool_bytes: s.pool_bytes,
        nbuckets: s.nbuckets,
        keys: 0..s.keys,
        value_len: s.value_len,
        stats,
    }
}

/// A request in flight, as the sender hands it to the receiver.
struct Sent {
    policy: usize,
    /// Scheduled send time, ns since the phase epoch.
    due: u64,
    op: Op,
    ping: bool,
    /// Sent during the warm-up round: checked, not timed.
    warm: bool,
    req: u64,
}

#[derive(Default)]
struct Phase {
    ops: [u64; 3],
    /// Scheduled time each policy owned, ns.
    owned_ns: [u64; 3],
    put: Samples,
    get: Samples,
    /// All-op latency per policy.
    all: [Samples; 3],
    ping: Samples,
    late: Samples,
    busy: u64,
    requests: u64,
    /// SPP `[requests, puts]` sent, warm-up included: what the pool
    /// counters saw.
    spp_sent: [u64; 2],
    report: Report,
    trace: Trace,
}

/// The generator's state, carried from phase to phase.
struct Gen {
    rng: Rng,
    zipf: Zipf,
    rate: f64,
    version: u64,
    req: u64,
}

fn measure(stacks: &[Stack], s: &Sizes, g: &mut Gen, seconds: f64, traced: bool) -> Phase {
    let send: Vec<TcpStream> = stacks
        .iter()
        .map(|st| {
            let t = TcpStream::connect(st.addr()).expect("connect");
            t.set_nodelay(true).expect("nodelay");
            t
        })
        .collect();
    let recv: Vec<TcpStream> = send
        .iter()
        .map(|t| {
            let r = t.try_clone().expect("clone socket");
            r.set_read_timeout(Some(REPLY_TIMEOUT))
                .expect("read timeout");
            r
        })
        .collect();
    let slice = SLICE.as_nanos() as u64;
    let warm = WARM_SLICES as u64 * slice;
    let dur = warm + (seconds * 1e9) as u64;
    let epoch = Instant::now();
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut ph = Phase::default();
    for (k, start) in (0..dur)
        .step_by(slice as usize)
        .enumerate()
        .skip(WARM_SLICES)
    {
        ph.owned_ns[policy_of_slice(k)] += slice.min(dur - start);
    }
    let (late, send_spans) = std::thread::scope(|sc| {
        let sender = sc.spawn(|| sender(send, s, g, dur, traced, epoch, tx));
        receiver(recv, s, rx, &mut ph, traced, epoch);
        sender.join().expect("sender thread panicked")
    });
    ph.late = late;
    ph.trace.add(send_spans);
    ph
}

fn sender(
    mut send: Vec<TcpStream>,
    s: &Sizes,
    g: &mut Gen,
    dur: u64,
    traced: bool,
    epoch: Instant,
    tx: mpsc::Sender<Sent>,
) -> (Samples, SpanBuf) {
    let mut spans = SpanBuf::new(traced, epoch);
    let mut late = Samples::default();
    let mut due = 0u64;
    let mut wbuf = Vec::new();
    let mut val = Vec::new();
    let slice = SLICE.as_nanos() as u64;
    loop {
        let (gap, op) = open_op(&mut g.rng, &g.zipf, g.rate);
        due += gap;
        if due >= dur {
            break;
        }
        let k = (due / slice) as usize;
        let policy = policy_of_slice(k);
        let warm = k < WARM_SLICES;
        let now = epoch.elapsed().as_nanos() as u64;
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        if !warm {
            late.push((epoch.elapsed().as_nanos() as u64).saturating_sub(due));
        }
        g.req += 1;
        let kb = key(op.key);
        let enc = spans.begin("wire.encode", g.req, None);
        wbuf.clear();
        if op.get {
            encode_request(&mut wbuf, &Request::Get { key: &kb });
        } else {
            g.version += 1;
            ops::fill_value(&mut val, &kb, g.version, s.value_len);
            encode_request(
                &mut wbuf,
                &Request::Put {
                    key: &kb,
                    value: &val,
                },
            );
        }
        let ping = traced && g.req.is_multiple_of(PING_EVERY);
        if ping {
            encode_request(&mut wbuf, &Request::Ping);
        }
        spans.end(enc);
        let w = spans.begin("sock.write", g.req, None);
        let wrote = send[policy].write_all(&wbuf);
        spans.end(w);
        if let Err(e) = wrote {
            eprintln!("sender: {e}");
            break;
        }
        let sent = Sent {
            policy,
            due,
            op,
            ping: false,
            warm,
            req: g.req,
        };
        if tx.send(sent).is_err() {
            break;
        }
        if ping {
            let sent = Sent {
                policy,
                due,
                op,
                ping: true,
                warm,
                req: g.req,
            };
            if tx.send(sent).is_err() {
                break;
            }
        }
    }
    (late, spans)
}

/// Read one reply frame from `sock` into `buf` (which may already hold
/// bytes of later frames); returns the frame's length once complete.
fn read_frame(sock: &mut TcpStream, buf: &mut Vec<u8>) -> Result<usize, String> {
    loop {
        match decode_frame(buf) {
            Ok(Some(f)) => return Ok(f.consumed),
            Ok(None) => {}
            Err(e) => return Err(format!("bad frame: {e}")),
        }
        let mut chunk = [0u8; 16 * 1024];
        match sock.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

fn receiver(
    mut recv: Vec<TcpStream>,
    s: &Sizes,
    rx: mpsc::Receiver<Sent>,
    ph: &mut Phase,
    traced: bool,
    epoch: Instant,
) {
    let mut spans = SpanBuf::new(traced, epoch);
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); recv.len()];
    let mut broken = false;
    for m in rx {
        if !m.ping {
            ph.requests += 1;
            if m.policy == SPP {
                ph.spp_sent[0] += 1;
                ph.spp_sent[1] += u64::from(!m.op.get);
            }
            ph.report.attempted += 1;
        }
        if broken {
            ph.report.failed += u64::from(!m.ping);
            continue;
        }
        let p = m.policy;
        let name = match (m.ping, m.op.get) {
            (true, _) => "request.ping",
            (false, true) => "request.get",
            (false, false) => "request.put",
        };
        let root = spans.open_at(name, m.req, None, m.due);
        let rd = spans.begin("sock.read", m.req, Some(root));
        let got = read_frame(&mut recv[p], &mut bufs[p]);
        spans.end(rd);
        let consumed = match got {
            Ok(n) => n,
            Err(e) => {
                eprintln!("receiver ({}): {e}", POLICIES[p].label());
                ph.report.failed += u64::from(!m.ping);
                broken = true;
                continue;
            }
        };
        let dec = spans.begin("wire.decode", m.req, Some(root));
        let frame = decode_frame(&bufs[p])
            .ok()
            .flatten()
            .expect("frame completed above");
        let resp = parse_response(&frame);
        spans.end(dec);
        let lat = (epoch.elapsed().as_nanos() as u64).saturating_sub(m.due);
        let kb = key(m.op.key);
        if m.ping {
            match resp {
                Ok(Response::Pong) if !m.warm => ph.ping.push(lat),
                Ok(Response::Pong) => {}
                other => eprintln!("receiver: PING got {other:?}"),
            }
            spans.end(root);
            bufs[p].drain(..consumed);
            continue;
        }
        let ok = match (m.op.get, resp) {
            (true, Ok(Response::Value(v))) => match check_value(&kb, v, s.value_len) {
                Ok(_) => true,
                Err(e) => {
                    ph.report.mismatch(format!("GET key {}: {e}", m.op.key));
                    false
                }
            },
            (true, Ok(Response::NotFound)) => {
                ph.report.mismatch(format!("GET key {}: missing", m.op.key));
                false
            }
            (false, Ok(Response::Ok)) => true,
            (_, Ok(Response::Busy)) => {
                ph.busy += 1;
                ph.report.failed += 1;
                false
            }
            (_, other) => {
                eprintln!("receiver: unexpected reply {other:?}");
                ph.report.failed += 1;
                false
            }
        };
        spans.end(root);
        bufs[p].drain(..consumed);
        if m.warm {
            continue;
        }
        // A failed request counts as beyond any latency limit.
        let lat = if ok { lat } else { u64::MAX };
        ph.ops[p] += u64::from(ok);
        ph.all[p].push(lat);
        if p == SPP {
            if m.op.get {
                ph.get.push(lat);
            } else {
                ph.put.push(lat);
            }
        }
    }
    ph.trace.add(spans);
}

fn rate(ph: &Phase, p: usize) -> f64 {
    ph.ops[p] as f64 / (ph.owned_ns[p] as f64 / 1e9)
}

fn build(s: &Sizes, stats: bool) -> Vec<Stack> {
    let cfg = stack_cfg(s, stats);
    POLICIES.iter().map(|&k| Stack::start(k, &cfg)).collect()
}

/// Run `wire_read_open`.
pub fn run(a: &Args) -> Report {
    let s = sizes(a.smoke);
    let mut rep = Report::default();
    let reps = if a.trace { 1 } else { SETUP_REPS };
    let (stacks, setups) = crate::set_up(
        reps,
        || build(&s, a.trace),
        |old: Vec<Stack>| old.into_iter().for_each(Stack::shutdown),
    );
    println!(
        "[wire_read_open] keys={} value={}B zipf={THETA} offered={RATE}/s p99 limit={P99_LIMIT_US}us slice={}ms setups={setups:?}",
        s.keys,
        s.value_len,
        SLICE.as_millis()
    );
    let mut g = Gen {
        rng: Rng::new(a.seed, 0),
        zipf: Zipf::new(s.keys, THETA),
        rate: RATE,
        version: 0,
        req: 0,
    };
    if a.corrupt {
        ops::corrupt_next_check();
    }
    let seconds = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let spp = &stacks[SPP];
    let locks0 = [
        stack::lock_totals("pmdk.lane"),
        stack::lock_totals("kvstore.stripe"),
    ];
    let group0 = spp.primary.group_stats();
    let cpu0 = Cpu::now();
    let mut main = measure(&stacks, &s, &mut g, seconds, false);
    let cpu = Cpu::now().since(cpu0);
    let locks = [
        stack::lock_totals("pmdk.lane"),
        stack::lock_totals("kvstore.stripe"),
    ];
    let group = spp.primary.group_stats();

    for (p, st) in stacks.iter().enumerate() {
        let mut all = std::mem::take(&mut main.all[p]);
        let p99 = all.pct(99.0).map_or(f64::INFINITY, |ns| ns as f64 / 1e3);
        let verdict = if p99 <= P99_LIMIT_US {
            "meets"
        } else {
            "MISSES"
        };
        println!(
            "[wire_read_open] {}: {} requests, p99 {p99:.1} us {verdict} the {P99_LIMIT_US} us limit",
            st.kind.label(),
            all.len()
        );
        main.all[p] = all;
    }

    if a.trace {
        let engines = spp.engines();
        let pm0 = stack::pm_totals(&engines);
        let mut ph = measure(&stacks, &s, &mut g, seconds, true);
        let pm = stack::pm_totals(&engines);
        let [sent, puts] = ph.spp_sent;
        crate::pm_metrics(&mut rep, pm0, pm, sent, puts, s.value_len);
        crate::lock_metrics(&mut rep, locks0, locks);
        let batches = (group.0 - group0.0).max(1);
        let ops_per_batch = (group.1 - group0.1) as f64 / batches as f64;
        rep.set("group.ops_per_batch", ops_per_batch, "count", batches);
        rep.set(
            "queue.busy_frac",
            main.busy as f64 / main.requests.max(1) as f64,
            "frac",
            main.requests,
        );
        rep.set_noted("ring.skew", 1.0, "ratio", main.ops[SPP], "one shard".into());
        for name in ["repl.rtt_us", "repl.frames_per_batch", "repl.failed"] {
            rep.absent(
                name,
                crate::layer_unit(name),
                "no replication in this workload",
            );
        }
        let ping_us = ph.ping.pct(50.0).map_or(f64::NAN, |ns| ns as f64 / 1e3);
        rep.set("reactor.ping_rtt_us", ping_us, "us", ph.ping.len() as u64);
        let late = ph.late.pct(99.0).map_or(f64::NAN, |ns| ns as f64 / 1e3);
        rep.set("gen.late_p99_us", late, "us", ph.late.len() as u64);
        let means: Vec<f64> = main
            .all
            .iter_mut()
            .map(|x| x.pct(50.0).unwrap_or(0) as f64)
            .collect();
        rep.set_noted(
            "policy.spp_over_pmdk",
            means[SPP] / means[0],
            "ratio",
            main.ops[SPP],
            "median latency ratio at the offered rate".into(),
        );
        rep.set_noted(
            "policy.safepm_over_pmdk",
            means[2] / means[0],
            "ratio",
            main.ops[2],
            "median latency ratio at the offered rate".into(),
        );
        rep.set(
            "policy.resolve_ns.spp",
            stack::resolve_ns(&spp.engines()[0], s.value_len),
            "ns",
            1,
        );
        rep.set(
            "policy.resolve_ns.pmdk",
            stack::resolve_ns(&stacks[0].engines()[0], s.value_len),
            "ns",
            1,
        );
        rep.set("policy.dram_mb.spp", stacks[SPP].dram_mb, "MB", 1);
        rep.set("policy.dram_mb.safepm", stacks[2].dram_mb, "MB", 1);
        // Open loop: the offered rate is fixed, so tracing overhead shows
        // as latency, not throughput.
        let (mut tg, mut ug) = (std::mem::take(&mut ph.get), std::mem::take(&mut main.get));
        let over = tg.pct(50.0).unwrap_or(0) as f64 / ug.pct(50.0).unwrap_or(1).max(1) as f64 - 1.0;
        rep.set_noted(
            "trace.overhead_frac",
            over,
            "frac",
            tg.len() as u64,
            "GET p50 traced vs untraced".into(),
        );
        crate::proc_metrics(&mut rep, cpu, main.requests);
        let (get, put) = (ph.trace.agg("request.get"), ph.trace.agg("request.put"));
        let top_us =
            (get.total_ns + put.total_ns) as f64 / (get.count + put.count).max(1) as f64 / 1e3;
        let (lad, lad_trace) = read_ladder(&s, a.seed, spp, ops_per_batch, &mut rep);
        crate::ladder_metrics(&mut rep, &lad, top_us, LADDER_OPS as u64);
        let accesses = rep.get("pm.accesses_per_op").unwrap_or(0.0);
        let resolve = rep.get("policy.resolve_ns.spp").unwrap_or(0.0);
        rep.set(
            "policy.resolve_share",
            resolve * accesses / (lad.rungs[0].1 * 1e3),
            "frac",
            1,
        );
        for (p, kind) in POLICIES.iter().enumerate() {
            if p != SPP {
                for op in ["put", "get"] {
                    rep.absent(
                        &format!("engine.{op}_us.{}", kind.label()),
                        "us",
                        "the ladder replays the SPP stack only",
                    );
                }
            }
        }
        let mut all = ph.trace;
        all.merge(lad_trace);
        crate::print_self_table("wire_read_open", &all);
        crate::write_trace("wire_read_open", a, &all);
        rep.absorb_counts(ph.report);
    } else {
        rep.set_noted(
            "setup_s",
            median(&setups),
            "s",
            setups.len() as u64,
            String::new(),
        );
        rep.set_noted(
            "ops_per_s",
            rate(&main, SPP),
            "1/s",
            main.ops[SPP],
            format!("offered {RATE}/s"),
        );
        rep.set("pmdk_ops_per_s", rate(&main, 0), "1/s", main.ops[0]);
        rep.set("safepm_ops_per_s", rate(&main, 2), "1/s", main.ops[2]);
        crate::latency_metrics(&mut rep, "put", &mut main.put);
        crate::latency_metrics(&mut rep, "get", &mut main.get);
        let mut late = std::mem::take(&mut main.late);
        println!(
            "[wire_read_open] latency from scheduled send time (SPP server); generator late p99 {:.1} us",
            late.pct(99.0).unwrap_or(0) as f64 / 1e3
        );
    }
    rep.absorb_counts(main.report);
    for (kind, st) in POLICIES.iter().zip(&stacks) {
        rep.attempted += 1;
        match st.engines()[0].count() {
            Ok(c) if c == s.keys => {}
            Ok(c) => rep.mismatch(format!("{} count {c} != {}", kind.label(), s.keys)),
            Err(e) => rep.mismatch(format!("{} count failed: {e}", kind.label())),
        }
    }
    for st in stacks {
        st.shutdown();
    }
    if !a.trace {
        crate::finish_e2e(&mut rep);
    }
    rep
}

/// The ladder: rungs 1–4 (the served stack has one shard and no backup)
/// over the same request stream, plus the single-layer probes.
fn read_ladder(
    s: &Sizes,
    seed: u64,
    spp: &Stack,
    ops_per_batch: f64,
    rep: &mut Report,
) -> (Ladder, Trace) {
    let mut g = Gen {
        rng: Rng::new(seed, 100),
        zipf: Zipf::new(s.keys, THETA),
        rate: RATE,
        version: 0,
        req: 0,
    };
    let runs: Vec<Vec<Op>> = (0..LADDER_OPS)
        .map(|_| vec![open_op(&mut g.rng, &g.zipf, g.rate).1])
        .collect();
    let replay = Replay {
        runs,
        value_len: s.value_len,
    };
    let mut spans = SpanBuf::new(true, Instant::now());
    let mut lad = Ladder::default();
    let mut lrep = Report::default();
    let (engine, _) = stack::engine(spp.kind, s.pool_bytes, s.nbuckets, false);
    stack::preload(std::slice::from_ref(&engine), 0..s.keys, s.value_len);
    lad.push(
        "engine",
        ladder::rung_direct(&engine, None, false, &replay, &mut lrep, &mut spans),
    );
    let committer = GroupCommitter::start(engine.clone(), GroupConfig::default());
    lad.push(
        "group",
        ladder::rung_direct(
            &engine,
            Some(&committer),
            false,
            &replay,
            &mut lrep,
            &mut spans,
        ),
    );
    lad.push(
        "wire",
        ladder::rung_direct(
            &engine,
            Some(&committer),
            true,
            &replay,
            &mut lrep,
            &mut spans,
        ),
    );
    let size = (ops_per_batch.round() as usize).max(1);
    let (batch, submit) = ladder::batch_us(&engine, &committer, size, s.keys, s.value_len);
    committer.close();
    rep.set_noted(
        "engine.batch_us",
        batch,
        "us",
        500,
        format!("batch of {size} puts"),
    );
    rep.set_noted(
        "group.hop_us",
        submit - batch,
        "us",
        500,
        format!("submit {submit:.3} us - batch"),
    );
    rep.set(
        "wire.codec_ns",
        ladder::codec_ns(&replay),
        "ns",
        LADDER_OPS as u64,
    );
    let mut t = Trace::default();
    t.add(std::mem::replace(
        &mut spans,
        SpanBuf::new(true, Instant::now()),
    ));
    let batches = t.agg("engine.apply_write_batch");
    rep.set(
        "engine.put_us.spp",
        batches.total_ns as f64 / batches.count.max(1) as f64 / 1e3,
        "us",
        batches.count,
    );
    rep.set(
        "engine.get_us.spp",
        t.mean_us("engine.get").unwrap_or(f64::NAN),
        "us",
        t.agg("engine.get").count,
    );
    lad.push(
        "frontend",
        ladder::rung_client(
            &mut stack::connect(spp.addr()),
            "ladder.frontend",
            &replay,
            &mut lrep,
            &mut spans,
        ),
    );
    rep.absorb_counts(lrep);
    t.add(spans);
    (lad, t)
}
