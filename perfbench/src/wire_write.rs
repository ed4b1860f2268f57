//! `wire_write_repl`: replicated, pipelined writes over the epoll server.
//!
//! Per policy, a 2-shard primary ships every committed batch to an
//! in-process 2-shard backup in `ReplAckMode::Sync`. Two connections, each
//! on its own thread, run a closed loop of depth-8 runs that alternate one
//! `MULTI` frame and 8 raw pipelined frames: 90% PUT / 10% GET of 1 KiB
//! values over uniform keys from disjoint per-connection sets that fit L3
//! but not L2. The policies' stacks take alternating slices.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use spp_server::{Client, ClientError, GroupCommitter, GroupConfig, Reply, Request, Ring, Server};

use crate::ladder::{self, Replay};
use crate::ops::{self, check_value, key, write_run, Op, Rng, KEY_LEN};
use crate::procfs::Cpu;
use crate::report::Report;
use crate::samples::{median, Samples};
use crate::stack::{self, policy_of_slice, Stack, StackCfg, POLICIES, WARM_SLICES};
use crate::trace::{Ladder, SpanBuf, Trace};
use crate::Args;

struct Sizes {
    keys_per_conn: u64,
    conns: usize,
    depth: usize,
    value_len: usize,
    pool_bytes: u64,
    nbuckets: u64,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            keys_per_conn: 1024,
            conns: 2,
            depth: 8,
            value_len: 1024,
            pool_bytes: 16 << 20,
            nbuckets: 1024,
        }
    } else {
        // 2 x 32 Ki keys x 1 KiB = 64 MiB per policy: past L2, within L3.
        Sizes {
            keys_per_conn: 32 << 10,
            conns: 2,
            depth: 8,
            value_len: 1024,
            pool_bytes: 64 << 20,
            nbuckets: 32 << 10,
        }
    }
}

const SHARDS: usize = 2;
const SLICE: Duration = Duration::from_millis(150);
const SETUP_REPS: usize = 3;
const SPP: usize = 1;
/// Runs replayed through each ladder rung.
const LADDER_RUNS: usize = 1500;
/// A ping is interleaved after every this many runs of a traced phase.
const PING_EVERY: u64 = 16;

const SPAN_MULTI: [&str; 3] = [
    "client.multi.pmdk",
    "client.multi.spp",
    "client.multi.safepm",
];
const SPAN_PIPE: [&str; 3] = [
    "client.pipeline.pmdk",
    "client.pipeline.spp",
    "client.pipeline.safepm",
];

fn stack_cfg(s: &Sizes, stats: bool) -> StackCfg {
    StackCfg {
        shards: SHARDS,
        repl: true,
        pool_bytes: s.pool_bytes,
        nbuckets: s.nbuckets,
        keys: 0..s.keys_per_conn * s.conns as u64,
        value_len: s.value_len,
        stats,
    }
}

/// What each connection expects its keys to hold, per policy.
struct Expect {
    /// `[policy][local key]` last acked version.
    version: Vec<Vec<u64>>,
    /// `[policy][local key]`: a write's outcome is unknown (ERR reply).
    unknown: Vec<Vec<bool>>,
}

impl Expect {
    fn new(keys: u64) -> Expect {
        Expect {
            version: vec![vec![0; keys as usize]; 3],
            unknown: vec![vec![false; keys as usize]; 3],
        }
    }
}

#[derive(Default)]
struct ConnOut {
    /// Per slice: (policy, ops, elapsed ns).
    slices: Vec<(usize, u64, u64)>,
    put: Samples,
    get: Samples,
    ping: Samples,
    busy: u64,
    requests: u64,
    /// SPP puts sent, warm-up included.
    puts: u64,
    shard_ops: [u64; SHARDS],
    report: Report,
}

#[allow(clippy::too_many_arguments)]
fn conn_worker(
    c: usize,
    addrs: &[std::net::SocketAddr],
    s: &Sizes,
    rng: &mut Rng,
    exp: &mut Expect,
    run_no: &mut u64,
    barrier: &Barrier,
    slices: usize,
    spans: &mut SpanBuf,
) -> ConnOut {
    let mut out = ConnOut::default();
    let mut clients: Vec<Client> = addrs.iter().map(|&a| stack::connect(a)).collect();
    let ring = Ring::new(SHARDS as u32);
    let base = c as u64 * s.keys_per_conn;
    let mut run: Vec<Op> = Vec::with_capacity(s.depth);
    let mut keys: Vec<[u8; KEY_LEN]> = Vec::with_capacity(s.depth);
    let mut vals: Vec<Vec<u8>> = vec![Vec::new(); s.depth];
    let mut versions: Vec<u64> = vec![0; s.depth];
    let mut version = (c as u64 + 1) << 40;
    for k in 0..slices {
        let p = policy_of_slice(k);
        barrier.wait();
        let start = Instant::now();
        let deadline = start + SLICE;
        let mut now = start;
        let mut n = 0u64;
        while now < deadline {
            write_run(rng, base, s.keys_per_conn, s.depth, &mut run);
            keys.clear();
            for (i, o) in run.iter().enumerate() {
                let kb = key(o.key);
                keys.push(kb);
                if !o.get {
                    version += 1;
                    versions[i] = version;
                    ops::fill_value(&mut vals[i], &kb, version, s.value_len);
                }
            }
            let reqs: Vec<Request<'_>> = run
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    if o.get {
                        Request::Get { key: &keys[i] }
                    } else {
                        Request::Put {
                            key: &keys[i],
                            value: &vals[i],
                        }
                    }
                })
                .collect();
            let multi = run_no.is_multiple_of(2);
            *run_no += 1;
            let span = spans.begin(
                if multi { SPAN_MULTI[p] } else { SPAN_PIPE[p] },
                *run_no,
                None,
            );
            let t0 = Instant::now();
            let res = if multi {
                clients[p].multi(&reqs)
            } else {
                clients[p].pipeline(&reqs)
            };
            now = Instant::now();
            spans.end(span);
            let rtt = (now - t0).as_nanos() as u64;
            out.requests += run.len() as u64;
            out.report.attempted += run.len() as u64;
            n += run.len() as u64;
            if p == SPP {
                out.puts += run.iter().filter(|o| !o.get).count() as u64;
            }
            if p == SPP && k >= WARM_SLICES {
                for (o, kb) in run.iter().zip(&keys) {
                    out.shard_ops[ring.shard_of(kb) as usize] += 1;
                    if o.get {
                        out.get.push(rtt);
                    } else {
                        out.put.push(rtt);
                    }
                }
            }
            let replies = match res {
                Ok(r) => r,
                Err(ClientError::Busy) => {
                    out.busy += run.len() as u64;
                    out.report.failed += run.len() as u64;
                    continue;
                }
                Err(e) => {
                    out.report.failed += run.len() as u64;
                    for o in &run {
                        exp.unknown[p][(o.key - base) as usize] = true;
                    }
                    eprintln!("conn {c}: run failed: {e}");
                    continue;
                }
            };
            for (i, (o, reply)) in run.iter().zip(replies).enumerate() {
                let local = (o.key - base) as usize;
                match (o.get, reply) {
                    (true, Reply::Value(v)) => match check_value(&keys[i], &v, s.value_len) {
                        Ok(ver) if exp.unknown[p][local] || ver == exp.version[p][local] => {}
                        Ok(ver) => out.report.mismatch(format!(
                            "{} GET key {}: version {ver}, last acked {}",
                            POLICIES[p].label(),
                            o.key,
                            exp.version[p][local]
                        )),
                        Err(e) => out.report.mismatch(format!("GET key {}: {e}", o.key)),
                    },
                    (true, Reply::NotFound) => {
                        out.report.mismatch(format!("GET key {}: missing", o.key))
                    }
                    (false, Reply::Ok) => {
                        exp.version[p][local] = versions[i];
                        exp.unknown[p][local] = false;
                    }
                    (_, Reply::Busy) => {
                        out.busy += 1;
                        out.report.failed += 1;
                    }
                    (get, other) => {
                        out.report.failed += 1;
                        if !get {
                            exp.unknown[p][local] = true;
                        }
                        eprintln!("conn {c}: reply {other:?}");
                    }
                }
            }
            if spans.on() && p == SPP && run_no.is_multiple_of(PING_EVERY) {
                let span = spans.begin("client.ping", *run_no, None);
                let t0 = Instant::now();
                let ok = clients[p].ping();
                out.ping.push(t0.elapsed().as_nanos() as u64);
                spans.end(span);
                if let Err(e) = ok {
                    eprintln!("conn {c}: ping: {e}");
                }
            }
        }
        out.slices.push((p, n, (now - start).as_nanos() as u64));
    }
    out
}

#[derive(Default)]
struct Phase {
    ops: [u64; 3],
    /// Per round: ops/s for each policy.
    rates: Vec<[f64; 3]>,
    put: Samples,
    get: Samples,
    ping: Samples,
    busy: u64,
    requests: u64,
    puts: u64,
    shard_ops: [u64; SHARDS],
    report: Report,
    trace: Trace,
}

struct ConnState {
    rng: Rng,
    exp: Expect,
    run_no: u64,
}

fn measure(
    stacks: &[Stack],
    s: &Sizes,
    conns: &mut [ConnState],
    seconds: f64,
    traced: bool,
) -> Phase {
    let slices = WARM_SLICES + ((seconds / SLICE.as_secs_f64()) as usize / 3).max(1) * 3;
    let barrier = Barrier::new(conns.len());
    let addrs: Vec<_> = stacks.iter().map(Stack::addr).collect();
    let epoch = Instant::now();
    let outs: Vec<(ConnOut, SpanBuf)> = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, st)| {
                let (barrier, addrs) = (&barrier, &addrs);
                sc.spawn(move || {
                    let mut spans = SpanBuf::new(traced, epoch);
                    let out = conn_worker(
                        c,
                        addrs,
                        s,
                        &mut st.rng,
                        &mut st.exp,
                        &mut st.run_no,
                        barrier,
                        slices,
                        &mut spans,
                    );
                    (out, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut ph = Phase::default();
    let mut rates = [0.0; 3];
    for k in 0..slices {
        let p = policy_of_slice(k);
        let ops = outs.iter().map(|o| o.0.slices[k].1).sum::<u64>();
        let wall = outs.iter().map(|o| o.0.slices[k].2).max().unwrap_or(0);
        ph.ops[p] += ops;
        rates[p] = ops as f64 / (wall as f64 / 1e9);
        if k % 3 == 2 && k >= WARM_SLICES {
            ph.rates.push(rates);
        }
    }
    for (o, spans) in outs {
        ph.put.merge(o.put);
        ph.get.merge(o.get);
        ph.ping.merge(o.ping);
        ph.busy += o.busy;
        ph.requests += o.requests;
        ph.puts += o.puts;
        for (a, b) in ph.shard_ops.iter_mut().zip(o.shard_ops) {
            *a += b;
        }
        ph.report.absorb_counts(o.report);
        ph.trace.add(spans);
    }
    ph
}

/// Policy `p`'s ops/s: the median over rounds.
fn rate(ph: &Phase, p: usize) -> f64 {
    median(&ph.rates.iter().map(|r| r[p]).collect::<Vec<_>>())
}

fn build(s: &Sizes, stats: bool) -> Vec<Stack> {
    let cfg = stack_cfg(s, stats);
    POLICIES.iter().map(|&k| Stack::start(k, &cfg)).collect()
}

/// Read back every key's last acked value, then compare each backup
/// shard's contents with its primary shard.
fn verify(stacks: &[Stack], s: &Sizes, conns: &[ConnState], rep: &mut Report) {
    for (p, st) in stacks.iter().enumerate() {
        let label = st.kind.label();
        let mut client = stack::connect(st.addr());
        for (c, cs) in conns.iter().enumerate() {
            let base = c as u64 * s.keys_per_conn;
            let locals: Vec<u64> = (0..s.keys_per_conn)
                .filter(|&l| !cs.exp.unknown[p][l as usize])
                .collect();
            for chunk in locals.chunks(64) {
                let keys: Vec<[u8; KEY_LEN]> = chunk.iter().map(|&l| key(base + l)).collect();
                let reqs: Vec<Request<'_>> = keys.iter().map(|k| Request::Get { key: k }).collect();
                rep.attempted += chunk.len() as u64;
                let replies = match client.multi(&reqs) {
                    Ok(r) => r,
                    Err(e) => {
                        rep.mismatch(format!("{label} readback failed: {e}"));
                        continue;
                    }
                };
                for ((&l, k), reply) in chunk.iter().zip(&keys).zip(replies) {
                    let want = cs.exp.version[p][l as usize];
                    let got = match reply {
                        Reply::Value(v) => check_value(k, &v, s.value_len),
                        other => Err(format!("reply {other:?}")),
                    };
                    match got {
                        Ok(v) if v == want => {}
                        Ok(v) => rep.mismatch(format!(
                            "{label} key {}: read back version {v}, acked {want}",
                            base + l
                        )),
                        Err(e) => rep.mismatch(format!("{label} key {}: {e}", base + l)),
                    }
                }
            }
        }
        let backup = st.backup.as_ref().expect("replicated stack has a backup");
        for (i, (pe, be)) in st.engines().iter().zip(backup.engines()).enumerate() {
            rep.attempted += 1;
            let (a, b) = (contents(pe, s.value_len), contents(&be, s.value_len));
            match (a, b) {
                (Ok(a), Ok(b)) if a == b => {}
                (Ok(a), Ok(b)) => rep.mismatch(format!(
                    "{label} shard {i}: backup holds {} entries, primary {}, contents differ",
                    b.len(),
                    a.len()
                )),
                (Err(e), _) | (_, Err(e)) => rep.mismatch(format!("{label} shard {i}: {e}")),
            }
        }
    }
}

/// Every `(key, version)` of an engine, sorted; every value must be well
/// formed.
fn contents(
    e: &spp_server::KvEngine,
    value_len: usize,
) -> Result<Vec<([u8; KEY_LEN], u64)>, String> {
    let mut out = Vec::new();
    let mut bad = None;
    e.for_each(|k, v| {
        match check_value(k, v, value_len) {
            Ok(ver) => out.push((*k, ver)),
            Err(err) => bad = Some(err),
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    if let Some(err) = bad {
        return Err(format!("malformed value: {err}"));
    }
    out.sort_unstable();
    Ok(out)
}

/// Run `wire_write_repl`.
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
        "[wire_write_repl] conns={} keys/conn={} value={}B depth={} shards={SHARDS} repl=sync slice={}ms setups={setups:?}",
        s.conns,
        s.keys_per_conn,
        s.value_len,
        s.depth,
        SLICE.as_millis()
    );
    let mut conns: Vec<ConnState> = (0..s.conns)
        .map(|c| ConnState {
            rng: Rng::new(a.seed, c as u64),
            exp: Expect::new(s.keys_per_conn),
            run_no: 0,
        })
        .collect();
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
    let repl0 = spp.primary.repl_stats().unwrap_or_default();
    let cpu0 = Cpu::now();
    let mut main = measure(&stacks, &s, &mut conns, seconds, false);
    let cpu = Cpu::now().since(cpu0);
    let locks = [
        stack::lock_totals("pmdk.lane"),
        stack::lock_totals("kvstore.stripe"),
    ];
    let group = spp.primary.group_stats();
    let repl = spp.primary.repl_stats().unwrap_or_default();
    rep.failed += repl.failed - repl0.failed;

    let mut traced = None;
    if a.trace {
        let engines = spp.engines();
        let pm0 = stack::pm_totals(&engines);
        let ph = measure(&stacks, &s, &mut conns, seconds, true);
        let pm = stack::pm_totals(&engines);
        traced = Some((ph, pm0, pm));
    }
    verify(&stacks, &s, &conns, &mut rep);

    if let Some((ph, pm0, pm)) = traced {
        let batches = (group.0 - group0.0).max(1);
        let ops_per_batch = (group.1 - group0.1) as f64 / batches as f64;
        crate::pm_metrics(&mut rep, pm0, pm, ph.ops[SPP], ph.puts, s.value_len);
        crate::lock_metrics(&mut rep, locks0, locks);
        rep.set("group.ops_per_batch", ops_per_batch, "count", batches);
        rep.set(
            "queue.busy_frac",
            main.busy as f64 / main.requests.max(1) as f64,
            "frac",
            main.requests,
        );
        let mean = main.shard_ops.iter().sum::<u64>() as f64 / SHARDS as f64;
        let max = *main.shard_ops.iter().max().unwrap_or(&0) as f64;
        rep.set(
            "ring.skew",
            max / mean,
            "ratio",
            main.shard_ops.iter().sum(),
        );
        rep.set(
            "repl.frames_per_batch",
            (repl.shipped - repl0.shipped) as f64 / batches as f64,
            "count",
            batches,
        );
        rep.set(
            "repl.failed",
            (repl.failed - repl0.failed) as f64,
            "count",
            batches,
        );
        let mut ping = ph.ping.clone();
        rep.set(
            "reactor.ping_rtt_us",
            ping.pct(50.0).map_or(f64::NAN, |ns| ns as f64 / 1e3),
            "us",
            ping.len() as u64,
        );
        rep.set(
            "trace.overhead_frac",
            1.0 - rate(&ph, SPP) / rate(&main, SPP),
            "frac",
            ph.ops[SPP],
        );
        crate::proc_metrics(&mut rep, cpu, main.ops.iter().sum());
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
        for (name, p) in [
            ("policy.spp_over_pmdk", SPP),
            ("policy.safepm_over_pmdk", 2),
        ] {
            rep.set(name, rate(&main, 0) / rate(&main, p), "ratio", main.ops[p]);
        }
        // The traced top rung: an SPP run's round trip per op.
        let multi = ph.trace.agg(SPAN_MULTI[SPP]);
        let pipe = ph.trace.agg(SPAN_PIPE[SPP]);
        let top_us = (multi.total_ns + pipe.total_ns) as f64
            / ((multi.count + pipe.count) * s.depth as u64).max(1) as f64
            / 1e3;
        let (lad, lad_trace) = write_ladder(&s, a.seed, spp, ops_per_batch, &mut rep);
        crate::ladder_metrics(&mut rep, &lad, top_us, (LADDER_RUNS * s.depth) as u64);
        let accesses = rep.get("pm.accesses_per_op").unwrap_or(0.0);
        let resolve = rep.get("policy.resolve_ns.spp").unwrap_or(0.0);
        rep.set(
            "policy.resolve_share",
            resolve * accesses / (lad.rungs[0].1 * 1e3),
            "frac",
            1,
        );
        for (p, kind) in POLICIES.iter().enumerate() {
            let label = kind.label();
            if p == SPP {
                continue;
            }
            for op in ["put", "get"] {
                rep.absent(
                    &format!("engine.{op}_us.{label}"),
                    "us",
                    "the ladder replays the SPP stack only",
                );
            }
        }
        rep.absent("gen.late_p99_us", "us", "closed loop: no send schedule");
        let mut all = ph.trace;
        all.merge(lad_trace);
        crate::print_self_table("wire_write_repl", &all);
        crate::write_trace("wire_write_repl", a, &all);
        rep.absorb_counts(ph.report);
    } else {
        rep.set_noted(
            "setup_s",
            median(&setups),
            "s",
            setups.len() as u64,
            String::new(),
        );
        rep.set("ops_per_s", rate(&main, SPP), "1/s", main.ops[SPP]);
        rep.set("pmdk_ops_per_s", rate(&main, 0), "1/s", main.ops[0]);
        rep.set("safepm_ops_per_s", rate(&main, 2), "1/s", main.ops[2]);
        crate::latency_metrics(&mut rep, "put", &mut main.put);
        crate::latency_metrics(&mut rep, "get", &mut main.get);
        println!("[wire_write_repl] an op's latency is its run's round trip (SPP stack)");
    }
    rep.absorb_counts(main.report);
    for st in stacks {
        st.shutdown();
    }
    if !a.trace {
        crate::finish_e2e(&mut rep);
    }
    rep
}

/// The ladder: the SPP stack's rungs, bottom up, over connection 0's key
/// set, plus the single-layer probes (batch, submit, codec, repl).
fn write_ladder(
    s: &Sizes,
    seed: u64,
    spp: &Stack,
    ops_per_batch: f64,
    rep: &mut Report,
) -> (Ladder, Trace) {
    let mut rng = Rng::new(seed, 100);
    let runs: Vec<Vec<Op>> = (0..LADDER_RUNS)
        .map(|_| {
            let mut run = Vec::new();
            write_run(&mut rng, 0, s.keys_per_conn, s.depth, &mut run);
            run
        })
        .collect();
    let replay = Replay {
        runs,
        value_len: s.value_len,
    };
    let mut spans = SpanBuf::new(true, Instant::now());
    let mut lad = Ladder::default();
    let mut lrep = Report::default();
    let kind = spp.kind;
    let (engine, _) = stack::engine(kind, s.pool_bytes, s.nbuckets, false);
    stack::preload(
        std::slice::from_ref(&engine),
        0..s.keys_per_conn,
        s.value_len,
    );

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
    let (batch, submit) = ladder::batch_us(&engine, &committer, size, s.keys_per_conn, s.value_len);
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
        replay.runs.len() as u64 * s.depth as u64,
    );
    let mut t = Trace::default();
    t.add(std::mem::replace(
        &mut spans,
        SpanBuf::new(true, Instant::now()),
    ));
    // Rung 1 commits each run's puts as one batch: per put, the batch
    // spans' total over the puts they carried.
    let puts = replay.runs.iter().flatten().filter(|o| !o.get).count() as u64;
    let batches = t.agg("engine.apply_write_batch");
    rep.set(
        "engine.put_us.spp",
        batches.total_ns as f64 / puts.max(1) as f64 / 1e3,
        "us",
        puts,
    );
    rep.set(
        "engine.get_us.spp",
        t.mean_us("engine.get").unwrap_or(f64::NAN),
        "us",
        t.agg("engine.get").count,
    );

    let one = Server::start(engine.clone(), "127.0.0.1:0", stack::server_cfg(None))
        .expect("start 1-shard server");
    lad.push(
        "frontend",
        ladder::rung_client(
            &mut stack::connect(one.local_addr()),
            "ladder.frontend",
            &replay,
            &mut lrep,
            &mut spans,
        ),
    );
    one.shutdown();

    let two_cfg = StackCfg {
        repl: false,
        keys: 0..s.keys_per_conn,
        ..stack_cfg(s, false)
    };
    let two = Stack::start(kind, &two_cfg);
    lad.push(
        "ring",
        ladder::rung_client(
            &mut stack::connect(two.addr()),
            "ladder.ring",
            &replay,
            &mut lrep,
            &mut spans,
        ),
    );
    two.shutdown();

    lad.push(
        "repl",
        ladder::rung_client(
            &mut stack::connect(spp.addr()),
            "ladder.repl",
            &replay,
            &mut lrep,
            &mut spans,
        ),
    );

    let backup_cfg = StackCfg {
        repl: false,
        keys: 0..0,
        ..stack_cfg(s, false)
    };
    let backup = Stack::start(kind, &backup_cfg);
    rep.set_noted(
        "repl.rtt_us",
        ladder::repl_rtt_us(backup.addr(), SHARDS as u32, size, s.value_len),
        "us",
        500,
        format!("REPL_BATCH of {size} puts"),
    );
    backup.shutdown();
    rep.absorb_counts(lrep);
    let mut all = t;
    all.add(spans);
    (lad, all)
}
