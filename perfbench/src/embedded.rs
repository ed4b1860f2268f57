//! `embedded_5050`: the paper's Fig. 5 mix on in-process engines.
//!
//! Three engines (PMDK, SPP, SafePM), each on its own warmed pool and
//! preloaded with a key set larger than L3, take 50% GET / 50% PUT of 1 KiB
//! values over uniform keys in a closed loop on every CPU. The policies
//! run in alternating slices, rotating which goes first, so host drift
//! cancels out of the per-round policy ratios.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use spp_server::KvEngine;

use crate::ops::{self, check_value, embedded_op, fill_value, key, Rng};
use crate::procfs::Cpu;
use crate::report::Report;
use crate::samples::{median, percentile, Samples};
use crate::stack::{self, policy_of_slice, POLICIES, WARM_SLICES};
use crate::trace::{SpanBuf, Trace};
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
            keys: 4096,
            value_len: 1024,
            pool_bytes: 32 << 20,
            nbuckets: 4096,
        }
    } else {
        // 192 Ki keys x 1 KiB = 192 MiB of values per policy, about twice
        // L3: most accesses miss L3 whatever other tenants of the host
        // keep there, which steadies the figures (in a paired trial,
        // 128 Ki keys, closer to L3's size, spread up to twice as far
        // from run to run). The pool stays within the 384 MiB that the
        // served SPP tag reaches.
        Sizes {
            keys: 192 << 10,
            value_len: 1024,
            pool_bytes: 336 << 20,
            nbuckets: 192 << 10,
        }
    }
}

/// One policy slice's length.
const SLICE: Duration = Duration::from_millis(60);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const SPP: usize = 1;
const SPAN_OP: [&str; 3] = ["bench.op.pmdk", "bench.op.spp", "bench.op.safepm"];
const SPAN_GET: [&str; 3] = ["engine.get.pmdk", "engine.get.spp", "engine.get.safepm"];
const SPAN_PUT: [&str; 3] = ["engine.put.pmdk", "engine.put.spp", "engine.put.safepm"];

struct World {
    engines: Vec<Arc<KvEngine>>,
    dram_mb: Vec<f64>,
}

fn build(s: &Sizes, stats: bool) -> World {
    let mut engines = Vec::new();
    let mut dram_mb = Vec::new();
    for kind in POLICIES {
        let (e, d) = stack::engine(kind, s.pool_bytes, s.nbuckets, stats);
        stack::preload(std::slice::from_ref(&e), 0..s.keys, s.value_len);
        engines.push(e);
        dram_mb.push(d);
    }
    World { engines, dram_mb }
}

/// What one measured phase produced.
#[derive(Default)]
struct Phase {
    ops: [u64; 3],
    puts: [u64; 3],
    /// Per round: thread-ns per op for each policy.
    rounds: Vec<[f64; 3]>,
    /// Per round: ops/s for each policy.
    rates: Vec<[f64; 3]>,
    put: Samples,
    get: Samples,
    report: Report,
    trace: Trace,
}

struct ThreadOut {
    /// Per slice: (policy, ops, elapsed ns).
    slices: Vec<(usize, u64, u64)>,
    puts: [u64; 3],
    put: Samples,
    get: Samples,
    report: Report,
    spans: SpanBuf,
}

fn worker(
    w: &World,
    s: &Sizes,
    rng: &mut Rng,
    tid: u64,
    barrier: &Barrier,
    slices: usize,
    spans: SpanBuf,
) -> ThreadOut {
    let mut out = ThreadOut {
        slices: Vec::with_capacity(slices),
        puts: [0; 3],
        put: Samples::default(),
        get: Samples::default(),
        report: Report::default(),
        spans,
    };
    let mut buf = Vec::with_capacity(s.value_len);
    let mut val = Vec::with_capacity(s.value_len);
    let mut version = tid << 48;
    let mut req = tid << 48;
    for k in 0..slices {
        let p = policy_of_slice(k);
        let engine = &*w.engines[p];
        barrier.wait();
        let start = Instant::now();
        let deadline = start + SLICE;
        let mut n = 0u64;
        let mut now = start;
        while now < deadline {
            let op = embedded_op(rng, s.keys);
            let kb = key(op.key);
            req += 1;
            let root = out.spans.begin(SPAN_OP[p], req, None);
            if op.get {
                buf.clear();
                let span = out.spans.begin(SPAN_GET[p], req, Some(root));
                let t0 = Instant::now();
                let r = engine.get(&kb, &mut buf);
                now = Instant::now();
                out.spans.end(span);
                if p == SPP && k >= WARM_SLICES {
                    out.get.push((now - t0).as_nanos() as u64);
                }
                match r {
                    Ok(true) => {
                        if let Err(e) = check_value(&kb, &buf, s.value_len) {
                            out.report.mismatch(format!("GET key {}: {e}", op.key));
                        }
                    }
                    Ok(false) => out.report.mismatch(format!("GET key {}: missing", op.key)),
                    Err(e) => {
                        out.report.failed += 1;
                        eprintln!("GET key {}: {e}", op.key);
                    }
                }
            } else {
                version += 1;
                fill_value(&mut val, &kb, version, s.value_len);
                let span = out.spans.begin(SPAN_PUT[p], req, Some(root));
                let t0 = Instant::now();
                let r = engine.put(&kb, &val);
                now = Instant::now();
                out.spans.end(span);
                if p == SPP && k >= WARM_SLICES {
                    out.put.push((now - t0).as_nanos() as u64);
                }
                out.puts[p] += 1;
                if let Err(e) = r {
                    out.report.failed += 1;
                    eprintln!("PUT key {}: {e}", op.key);
                }
            }
            out.spans.end(root);
            n += 1;
        }
        out.report.attempted += n;
        out.slices.push((p, n, (now - start).as_nanos() as u64));
    }
    out
}

fn measure(w: &World, s: &Sizes, rngs: &mut [Rng], seconds: f64, traced: bool) -> Phase {
    let slices = WARM_SLICES + ((seconds / SLICE.as_secs_f64()) as usize / 3).max(1) * 3;
    let barrier = Barrier::new(rngs.len());
    let epoch = Instant::now();
    let outs: Vec<ThreadOut> = std::thread::scope(|sc| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .enumerate()
            .map(|(t, rng)| {
                let barrier = &barrier;
                sc.spawn(move || {
                    let spans = SpanBuf::new(traced, epoch);
                    worker(w, s, rng, t as u64, barrier, slices, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("embedded worker panicked"))
            .collect()
    });
    let mut ph = Phase::default();
    let mut round = [0.0; 3];
    let mut rates = [0.0; 3];
    for k in 0..slices {
        let p = policy_of_slice(k);
        let (mut ops, mut thread_ns, mut wall) = (0u64, 0u64, 0u64);
        for o in &outs {
            let (_, n, ns) = o.slices[k];
            ops += n;
            thread_ns += ns;
            wall = wall.max(ns);
        }
        ph.ops[p] += ops;
        round[p] = thread_ns as f64 / ops.max(1) as f64;
        rates[p] = ops as f64 / (wall as f64 / 1e9);
        if k % 3 == 2 && k >= WARM_SLICES {
            ph.rounds.push(round);
            ph.rates.push(rates);
        }
    }
    for o in outs {
        for p in 0..3 {
            ph.puts[p] += o.puts[p];
        }
        ph.put.merge(o.put);
        ph.get.merge(o.get);
        ph.report.absorb_counts(o.report);
        ph.trace.add(o.spans);
    }
    ph
}

/// Policy `p`'s ops/s in the run's quiet spells: the rate the
/// [`crate::QUIET_PCT`] fastest share of rounds reach or beat.
fn rate(ph: &Phase, p: usize) -> f64 {
    let rates: Vec<f64> = ph.rates.iter().map(|r| r[p]).collect();
    percentile(&rates, 100.0 - crate::QUIET_PCT)
}

/// Run `embedded_5050`.
pub fn run(a: &Args) -> Report {
    let s = sizes(a.smoke);
    let threads = stack::cpus().clamp(1, 2);
    let mut rep = Report::default();
    let reps = if a.trace { 1 } else { SETUP_REPS };
    let (w, setups) = crate::set_up(reps, || build(&s, a.trace), drop);
    println!(
        "[embedded_5050] keys={} value={}B threads={threads} slice={}ms setups={setups:?}",
        s.keys,
        s.value_len,
        SLICE.as_millis()
    );
    let mut rngs: Vec<Rng> = (0..threads as u64).map(|t| Rng::new(a.seed, t)).collect();
    if a.corrupt {
        ops::corrupt_next_check();
    }

    let seconds = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let locks0 = [
        stack::lock_totals("pmdk.lane"),
        stack::lock_totals("kvstore.stripe"),
    ];
    let cpu0 = Cpu::now();
    let mut main = measure(&w, &s, &mut rngs, seconds, false);
    let cpu = Cpu::now().since(cpu0);
    let locks = [
        stack::lock_totals("pmdk.lane"),
        stack::lock_totals("kvstore.stripe"),
    ];

    if a.trace {
        let pm0 = stack::pm_totals(&w.engines[SPP..=SPP]);
        let traced = measure(&w, &s, &mut rngs, seconds, true);
        let pm = stack::pm_totals(&w.engines[SPP..=SPP]);
        layer_metrics(
            &mut rep, &w, &s, &main, &traced, pm0, pm, cpu, locks0, locks, a,
        );
        main.report.absorb_counts(traced.report);
    } else {
        let n = main.ops.iter().sum::<u64>();
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
        crate::quiet_latency_metrics(&mut rep, "put", &mut main.put);
        crate::quiet_latency_metrics(&mut rep, "get", &mut main.get);
        println!("[embedded_5050] latencies are SPP in-process engine calls; ops={n}");
    }
    rep.absorb_counts(main.report);

    // Final check: no key was lost or duplicated.
    for (kind, e) in POLICIES.iter().zip(&w.engines) {
        rep.attempted += 1;
        match e.count() {
            Ok(c) if c == s.keys => {}
            Ok(c) => rep.mismatch(format!("{} count {c} != {}", kind.label(), s.keys)),
            Err(e) => rep.mismatch(format!("{} count failed: {e}", kind.label())),
        }
    }
    if !a.trace {
        crate::finish_e2e(&mut rep);
    }
    rep
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    rep: &mut Report,
    w: &World,
    s: &Sizes,
    main: &Phase,
    traced: &Phase,
    pm0: [u64; 5],
    pm: [u64; 5],
    cpu: Cpu,
    locks0: [[u64; 3]; 2],
    locks: [[u64; 3]; 2],
    a: &Args,
) {
    crate::pm_metrics(rep, pm0, pm, traced.ops[SPP], traced.puts[SPP], s.value_len);
    crate::lock_metrics(rep, locks0, locks);
    let ratios = |p: usize| -> Vec<f64> { main.rounds.iter().map(|r| r[p] / r[0]).collect() };
    rep.set(
        "policy.spp_over_pmdk",
        median(&ratios(SPP)),
        "ratio",
        main.rounds.len() as u64,
    );
    rep.set(
        "policy.safepm_over_pmdk",
        median(&ratios(2)),
        "ratio",
        main.rounds.len() as u64,
    );
    let resolve_spp = stack::resolve_ns(&w.engines[SPP], s.value_len);
    rep.set("policy.resolve_ns.spp", resolve_spp, "ns", 1);
    rep.set(
        "policy.resolve_ns.pmdk",
        stack::resolve_ns(&w.engines[0], s.value_len),
        "ns",
        1,
    );
    rep.set("policy.dram_mb.spp", w.dram_mb[SPP], "MB", 1);
    rep.set("policy.dram_mb.safepm", w.dram_mb[2], "MB", 1);
    let t = &traced.trace;
    for (p, kind) in POLICIES.iter().enumerate() {
        let label = kind.label();
        let put = t.agg(SPAN_PUT[p]);
        let get = t.agg(SPAN_GET[p]);
        rep.set(
            &format!("engine.put_us.{label}"),
            t.mean_us(SPAN_PUT[p]).unwrap_or(f64::NAN),
            "us",
            put.count,
        );
        rep.set(
            &format!("engine.get_us.{label}"),
            t.mean_us(SPAN_GET[p]).unwrap_or(f64::NAN),
            "us",
            get.count,
        );
    }
    let (put, get) = (t.agg(SPAN_PUT[SPP]), t.agg(SPAN_GET[SPP]));
    let engine_us =
        (put.total_ns + get.total_ns) as f64 / (put.count + get.count).max(1) as f64 / 1e3;
    let top_us = t.mean_us(SPAN_OP[SPP]).unwrap_or(f64::NAN);
    let mut ladder = crate::trace::Ladder::default();
    ladder.push("engine", engine_us);
    crate::ladder_metrics(rep, &ladder, top_us, put.count + get.count);
    let accesses = rep.get("pm.accesses_per_op").unwrap_or(0.0);
    rep.set(
        "policy.resolve_share",
        resolve_spp * accesses / (engine_us * 1e3),
        "frac",
        1,
    );
    rep.set(
        "trace.overhead_frac",
        1.0 - rate(traced, SPP) / rate(main, SPP),
        "frac",
        traced.ops[SPP],
    );
    crate::proc_metrics(rep, cpu, main.ops.iter().sum());
    for name in [
        "engine.batch_us",
        "group.ops_per_batch",
        "group.hop_us",
        "wire.codec_ns",
        "reactor.ping_rtt_us",
        "queue.busy_frac",
        "ring.skew",
        "repl.rtt_us",
        "repl.frames_per_batch",
        "repl.failed",
    ] {
        rep.absent(
            name,
            crate::layer_unit(name),
            "no server runs in this workload",
        );
    }
    rep.absent("gen.late_p99_us", "us", "closed loop: no send schedule");
    crate::print_self_table("embedded_5050", t);
    crate::write_trace("embedded_5050", a, t);
}
