//! The repository benchmark.
//!
//! ```text
//! perfbench --workload embedded_5050|wire_write_repl|wire_read_open
//!           --seed N --seconds S --trace 0|1 [--corrupt-expected] [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that attributes time and counts to the layers.
//! Every run checks the program's outputs and exits nonzero on any
//! mismatch. The last line of standard output is the result object. See
//! `README.md` beside this package for the workloads and the metric map.

mod embedded;
mod ladder;
mod ops;
mod procfs;
mod report;
mod samples;
mod stack;
mod trace;
mod wire_read;
mod wire_write;

use std::process::ExitCode;

use report::Report;
use samples::Samples;
use trace::{Ladder, Trace};

/// The end-to-end metrics, as listed in `BENCHMARK.json`.
pub const E2E: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("pmdk_ops_per_s", "1/s"),
    ("safepm_ops_per_s", "1/s"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as listed in `BENCHMARK.json`.
pub const LAYERS: [(&str, &str); 46] = [
    ("pm.flushes_per_op", "count"),
    ("pm.fences_per_op", "count"),
    ("pm.write_amp", "ratio"),
    ("pm.accesses_per_op", "count"),
    ("pmdk.lane_wait_ms", "ms"),
    ("pmdk.lane_contended_frac", "frac"),
    ("kvstore.stripe_wait_ms", "ms"),
    ("kvstore.stripe_contended_frac", "frac"),
    ("policy.spp_over_pmdk", "ratio"),
    ("policy.safepm_over_pmdk", "ratio"),
    ("policy.resolve_ns.spp", "ns"),
    ("policy.resolve_ns.pmdk", "ns"),
    ("policy.resolve_share", "frac"),
    ("policy.dram_mb.spp", "MB"),
    ("policy.dram_mb.safepm", "MB"),
    ("engine.put_us.pmdk", "us"),
    ("engine.put_us.spp", "us"),
    ("engine.put_us.safepm", "us"),
    ("engine.get_us.pmdk", "us"),
    ("engine.get_us.spp", "us"),
    ("engine.get_us.safepm", "us"),
    ("engine.batch_us", "us"),
    ("group.ops_per_batch", "count"),
    ("group.hop_us", "us"),
    ("wire.codec_ns", "ns"),
    ("reactor.ping_rtt_us", "us"),
    ("queue.busy_frac", "frac"),
    ("ring.skew", "ratio"),
    ("repl.rtt_us", "us"),
    ("repl.frames_per_batch", "count"),
    ("repl.failed", "count"),
    ("ladder.engine_us", "us"),
    ("ladder.group_us", "us"),
    ("ladder.wire_us", "us"),
    ("ladder.frontend_us", "us"),
    ("ladder.ring_us", "us"),
    ("ladder.repl_us", "us"),
    ("ladder.top_us", "us"),
    ("ladder.unexplained_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("gen.late_p99_us", "us"),
    ("proc.user_us_per_op", "us"),
    ("proc.sys_us_per_op", "us"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.cpus", "count"),
    ("proc.threads", "count"),
];

/// The ladder's layers, bottom first.
const LADDER: [&str; 6] = ["engine", "group", "wire", "frontend", "ring", "repl"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Corrupt one expected value (the must-fail self-check).
    pub corrupt: bool,
    /// Tiny sizes, for the package's own tests.
    pub smoke: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            corrupt: false,
            smoke: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = val()?.clone(),
                "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    a.trace = match val()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace wants 0 or 1, got {other}")),
                    }
                }
                "--corrupt-expected" => a.corrupt = true,
                "--smoke" => a.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if a.seconds.is_nan() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }
}

/// The unit `BENCHMARK.json` gives a per-layer metric.
pub fn layer_unit(name: &str) -> &'static str {
    LAYERS.iter().find(|l| l.0 == name).map_or("count", |l| l.1)
}

/// Samples per window of a windowed p99: the fewest that leave 10 beyond.
const P99_WINDOW: usize = 1000;

/// The percentile over windows (or over rounds, for rates) that a
/// quiet-spell figure takes: the run's quietest tenth. Interference from
/// other tenants of the host only ever adds time, so the quiet spells show
/// what the program costs when the host leaves it alone.
pub const QUIET_PCT: f64 = 10.0;

/// `<class>_p50_us` and `<class>_p99_us` from exact samples. The p50 is
/// the whole run's. The p99 is the median over consecutive windows of
/// [`P99_WINDOW`] samples of each window's p99, so that a rare stall of a
/// shared host moves it little; the note gives the whole run's tail.
pub fn latency_metrics(rep: &mut Report, class: &str, s: &mut Samples) {
    let n = s.len() as u64;
    let windowed = s.windowed(99.0, P99_WINDOW);
    let p50 = s.pct(50.0).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    let whole99 = s.pct(99.0).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    let tail = match s.tail() {
        Some((p, ns)) => format!(
            "whole run: p99 {whole99:.3} us, p{p} {:.3} us",
            ns as f64 / 1e3
        ),
        None => "too few samples for any tail".into(),
    };
    let (p99, how) = match windowed {
        Some((ns, w)) => (
            ns / 1e3,
            format!("median p99 of {w} windows of {P99_WINDOW}"),
        ),
        None => (
            whole99,
            "fewer samples than one window: whole-run p99".into(),
        ),
    };
    rep.set_noted(&format!("{class}_p50_us"), p50, "us", n, String::new());
    rep.set_noted(
        &format!("{class}_p99_us"),
        p99,
        "us",
        n,
        format!("{how}; {tail}"),
    );
}

/// `<class>_p50_us` and `<class>_p99_us` as quiet-spell figures: each is
/// the [`QUIET_PCT`]th percentile, over consecutive windows of
/// [`P99_WINDOW`] samples, of that window's percentile. For calls that do
/// not queue behind each other, a window's percentile tracks the host's
/// state while it ran; the notes give the whole run's figures.
pub fn quiet_latency_metrics(rep: &mut Report, class: &str, s: &mut Samples) {
    let n = s.len() as u64;
    let windows = [50.0, 99.0].map(|p| s.windows(p, P99_WINDOW));
    let tail = match s.tail() {
        Some((p, ns)) => format!(", p{p} {:.3} us", ns as f64 / 1e3),
        None => ", too few samples for any tail".into(),
    };
    for (w, (pct, extra)) in windows.iter().zip([(50, String::new()), (99, tail)]) {
        let whole = s.pct(pct as f64).map_or(f64::NAN, |ns| ns as f64 / 1e3);
        let (value, how) = if w.is_empty() {
            (
                whole,
                format!("fewer samples than one window: whole-run p{pct}"),
            )
        } else {
            (
                samples::percentile(w, QUIET_PCT) / 1e3,
                format!(
                    "p{QUIET_PCT} over {} windows of {P99_WINDOW} of each window's p{pct}",
                    w.len()
                ),
            )
        };
        rep.set_noted(
            &format!("{class}_p{pct}_us"),
            value,
            "us",
            n,
            format!("{how}; whole run: p{pct} {whole:.3} us{extra}"),
        );
    }
}

/// `ok_frac` and `peak_rss_mb`, set last in an untraced run.
pub fn finish_e2e(rep: &mut Report) {
    let ok = 1.0 - rep.failed as f64 / rep.attempted.max(1) as f64;
    let n = rep.attempted;
    rep.set_noted(
        "ok_frac",
        ok,
        "frac",
        n,
        format!("failed={} of {n}", rep.failed),
    );
    rep.set("peak_rss_mb", procfs::status_mb("VmHWM"), "MB", 1);
}

/// Lock-profile deltas of `pmdk.lane` and `kvstore.stripe`.
pub fn lock_metrics(rep: &mut Report, before: [[u64; 3]; 2], after: [[u64; 3]; 2]) {
    for (layer, lock) in [("pmdk.lane", 0), ("kvstore.stripe", 1)] {
        let acq = after[lock][0] - before[lock][0];
        let cont = after[lock][1] - before[lock][1];
        let wait = after[lock][2] - before[lock][2];
        rep.set(&format!("{layer}_wait_ms"), wait as f64 / 1e6, "ms", acq);
        rep.set(
            &format!("{layer}_contended_frac"),
            cont as f64 / acq.max(1) as f64,
            "frac",
            acq,
        );
    }
}

/// `pm.*` per op from `PmStats` totals ([`stack::pm_totals`]) taken around
/// a phase in which the pools served `ops` ops, `puts` of them writes of
/// `value_len`-byte values.
pub fn pm_metrics(
    rep: &mut Report,
    before: [u64; 5],
    after: [u64; 5],
    ops: u64,
    puts: u64,
    value_len: usize,
) {
    let d = |i: usize| (after[i] - before[i]) as f64;
    let n = ops.max(1) as f64;
    rep.set("pm.accesses_per_op", (d(0) + d(1)) / n, "count", ops);
    rep.set("pm.flushes_per_op", d(3) / n, "count", ops);
    rep.set("pm.fences_per_op", d(4) / n, "count", ops);
    let user = puts as f64 * (ops::KEY_LEN + value_len) as f64;
    rep.set("pm.write_amp", d(2) / user, "ratio", puts);
}

/// Build a workload's world `reps` times, tearing each earlier one down
/// first, and time each build; returns the last world and the times (s).
pub fn set_up<T>(
    reps: usize,
    mut build: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut world: Option<T> = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = world.take() {
            tear_down(old);
        }
        let t0 = std::time::Instant::now();
        world = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (world.expect("built at least once"), times)
}

/// CPU time and context switches per op over a phase of `ops` ops.
pub fn proc_metrics(rep: &mut Report, cpu: procfs::Cpu, ops: u64) {
    let n = ops.max(1) as f64;
    rep.set("proc.user_us_per_op", cpu.user_us / n, "us", ops);
    rep.set("proc.sys_us_per_op", cpu.sys_us / n, "us", ops);
    rep.set(
        "proc.ctx_switches_per_op",
        cpu.switches as f64 / n,
        "count",
        ops,
    );
    rep.set("proc.cpus", stack::cpus() as f64, "count", 1);
    let threads = std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count());
    rep.set("proc.threads", threads as f64, "count", 1);
}

/// `ladder.<layer>_us` per rung, `ladder.top_us` and
/// `ladder.unexplained_frac`; layers the workload has no rung for are
/// absent.
pub fn ladder_metrics(rep: &mut Report, ladder: &Ladder, top_us: f64, n: u64) {
    let deltas = ladder.deltas();
    for layer in LADDER {
        let name = format!("ladder.{layer}_us");
        match deltas.iter().find(|d| d.0 == layer) {
            Some(&(_, us)) => rep.set(&name, us, "us", n),
            None => rep.absent(&name, "us", "this workload's stack has no such rung"),
        }
    }
    let rungs: Vec<String> = ladder
        .rungs
        .iter()
        .map(|(l, t)| format!("{l}={t:.3}"))
        .collect();
    rep.set_noted(
        "ladder.top_us",
        top_us,
        "us",
        n,
        format!("rungs: {}", rungs.join(" ")),
    );
    rep.set(
        "ladder.unexplained_frac",
        ladder.unexplained_frac(top_us),
        "frac",
        n,
    );
}

/// Print the traced run's per-span table: kept spans, mean and self time.
pub fn print_self_table(workload: &str, t: &Trace) {
    println!("[{workload}] span                         kept      mean_us   self_us");
    for (name, (n, total, own)) in t.self_table() {
        let n1 = n.max(1) as f64;
        println!(
            "[{workload}] {name:<28} {n:>8} {:>10.3} {:>9.3}",
            total as f64 / n1 / 1e3,
            own as f64 / n1 / 1e3
        );
    }
}

/// Write the kept spans to `perfbench/out/`.
pub fn write_trace(workload: &str, a: &Args, t: &Trace) {
    let path =
        std::path::PathBuf::from(format!("perfbench/out/{workload}-seed{}.spans.tsv", a.seed));
    match t.write_tsv(&path) {
        Ok(()) => println!("[{workload}] spans written to {}", path.display()),
        Err(e) => println!("[{workload}] spans not written ({}): {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = match a.workload.as_str() {
        "embedded_5050" => embedded::run(&a),
        "wire_write_repl" => wire_write::run(&a),
        "wire_read_open" => wire_read::run(&a),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (embedded_5050|wire_write_repl|wire_read_open)");
            return ExitCode::from(2);
        }
    };
    let wanted: &[(&str, &str)] = if a.trace { &LAYERS } else { &E2E };
    rep.print(&a.workload, wanted);
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} output mismatch(es)", rep.mismatches);
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` agree, name and unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = spp_bench::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(|v| v.as_str())
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(|v| v.as_str())
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&E2E));
        assert_eq!(names("per_layer"), own(&LAYERS));
    }

    #[test]
    fn args_parse_the_benchmark_form() {
        let argv: Vec<String> = "--workload wire_read_open --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = Args::parse(&argv).expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wire_read_open", 3, 10.0, true)
        );
        assert!(Args::parse(&["--trace".into(), "2".into()]).is_err());
        assert!(Args::parse(&["--bogus".into()]).is_err());
    }
}
