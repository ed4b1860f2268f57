//! `spp-loadgen`: a `db_bench`-style load generator for `spp-server`.
//!
//! ```text
//! spp-loadgen [--addr HOST:PORT] [--policy pmdk|spp|safepm]
//!             [--conns 4] [--ops 20000] [--value-size 100] [--read-pct 50]
//!             [--pool-mb 64] [--workers 4] [--nbuckets 4096]
//!             [--max-conns 64] [--queue-depth 128] [--reactors 2]
//!             [--smoke] [--shutdown] [--inject-garbage]
//!             [--sweep-threads 1,2,4,8] [--flush-wait-ns 15000]
//!             [--pipeline 8] [--throttle-us 0]
//!             [--idle-conns 2000]
//!             [--addrs HOST:PORT,HOST:PORT,...] [--local-shards N]
//! ```
//!
//! Every mode is built on one driver, [`run_phase`]: one thread per
//! connection, each running `--ops` operations (`--read-pct`% GETs over
//! keys it already wrote, the rest durable PUTs) routed by a client-side
//! [`Ring`] over the endpoints. Depth 1 is closed-loop round trips; deeper
//! batches alternate `MULTI` and raw pipelined frames. Values are stamped
//! with their key and every GET reply is checked byte-for-byte. `BUSY` is
//! the server's connection-limit answer before it hangs up, so it fails
//! the run. The modes wrap that driver:
//!
//! - default: a round-trip phase, then the server's `STATS`;
//! - `--pipeline N`: a round-trip then a depth-`N` phase, with a speedup
//!   floor (2.0x full, 1.5x smoke) that `--throttle-us` deliberately skips
//!   so the perf gate's self-test can see a degraded run;
//! - `--addrs a,b,c` / `--local-shards N`: per-shard rows and the ops skew
//!   (max/mean); a shard that saw no traffic fails the run;
//! - `--sweep-threads 1,2,4,8`: a fresh device-wait server per connection
//!   count, reporting the throughput knee and a contention dump;
//! - `--idle-conns N`: N parked connections under a pipelined hot core;
//!   fails if process threads exceed `reactors + workers + hot + 8`.
//!
//! Without `--addr`/`--addrs` the servers are spawned in-process (sweep and
//! idle runs always are). Two mode selectors, a flag the mode ignores, or
//! a bad list entry is a usage error (exit 2). Every run validates its rows
//! through `spp-bench`'s `validate_rows` (`--inject-garbage` poisons one so
//! CI can prove that stays red) and writes `results/server_loadgen.json`
//! (`server_loadgen_idle.json` for idle runs).

use std::net::SocketAddr;
use std::ops::Range;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spp_bench::{banner, validate_rows, write_text_artifact, Args, Json};
use spp_pm::contention;
use spp_server::{
    fresh_server_pool, fresh_server_pool_wait, raise_nofile_limit, Client, ClientError, KvEngine,
    PolicyKind, Reply, Request, Ring, Server, ServerConfig,
};

const KEY_SIZE: usize = 16;

/// Log-linear histogram resolution: sub-buckets per power of two. 32 keeps
/// the quantile error under ~3%.
const HIST_SUB_BITS: u32 = 5;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;
/// Buckets 0..2*HIST_SUB are exact (ns < 64); above that, each power of two
/// splits into `HIST_SUB` linear sub-buckets up to the full u64 range.
const HIST_BUCKETS: usize =
    (2 * HIST_SUB as usize) + (63 - HIST_SUB_BITS as usize) * HIST_SUB as usize;

fn bucket_of(ns: u64) -> usize {
    if ns < 2 * HIST_SUB {
        return ns as usize;
    }
    let msb = 63 - u64::from(ns.leading_zeros());
    let shift = msb - u64::from(HIST_SUB_BITS);
    let sub = (ns >> shift) - HIST_SUB;
    (2 * HIST_SUB + (msb - u64::from(HIST_SUB_BITS) - 1) * HIST_SUB + sub) as usize
}

/// Midpoint of a bucket's value range, in nanoseconds.
fn bucket_rep(idx: usize) -> u64 {
    if idx < 2 * HIST_SUB as usize {
        return idx as u64;
    }
    let off = idx as u64 - 2 * HIST_SUB;
    let group = off / HIST_SUB;
    let sub = off % HIST_SUB;
    let shift = group + 1;
    ((HIST_SUB + sub) << shift) + (1 << shift) / 2
}

/// Nanosecond latency distribution for one operation class: a fixed-footprint
/// log-linear histogram. Each connection thread fills its own and the driver
/// merges them bucket-wise — O(1) per sample, O(`HIST_BUCKETS`) per merge.
struct Lats {
    count: u64,
    buckets: Box<[u64]>,
}

impl Default for Lats {
    fn default() -> Self {
        Lats {
            count: 0,
            buckets: vec![0u64; HIST_BUCKETS].into_boxed_slice(),
        }
    }
}

impl Lats {
    fn push(&mut self, d: Duration) {
        self.buckets[bucket_of(d.as_nanos() as u64)] += 1;
        self.count += 1;
    }

    fn merge(&mut self, other: &Lats) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
    }

    fn percentile_us(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((self.count - 1) as f64 * p).round() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                return bucket_rep(idx) as f64 / 1_000.0;
            }
        }
        f64::NAN
    }
}

/// Exit 2 with a usage message, the way [`Args::get`] rejects a bad value.
fn usage(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The run mode, chosen by at most one selector flag.
enum Mode {
    RoundTrip,
    Pipeline(usize),
    Multi,
    Sweep(Vec<u32>),
    Idle { conns: u32, depth: usize },
}

impl Mode {
    fn parse(args: &Args) -> Mode {
        let idle = args.flag("idle-conns");
        // Inside idle mode `--pipeline` is the hot core's depth.
        let given: Vec<&str> = [
            "sweep-threads",
            "idle-conns",
            "pipeline",
            "addrs",
            "local-shards",
        ]
        .into_iter()
        .filter(|s| args.flag(s) && !(idle && *s == "pipeline"))
        .collect();
        if let [a, b, ..] = given[..] {
            usage(format!("--{a} and --{b} select different modes"));
        }
        let selector = given.first().copied();
        // Flags the chosen mode would ignore. Sweep and idle runs always
        // spawn their own server.
        let ignored: &[&str] = match selector {
            Some("sweep-threads" | "idle-conns") => &["addr", "addrs", "shutdown", "throttle-us"],
            Some("addrs" | "local-shards") => &["addr", "throttle-us"],
            Some(_) => &[],
            None => &["throttle-us"],
        };
        if let Some(flag) = ignored.iter().find(|f| args.flag(f)) {
            let mode = selector.map_or("the default mode".to_string(), |s| format!("--{s}"));
            usage(format!("--{flag} does not apply to {mode}"));
        }
        match selector {
            Some("sweep-threads") => {
                let counts = list(args, "sweep-threads", |&c: &u32| c > 0);
                if counts.len() < 2 {
                    usage("--sweep-threads needs at least 2 connection counts".into());
                }
                Mode::Sweep(counts)
            }
            Some("idle-conns") => Mode::Idle {
                conns: at_least_one(args, "idle-conns", 1),
                depth: at_least_one(args, "pipeline", 8) as usize,
            },
            Some("pipeline") => Mode::Pipeline(at_least_one(args, "pipeline", 1) as usize),
            Some(_) => Mode::Multi,
            None => Mode::RoundTrip,
        }
    }
}

/// A comma-separated flag value; an entry that does not parse or fails
/// `ok` is a usage error.
fn list<T: std::str::FromStr>(args: &Args, name: &str, ok: impl Fn(&T) -> bool) -> Vec<T> {
    let csv: String = args.get(name, String::new());
    csv.split(',')
        .map(|t| match t.trim().parse::<T>() {
            Ok(v) if ok(&v) => v,
            _ => usage(format!("--{name}: bad entry `{t}` in `{csv}`")),
        })
        .collect()
}

fn at_least_one(args: &Args, name: &str, default: u32) -> u32 {
    match args.get(name, default) {
        0 => usage(format!("--{name} must be at least 1")),
        n => n,
    }
}

/// The flags every mode shares, parsed once with the mode's defaults.
struct Load {
    smoke: bool,
    policy: PolicyKind,
    conns: u32,
    ops: u64,
    value_size: usize,
    read_pct: u32,
    /// Sleep after every pipelined batch (`--pipeline` only).
    throttle: Duration,
    /// External endpoints (`--addr` / `--addrs`); empty = spawn in-process.
    addrs: Vec<SocketAddr>,
    /// In-process servers to spawn when `addrs` is empty.
    local_shards: u32,
    shutdown: bool,
    inject_garbage: bool,
    pool_mb: u64,
    nbuckets: u64,
    /// Device-wait flush latency for in-process pools (sweep only).
    flush_wait_ns: Option<u32>,
    server: ServerConfig,
}

impl Load {
    /// Print the run banner: the mode, its own settings, the load shape.
    fn banner(&self, mode: &str, settings: String) {
        banner(&format!(
            "spp-loadgen {mode}: policy={} {settings} ops/conn={} value={}B reads={}%",
            self.policy.label(),
            self.ops,
            self.value_size,
            self.read_pct
        ));
    }

    fn parse(args: &Args, mode: &Mode) -> Load {
        let smoke = args.flag("smoke");
        let sweep = matches!(mode, Mode::Sweep(_));
        let (policy, ops_smoke, ops_full) = match mode {
            Mode::Sweep(_) => (PolicyKind::Pmdk, 300, 4_000),
            Mode::Idle { .. } => (PolicyKind::Spp, 400, 4_000),
            _ => (PolicyKind::Spp, 500, 20_000),
        };
        // The idle hot core is 2 connections at any size.
        let idle = matches!(mode, Mode::Idle { .. });
        let conns = args.get("conns", if smoke || idle { 2 } else { 4 });
        let mut addrs = Vec::new();
        if args.flag("addrs") {
            addrs = list(args, "addrs", |a: &SocketAddr| a.port() != 0);
            if addrs.len() < 2 {
                usage("--addrs needs at least 2 endpoints (use --addr for one)".into());
            }
        } else if args.flag("addr") {
            addrs.push(args.get("addr", SocketAddr::from(([0, 0, 0, 0], 0))));
        }
        let max_conns = match mode {
            Mode::Idle { conns: idle, .. } => *idle as usize + conns as usize + 8,
            _ => args.get("max-conns", 64),
        };
        Load {
            smoke,
            policy: args.get("policy", policy),
            conns,
            ops: args.get("ops", if smoke { ops_smoke } else { ops_full }),
            value_size: args.get("value-size", if smoke { 64 } else { 100 }),
            read_pct: args.get("read-pct", 50).min(100),
            throttle: Duration::from_micros(args.get("throttle-us", 0)),
            addrs,
            local_shards: at_least_one(args, "local-shards", 1),
            shutdown: args.flag("shutdown"),
            inject_garbage: args.flag("inject-garbage"),
            pool_mb: args.get("pool-mb", if args.flag("local-shards") { 32 } else { 64 }),
            nbuckets: args.get("nbuckets", 4096),
            flush_wait_ns: sweep.then(|| args.get("flush-wait-ns", 15_000)),
            server: ServerConfig {
                workers: args.get("workers", if sweep { 8 } else { 4 }),
                max_conns,
                queue_depth: args.get("queue-depth", if sweep { 256 } else { 128 }),
                reactors: args.get("reactors", 2),
                ..ServerConfig::default()
            },
        }
    }
}

fn key_of(conn: u32, seq: u64) -> [u8; KEY_SIZE] {
    let mut k = [0u8; KEY_SIZE];
    k[..4].copy_from_slice(&conn.to_be_bytes());
    k[4..12].copy_from_slice(&seq.to_be_bytes());
    k
}

/// The value written under `key`: the key stamped over a `0xA5` fill, so
/// a GET answered with another key's value fails the byte check.
fn value_of(key: &[u8; KEY_SIZE], size: usize) -> Vec<u8> {
    let mut v = vec![0xA5u8; size];
    let n = size.min(KEY_SIZE);
    v[..n].copy_from_slice(&key[..n]);
    v
}

/// Per-shard `(puts, gets)` latency distributions of one connection.
type ShardLats = (Vec<Lats>, Vec<Lats>);

fn per_shard(n: usize) -> Vec<Lats> {
    (0..n).map(|_| Lats::default()).collect()
}

fn merged<'a>(parts: impl IntoIterator<Item = &'a Lats>) -> Lats {
    let mut all = Lats::default();
    for l in parts {
        all.merge(l);
    }
    all
}

/// One connection's share of a phase: `load.ops` operations in batches of
/// `depth`, each key routed through `ring` to its endpoint (one open
/// connection per endpoint). Depth 1 is a `GET`/`PUT` round trip; deeper
/// batches alternate `MULTI` and raw pipelined frames, and a batch's
/// latency is attributed evenly to its operations. This is the only code
/// that issues data requests, so every mode gets the same reply checks.
fn drive(
    load: &Load,
    addrs: &[SocketAddr],
    ring: &Ring,
    conn: u32,
    depth: usize,
) -> Result<ShardLats, String> {
    let fail = |what: &str, e: ClientError| match e {
        ClientError::Busy => format!("conn {conn}: server at its connection limit"),
        e => format!("conn {conn}: {what}: {e}"),
    };
    let mut clients = addrs
        .iter()
        .map(|a| {
            Client::connect_retry(a, Duration::from_secs(5))
                .map_err(|e| format!("conn {conn}: connect {a}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (mut puts, mut gets) = (per_shard(addrs.len()), per_shard(addrs.len()));
    // Per-connection xorshift for the op mix and GET key choice.
    let mut x: u64 = (0x9e37_79b9 ^ (u64::from(conn) << 17)) | 1;
    let mut rng = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut written: u64 = 0;
    let mut done: u64 = 0;
    let mut batch_no: u64 = 0;
    while done < load.ops {
        let n = depth.min((load.ops - done) as usize);
        // Plan the batch up front as `(is_get, key, value, shard)`: a GET may
        // target a key whose PUT sits earlier in the same batch; both route
        // to the same shard, whose run execution lets reads observe earlier
        // writes of the run.
        let mut plan = Vec::with_capacity(n);
        for _ in 0..n {
            let is_get = written > 0 && (rng() % 100) < u64::from(load.read_pct);
            let seq = if is_get { rng() % written } else { written };
            written += u64::from(!is_get);
            let key = key_of(conn, seq);
            let shard = ring.shard_of(&key) as usize;
            plan.push((is_get, key, value_of(&key, load.value_size), shard));
        }
        for (shard, client) in clients.iter_mut().enumerate() {
            let ops: Vec<_> = plan.iter().filter(|op| op.3 == shard).collect();
            if ops.is_empty() {
                continue;
            }
            let start = Instant::now();
            let replies = match ops[..] {
                [(true, key, value, _)] if depth == 1 => {
                    let mut out = Vec::with_capacity(value.len());
                    let hit = client.get(key, &mut out).map_err(|e| fail("GET", e))?;
                    vec![if hit {
                        Reply::Value(out)
                    } else {
                        Reply::NotFound
                    }]
                }
                [(false, key, value, _)] if depth == 1 => {
                    client.put(key, value).map_err(|e| fail("PUT", e))?;
                    vec![Reply::Ok]
                }
                _ => {
                    let reqs: Vec<Request<'_>> = ops
                        .iter()
                        .map(|(is_get, key, value, _)| {
                            if *is_get {
                                Request::Get { key }
                            } else {
                                Request::Put { key, value }
                            }
                        })
                        .collect();
                    if batch_no.is_multiple_of(2) {
                        client.multi(&reqs)
                    } else {
                        client.pipeline(&reqs)
                    }
                    .map_err(|e| fail("batch", e))?
                }
            };
            let per_op = start.elapsed() / ops.len() as u32;
            for ((is_get, _, value, _), reply) in ops.iter().zip(&replies) {
                match (is_get, reply) {
                    (true, Reply::Value(v)) if v == value => gets[shard].push(per_op),
                    (false, Reply::Ok) => puts[shard].push(per_op),
                    (_, Reply::Busy) => return Err(fail("", ClientError::Busy)),
                    (true, Reply::NotFound) => {
                        return Err(format!(
                            "conn {conn}: shard {shard} missed an acked key — a lost \
                             write, or the client ring disagrees with placement"
                        ))
                    }
                    (is_get, reply) => {
                        return Err(format!(
                            "conn {conn}: shard {shard}: wrong reply {reply:?} (get={is_get})"
                        ))
                    }
                }
            }
        }
        done += n as u64;
        batch_no += 1;
        if depth > 1 && load.throttle > Duration::ZERO {
            std::thread::sleep(load.throttle);
        }
    }
    Ok((puts, gets))
}

/// Per-shard latency distributions of one phase, merged over connections.
struct PhaseOut {
    puts: Vec<Lats>,
    gets: Vec<Lats>,
    elapsed_s: f64,
}

impl PhaseOut {
    fn put(&self) -> Lats {
        merged(&self.puts)
    }

    fn all(&self) -> Lats {
        merged(self.puts.iter().chain(&self.gets))
    }

    fn ops_per_s(&self) -> f64 {
        self.all().count as f64 / self.elapsed_s
    }

    /// The `put_op` row, plus the `get_op` row when the phase read at all.
    fn rows(&self, load: &Load, put_op: &'static str, get_op: &'static str) -> Vec<Json> {
        let gets = merged(&self.gets);
        let mut rows = vec![lat_row(load, put_op, &self.put(), self.elapsed_s)];
        if gets.count > 0 {
            rows.push(lat_row(load, get_op, &gets, self.elapsed_s));
        }
        rows
    }
}

/// The phase runner every mode is built on: one [`drive`] thread per
/// connection id in `conns` over a [`Ring`] of `addrs`, at `depth`. `mid`
/// runs on the calling thread once the connections are under way.
fn run_phase(
    load: &Load,
    addrs: &[SocketAddr],
    conns: Range<u32>,
    depth: usize,
    mid: impl FnOnce(),
) -> Result<PhaseOut, String> {
    let ring = &Ring::new(addrs.len() as u32);
    let start = Instant::now();
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .map(|id| s.spawn(move || drive(load, addrs, ring, id, depth)))
            .collect();
        mid();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = PhaseOut {
        puts: per_shard(addrs.len()),
        gets: per_shard(addrs.len()),
        elapsed_s: start.elapsed().as_secs_f64(),
    };
    for r in joined {
        let (puts, gets) = r.map_err(|_| "loadgen thread panicked".to_string())??;
        for s in 0..addrs.len() {
            out.puts[s].merge(&puts[s]);
            out.gets[s].merge(&gets[s]);
        }
    }
    Ok(out)
}

/// Start one in-process server on an ephemeral port with a fresh pool.
fn spawn_local(load: &Load) -> Result<Server, String> {
    let bytes = load.pool_mb << 20;
    let pool = match load.flush_wait_ns {
        Some(ns) => fresh_server_pool_wait(bytes, 16, ns),
        None => fresh_server_pool(bytes, 16, false),
    }
    .map_err(|e| format!("pool create: {e}"))?;
    let pm = Arc::clone(pool.pm());
    let engine = KvEngine::create(pool, load.policy, load.nbuckets)
        .map_err(|e| format!("engine create: {e}"))?;
    let server = Server::start(Arc::new(engine), ("127.0.0.1", 0), load.server.clone())
        .map_err(|e| format!("in-process server: {e}"))?;
    // Device-wait pools run setup at DRAM speed; measure with the wait on.
    if load.flush_wait_ns.is_some() {
        pm.set_latency_enabled(true);
    }
    Ok(server)
}

/// The endpoints to load: the external `--addr`/`--addrs`, or freshly
/// spawned in-process servers (returned so [`release`] can stop them).
fn serve(load: &Load) -> Result<(Vec<SocketAddr>, Vec<Server>), String> {
    if !load.addrs.is_empty() {
        return Ok((load.addrs.clone(), Vec::new()));
    }
    let local = (0..load.local_shards)
        .map(|_| spawn_local(load))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((local.iter().map(Server::local_addr).collect(), local))
}

/// Stop the in-process servers; with `--shutdown`, send `SHUTDOWN` to every
/// external endpoint instead.
fn release(load: &Load, addrs: &[SocketAddr], local: Vec<Server>) -> Result<(), String> {
    if load.shutdown && local.is_empty() {
        for addr in addrs {
            let mut c = Client::connect_retry(addr, Duration::from_secs(5))
                .map_err(|e| format!("shutdown connect {addr}: {e}"))?;
            c.shutdown().map_err(|e| format!("SHUTDOWN {addr}: {e}"))?;
        }
    }
    for server in local {
        server.shutdown();
    }
    Ok(())
}

fn lat_row(load: &Load, op: &'static str, lats: &Lats, elapsed_s: f64) -> Json {
    Json::Obj(vec![
        ("policy", Json::Str(load.policy.label().to_string())),
        ("op", Json::Str(op.to_string())),
        ("ops", Json::Int(lats.count)),
        ("throughput_ops_s", Json::Num(lats.count as f64 / elapsed_s)),
        ("p50_us", Json::Num(lats.percentile_us(0.50))),
        ("p95_us", Json::Num(lats.percentile_us(0.95))),
        ("p99_us", Json::Num(lats.percentile_us(0.99))),
    ])
}

/// `row` with a `name` field after its `op` (the sweep point or shard).
fn tag(mut row: Json, name: &'static str, value: u64) -> Json {
    if let Json::Obj(fields) = &mut row {
        fields.insert(2, (name, Json::Int(value)));
    }
    row
}

/// Print and validate the rows, then write the run's artifact: `name`,
/// `mode`, `policy` and the load shape, the mode's `fields`, and `rows`,
/// plus any `(file, text)` sidecars. `--inject-garbage` appends a poisoned
/// row, so every mode proves its validation bites.
fn emit(
    load: &Load,
    mode: &str,
    fields: Vec<(&'static str, Json)>,
    mut rows: Vec<Json>,
    sidecars: &[(&str, String)],
) -> Result<(), String> {
    for row in &rows {
        println!("{}", row.render());
    }
    if load.inject_garbage {
        rows.push(lat_row(load, "garbage", &Lats::default(), 0.0));
    }
    let positive = ["throughput_ops_s", "p50_us", "p95_us", "p99_us", "ops"];
    validate_rows(&rows, &positive).map_err(|e| format!("result validation failed: {e}"))?;
    let mut doc = vec![
        ("name", Json::Str("server_loadgen".to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("policy", Json::Str(load.policy.label().to_string())),
        ("ops_per_conn", Json::Int(load.ops)),
        ("value_size", Json::Int(load.value_size as u64)),
        ("read_pct", Json::Int(u64::from(load.read_pct))),
    ];
    doc.extend(fields);
    doc.push(("rows", Json::Arr(rows)));
    // Idle runs write a sibling: the perf gate pins `server_loadgen.json`
    // to the pipeline artifact, and idle results must not clobber it.
    let file = if mode == "idle_scaling" {
        "server_loadgen_idle.json"
    } else {
        "server_loadgen.json"
    };
    let main = (file, Json::Obj(doc).render() + "\n");
    for (name, text) in std::iter::once(&main).chain(sidecars) {
        println!("wrote {}", write_text_artifact(name, text).display());
    }
    Ok(())
}

/// Default mode: one closed-loop round-trip phase, then the server's STATS.
fn run_roundtrip(load: &Load) -> Result<(), String> {
    load.banner("round-trip", format!("conns={}", load.conns));
    let (addrs, local) = serve(load)?;
    let out = run_phase(load, &addrs, 0..load.conns, 1, || {})?;
    // Server-side introspection after the run (also exercises STATS).
    let stats = Client::connect_retry(addrs[0], Duration::from_secs(5))
        .map_err(|e| format!("stats: {e}"))?
        .stats()
        .map_err(|e| format!("STATS: {e}"))?;
    println!("--- server stats ---\n{stats}--------------------");
    release(load, &addrs, local)?;

    println!(
        "total: {} ops in {:.3}s = {:.0} ops/s",
        out.all().count,
        out.elapsed_s,
        out.ops_per_s()
    );
    let rows = out.rows(load, "put", "get");
    let fields = vec![
        ("conns", Json::Int(u64::from(load.conns))),
        ("elapsed_s", Json::Num(out.elapsed_s)),
    ];
    emit(load, "roundtrip", fields, rows, &[])
}

/// Pipeline-comparison mode (`--pipeline N`): a round-trip phase, then a
/// depth-`N` phase, reporting both throughputs and their ratio. Fails if
/// the speedup misses the floor (2.0x full, 1.5x smoke) — unless
/// `--throttle-us` is deliberately degrading the run for the perf gate's
/// injected-regression self-test.
fn run_pipeline(load: &Load, depth: usize) -> Result<(), String> {
    load.banner("pipeline", format!("depth={depth} conns={}", load.conns));
    let (addrs, local) = serve(load)?;
    let rt = run_phase(load, &addrs, 0..load.conns, 1, || {})?;
    // The pipelined phase gets a fresh in-process server; on an external
    // one, its connection ids keep the two phases' keys disjoint.
    let (addrs, local) = if local.is_empty() {
        (addrs, local)
    } else {
        release(load, &addrs, local)?;
        serve(load)?
    };
    let base = 1 << 20;
    let pl = run_phase(load, &addrs, base..base + load.conns, depth, || {})?;
    let group = local.first().map(Server::group_stats);
    release(load, &addrs, local)?;

    let (rt_tput, pl_tput) = (rt.ops_per_s(), pl.ops_per_s());
    for (name, tput, puts) in [
        ("round-trip:", rt_tput, rt.put()),
        ("pipelined: ", pl_tput, pl.put()),
    ] {
        println!(
            "{name} {tput:>10.0} ops/s  p50={:.1}us p99={:.1}us",
            puts.percentile_us(0.50),
            puts.percentile_us(0.99),
        );
    }
    let (group_batches, group_ops) = group.unwrap_or((0, 0));
    if group.is_some() {
        let avg = group_ops as f64 / group_batches.max(1) as f64;
        println!(
            "group commit: {group_ops} write ops over {group_batches} boundaries \
             ({avg:.1} ops/boundary)"
        );
    }
    let speedup = pl_tput / rt_tput;
    println!("pipeline speedup: {speedup:.2}x");
    let floor = if load.smoke { 1.5 } else { 2.0 };
    if load.throttle > Duration::ZERO {
        println!(
            "throttled run ({:?}/batch): speedup floor check skipped",
            load.throttle
        );
    } else if speedup < floor {
        return Err(format!(
            "pipeline speedup {speedup:.2}x under the {floor:.1}x floor — batching regressed"
        ));
    }

    let mut rows = rt.rows(load, "put_roundtrip", "get_roundtrip");
    rows.extend(pl.rows(load, "put_pipelined", "get_pipelined"));
    let fields = vec![
        ("pipeline_depth", Json::Int(depth as u64)),
        ("conns", Json::Int(u64::from(load.conns))),
        ("throttle_us", Json::Int(load.throttle.as_micros() as u64)),
        ("roundtrip_ops_s", Json::Num(rt_tput)),
        ("pipelined_ops_s", Json::Num(pl_tput)),
        ("pipeline_speedup", Json::Num(speedup)),
        ("group_batches", Json::Int(group_batches)),
        ("group_batched_ops", Json::Int(group_ops)),
    ];
    emit(load, "pipeline", fields, rows, &[])
}

/// Multi-endpoint mode (`--addrs a,b,c` / `--local-shards N`): drive a
/// sharded deployment through the client-side ring and report how evenly
/// it spread real traffic. One row per shard; the headline skew is
/// `max/mean` of per-shard op counts (1.0 = perfectly even). A shard that
/// saw no traffic fails the run — client and server rings disagree.
fn run_multi(load: &Load) -> Result<(), String> {
    let (addrs, local) = serve(load)?;
    let nshards = addrs.len();
    load.banner("multi", format!("endpoints={nshards} conns={}", load.conns));
    for (s, addr) in addrs.iter().enumerate() {
        println!("  shard {s} -> {addr}");
    }
    let out = run_phase(load, &addrs, 0..load.conns, 1, || {})?;
    release(load, &addrs, local)?;

    let shards: Vec<Lats> = out
        .puts
        .iter()
        .zip(&out.gets)
        .map(|(p, g)| merged([p, g]))
        .collect();
    let counts: Vec<u64> = shards.iter().map(|l| l.count).collect();
    let total: u64 = counts.iter().sum();
    let skew = counts.iter().copied().max().unwrap_or(0) as f64 / (total as f64 / nshards as f64);
    let mut rows = Vec::with_capacity(nshards);
    for (s, lats) in shards.iter().enumerate() {
        println!(
            "  shard {s}: {:>8} ops  {:>10.0} ops/s  p50={:.1}us p99={:.1}us",
            lats.count,
            lats.count as f64 / out.elapsed_s,
            lats.percentile_us(0.50),
            lats.percentile_us(0.99),
        );
        let row = lat_row(load, "multi_shard", lats, out.elapsed_s);
        rows.push(tag(row, "shard", s as u64));
    }
    println!(
        "total: {total} ops in {:.3}s = {:.0} ops/s  shard skew (max/mean): {skew:.2}",
        out.elapsed_s,
        out.ops_per_s()
    );
    if let Some(starved) = counts.iter().position(|&c| c == 0) {
        return Err(format!(
            "shard {starved} received no traffic — client ring and deployment disagree"
        ));
    }

    let fields = vec![
        ("shards", Json::Int(nshards as u64)),
        ("conns", Json::Int(u64::from(load.conns))),
        ("elapsed_s", Json::Num(out.elapsed_s)),
        ("total_ops_s", Json::Num(out.ops_per_s())),
        (
            "shard_ops",
            Json::Arr(counts.iter().map(|&c| Json::Int(c)).collect()),
        ),
        ("shard_skew_max_over_mean", Json::Num(skew)),
    ];
    emit(load, "multi", fields, rows, &[])
}

/// Thread-sweep mode (`--sweep-threads 1,2,4,8`): one fresh in-process
/// server per connection count, all on device-wait media, reporting where
/// the throughput knee sits. The contention profile accumulated across
/// the sweep is dumped to `results/contention_loadgen.txt`.
fn run_sweep(load: &Load, conn_counts: &[u32]) -> Result<(), String> {
    let flush_wait_ns = load.flush_wait_ns.unwrap_or(0);
    load.banner(
        "sweep",
        format!("conns={conn_counts:?} flush-wait={flush_wait_ns}ns"),
    );
    contention::reset_all();
    let mut rows = Vec::new();
    let mut tputs: Vec<f64> = Vec::new();
    for &conns in conn_counts {
        let server = spawn_local(load)?;
        let out = run_phase(load, &[server.local_addr()], 0..conns, 1, || {})?;
        server.shutdown();
        let all = out.all();
        let tput = out.ops_per_s();
        println!(
            "  conns={conns:<3} {tput:>10.0} ops/s  p50={:>8.1}us  p99={:>8.1}us",
            all.percentile_us(0.50),
            all.percentile_us(0.99),
        );
        let row = lat_row(load, "sweep", &all, out.elapsed_s);
        rows.push(tag(row, "conns", u64::from(conns)));
        tputs.push(tput);
    }

    // The knee: the last connection count that still bought >= 10% more
    // throughput than the previous point.
    let knee = (1..tputs.len())
        .take_while(|&i| tputs[i] >= tputs[i - 1] * 1.10)
        .last()
        .map_or(conn_counts[0], |i| conn_counts[i]);
    println!("throughput knee at {knee} connections");
    println!("top contended locks during the sweep:");
    for snap in contention::top_contended(3) {
        println!(
            "  {:<16} {:>8} acq  {:>6.2}% contended  {:>8.2}ms waited",
            snap.name,
            snap.acquisitions,
            snap.contended_fraction() * 100.0,
            snap.wait_ns as f64 / 1e6,
        );
    }

    let fields = vec![
        ("flush_wait_ns", Json::Int(u64::from(flush_wait_ns))),
        (
            "sweep_conns",
            Json::Arr(
                conn_counts
                    .iter()
                    .map(|&c| Json::Int(u64::from(c)))
                    .collect(),
            ),
        ),
        (
            "sweep_ops_per_s",
            Json::Arr(tputs.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("knee_conns", Json::Int(u64::from(knee))),
    ];
    let dump = [("contention_loadgen.txt", contention::dump())];
    emit(load, "sweep", fields, rows, &dump)
}

/// `(threads, vm_rss_kb)` for this process, from `/proc/self/status`;
/// `(0, 0)` when procfs is unavailable (the caller treats that as
/// "cannot self-validate", not as a pass).
fn proc_status() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:"))
}

/// Idle-scaling mode (`--idle-conns N`): park N open-but-quiet connections
/// on a fresh in-process server, drive pipelined load over a small hot
/// core, and report what the idle fleet cost — process threads and RSS
/// with the fleet attached — then ping every idle connection to prove the
/// fleet stayed serviceable. Fails unless total threads stay within
/// `reactors + workers + hot + 8`, i.e. O(reactors + workers), not
/// O(connections).
fn run_idle(load: &Load, idle_conns: u32, depth: usize) -> Result<(), String> {
    let hot = load.conns;
    let (reactors, workers) = (load.server.reactors, load.server.workers);
    // The fd limit, not memory, is the usual first wall at thousands of
    // sockets; raise it before opening anything.
    let nofile = raise_nofile_limit();
    let need = u64::from(idle_conns) + u64::from(hot) + 64;
    if nofile < need {
        return Err(format!(
            "RLIMIT_NOFILE {nofile} too low for {idle_conns} idle connections (need ~{need})"
        ));
    }
    load.banner(
        "idle-scaling",
        format!("idle={idle_conns} hot={hot} depth={depth}"),
    );

    let server = spawn_local(load)?;
    let addr = server.local_addr();
    let (threads_base, rss_base_kb) = proc_status();
    // Park the idle fleet. Each connection proves it was admitted and
    // served (one PING) before going quiet.
    let open_start = Instant::now();
    let mut idle: Vec<Client> = Vec::with_capacity(idle_conns as usize);
    for i in 0..idle_conns {
        let mut c = Client::connect_retry(addr, Duration::from_secs(10))
            .map_err(|e| format!("idle conn {i}: connect: {e}"))?;
        c.ping().map_err(|e| format!("idle conn {i}: ping: {e}"))?;
        idle.push(c);
    }
    let open_s = open_start.elapsed().as_secs_f64();
    let (threads_idle, rss_idle_kb) = proc_status();
    println!(
        "idle fleet up: {idle_conns} conns in {open_s:.2}s  threads {threads_base} -> \
         {threads_idle}  rss {rss_base_kb} -> {rss_idle_kb} kB"
    );

    // Sample the thread count while the hot core is actually running —
    // that is the moment the claim is about.
    let mut under_load = (0, 0);
    let base = 1 << 20;
    let out = run_phase(load, &[addr], base..base + hot, depth, || {
        std::thread::sleep(Duration::from_millis(50));
        under_load = proc_status();
    })?;
    let (threads_load, rss_load_kb) = under_load;
    let puts = out.put();
    println!(
        "hot core: {:>10.0} ops/s  p50={:.1}us p99={:.1}us  \
         threads under load: {threads_load}  rss: {rss_load_kb} kB",
        out.ops_per_s(),
        puts.percentile_us(0.50),
        puts.percentile_us(0.99),
    );

    // The fleet must still be alive and serviceable after the load ran.
    for (i, c) in idle.iter_mut().enumerate() {
        c.ping()
            .map_err(|e| format!("idle conn {i} died while parked: {e}"))?;
    }
    println!("all {idle_conns} idle connections still answer PING");
    drop(idle);
    server.shutdown();

    // Idle connections are epoll registrations, so total process threads
    // are bounded by the fixed staff — reactors + workers + hot client
    // threads + slack for main, committer, and runtime helpers. 5000 idle
    // conns vs a budget of ~hot+reactors+workers+8 leaves no room for an
    // O(conns) regression to hide.
    let budget = (reactors + workers + hot as usize + 8) as u64;
    if threads_load == 0 {
        return Err("procfs unavailable: cannot validate the thread budget".into());
    }
    if threads_load > budget {
        return Err(format!(
            "thread count {threads_load} exceeds budget {budget} \
             (reactors={reactors} workers={workers} hot={hot}): \
             threads are scaling with connections"
        ));
    }
    println!("thread budget holds: {threads_load} <= {budget}");

    let rows = out.rows(load, "idle_hot_put", "idle_hot_get");
    let fields = vec![
        // perf_gate's idle check requires the fleet to be epoll-held.
        ("io_mode", Json::Str("epoll".to_string())),
        ("idle_conns", Json::Int(u64::from(idle_conns))),
        ("hot_conns", Json::Int(u64::from(hot))),
        ("reactors", Json::Int(reactors as u64)),
        ("workers", Json::Int(workers as u64)),
        ("pipeline_depth", Json::Int(depth as u64)),
        ("open_fleet_s", Json::Num(open_s)),
        ("os_threads_base", Json::Int(threads_base)),
        ("os_threads_idle", Json::Int(threads_idle)),
        ("os_threads_load", Json::Int(threads_load)),
        ("thread_budget", Json::Int(budget)),
        ("vm_rss_kb_base", Json::Int(rss_base_kb)),
        ("vm_rss_kb_idle", Json::Int(rss_idle_kb)),
        ("vm_rss_kb_load", Json::Int(rss_load_kb)),
        ("hot_ops_s", Json::Num(out.ops_per_s())),
    ];
    emit(load, "idle_scaling", fields, rows, &[])
}

fn run() -> Result<(), String> {
    let args = Args::parse();
    let mode = Mode::parse(&args);
    let load = Load::parse(&args, &mode);
    match mode {
        Mode::RoundTrip => run_roundtrip(&load),
        Mode::Pipeline(depth) => run_pipeline(&load, depth),
        Mode::Multi => run_multi(&load),
        Mode::Sweep(counts) => run_sweep(&load, &counts),
        Mode::Idle { conns, depth } => run_idle(&load, conns, depth),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("spp-loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_in_range() {
        let mut samples: Vec<u64> = (0..64u32)
            .flat_map(|shift| {
                [0u64, 1, 3]
                    .into_iter()
                    .map(move |frac| (1u64 << shift) | (frac << shift.saturating_sub(3)))
            })
            .collect();
        samples.sort_unstable();
        let mut prev = 0usize;
        for ns in samples {
            let idx = bucket_of(ns);
            assert!(idx < HIST_BUCKETS, "ns={ns} idx={idx}");
            assert!(idx >= prev, "bucket index regressed at ns={ns}");
            prev = idx;
        }
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_rep_lands_in_its_own_bucket() {
        for idx in 0..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_rep(idx)), idx, "idx={idx}");
        }
    }

    #[test]
    fn percentiles_track_samples_within_bucket_error() {
        let mut lats = Lats::default();
        for us in 1..=1000u64 {
            lats.push(Duration::from_micros(us));
        }
        let p50 = lats.percentile_us(0.50);
        let p99 = lats.percentile_us(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 = {p99}");
        assert!(lats.percentile_us(1.0) >= p99);
    }

    #[test]
    fn merge_equals_pushing_into_one() {
        let mut a = Lats::default();
        let mut b = Lats::default();
        let mut whole = Lats::default();
        for i in 1..200u64 {
            let d = Duration::from_nanos(i * i * 37);
            if i % 2 == 0 {
                a.push(d);
            } else {
                b.push(d);
            }
            whole.push(d);
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(a.percentile_us(p), whole.percentile_us(p));
        }
    }

    #[test]
    fn empty_histogram_yields_nan() {
        assert!(Lats::default().percentile_us(0.5).is_nan());
    }
}
