//! Building the system under test through its public APIs: warmed pools,
//! engines, preloads, and served (optionally replicated) stacks.
//!
//! Every pool is `Mode::Fast` with no latency model, as `spp-server`
//! serves (`fresh_server_pool`): flushes and fences are counted, never
//! waited for. Every page is touched before the engine is built, so
//! first-touch faults fall in set-up.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use spp_core::MemoryPolicy;
use spp_pm::{Mode, PmPool, PoolConfig};
use spp_pmdk::{ObjPool, PoolOpts};
use spp_server::{
    IoMode, KvEngine, PolicyKind, ReplAckMode, ReplConfig, Ring, Server, ServerConfig, WriteOp,
};

use crate::ops::{key, value};
use crate::procfs::status_mb;

/// Transaction lanes per pool (the server's default).
pub const LANES: usize = 16;

/// The policies in the order every workload rotates them.
pub const POLICIES: [PolicyKind; 3] = [PolicyKind::Pmdk, PolicyKind::Spp, PolicyKind::SafePm];

/// Leading slices of every measured phase (one round) that warm
/// connections, caches and thread wake-ups; their ops are checked but
/// their timings are not recorded.
pub const WARM_SLICES: usize = 3;

/// The policy (index into [`POLICIES`]) of slice `k`: round `k / 3` runs
/// all three, starting with policy `round mod 3`, so no policy always goes
/// first.
pub fn policy_of_slice(k: usize) -> usize {
    (k % 3 + k / 3) % 3
}

/// Threads the benchmark itself may run at once.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fresh, fully touched pool. `stats` turns on `PmStats` recording
/// (traced runs only).
pub fn pool(bytes: u64, stats: bool) -> Arc<ObjPool> {
    let pm = Arc::new(PmPool::new(
        PoolConfig::new(bytes).mode(Mode::Fast).record_stats(stats),
    ));
    let pool = Arc::new(ObjPool::create(pm, PoolOpts::new().lanes(LANES)).expect("pool create"));
    spp_bench::warm_pool(&pool);
    pool
}

/// A fresh engine on a fresh pool, and the resident-set growth (MiB) that
/// building the policy and store cost in DRAM.
pub fn engine(
    kind: PolicyKind,
    pool_bytes: u64,
    nbuckets: u64,
    stats: bool,
) -> (Arc<KvEngine>, f64) {
    let pool = pool(pool_bytes, stats);
    let before = status_mb("VmRSS");
    let engine = KvEngine::create(pool, kind, nbuckets).expect("engine create");
    let dram = status_mb("VmRSS") - before;
    (Arc::new(engine), dram.max(0.0))
}

/// Put version 0 of every key in `keys` into `targets`, routing key `k`
/// to `targets[route(k)]`, on up to [`cpus`] threads, in group-commit
/// batches.
pub fn preload(targets: &[Arc<KvEngine>], keys: Range<u64>, value_len: usize) {
    let ring = Ring::new(targets.len() as u32);
    let threads = cpus().max(1) as u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let keys = keys.clone();
            let ring = &ring;
            s.spawn(move || {
                let mut batches: Vec<Vec<WriteOp>> = vec![Vec::new(); targets.len()];
                for k in keys.filter(|k| k % threads == t) {
                    let kb = key(k);
                    let shard = ring.shard_of(&kb) as usize;
                    batches[shard].push(WriteOp::Put {
                        key: kb.to_vec(),
                        value: value(&kb, 0, value_len),
                    });
                    if batches[shard].len() == 32 {
                        commit(&targets[shard], &mut batches[shard]);
                    }
                }
                for (e, b) in targets.iter().zip(&mut batches) {
                    commit(e, b);
                }
            });
        }
    });
}

fn commit(engine: &KvEngine, batch: &mut Vec<WriteOp>) {
    if batch.is_empty() {
        return;
    }
    let replies = engine.apply_write_batch(batch);
    assert!(
        replies.iter().all(|r| *r == spp_server::WriteReply::Ok),
        "preload write failed: {replies:?}"
    );
    batch.clear();
}

/// Shape of one served stack.
#[derive(Debug, Clone)]
pub struct StackCfg {
    /// Shards on the primary (and on the backup).
    pub shards: usize,
    /// Whether a synchronous backup receives every committed batch.
    pub repl: bool,
    /// Bytes per shard pool.
    pub pool_bytes: u64,
    /// Hash buckets per shard.
    pub nbuckets: u64,
    /// Keys preloaded (on both sides).
    pub keys: Range<u64>,
    /// Value length.
    pub value_len: usize,
    /// Whether pools record `PmStats`.
    pub stats: bool,
}

/// One policy's served stack: an epoll primary and, if replicated, its
/// backup.
pub struct Stack {
    /// The served policy.
    pub kind: PolicyKind,
    /// The server clients talk to.
    pub primary: Server,
    /// The synchronous backup, if any.
    pub backup: Option<Server>,
    /// DRAM the primary's policies cost (MiB).
    pub dram_mb: f64,
}

/// The served configuration: epoll front end, defaults otherwise.
pub fn server_cfg(repl_to: Option<std::net::SocketAddr>) -> ServerConfig {
    ServerConfig {
        io: IoMode::Epoll,
        repl: repl_to.map(|backup| ReplConfig {
            backup,
            ack_mode: ReplAckMode::Sync,
            drop_batch: None,
        }),
        ..ServerConfig::default()
    }
}

fn shard_engines(kind: PolicyKind, cfg: &StackCfg) -> (Vec<Arc<KvEngine>>, f64) {
    let mut dram = 0.0;
    let engines = (0..cfg.shards)
        .map(|_| {
            let (e, d) = engine(kind, cfg.pool_bytes, cfg.nbuckets, cfg.stats);
            dram += d;
            e
        })
        .collect::<Vec<_>>();
    preload(&engines, cfg.keys.clone(), cfg.value_len);
    (engines, dram)
}

impl Stack {
    /// Build, preload and start `kind`'s stack.
    pub fn start(kind: PolicyKind, cfg: &StackCfg) -> Stack {
        let backup = cfg.repl.then(|| {
            let (engines, _) = shard_engines(kind, cfg);
            Server::start_multi(engines, "127.0.0.1:0", server_cfg(None)).expect("start backup")
        });
        let (engines, dram_mb) = shard_engines(kind, cfg);
        let primary = Server::start_multi(
            engines,
            "127.0.0.1:0",
            server_cfg(backup.as_ref().map(Server::local_addr)),
        )
        .expect("start primary");
        Stack {
            kind,
            primary,
            backup,
            dram_mb,
        }
    }

    /// The primary's address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.primary.local_addr()
    }

    /// The primary's shard engines.
    pub fn engines(&self) -> Vec<Arc<KvEngine>> {
        self.primary.engines()
    }

    /// Stop the primary, then the backup.
    pub fn shutdown(self) {
        self.primary.shutdown();
        if let Some(b) = self.backup {
            b.shutdown();
        }
    }
}

/// Sum of the `PmStats` of `engines`' pools:
/// `(reads, writes, bytes written, flushes, fences)`.
pub fn pm_totals(engines: &[Arc<KvEngine>]) -> [u64; 5] {
    let mut t = [0u64; 5];
    for e in engines {
        let s = e.pool().pm().stats();
        for (slot, v) in t.iter_mut().zip([
            s.reads(),
            s.writes(),
            s.bytes_written(),
            s.flushes(),
            s.fences(),
        ]) {
            *slot += v;
        }
    }
    t
}

/// Mean ns of one `MemoryPolicy::resolve` on live value-sized objects of
/// `engine`'s pool (allocated through its policy, freed afterwards).
pub fn resolve_ns(engine: &KvEngine, value_len: usize) -> f64 {
    match engine {
        KvEngine::Pmdk(kv) => resolve_on(&**kv.policy(), value_len),
        KvEngine::Spp(kv) => resolve_on(&**kv.policy(), value_len),
        KvEngine::SafePm(kv) => resolve_on(&**kv.policy(), value_len),
    }
}

fn resolve_on<P: MemoryPolicy>(p: &P, value_len: usize) -> f64 {
    const OBJECTS: usize = 1024;
    const ROUNDS: usize = 512;
    let oids: Vec<_> = (0..OBJECTS)
        .map(|_| p.alloc(value_len as u64).expect("resolve probe alloc"))
        .collect();
    let mut rng = crate::ops::Rng::new(0, 77);
    let ptrs: Vec<u64> = (0..OBJECTS)
        .map(|i| {
            let base = p.direct(oids[(rng.below(OBJECTS as u64)) as usize]);
            p.gep(base, ((i * 8) % (value_len - 8)) as i64)
        })
        .collect();
    let start = std::time::Instant::now();
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        for &ptr in &ptrs {
            acc ^= p
                .resolve(std::hint::black_box(ptr), 8)
                .expect("live pointer resolves");
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / (ROUNDS * OBJECTS) as f64;
    std::hint::black_box(acc);
    for oid in oids {
        p.free(oid).expect("resolve probe free");
    }
    ns
}

/// Lock-profile totals for `name`: `(acquisitions, contended, wait ns)`.
pub fn lock_totals(name: &str) -> [u64; 3] {
    spp_pm::contention::snapshot()
        .into_iter()
        .find(|s| s.name == name)
        .map_or([0; 3], |s| [s.acquisitions, s.contended, s.wait_ns])
}

/// Client-side connect with the server's start-up race covered.
pub fn connect(addr: std::net::SocketAddr) -> spp_server::Client {
    spp_server::Client::connect_retry(addr, Duration::from_secs(5)).expect("connect")
}
