//! Seeded inputs: the generator, the key and value encodings, and the op
//! streams of the three workloads.
//!
//! Everything a workload sends is drawn from here, from `--seed` alone, so
//! one seed always yields the same op stream. Values carry a key-derived
//! header (`[key; 16][version u64 LE]`) and a body word derived from both,
//! so any value read back can be checked against the key it was read
//! under without keeping a copy.

use std::sync::atomic::{AtomicBool, Ordering};

/// Key width served by the store.
pub const KEY_LEN: usize = spp_kvstore::KEY_SIZE;

/// Value header: the key, then the version.
const HEADER: usize = KEY_LEN + 8;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (thread,
    /// connection, ...).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5eed))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias is below 2^-32 for
    /// the set sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `pct` percent.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// The SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key number `i` as the 16 bytes sent: the index, then a hash of it, so
/// neighbouring indices do not share a prefix.
pub fn key(i: u64) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..8].copy_from_slice(&i.to_le_bytes());
    k[8..].copy_from_slice(&mix(i).to_le_bytes());
    k
}

fn body_word(key: &[u8], version: u64) -> u64 {
    let lo = u64::from_le_bytes(key[..8].try_into().expect("8-byte key half"));
    mix(lo ^ version.wrapping_mul(0xff51_afd7_ed55_8ccd))
}

/// Write the value of `key` at `version` into `out` (cleared first).
pub fn fill_value(out: &mut Vec<u8>, key: &[u8; KEY_LEN], version: u64, len: usize) {
    assert!(len >= HEADER, "values must hold the {HEADER}-byte header");
    out.clear();
    out.extend_from_slice(key);
    out.extend_from_slice(&version.to_le_bytes());
    let word = body_word(key, version).to_le_bytes();
    while out.len() < len {
        let n = (len - out.len()).min(8);
        out.extend_from_slice(&word[..n]);
    }
}

/// The value of `key` at `version`, owned.
pub fn value(key: &[u8; KEY_LEN], version: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    fill_value(&mut v, key, version, len);
    v
}

/// Armed by `--corrupt-expected`: the next check compares against a
/// deliberately wrong expected key, so the run must report a mismatch.
static CORRUPT_NEXT: AtomicBool = AtomicBool::new(false);

/// Make the next [`check_value`] expect a wrong key.
pub fn corrupt_next_check() {
    CORRUPT_NEXT.store(true, Ordering::SeqCst);
}

/// Check that `got` is a well-formed value of `key` with length `len`;
/// returns its version.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_value(key: &[u8; KEY_LEN], got: &[u8], len: usize) -> Result<u64, String> {
    let mut want_key = *key;
    if CORRUPT_NEXT.load(Ordering::Relaxed) && CORRUPT_NEXT.swap(false, Ordering::SeqCst) {
        want_key[0] ^= 0xff;
    }
    if got.len() != len {
        return Err(format!("value length {} != {len}", got.len()));
    }
    if got[..KEY_LEN] != want_key {
        return Err("value header names another key".into());
    }
    let version = u64::from_le_bytes(got[KEY_LEN..HEADER].try_into().expect("8-byte version"));
    let word = body_word(key, version).to_le_bytes();
    let ok = got[HEADER..].chunks(8).all(|c| c == &word[..c.len()]);
    if ok {
        Ok(version)
    } else {
        Err(format!("value body does not match version {version}"))
    }
}

/// YCSB's Zipfian generator (Gray et al.) over ranks `[0, n)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Skew `theta` (0.99 is YCSB's default) over `n` items.
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let nf = n as f64;
        Zipf {
            n: nf,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// The next rank; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n as u64 - 1)
    }
}

/// One op of a workload stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// `true` for GET, `false` for PUT.
    pub get: bool,
    /// Key number.
    pub key: u64,
}

/// `embedded_5050`: one thread's stream, 50% GET / 50% PUT, uniform keys.
pub fn embedded_op(rng: &mut Rng, keys: u64) -> Op {
    Op {
        get: rng.percent(50),
        key: rng.below(keys),
    }
}

/// `wire_write_repl`: the next run of connection `conn`'s stream —
/// `depth` ops with distinct keys from the connection's own key range
/// `[base, base + keys)`, 10% GET / 90% PUT.
pub fn write_run(rng: &mut Rng, base: u64, keys: u64, depth: usize, out: &mut Vec<Op>) {
    out.clear();
    while out.len() < depth {
        let key = base + rng.below(keys);
        if out.iter().any(|o| o.key == key) {
            continue;
        }
        out.push(Op {
            get: rng.percent(10),
            key,
        });
    }
}

/// `wire_read_open`: the next request — exponential gap (ns) at
/// `rate_per_s`, 95% GET / 5% PUT, Zipf-skewed key.
pub fn open_op(rng: &mut Rng, zipf: &Zipf, rate_per_s: f64) -> (u64, Op) {
    let gap_ns = -(1.0 - rng.unit()).ln() * 1e9 / rate_per_s;
    let get = rng.percent(95);
    (
        gap_ns as u64,
        Op {
            get,
            key: zipf.sample(rng),
        },
    )
}

/// The first `n` ops of each workload's stream for `seed`, as bytes — what
/// the seed test compares.
#[cfg(test)]
pub fn stream_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut push = |op: Op, extra: u64| {
        out.push(u8::from(op.get));
        out.extend_from_slice(&key(op.key));
        out.extend_from_slice(&extra.to_le_bytes());
    };
    let mut rng = Rng::new(seed, 0);
    for _ in 0..n {
        push(embedded_op(&mut rng, 1 << 17), 0);
    }
    let mut rng = Rng::new(seed, 1);
    let mut run = Vec::new();
    for _ in 0..n.div_ceil(8) {
        write_run(&mut rng, 0, 1 << 15, 8, &mut run);
        for &op in &run {
            push(op, 1);
        }
    }
    let zipf = Zipf::new(1 << 14, 0.99);
    let mut rng = Rng::new(seed, 2);
    for _ in 0..n {
        let (gap, op) = open_op(&mut rng, &zipf, 10_000.0);
        push(op, gap);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_stream() {
        assert_eq!(stream_bytes(7, 2000), stream_bytes(7, 2000));
    }

    #[test]
    fn another_seed_another_stream() {
        assert_ne!(stream_bytes(7, 2000), stream_bytes(8, 2000));
    }

    #[test]
    fn values_round_trip_and_reject_other_keys() {
        let k = key(42);
        let v = value(&k, 9, 1024);
        assert_eq!(check_value(&k, &v, 1024), Ok(9));
        assert!(check_value(&key(43), &v, 1024).is_err());
        let mut bad = v.clone();
        bad[500] ^= 1;
        assert!(check_value(&k, &bad, 1024).is_err());
        assert!(check_value(&k, &v[..1000], 1024).is_err());
        let short = value(&k, 3, 64);
        assert_eq!(check_value(&k, &short, 64), Ok(3));
    }

    #[test]
    fn write_runs_have_distinct_keys_in_range() {
        let mut rng = Rng::new(1, 1);
        let mut run = Vec::new();
        for _ in 0..100 {
            write_run(&mut rng, 1000, 50, 8, &mut run);
            assert_eq!(run.len(), 8);
            for (i, a) in run.iter().enumerate() {
                assert!((1000..1050).contains(&a.key));
                assert!(run[i + 1..].iter().all(|b| b.key != a.key));
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(16_384, 0.99);
        let mut rng = Rng::new(3, 0);
        let mut hot = 0;
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!(r < 16_384);
            if r < 16 {
                hot += 1;
            }
        }
        // The 16 hottest of 16K keys draw far more than their 0.1% share.
        assert!(hot > 20_000, "hot draws {hot}");
    }
}
