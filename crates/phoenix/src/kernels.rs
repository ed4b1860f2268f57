//! The seven Phoenix kernels, reading their PM working sets through the
//! active memory policy (one checked load per element access, as the
//! instrumented C does).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use spp_core::{MemoryPolicy, Result};

use crate::data::{gen_bytes, gen_pairs, gen_points, gen_words};
use crate::PhoenixConfig;

/// Split `[0, n)` into `threads` contiguous ranges.
fn ranges(n: u64, threads: usize) -> Vec<(u64, u64)> {
    let threads = threads.max(1) as u64;
    let per = n.div_ceil(threads);
    (0..threads)
        .map(|t| (t * per, ((t + 1) * per).min(n)))
        .filter(|(a, b)| a < b)
        .collect()
}

/// Run workers over ranges, collecting per-worker outputs.
fn parallel<P: MemoryPolicy, T: Send>(
    policy: &Arc<P>,
    n: u64,
    threads: usize,
    work: impl Fn(&P, u64, u64) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let rs = ranges(n, threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = rs
            .iter()
            .map(|&(a, b)| {
                let p = Arc::clone(policy);
                let work = &work;
                s.spawn(move || work(&p, a, b))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("phoenix worker panicked"))
            .collect()
    })
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

/// RGB histogram: one 3-byte pixel load per element; counts merged into a
/// PM output object.
///
/// # Errors
///
/// Allocation errors or detected safety violations.
pub fn histogram<P: MemoryPolicy>(policy: &Arc<P>, cfg: &PhoenixConfig) -> Result<u64> {
    let len = cfg.scale * 768 * 1024;
    let input = gen_bytes(&**policy, len, cfg.seed)?;
    let base = policy.direct(input);
    let pixels = len / 3;
    let partials = parallel(policy, pixels, cfg.threads, |p, a, b| {
        let mut counts = vec![0u64; 3 * 256];
        let mut px = [0u8; 3];
        for i in a..b {
            p.load(p.gep(base, (i * 3) as i64), &mut px)?;
            counts[px[0] as usize] += 1;
            counts[256 + px[1] as usize] += 1;
            counts[512 + px[2] as usize] += 1;
        }
        Ok(counts)
    })?;
    // Merge and publish to a PM result object.
    let out = policy.zalloc(3 * 256 * 8)?;
    let optr = policy.direct(out);
    let mut checksum = 0u64;
    for slot in 0..3 * 256usize {
        let total: u64 = partials.iter().map(|c| c[slot]).sum();
        policy.store_u64(policy.gep(optr, (slot * 8) as i64), total)?;
        checksum = mix(checksum, total);
    }
    policy.persist(optr, 3 * 256 * 8)?;
    Ok(checksum)
}

const KDIM: u64 = 8;
const KCLUSTERS: usize = 8;

/// K-means: every iteration re-reads the whole PM working set — the
/// paper's Fig. 6 outlier for instrumentation overhead.
///
/// # Errors
///
/// Allocation errors or detected safety violations.
pub fn kmeans<P: MemoryPolicy>(policy: &Arc<P>, cfg: &PhoenixConfig) -> Result<u64> {
    let n = cfg.scale * 4096;
    let input = gen_points(&**policy, n, KDIM, cfg.seed)?;
    let base = policy.direct(input);
    // Initial centroids: the first K points.
    let mut centroids = vec![[0u64; KDIM as usize]; KCLUSTERS];
    for (c, centroid) in centroids.iter_mut().enumerate() {
        for (d, coord) in centroid.iter_mut().enumerate() {
            *coord =
                policy.load_u64(policy.gep(base, ((c as u64 * KDIM + d as u64) * 8) as i64))?;
        }
    }
    let mut checksum = 0u64;
    for _iter in 0..8 {
        let cens = centroids.clone();
        let partials = parallel(policy, n, cfg.threads, |p, a, b| {
            let mut sums = vec![[0u64; KDIM as usize]; KCLUSTERS];
            let mut counts = [0u64; KCLUSTERS];
            let mut point = [0u64; KDIM as usize];
            for i in a..b {
                for (d, coord) in point.iter_mut().enumerate() {
                    *coord = p.load_u64(p.gep(base, ((i * KDIM + d as u64) * 8) as i64))?;
                }
                let mut best = 0usize;
                let mut best_d = u64::MAX;
                for (c, centroid) in cens.iter().enumerate() {
                    let d2: u64 = centroid
                        .iter()
                        .zip(&point)
                        .map(|(&c, &x)| c.abs_diff(x).pow(2))
                        .sum();
                    if d2 < best_d {
                        best_d = d2;
                        best = c;
                    }
                }
                counts[best] += 1;
                for d in 0..KDIM as usize {
                    sums[best][d] += point[d];
                }
            }
            Ok((sums, counts))
        })?;
        let mut moved = false;
        for c in 0..KCLUSTERS {
            let count: u64 = partials.iter().map(|(_, cnt)| cnt[c]).sum();
            if count == 0 {
                continue;
            }
            for d in 0..KDIM as usize {
                let sum: u64 = partials.iter().map(|(s, _)| s[c][d]).sum();
                let new = sum / count;
                if new != centroids[c][d] {
                    moved = true;
                }
                centroids[c][d] = new;
            }
        }
        if !moved {
            break;
        }
    }
    // Publish final centroids to PM.
    let out = policy.zalloc(KCLUSTERS as u64 * KDIM * 8)?;
    let optr = policy.direct(out);
    for (c, centroid) in centroids.iter().enumerate() {
        for (d, &v) in centroid.iter().enumerate() {
            policy.store_u64(policy.gep(optr, ((c * KDIM as usize + d) * 8) as i64), v)?;
            checksum = mix(checksum, v);
        }
    }
    policy.persist(optr, KCLUSTERS as u64 * KDIM * 8)?;
    Ok(checksum)
}

/// Least-squares accumulation over (x, y) pairs.
///
/// # Errors
///
/// Allocation errors or detected safety violations.
pub fn linear_regression<P: MemoryPolicy>(policy: &Arc<P>, cfg: &PhoenixConfig) -> Result<u64> {
    let n = cfg.scale * 65_536;
    let input = gen_pairs(&**policy, n, cfg.seed)?;
    let base = policy.direct(input);
    let partials = parallel(policy, n, cfg.threads, |p, a, b| {
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for i in a..b {
            let x = p.load_u64(p.gep(base, (i * 16) as i64))?;
            let y = p.load_u64(p.gep(base, (i * 16 + 8) as i64))?;
            sx = sx.wrapping_add(x);
            sy = sy.wrapping_add(y);
            sxx = sxx.wrapping_add(x.wrapping_mul(x));
            syy = syy.wrapping_add(y.wrapping_mul(y));
            sxy = sxy.wrapping_add(x.wrapping_mul(y));
        }
        Ok([sx, sy, sxx, syy, sxy])
    })?;
    let mut checksum = 0u64;
    for k in 0..5 {
        let total = partials.iter().fold(0u64, |acc, p| acc.wrapping_add(p[k]));
        checksum = mix(checksum, total);
    }
    Ok(checksum)
}

/// Dense `n × n` matrix multiply, inputs and output in PM.
///
/// # Errors
///
/// Allocation errors or detected safety violations.
pub fn matrix_multiply<P: MemoryPolicy>(policy: &Arc<P>, cfg: &PhoenixConfig) -> Result<u64> {
    let n = (32 + 16 * cfg.scale).min(160);
    let a_in = gen_points(&**policy, n * n, 1, cfg.seed)?;
    let b_in = gen_points(&**policy, n * n, 1, cfg.seed ^ 0xB)?;
    let c_out = policy.zalloc(n * n * 8)?;
    let (pa, pb, pc) = (
        policy.direct(a_in),
        policy.direct(b_in),
        policy.direct(c_out),
    );
    let partials = parallel(policy, n, cfg.threads, |p, r0, r1| {
        let mut local = 0u64;
        for i in r0..r1 {
            for j in 0..n {
                let mut acc = 0u64;
                for k in 0..n {
                    let x = p.load_u64(p.gep(pa, ((i * n + k) * 8) as i64))?;
                    let y = p.load_u64(p.gep(pb, ((k * n + j) * 8) as i64))?;
                    acc = acc.wrapping_add(x.wrapping_mul(y));
                }
                p.store_u64(p.gep(pc, ((i * n + j) * 8) as i64), acc)?;
                local = mix(local, acc);
            }
            p.persist(p.gep(pc, ((i * n) * 8) as i64), n * 8)?;
        }
        Ok(local)
    })?;
    Ok(partials.into_iter().fold(0u64, mix))
}

/// Column means + upper-triangle covariance of a rows × cols matrix.
///
/// # Errors
///
/// Allocation errors or detected safety violations.
pub fn pca<P: MemoryPolicy>(policy: &Arc<P>, cfg: &PhoenixConfig) -> Result<u64> {
    let rows = cfg.scale * 128;
    let cols = 32u64;
    let input = gen_points(&**policy, rows, cols, cfg.seed)?;
    let base = policy.direct(input);
    // Column means.
    let mean_parts = parallel(policy, rows, cfg.threads, |p, a, b| {
        let mut sums = vec![0u64; cols as usize];
        for r in a..b {
            for c in 0..cols {
                sums[c as usize] = sums[c as usize]
                    .wrapping_add(p.load_u64(p.gep(base, ((r * cols + c) * 8) as i64))?);
            }
        }
        Ok(sums)
    })?;
    let means: Vec<u64> = (0..cols as usize)
        .map(|c| {
            mean_parts
                .iter()
                .fold(0u64, |acc, s| acc.wrapping_add(s[c]))
                / rows
        })
        .collect();
    // Covariance over column pairs (parallelised by first column index).
    let means = Arc::new(means);
    let cov_parts = parallel(policy, cols, cfg.threads, |p, c0, c1| {
        let mut acc = 0u64;
        for i in c0..c1 {
            for j in i..cols {
                let mut cov = 0i64;
                for r in 0..rows {
                    let xi = p.load_u64(p.gep(base, ((r * cols + i) * 8) as i64))? as i64
                        - means[i as usize] as i64;
                    let xj = p.load_u64(p.gep(base, ((r * cols + j) * 8) as i64))? as i64
                        - means[j as usize] as i64;
                    cov = cov.wrapping_add(xi.wrapping_mul(xj));
                }
                acc = mix(acc, cov as u64);
            }
        }
        Ok(acc)
    })?;
    Ok(cov_parts.into_iter().fold(0u64, mix))
}

/// Rolling word hash used by `string_match` / `word_count`.
fn word_hash(h: u64, byte: u8) -> u64 {
    h.wrapping_mul(131).wrapping_add(u64::from(byte))
}

/// Search every word of the input for four "encrypted" target keys.
///
/// With `buggy = true` this reproduces the real Phoenix off-by-one
/// (kozyraki/phoenix#9): when the input does not end in a newline, the
/// word scanner reads one byte **past the end of the input buffer** to
/// terminate the final word. Under SPP that read trips the overflow bit;
/// under native PMDK it silently reads the next heap block.
///
/// # Errors
///
/// Allocation errors; under protecting policies in buggy mode, the
/// detected overflow.
pub fn string_match<P: MemoryPolicy>(
    policy: &Arc<P>,
    cfg: &PhoenixConfig,
    buggy: bool,
) -> Result<u64> {
    let len = cfg.scale * 256 * 1024;
    // The dataset deliberately does NOT end in a newline (like the original
    // input file), which is the bug's trigger condition.
    let input = gen_words(&**policy, len, cfg.seed, false)?;
    let base = policy.direct(input);
    // Target keys: hashes of four fixed dictionary words.
    let targets: [u64; 4] = [b"bread", b"wines", b"salts", b"coins"]
        .map(|w| w.iter().fold(0u64, |h, &b| word_hash(h, b)));
    let matches = Mutex::new(0u64);
    let boundaries = word_boundaries(&**policy, base, len, cfg.threads)?;
    std::thread::scope(|s| -> Result<()> {
        let mut handles = Vec::new();
        for w in boundaries.windows(2) {
            let (start, end) = (w[0], w[1]);
            let p = Arc::clone(policy);
            let matches = &matches;
            let is_tail = end == len;
            handles.push(s.spawn(move || -> Result<()> {
                let mut local = 0u64;
                let mut h = 0u64;
                let mut b = [0u8; 1];
                let mut i = start;
                while i < end {
                    p.load(p.gep(base, i as i64), &mut b)?;
                    if b[0] == b'\n' {
                        if targets.contains(&h) {
                            local += 1;
                        }
                        h = 0;
                    } else {
                        h = word_hash(h, b[0]);
                    }
                    i += 1;
                }
                if is_tail && h != 0 {
                    if buggy {
                        // The original code "terminates" the final word by
                        // reading the byte after the buffer.
                        p.load(p.gep(base, len as i64), &mut b)?;
                        h = word_hash(h, b[0]);
                    }
                    if targets.contains(&h) {
                        local += 1;
                    }
                }
                *matches.lock().unwrap() += local;
                Ok(())
            }));
        }
        for h in handles {
            h.join().expect("string_match worker panicked")?;
        }
        Ok(())
    })?;
    let total = *matches.lock().unwrap();
    Ok(mix(0x57AA, total))
}

/// Word-frequency counting; checksum over the frequency multiset.
///
/// # Errors
///
/// Allocation errors or detected safety violations.
pub fn word_count<P: MemoryPolicy>(policy: &Arc<P>, cfg: &PhoenixConfig) -> Result<u64> {
    let len = cfg.scale * 256 * 1024;
    let input = gen_words(&**policy, len, cfg.seed ^ 0x77, true)?;
    let base = policy.direct(input);
    let boundaries = word_boundaries(&**policy, base, len, cfg.threads)?;
    let merged = Mutex::new(HashMap::<u64, u64>::new());
    std::thread::scope(|s| -> Result<()> {
        let mut handles = Vec::new();
        for w in boundaries.windows(2) {
            let (start, end) = (w[0], w[1]);
            let p = Arc::clone(policy);
            let merged = &merged;
            handles.push(s.spawn(move || -> Result<()> {
                let mut local = HashMap::<u64, u64>::new();
                let mut h = 0u64;
                let mut b = [0u8; 1];
                for i in start..end {
                    p.load(p.gep(base, i as i64), &mut b)?;
                    if b[0] == b'\n' {
                        if h != 0 {
                            *local.entry(h).or_insert(0) += 1;
                        }
                        h = 0;
                    } else {
                        h = word_hash(h, b[0]);
                    }
                }
                let mut m = merged.lock().unwrap();
                for (k, v) in local {
                    *m.entry(k).or_insert(0) += v;
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().expect("word_count worker panicked")?;
        }
        Ok(())
    })?;
    let m = merged.lock().unwrap();
    let mut freqs: Vec<u64> = m.values().copied().collect();
    freqs.sort_unstable();
    Ok(freqs.into_iter().fold(m.len() as u64, mix))
}

/// Thread split points aligned to word (newline) boundaries, Phoenix-style.
fn word_boundaries<P: MemoryPolicy>(
    p: &P,
    base: u64,
    len: u64,
    threads: usize,
) -> Result<Vec<u64>> {
    let mut bounds = vec![0u64];
    let mut b = [0u8; 1];
    for (_, end) in ranges(len, threads) {
        if end >= len {
            break;
        }
        // Advance to just past the next newline.
        let mut i = end;
        while i < len {
            p.load(p.gep(base, i as i64), &mut b)?;
            i += 1;
            if b[0] == b'\n' {
                break;
            }
        }
        if i < len && *bounds.last().expect("nonempty") < i {
            bounds.push(i);
        }
    }
    bounds.push(len);
    Ok(bounds)
}
