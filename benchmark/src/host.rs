//! How fast the host is running right now, read off a reference kernel.
//!
//! The benchmark's machine is a few cores of a shared host. Its speed on
//! this kind of code (hash probes, tree descents, small allocations over a
//! few megabytes) drifts by 20–40 % over minutes and by up to 2× for seconds
//! at a stretch, with the neighbours' load on the shared cache and memory;
//! even the fastest ops of two runs of the same code, minutes apart, differ
//! by 10–18 %. A fixed piece of harness code with the same habits and the
//! same footprint, run between the engine's ops, slows down with them: over
//! forty-three 24 s windows the 5th percentile of a cold `tc_chain` op
//! spread 0.11 (IQR ÷ median; range 0.45), that of this kernel 0.07, and
//! their ratio 0.02 (range 0.15); `excl_ancestor` and `bom_magic` alike. The
//! gated timings are therefore divided by the host's speed over the same
//! run — what the kernel takes on the quiet reference host ([`NOMINAL_MS`])
//! over what it took here — and the raw timings and the factor are printed
//! beside them.
//!
//! The kernel never calls the engine, so an engine change cannot move it.
//! Its footprint matters: contention slows what misses the private cache,
//! so an ALU loop does not feel the neighbours at all (±3 % while an engine
//! op moved 45 %), the same kernel at a fifth of the size feels them too
//! little (an op slowed 1.65× as much in the exponent), a bare array walk
//! tracks worse than either, and at four times the size it tracks no
//! better and takes 60 ms.

use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

use crate::metrics::quiet_time;

/// The kernel's time on the quiet reference host (the 2-vCPU VM the first
/// tables were measured on). A constant: on another machine every
/// normalised number moves by the same factor, and comparisons hold.
pub const NOMINAL_MS: f64 = 8.0;

const KEYS: u64 = 40_000;

/// Build a hash set and an ordered set of pseudo-random pairs, then probe
/// the first for twice as many; about 8 ms and 3 MB.
fn kernel() -> usize {
    let mut x = 1u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 40
    };
    let mut hashed = HashSet::new();
    let mut ordered = BTreeSet::new();
    for i in 0..KEYS {
        hashed.insert((next(), i & 1023));
        ordered.insert((next(), i & 1023));
    }
    let hits = (0..2 * KEYS)
        .filter(|i| hashed.contains(&(next(), i & 1023)))
        .count();
    hits + hashed.len() + ordered.len()
}

/// Run the kernel once; its time in ms.
pub fn kernel_ms() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel());
    t0.elapsed().as_secs_f64() * 1e3
}

/// The host's speed over a run, from the kernel times sampled through it:
/// 1 on the quiet reference host, below 1 when this host is slower. Read
/// off the same quiet moments as the timings it scales.
pub fn speed(kernel_ms: &[f64]) -> f64 {
    match quiet_time(kernel_ms) {
        t if t > 0.0 => NOMINAL_MS / t,
        _ => 1.0,
    }
}
