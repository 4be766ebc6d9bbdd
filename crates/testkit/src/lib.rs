#![warn(missing_docs)]

//! Self-contained test support.
//!
//! The workspace builds offline, so it cannot pull `proptest` or `rand`
//! from crates.io. This crate provides the small slice of that
//! functionality the tests actually use:
//!
//! * [`Rng`] — a seeded, deterministic xorshift64* generator;
//! * [`cases`] — a property-test driver running a closure over many seeds
//!   and reporting the failing seed on panic;
//! * [`cases_shrink`] — the same driver with a size parameter, which on
//!   failure re-runs the seed at progressively smaller sizes and reports
//!   the minimal failing one;
//! * [`gen`] — random stratified LDL1 programs (recursion + negation +
//!   grouping) for differential testing;
//! * [`fault`] — an I/O fault injector implementing [`ldl_wal::WalFile`],
//!   for crash-recovery testing of the durability layer;
//! * [`CountingAlloc`] — an allocation-counting global allocator for
//!   pinning allocation-free hot paths.

pub mod fault;
pub mod gen;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A deterministic xorshift64* pseudo-random generator.
///
/// Not cryptographic; statistically fine for generating test workloads.
/// The same seed always yields the same stream on every platform.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Rng {
        // Avoid the all-zero fixed point and decorrelate small seeds.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        state ^= state >> 30;
        Rng { state }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `i64` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// A uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index into empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform choice from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// The [`Rng`] seed for property-test case number `case`.
///
/// A full-avalanche (splitmix64-style) finalizer: every output bit depends
/// on every input bit, so consecutive case numbers get thoroughly
/// decorrelated, collision-free seeds. The previous derivation
/// (`0xC0FFEE ^ case * 0x9E3779B9`) only mixed the low 32 bits and mapped
/// distinct cases worryingly close together; `Rng::new`'s weak seed
/// scrambling then had to carry all the weight.
pub fn case_seed(case: u64) -> u64 {
    let mut z = case.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `body` once per case with a fresh deterministic [`Rng`], labelling
/// any panic with the case number so failures are reproducible: re-run with
/// `cases_from(failing_case, 1, body)`.
pub fn cases(n: u64, body: impl Fn(&mut Rng)) {
    cases_from(0, n, body);
}

/// [`cases`] starting from a specific case number (to replay one failure).
pub fn cases_from(start: u64, n: u64, body: impl Fn(&mut Rng)) {
    for case in start..start + n {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::new(case_seed(case));
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property failed at case {case} (replay with cases_from({case}, 1, ..))");
            std::panic::resume_unwind(payload);
        }
    }
}

/// [`cases`] with shrinking: `body` receives a *size* alongside the `Rng`
/// and must generate an input no bigger than it. Each case first runs at
/// `max_size`; on failure the driver re-runs the same seed at sizes `1,
/// 2, …` and reports the **minimal failing size** for that seed, so the
/// counterexample you debug is as small as the generator can express.
/// Replay with `cases_shrink_from(case, 1, reported_size, body)`.
pub fn cases_shrink(n: u64, max_size: u32, body: impl Fn(&mut Rng, u32)) {
    cases_shrink_from(0, n, max_size, body);
}

/// [`cases_shrink`] starting from a specific case number.
pub fn cases_shrink_from(start: u64, n: u64, max_size: u32, body: impl Fn(&mut Rng, u32)) {
    for case in start..start + n {
        let seed = case_seed(case);
        let run = |size: u32| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut rng = Rng::new(seed);
                body(&mut rng, size);
            }))
        };
        if let Err(payload) = run(max_size) {
            let (size, payload) = minimal_failing_size(max_size, payload, run);
            eprintln!(
                "property failed at case {case} (seed {seed:#018x}), minimal failing size \
                 {size} of {max_size} (replay with cases_shrink_from({case}, 1, {size}, ..))"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// The smallest size in `1..=max_size` at which `run` fails, with that
/// failure's payload; falls back to (`max_size`, `original`) when only the
/// full size fails. Sizes are tried ascending, so the first hit is minimal.
fn minimal_failing_size<E>(
    max_size: u32,
    original: E,
    run: impl Fn(u32) -> Result<(), E>,
) -> (u32, E) {
    for size in 1..max_size {
        if let Err(payload) = run(size) {
            return (size, payload);
        }
    }
    (max_size, original)
}

/// A [`std::alloc::GlobalAlloc`] wrapper over the system allocator that
/// counts allocation calls, for asserting that a hot path is
/// allocation-free. Install it in a dedicated integration-test binary
/// with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ldl_testkit::CountingAlloc = ldl_testkit::CountingAlloc::new();
/// ```
///
/// then run the code under test inside [`CountingAlloc::measure`]. Only
/// the measuring thread's calls count, so the test harness allocating on
/// its own threads (spawning the next test, collecting a result) cannot
/// move a pin. Reallocations count as one call; frees count nothing.
pub struct CountingAlloc {
    /// The measuring thread (`pthread_self`), or 0 when none is.
    armed: AtomicUsize,
    allocs: AtomicU64,
}

extern "C" {
    // POSIX; reads the calling thread's handle without allocating, so it
    // is safe to call from inside the allocator.
    fn pthread_self() -> usize;
}

fn this_thread() -> usize {
    // SAFETY: `pthread_self` has no preconditions and cannot fail.
    unsafe { pthread_self() }
}

impl CountingAlloc {
    /// A disarmed counting allocator (usable as a `static` initializer).
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            armed: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    /// Run `f`, returning its result and the allocation calls the calling
    /// thread made while it ran. Measurements must not overlap.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        self.allocs.store(0, Ordering::Relaxed);
        self.armed.store(this_thread(), Ordering::Relaxed);
        let out = f();
        self.armed.store(0, Ordering::Relaxed);
        (out, self.allocs.load(Ordering::Relaxed))
    }

    fn count(&self) {
        if self.armed.load(Ordering::Relaxed) == this_thread() {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no effect on allocation behavior.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        self.count();
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        self.count();
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spread() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Different seeds diverge.
        let mut c = Rng::new(43);
        assert_ne!(xs[0], c.next_u64());
        // Ranges stay in bounds and hit both halves.
        let mut r = Rng::new(7);
        let vals: Vec<i64> = (0..200).map(|_| r.range(-5, 5)).collect();
        assert!(vals.iter().all(|&v| (-5..5).contains(&v)));
        assert!(vals.iter().any(|&v| v < 0) && vals.iter().any(|&v| v >= 0));
    }

    #[test]
    fn cases_run_distinct_streams() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let first = AtomicU64::new(0);
        let distinct = AtomicU64::new(0);
        cases(8, |rng| {
            let v = rng.next_u64();
            let prev = first.swap(v, Ordering::SeqCst);
            if prev != 0 && prev != v {
                distinct.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(distinct.load(Ordering::SeqCst) >= 6);
    }

    #[test]
    fn case_seeds_are_collision_free_and_decorrelated() {
        // No collisions over a realistic sweep of case numbers…
        let seeds: std::collections::HashSet<u64> = (0..4096).map(case_seed).collect();
        assert_eq!(seeds.len(), 4096);
        // …and adjacent cases produce unrelated streams, not shifted ones.
        for case in 0..64 {
            let a = Rng::new(case_seed(case)).next_u64();
            let b = Rng::new(case_seed(case + 1)).next_u64();
            assert_ne!(a, b, "cases {case} and {} share a stream", case + 1);
            // The old derivation mapped different cases to nearby seeds;
            // full avalanche means roughly half the bits differ.
            let hamming = (case_seed(case) ^ case_seed(case + 1)).count_ones();
            assert!(
                (8..=56).contains(&hamming),
                "seeds of cases {case}/{} differ in only {hamming} bits",
                case + 1
            );
        }
    }

    #[test]
    fn shrink_finds_minimal_failing_size() {
        // Failure iff size ≥ 5: the minimal reported size must be 5
        // regardless of the size the failure was first observed at.
        let run = |size: u32| if size >= 5 { Err(size) } else { Ok(()) };
        let (size, payload) = minimal_failing_size(12, 12, run);
        assert_eq!(size, 5);
        assert_eq!(payload, 5);
        // A failure only at the maximum size reports the maximum.
        let only_max = |size: u32| if size >= 9 { Err(size) } else { Ok(()) };
        let (size, _) = minimal_failing_size(9, 9, only_max);
        assert_eq!(size, 9);
    }

    #[test]
    fn cases_shrink_passes_when_property_holds() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ran = AtomicU64::new(0);
        cases_shrink(6, 10, |rng, size| {
            assert!(size >= 1);
            let v = rng.range(0, i64::from(size) + 1);
            assert!(v <= i64::from(size));
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn cases_shrink_reports_minimal_size() {
        // The property fails whenever size ≥ 3; shrinking must re-raise
        // from the size-3 run (payload is checked via the panic message).
        let result = std::panic::catch_unwind(|| {
            cases_shrink(1, 8, |_rng, size| {
                assert!(size < 3, "failed at size {size}");
            });
        });
        let payload = result.expect_err("property must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("failed at size 3"),
            "expected the minimal (size 3) failure, got: {msg}"
        );
    }
}
