//! The reference kernel: a fixed piece of benchmark-owned work whose
//! wall time tracks how fast the host is running right now.
//!
//! On a shared machine the same deterministic request can take 1.5–2×
//! longer for seconds at a time (measured: one 200k-job simulation
//! took 37–85 ms within a single run on a 2-vCPU 2.1 GHz Xeon VM,
//! with under 1% steal time). The benchmark runs this kernel between
//! timed intervals and scales each interval by `REFERENCE_MS` over the
//! mean kernel time just before and just after it, so the figures it
//! reports are host times at a fixed reference speed: a slow spell
//! slows both and cancels, while a change to the library moves only
//! the request.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's nominal wall time, ms: a round figure within the
/// 3.7–4.3 ms median it shows, run to run, on the 2-vCPU 2.1 GHz Xeon
/// VM the benchmark was tuned on. Scaled figures are "milliseconds at
/// that speed".
pub const REFERENCE_MS: f64 = 4.0;

/// Elements the kernel sorts and buckets (1 MiB of `u64`).
const ELEMENTS: u64 = 1 << 17;

/// Run the kernel once and return its wall time in milliseconds:
/// generate pseudo-random words, sort them, then fold them into a
/// hash map — branchy, allocating, cache-missing work like the
/// library's own.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x5EED_u64;
    let mut words: Vec<u64> = (0..ELEMENTS)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        })
        .collect();
    words.sort_unstable();
    let mut buckets: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, w) in words.iter().enumerate().step_by(4) {
        *buckets.entry(w % 4099).or_insert(0) += i as u64;
    }
    black_box(&buckets);
    start.elapsed().as_secs_f64() * 1e3
}

/// The factor that turns a wall time measured while the kernel took
/// `kernel_ms` into a time at reference speed.
pub fn scale(kernel_ms: f64) -> f64 {
    REFERENCE_MS / kernel_ms
}
