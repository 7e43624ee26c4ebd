//! The host-speed reference.
//!
//! On the shared 2-core VM this benchmark runs on, identical work takes
//! 10 to 30 % longer for minutes at a time (measured: a fixed loop of
//! replays, batches and simulator cells drifted together, CPU time rising
//! with wall time, no steal). Medians over a run's repetitions remove
//! spikes but not that drift, so a run also times this fixed kernel
//! between repetitions and divides its timing metrics by how much slower
//! than nominal the kernel ran. In the same measurement the quartile
//! spread of 5-repetition medians fell from 7-9 % to 2-4 %.
//!
//! The kernel is the benchmark's own code and touches nothing of the
//! program: a sort, an ordered-map build and probe, and a float sweep,
//! the three kinds of work the placer and the estimator do.

use crate::sys::now_ns;
use std::collections::BTreeMap;

/// What the kernel takes on the calibration machine when it is quiet
/// (`CALIBRATION.md`). Timing metrics are reported at this speed.
pub const NOMINAL_S: f64 = 0.100;

/// Run the kernel once; returns its wall seconds. It keeps under 1 MB
/// live, so it does not move the process's peak memory.
pub fn kernel() -> f64 {
    let start = now_ns();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut keys = vec![0u64; 32_768];
    let mut picked = 0u64;
    for _ in 0..36 {
        keys.iter_mut().for_each(|k| *k = next());
        keys.sort_unstable();
        picked ^= keys[keys.len() / 2];
    }

    let mut found = 0.0;
    for _ in 0..24 {
        let mut map: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, &k) in keys.iter().step_by(4).enumerate() {
            map.insert(k.rotate_left(17), i as f64);
        }
        for &k in keys.iter().step_by(4) {
            found += map.get(&k.rotate_left(17)).copied().unwrap_or(0.0);
        }
        keys.rotate_left(1);
    }

    let mut residual: Vec<f64> = (0..4096).map(|i| 100.0 + (i % 7) as f64).collect();
    let mut filled = 0.0;
    for round in 0..6000 {
        let level = residual.iter().copied().fold(f64::INFINITY, f64::min);
        for (i, r) in residual.iter_mut().enumerate() {
            *r -= level * 0.001 * ((i + round) % 3) as f64;
        }
        filled += level;
    }
    std::hint::black_box((picked, found, filled));
    (now_ns() - start) as f64 / 1e9
}
