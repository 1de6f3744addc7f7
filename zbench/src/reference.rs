//! Reference-core time: host time rescaled by how fast the core runs a
//! fixed reference kernel at the same moment.
//!
//! On a shared host the speed of one core for branchy, allocation-heavy
//! code drifts by 10–30% from one tenth of a second to the next, and
//! between processes, with whatever else runs on the machine, while a pure
//! arithmetic loop barely moves. A step op (`simulate_step`) is code of the
//! first kind. So the step loops run one unit of a fixed kernel of the same
//! kind — a binary heap, a B-tree map, a hash map and small vectors, built
//! and dropped — between every two ops, and rescale each op's host time by
//! the kernel's nominal time over its time measured next to that op. The
//! result reads as the time the op would take on a core that runs the
//! kernel in [`NOMINAL_MS`].
//!
//! The kernel is part of the benchmark's definition: changing it, or
//! [`NOMINAL_MS`], changes every step figure.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::stats::median;

/// Host ms of one timed unit on the host the benchmark was tuned on, in
/// its fast state (see `zbench/README.md`), so reference-core times read
/// about as that host's fastest host times.
pub const NOMINAL_MS: f64 = 0.32;
/// Iterations of the timed unit.
const UNIT: usize = 1500;
/// Iterations of the untimed unit run just before it, which brings the
/// kernel's code and allocator paths back into cache after an op, so the
/// timed unit measures the core and not what the op left behind.
const WARM_UP: usize = 500;
/// Half-width of the window of samples whose median rescales an op. The
/// host's state changes within a tenth of a second, so the window is
/// narrow: the five samples nearest the op (the one just before it, the
/// one just after it, and their neighbours), which damps the noise of a
/// single sample.
const WINDOW: usize = 2;

/// One unit of the reference kernel: `n` steps of a tiny event loop.
fn unit(n: usize) -> u64 {
    let mut heap = BinaryHeap::new();
    let mut lists: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    // A fixed-key hasher: with the default per-process random keys, the
    // kernel's probe sequences, and so its time, would differ by process.
    let mut counts: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(x % 100_000));
        if heap.len() > 256 {
            acc += heap.pop().map_or(0, |r| r.0);
        }
        lists.entry(x % 512).or_default().push(i as u32);
        if i % 3 == 0 {
            if let Some((_, v)) = lists.pop_first() {
                acc += v.len() as u64;
            }
        }
        *counts.entry(x % 1024).or_insert(0.0) += 1.0;
    }
    acc + counts.len() as u64
}

/// Reference samples taken in loop order.
#[derive(Default)]
pub struct Reference {
    ms: Vec<f64>,
}

impl Reference {
    /// Runs one warm-up unit and one timed unit, and records the timed
    /// one's host ms.
    pub fn sample(&mut self) {
        std::hint::black_box(unit(WARM_UP));
        let t0 = Instant::now();
        std::hint::black_box(unit(UNIT));
        self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Per sample, [`NOMINAL_MS`] over the median reference time of the
    /// samples within [`WINDOW`] of it: the factor that turns a host time
    /// measured next to that sample into reference-core time.
    pub fn factors(&self) -> Vec<f64> {
        let n = self.ms.len();
        (0..n)
            .map(|k| {
                let lo = k.saturating_sub(WINDOW);
                let hi = (k + WINDOW + 1).min(n);
                NOMINAL_MS / median(&self.ms[lo..hi])
            })
            .collect()
    }

    /// Median host ms of one timed unit.
    pub fn median_ms(&self) -> f64 {
        median(&self.ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_follow_the_local_median() {
        let mut ms = vec![NOMINAL_MS; 40];
        ms.extend(vec![2.0 * NOMINAL_MS; 40]);
        let f = Reference { ms }.factors();
        assert_eq!(f.len(), 80);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[79], 0.5);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(unit(UNIT), unit(UNIT));
    }
}
