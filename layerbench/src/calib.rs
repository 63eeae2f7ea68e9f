//! Machine-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by as much as half
//! over minutes while staying steady over seconds: the same pairs decided
//! in 48 ms in one run took 78 ms a few minutes later. A fixed kernel that
//! calls nothing of the program under test is timed between measured calls
//! all through a run, and every time the harness reports is multiplied by
//! `REFERENCE_MS / mean kernel time`. The times then read as they would on
//! a host that runs the kernel in [`REFERENCE_MS`], and on the benchmark's
//! workloads the drift between runs shrinks from tens of percent to a few.
//! A change to the program cannot move the kernel, so it moves a scaled
//! time exactly as much as the raw one.

use std::time::Instant;

/// Values the kernel sorts and searches: 64 KiB, cache-resident.
const KERNEL_VALUES: usize = 1 << 13;
/// The kernel's time on the reference host, in milliseconds. It is close
/// to the kernel's time on the host the benchmark was tuned on, so scaled
/// times stay close to raw ones.
pub const REFERENCE_MS: f64 = 0.5;

/// Kernel timings collected over one run.
pub struct Calibration {
    /// One kernel buffer per thread the measured work keeps busy.
    buffers: Vec<Vec<u64>>,
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// A calibration for work that keeps `threads` threads busy, with no
    /// samples yet. The kernel's buffers are allocated here, so a sample
    /// allocates nothing but its threads.
    pub fn new(threads: usize) -> Calibration {
        let buffers = (0..threads.max(1)).map(|_| Vec::with_capacity(KERNEL_VALUES)).collect();
        Calibration { buffers, samples_ms: Vec::new() }
    }

    /// Times the kernel once on every thread at the same time, so that it
    /// shares the cores as the measured work does, and records the mean.
    pub fn sample(&mut self) {
        let threads = self.buffers.len() as f64;
        let total_ms = match self.buffers.as_mut_slice() {
            [only] => timed_kernel(only),
            [first, rest @ ..] => std::thread::scope(|scope| {
                let others: Vec<_> =
                    rest.iter_mut().map(|values| scope.spawn(|| timed_kernel(values))).collect();
                let own = timed_kernel(first);
                own + others
                    .into_iter()
                    .map(|h| h.join().expect("the kernel never panics"))
                    .sum::<f64>()
            }),
            [] => unreachable!("a calibration has at least one buffer"),
        };
        self.samples_ms.push(total_ms / threads);
    }

    /// Runs the kernel once untimed on every thread, so that the samples
    /// after it do not pay for the caches that the measured work left
    /// cold: after a stream segment, the first sample read up to five times
    /// the others.
    pub fn settle(&mut self) {
        let kept = self.samples_ms.len();
        self.sample();
        self.samples_ms.truncate(kept);
    }

    /// The factor that turns a raw time into a reference-host time (divide
    /// a rate by it). The kernel's times are bimodal on a shared host, as
    /// the core it runs on is shared or not from one moment to the next,
    /// and the program's long calls average over both states, so the
    /// kernel's mean is what tracks them; the mean is trimmed by a tenth at
    /// each end to drop preempted samples.
    pub fn scale(&self) -> f64 {
        let mut samples = self.samples_ms.clone();
        samples.sort_by(f64::total_cmp);
        let trim = samples.len() / 10;
        let kept = &samples[trim..samples.len() - trim];
        REFERENCE_MS * kept.len() as f64 / kept.iter().sum::<f64>()
    }
}

/// Runs the kernel once in `values` and returns its time in milliseconds.
fn timed_kernel(values: &mut Vec<u64>) -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel(values));
    start.elapsed().as_secs_f64() * 1e3
}

/// Sorts a fixed SplitMix64 sequence, then binary-searches it for a fixed
/// LCG sequence: branchy compares and dependent loads, with no allocation
/// and no system call.
fn kernel(values: &mut Vec<u64>) -> u64 {
    let mut state = 0x2019_0630_u64;
    values.clear();
    values.extend((0..KERNEL_VALUES).map(|_| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }));
    values.sort_unstable();
    let mut key = state;
    let mut found = 0u64;
    for _ in 0..KERNEL_VALUES {
        key = key.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let (Ok(rank) | Err(rank)) = values.binary_search(&key);
        found ^= rank as u64;
    }
    found
}
