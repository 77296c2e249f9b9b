//! Machine-speed calibration, one repetition at a time.
//!
//! The sandbox is a 2-vCPU microVM that alternates, for seconds to
//! minutes at a stretch, between a fast state and one some 35% slower in
//! which the same child also burns ~40% more user CPU (so it is the
//! processor that slows, not the child that waits): 200 back-to-back
//! `vtld study` runs read 0.44-0.47 s in one state and 0.60-0.64 s in
//! the other. Repetitions and medians inside a run cannot remove a state
//! that outlasts the run, so a frozen kernel is timed right before a
//! repetition and the timing is reported in *reference* seconds: each
//! repetition's time x ([`REFERENCE_S`] / the kernel time taken just
//! before it), then the median over repetitions.
//!
//! Only the timings for which the same runs show a narrower ten-seed
//! spread are scaled (BASELINE.json has the numbers): batch children and
//! their set-ups, `--recover` restarts and the `serve_query` rate. Live
//! ingest, the alert push lag (a 20 ms timer), the 15 us round trip of
//! `serve_query` (thread wake-ups) and the 10 ms daemon boot are not: the
//! kernel does not track them. Raw readings of everything stay available
//! under the issue's metric names.
//!
//! The kernel is integer mixing, a sort and a burst of small
//! allocations, on both vCPUs at once. That blend was picked by timing
//! candidate parts between 300 `vtld study` runs while the box drifted:
//! it tracked the study with correlation 0.90; a dependent random walk
//! over 8 MB tracked worst (0.46) and was dropped. It lives in the
//! benchmark, which a change that claims a gain may not edit.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{median, mix64 as mix};

/// Kernel time on the box the baseline was recorded on, in its fast
/// state; only fixes the unit.
pub const REFERENCE_S: f64 = 0.020;

/// Load applied before a run's first kernel timing.
const WARM_UP: Duration = Duration::from_millis(750);

const WORDS: usize = 1 << 20;
const MIX_PASSES: u64 = 3;
const SMALL_VECS: u64 = 60_000;

pub struct Calibrator {
    bufs: [Vec<u64>; 2],
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            bufs: [vec![0; WORDS], vec![0; WORDS]],
            samples: Vec::new(),
        }
    }
}

fn kernel(buf: &mut [u64]) {
    for pass in 0..MIX_PASSES {
        for (i, word) in buf.iter_mut().enumerate() {
            *word = mix(i as u64 ^ pass);
        }
    }
    buf[..WORDS / 4].sort_unstable();
    let small: Vec<Vec<u64>> = (0..SMALL_VECS)
        .map(|i| vec![mix(i); (i % 13 + 1) as usize])
        .collect();
    black_box((buf.first(), small));
}

impl Calibrator {
    /// Times the kernel twice, after one untimed pass that leaves both
    /// vCPUs awake whatever ran before (after an idle moment or a
    /// single-threaded child the kernel reads up to a quarter slower),
    /// and returns the multiplier from measured to reference seconds for
    /// whatever is timed next.
    ///
    /// The first call keeps both vCPUs busy for [`WARM_UP`] beforehand:
    /// after an idle stretch this box needs about half a second of load
    /// to reach full speed (the kernel reads 30 ms, then 16), and a run
    /// starts idle.
    pub fn factor_now(&mut self) -> f64 {
        if self.samples.is_empty() {
            let started = Instant::now();
            while started.elapsed() < WARM_UP {
                self.time_kernel();
            }
        }
        self.time_kernel();
        let timings = [self.time_kernel(), self.time_kernel()];
        self.samples.extend(timings);
        REFERENCE_S / ((timings[0] + timings[1]) / 2.0)
    }

    /// One pass of the kernel on two threads at a time: every workload
    /// keeps both vCPUs busy, and a busy sibling is what slows them.
    fn time_kernel(&mut self) -> f64 {
        let started = Instant::now();
        let [a, b] = &mut self.bufs;
        std::thread::scope(|scope| {
            scope.spawn(|| kernel(a));
            kernel(b);
        });
        started.elapsed().as_secs_f64()
    }

    /// Median kernel time of the run, for the record.
    pub fn kernel_s(&self) -> f64 {
        median(&self.samples)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}
