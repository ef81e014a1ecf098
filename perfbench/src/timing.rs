//! Timed repetitions on a shared virtual machine.
//!
//! On a VM whose host runs other guests, the hypervisor takes this
//! machine's CPUs away ("steal"), on the 2-vCPU reference host for a
//! quarter to a third of its capacity during spells of several minutes.
//! Wall time then moves 2× between runs of the same code. The guest
//! kernel does not charge stolen time to a process
//! (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), so the process's CPU time —
//! summed over all its threads, the parallel helpers included — stays
//! close to the work the program did. Throughput and set-up are
//! therefore rated per CPU-second, as the median over many short
//! repetitions spread across the run; wall times are reported beside
//! them.

use crate::stats::{host_cores, median};
use std::time::{Duration, Instant};

/// `/proc/stat` counts in clock ticks of 1/100 s on Linux.
const TICKS_PER_S: f64 = 100.0;
/// Timed repetitions made per run at the least, however short
/// `--seconds` is: the digest check needs two.
const MIN_PASSES: usize = 2;
/// Set-up is repeated at least this often and for at least
/// `SETUP_BUDGET` when a run starts.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Clock ticks the hypervisor has stolen from this machine, summed over
/// all CPUs, or `None` where `/proc/stat` does not report them.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines()
        .find(|l| l.starts_with("cpu "))?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

/// CPU time used so far by every thread of this process, live or ended,
/// in seconds; 0 where the clock cannot be read.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` for the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return 0.0;
    }
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// One timed repetition.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall: f64,
    /// CPU seconds the process used during the repetition.
    pub cpu: f64,
    /// Share of the repetition's CPU capacity (wall × cores) stolen by
    /// the hypervisor; `None` where that is not reported.
    pub steal_share: Option<f64>,
}

/// Runs `f` and times it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let before = steal_ticks();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    let steal_share = before.zip(steal_ticks()).map(|(a, b)| {
        b.saturating_sub(a) as f64 / TICKS_PER_S / (wall * host_cores() as f64).max(1e-9)
    });
    (
        out,
        Sample {
            wall,
            cpu,
            steal_share,
        },
    )
}

/// Median CPU seconds of the repetitions.
pub fn median_cpu(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(|s| s.cpu).collect::<Vec<_>>())
}

/// Median wall seconds of the repetitions.
pub fn median_wall(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(|s| s.wall).collect::<Vec<_>>())
}

/// Whether to start another timed repetition: always until
/// `MIN_PASSES`, then while one more (as long as the last) still ends
/// within the `--seconds` budget.
pub fn another_pass(samples: &[Sample], started: Instant, budget: Duration) -> bool {
    match samples.last() {
        Some(last) if samples.len() >= MIN_PASSES => {
            started.elapsed().as_secs_f64() + last.wall <= budget.as_secs_f64()
        }
        _ => true,
    }
}

/// Share of the repetitions' CPU capacity the hypervisor stole, in %.
pub fn steal_pct(samples: &[Sample]) -> f64 {
    let (stolen, wall) = samples.iter().fold((0.0, 0.0), |(st, w), s| {
        (st + s.steal_share.unwrap_or(0.0) * s.wall, w + s.wall)
    });
    100.0 * stolen / wall.max(1e-9)
}

/// Prints every repetition as `wall/cpu` seconds.
pub fn print_samples(what: &str, samples: &[Sample]) {
    let w: Vec<String> = samples
        .iter()
        .map(|s| format!("{:.4}/{:.4}", s.wall, s.cpu))
        .collect();
    println!("# {what} wall/cpu (s): {}", w.join(" "));
}

/// The workload's set-up, timed `SETUP_REPS` times and for
/// `SETUP_BUDGET` when a run starts, and once more before every timed
/// repetition, so the samples span the run as the repetitions do.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<Sample>);

impl SetupTimes {
    /// Runs `f` once and records its times.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, sample) = timed(f);
        self.0.push(sample);
        out
    }

    /// Runs `f` at least `SETUP_REPS` times and for at least
    /// `SETUP_BUDGET`; returns the last result.
    pub fn repeat<T>(&mut self, mut f: impl FnMut() -> T) -> T {
        let started = Instant::now();
        let mut reps = 0;
        loop {
            let out = self.time(&mut f);
            reps += 1;
            if reps >= SETUP_REPS && started.elapsed() >= SETUP_BUDGET {
                return out;
            }
        }
    }

    /// Median CPU seconds of one set-up.
    pub fn median_cpu(&self) -> f64 {
        median_cpu(&self.0)
    }

    pub fn print(&self, what: &str) {
        print_samples(&format!("{what} set-up"), &self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_are_rated_by_their_medians() {
        let s = |wall, cpu| Sample {
            wall,
            cpu,
            steal_share: None,
        };
        let xs = [s(2.0, 3.0), s(9.0, 1.0), s(1.0, 2.0)];
        assert_eq!((median_wall(&xs), median_cpu(&xs)), (2.0, 2.0));
        let t0 = Instant::now();
        let budget = Duration::from_secs(3600);
        assert!(another_pass(&[], t0, budget));
        assert!(another_pass(&[s(1e6, 0.0)], t0, budget));
        assert!(!another_pass(&[s(1e6, 0.0), s(1e6, 0.0)], t0, budget));
        assert!(another_pass(&[s(1.0, 0.0), s(1.0, 0.0)], t0, budget));
    }

    #[test]
    fn the_process_cpu_clock_runs() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s() > a, "{x}");
    }
}
