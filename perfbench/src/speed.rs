//! Host time corrected for the core's momentary speed.
//!
//! On a shared virtual machine the same work takes from 1x to 1.5x as
//! long from one second to the next, because other tenants contend for
//! the physical core behind the virtual CPU (a hyperthread sibling, the
//! core's caches). A plain wall-clock median then moves by a third
//! between two sets of runs of identical code.
//!
//! So every thread of a run shares one CPU ([`pin_to_one_cpu`]) with a
//! sampler thread ([`SpeedSampler`]) that runs a fixed reference kernel
//! every [`SAMPLE_PERIOD`] and records how much longer than nominal it
//! took, in its own CPU time. Each timed unit of work is divided by the
//! mean slowdown sampled while it ran ([`SpeedClock`]). The result is
//! still milliseconds: the time the unit would have taken with the core
//! at the speed where the kernel takes [`REF_NOMINAL_MS`].
//!
//! The kernel mixes the two kinds of work the simulator's host time is
//! made of and that contention slows: independent integer chains that
//! need the core's execution ports, and a branchy sort over a buffer
//! that lives in the L2 cache. A dependent multiply chain alone runs at
//! full speed while the simulator runs a third slower, so it would not
//! do.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The kernel's CPU time on an unloaded core of the machine the bounds
/// were measured on, a 2-vCPU Intel Xeon virtual machine: the fastest 1%
/// of 2 700 runs took 1.12–1.16 ms, the median 1.6 ms. Comparisons
/// between runs on one machine do not depend on the value.
pub const REF_NOMINAL_MS: f64 = 1.15;

/// Keys the kernel sorts: 192 KiB, more than L1, well inside L2.
const KERNEL_KEYS: usize = 48 * 1024;
/// Rounds of the kernel's four independent integer chains.
const KERNEL_ROUNDS: u64 = 200_000;

/// The reference kernel. Its work does not depend on anything outside
/// this function.
fn kernel() -> u64 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut keys: Vec<u32> = (0..KERNEL_KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    keys.sort_unstable();
    let (mut a, mut b, mut c, mut d) = (x, 2u64, 3u64, 4u64);
    for i in 0..black_box(KERNEL_ROUNDS) {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.rotate_left(5) ^ i;
        c = c.wrapping_add(a >> 3);
        d = d.wrapping_sub(b) ^ c;
    }
    u64::from(keys[keys.len() / 2]) ^ a ^ b ^ c ^ d
}

/// CPU time of the calling thread, nanoseconds.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid timespec for the call to fill in.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Run the kernel once: how much slower than nominal the core runs
/// right now (1.0 at nominal speed). The kernel is timed in this
/// thread's CPU time, so time it spends preempted does not count.
fn slowdown() -> f64 {
    let t0 = thread_cpu_ns();
    black_box(kernel());
    (thread_cpu_ns() - t0) as f64 / 1e6 / REF_NOMINAL_MS
}

/// Time between two runs of the kernel on the sampler thread.
const SAMPLE_PERIOD: Duration = Duration::from_millis(20);

/// A thread that runs the kernel every `SAMPLE_PERIOD` on the CPU of
/// the thread that started it (see [`pin_to_one_cpu`]), recording when
/// and how much slower than nominal. It stops when finished or dropped.
pub struct SpeedSampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<(Instant, f64)>>>,
}

impl SpeedSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                thread::sleep(SAMPLE_PERIOD);
                samples.push((Instant::now(), slowdown()));
            }
            samples
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the sampler and return what it saw.
    pub fn finish(mut self) -> Result<SpeedTrace, String> {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self
            .thread
            .take()
            .expect("joined only here or on drop")
            .join()
            .map_err(|_| "speed sampler panicked".to_string())?;
        if samples.is_empty() {
            return Err("the speed sampler took no sample".into());
        }
        Ok(SpeedTrace(samples))
    }
}

impl Drop for SpeedSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The sampler's record: when each sample started, and the slowdown.
pub struct SpeedTrace(Vec<(Instant, f64)>);

impl SpeedTrace {
    /// Mean slowdown over the samples that started within one sample
    /// period of `[t0, t1]`, or the nearest sample when none did.
    pub fn slowdown(&self, t0: Instant, t1: Instant) -> f64 {
        let (lo, hi) = (t0 - SAMPLE_PERIOD, t1 + SAMPLE_PERIOD);
        let within: Vec<f64> = self
            .0
            .iter()
            .filter(|(at, _)| (lo..=hi).contains(at))
            .map(|&(_, s)| s)
            .collect();
        if within.is_empty() {
            let gap = |at: Instant| at.max(t0) - at.min(t0);
            let nearest = self.0.iter().min_by_key(|(at, _)| gap(*at));
            return nearest.expect("a trace has samples").1;
        }
        within.iter().sum::<f64>() / within.len() as f64
    }

    /// Median slowdown over the whole run.
    pub fn median(&self) -> f64 {
        crate::median(&self.0.iter().map(|&(_, s)| s).collect::<Vec<_>>())
    }
}

/// Units of work, timed: wall-clock and, given the run's speed trace,
/// speed-corrected milliseconds.
#[derive(Debug, Default, Clone)]
pub struct SpeedClock {
    units: Vec<(Instant, Instant)>,
}

impl SpeedClock {
    /// Time `work` as one unit.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = black_box(work());
        self.add(t0, Instant::now());
        out
    }

    /// Book a unit that ran from `t0` to `t1`.
    pub fn add(&mut self, t0: Instant, t1: Instant) {
        self.units.push((t0, t1));
    }

    /// Each unit's wall-clock milliseconds.
    pub fn raw(&self) -> Vec<f64> {
        self.units.iter().map(|&(t0, t1)| ms(t1 - t0)).collect()
    }

    /// Each unit's wall-clock milliseconds divided by the slowdown
    /// sampled while it ran.
    pub fn corrected(&self, speed: &SpeedTrace) -> Vec<f64> {
        self.units
            .iter()
            .map(|&(t0, t1)| ms(t1 - t0) / speed.slowdown(t0, t1))
            .collect()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Pin the calling thread, and every thread it starts afterwards, to
/// the first CPU it may run on, so that work on several threads and the
/// kernel that corrects it share one core. Returns the CPU. Linux only,
/// like the rest of the benchmark.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // A cpu_set_t of 1024 CPUs, as glibc lays it out.
    const MASK_BYTES: usize = 128;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is MASK_BYTES long and pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..MASK_BYTES * 8)
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u8; MASK_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}
