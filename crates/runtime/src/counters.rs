//! CPU performance counters via `perf_event_open`, with graceful
//! degradation.
//!
//! The paper normalizes counters "by the total number of tuples scanned
//! by that query" (§3.4) to produce Table 1, Fig. 4 and Fig. 7. We open
//! one counter per hardware event for the calling thread; on kernels or
//! containers where perf is unavailable every event reads as `None` and
//! callers fall back to wall-clock/TSC cycles (documented in
//! EXPERIMENTS.md).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Minimal hand-rolled FFI to the platform C library (the workspace is
/// dependency-free, so no `libc` crate). Only the four calls the perf
/// wrapper needs; all are gated to Linux targets below.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    #![allow(non_upper_case_globals)]
    use std::ffi::{c_int, c_long, c_ulong, c_void};

    extern "C" {
        pub fn syscall(num: c_long, ...) -> c_long;
        pub fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }

    #[cfg(target_arch = "x86_64")]
    pub const SYS_perf_event_open: c_long = 298;
    #[cfg(target_arch = "aarch64")]
    pub const SYS_perf_event_open: c_long = 241;
}

const PERF_TYPE_HARDWARE: u32 = 0;
const PERF_TYPE_HW_CACHE: u32 = 3;

const PERF_COUNT_HW_CPU_CYCLES: u64 = 0;
const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
const PERF_COUNT_HW_CACHE_MISSES: u64 = 3; // LLC misses
const PERF_COUNT_HW_BRANCH_MISSES: u64 = 5;
const PERF_COUNT_HW_STALLED_CYCLES_BACKEND: u64 = 7;

// PERF_COUNT_HW_CACHE_L1D (0) | READ (0) << 8 | MISS (1) << 16
const L1D_READ_MISS: u64 = 1 << 16;

const PERF_EVENT_IOC_ENABLE: u64 = 0x2400;
const PERF_EVENT_IOC_DISABLE: u64 = 0x2401;
const PERF_EVENT_IOC_RESET: u64 = 0x2403;

/// `read()` on the group leader returns `[nr, value...]` for the whole
/// group in attach order — one syscall for all events, and the kernel
/// schedules the group atomically (all counting or none).
const PERF_FORMAT_GROUP: u64 = 1 << 3;
/// `ioctl` argument applying ENABLE/DISABLE/RESET to the whole group.
const PERF_IOC_FLAG_GROUP: u64 = 1;

/// Subset of `struct perf_event_attr` (PERF_ATTR_SIZE_VER5 layout);
/// trailing fields we never set are zero-initialized padding.
#[repr(C)]
#[derive(Default)]
struct PerfEventAttr {
    type_: u32,
    size: u32,
    config: u64,
    sample_period_or_freq: u64,
    sample_type: u64,
    read_format: u64,
    flags: u64,
    wakeup: u32,
    bp_type: u32,
    config1: u64,
    config2: u64,
    branch_sample_type: u64,
    sample_regs_user: u64,
    sample_stack_user: u32,
    clockid: i32,
    sample_regs_intr: u64,
    aux_watermark: u32,
    sample_max_stack: u16,
    reserved_2: u16,
}

const FLAG_DISABLED: u64 = 1 << 0;
const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
const FLAG_EXCLUDE_HV: u64 = 1 << 6;

struct Counter {
    fd: i32,
}

impl Counter {
    fn open(type_: u32, config: u64) -> Option<Counter> {
        Counter::open_in(type_, config, -1, 0, true)
    }

    /// Open an event, optionally attached to a group leader's fd and with
    /// an explicit `read_format`. Group siblings pass `disabled = false`
    /// so they count exactly while their (initially disabled) leader does.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn open_in(type_: u32, config: u64, group_fd: i32, read_format: u64, disabled: bool) -> Option<Counter> {
        let disabled_flag = if disabled { FLAG_DISABLED } else { 0 };
        let mut attr = PerfEventAttr {
            type_,
            size: std::mem::size_of::<PerfEventAttr>() as u32,
            config,
            read_format,
            flags: disabled_flag | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV,
            ..Default::default()
        };
        // SAFETY: attr is a properly sized, zero-padded perf_event_attr;
        // pid=0 (self), cpu=-1 (any), group_fd either -1 or a leader fd
        // we own, flags=0.
        let fd = unsafe {
            sys::syscall(
                sys::SYS_perf_event_open,
                &mut attr as *mut PerfEventAttr,
                0i32,
                -1i32,
                group_fd,
                0u64,
            )
        };
        if fd < 0 {
            return None;
        }
        Some(Counter { fd: fd as i32 })
    }

    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    fn open_in(
        _type: u32,
        _config: u64,
        _group_fd: i32,
        _read_format: u64,
        _disabled: bool,
    ) -> Option<Counter> {
        None
    }

    fn ioctl(&self, req: u64) {
        self.ioctl_arg(req, 0);
    }

    fn ioctl_arg(&self, req: u64, arg: u64) {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        // SAFETY: fd is a valid perf event fd owned by self.
        unsafe {
            sys::ioctl(self.fd, req, arg);
        }
        #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
        let _ = (req, arg);
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn read(&self) -> Option<u64> {
        let mut value: u64 = 0;
        // SAFETY: reading 8 bytes into a u64 from our own fd.
        let n = unsafe { sys::read(self.fd, &mut value as *mut u64 as *mut std::ffi::c_void, 8) };
        (n == 8).then_some(value)
    }

    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    fn read(&self) -> Option<u64> {
        None
    }

    /// Read up to `buf.len()` u64 words (the PERF_FORMAT_GROUP layout);
    /// returns the number of whole words read.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn read_words(&self, buf: &mut [u64]) -> Option<usize> {
        // SAFETY: reading at most size_of_val(buf) bytes into buf from
        // our own fd.
        let n = unsafe {
            sys::read(
                self.fd,
                buf.as_mut_ptr() as *mut std::ffi::c_void,
                std::mem::size_of_val(buf),
            )
        };
        (n > 0 && n % 8 == 0).then_some(n as usize / 8)
    }

    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    fn read_words(&self, _buf: &mut [u64]) -> Option<usize> {
        None
    }
}

impl Drop for Counter {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        // SAFETY: closing our own fd exactly once.
        unsafe {
            sys::close(self.fd);
        }
    }
}

/// Read the time-stamp counter (x86) or 0 elsewhere.
#[inline]
pub fn rdtsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` is always available on x86-64.
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

/// Estimated TSC ticks per nanosecond (calibrated once). Used to express
/// wall time in cycles when perf counters are unavailable.
pub fn tsc_per_ns() -> f64 {
    use std::sync::OnceLock;
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let t0 = Instant::now();
        let c0 = rdtsc();
        std::thread::sleep(Duration::from_millis(20));
        let c1 = rdtsc();
        let ns = t0.elapsed().as_nanos() as f64;
        if c1 > c0 && ns > 0.0 {
            (c1 - c0) as f64 / ns
        } else {
            1.0 // non-x86 fallback: treat 1 ns as 1 "cycle"
        }
    })
}

/// One measurement region's counter deltas. Missing events are `None`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CounterValues {
    pub wall: Duration,
    pub tsc_cycles: u64,
    pub cycles: Option<u64>,
    pub instructions: Option<u64>,
    pub l1d_miss: Option<u64>,
    pub llc_miss: Option<u64>,
    pub branch_miss: Option<u64>,
    pub stalled_backend: Option<u64>,
}

impl CounterValues {
    /// Core cycles: the perf counter when available, TSC delta otherwise.
    pub fn cycles_estimate(&self) -> u64 {
        self.cycles.unwrap_or(self.tsc_cycles)
    }

    /// Instructions per cycle, if both events were measured.
    pub fn ipc(&self) -> Option<f64> {
        match (self.instructions, self.cycles) {
            (Some(i), Some(c)) if c > 0 => Some(i as f64 / c as f64),
            _ => None,
        }
    }
}

/// A set of per-thread hardware counters bracketing a measurement region.
pub struct CounterSet {
    cycles: Option<Counter>,
    instructions: Option<Counter>,
    l1d_miss: Option<Counter>,
    llc_miss: Option<Counter>,
    branch_miss: Option<Counter>,
    stalled_backend: Option<Counter>,
    start_wall: Instant,
    start_tsc: u64,
}

impl CounterSet {
    /// Open, reset and enable all events that the kernel permits.
    pub fn start() -> CounterSet {
        let open_hw = |config| Counter::open(PERF_TYPE_HARDWARE, config);
        let set = CounterSet {
            cycles: open_hw(PERF_COUNT_HW_CPU_CYCLES),
            instructions: open_hw(PERF_COUNT_HW_INSTRUCTIONS),
            l1d_miss: Counter::open(PERF_TYPE_HW_CACHE, L1D_READ_MISS),
            llc_miss: open_hw(PERF_COUNT_HW_CACHE_MISSES),
            branch_miss: open_hw(PERF_COUNT_HW_BRANCH_MISSES),
            stalled_backend: open_hw(PERF_COUNT_HW_STALLED_CYCLES_BACKEND),
            start_wall: Instant::now(),
            start_tsc: rdtsc(),
        };
        for c in set.all() {
            c.ioctl(PERF_EVENT_IOC_RESET);
            c.ioctl(PERF_EVENT_IOC_ENABLE);
        }
        set
    }

    fn all(&self) -> impl Iterator<Item = &Counter> {
        [
            &self.cycles,
            &self.instructions,
            &self.l1d_miss,
            &self.llc_miss,
            &self.branch_miss,
            &self.stalled_backend,
        ]
        .into_iter()
        .flatten()
    }

    /// Disable and read all events.
    pub fn stop(self) -> CounterValues {
        let tsc_cycles = rdtsc().saturating_sub(self.start_tsc);
        let wall = self.start_wall.elapsed();
        for c in self.all() {
            c.ioctl(PERF_EVENT_IOC_DISABLE);
        }
        CounterValues {
            wall,
            tsc_cycles,
            cycles: self.cycles.as_ref().and_then(Counter::read),
            instructions: self.instructions.as_ref().and_then(Counter::read),
            l1d_miss: self.l1d_miss.as_ref().and_then(Counter::read),
            llc_miss: self.llc_miss.as_ref().and_then(Counter::read),
            branch_miss: self.branch_miss.as_ref().and_then(Counter::read),
            stalled_backend: self.stalled_backend.as_ref().and_then(Counter::read),
        }
    }

    /// Whether this process can read hardware counters at all.
    pub fn available() -> bool {
        Counter::open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES).is_some()
    }
}

/// Measure a closure, returning its result and the counter deltas.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, CounterValues) {
    let set = CounterSet::start();
    let out = f();
    (out, set.stop())
}

/// One atomic reading of a counter group. Unlike [`CounterValues`] the
/// fields are plain (a sibling the kernel refused simply stays 0), so
/// readings subtract cleanly into per-region deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupReading {
    pub cycles: u64,
    pub instructions: u64,
    pub llc_miss: u64,
    pub branch_miss: u64,
}

impl GroupReading {
    /// Counter deltas since `start` (saturating; group reads are
    /// monotone but a reading of 0 means "event absent").
    pub fn delta_since(&self, start: &GroupReading) -> GroupReading {
        GroupReading {
            cycles: self.cycles.saturating_sub(start.cycles),
            instructions: self.instructions.saturating_sub(start.instructions),
            llc_miss: self.llc_miss.saturating_sub(start.llc_miss),
            branch_miss: self.branch_miss.saturating_sub(start.branch_miss),
        }
    }

    /// Instructions per cycle, if both events counted.
    pub fn ipc(&self) -> Option<f64> {
        (self.cycles > 0 && self.instructions > 0).then(|| self.instructions as f64 / self.cycles as f64)
    }
}

/// Slot order of the events a [`CounterGroup`] tries to attach.
const GROUP_EVENTS: [(u32, u64); 4] = [
    (PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES), // leader
    (PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS),
    (PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES),
    (PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES),
];

/// A perf event *group* for the calling thread: cycles (leader) plus
/// instructions, LLC misses and branch misses, read atomically with one
/// `read()` via `PERF_FORMAT_GROUP`. The group counts continuously from
/// `open()`; callers bracket regions by subtracting two [`read`]s
/// ([`GroupReading::delta_since`]), which is what per-*stage*
/// attribution needs — no reset, so concurrent regions on the same
/// thread stay consistent.
///
/// [`read`]: CounterGroup::read
pub struct CounterGroup {
    /// Leader first; `slots[i]` is the [`GROUP_EVENTS`] index of the
    /// i-th value in the kernel's read layout (attach order).
    events: Vec<Counter>,
    slots: Vec<usize>,
}

impl CounterGroup {
    /// Open and enable the group; `None` when the leader cannot open
    /// (perf unavailable). Siblings that fail to open are skipped.
    pub fn open() -> Option<CounterGroup> {
        let (lt, lc) = GROUP_EVENTS[0];
        let leader = Counter::open_in(lt, lc, -1, PERF_FORMAT_GROUP, true)?;
        let leader_fd = leader.fd;
        let mut events = vec![leader];
        let mut slots = vec![0];
        for (slot, &(t, c)) in GROUP_EVENTS.iter().enumerate().skip(1) {
            if let Some(sib) = Counter::open_in(t, c, leader_fd, PERF_FORMAT_GROUP, false) {
                events.push(sib);
                slots.push(slot);
            }
        }
        let group = CounterGroup { events, slots };
        group.events[0].ioctl_arg(PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
        group.events[0].ioctl_arg(PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
        Some(group)
    }

    /// Events that actually attached (1 = leader only).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Never true: `open` fails instead of returning an empty group.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// One atomic reading of every attached event.
    pub fn read(&self) -> Option<GroupReading> {
        // PERF_FORMAT_GROUP layout: [nr, value0, value1, ...].
        let mut buf = [0u64; 1 + GROUP_EVENTS.len()];
        let words = self.events[0].read_words(&mut buf)?;
        let nr = buf[0] as usize;
        if nr != self.events.len() || words != 1 + nr {
            return None;
        }
        let mut reading = GroupReading::default();
        for (i, &slot) in self.slots.iter().enumerate() {
            let v = buf[1 + i];
            match slot {
                0 => reading.cycles = v,
                1 => reading.instructions = v,
                2 => reading.llc_miss = v,
                3 => reading.branch_miss = v,
                _ => {}
            }
        }
        Some(reading)
    }
}

impl Drop for CounterGroup {
    fn drop(&mut self) {
        self.events[0].ioctl_arg(PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
    }
}

std::thread_local! {
    /// One lazily-opened group per thread: opening perf fds per stage
    /// would dominate short stages, so each thread keeps its group for
    /// its lifetime and regions subtract readings.
    static THREAD_GROUP: std::cell::OnceCell<Option<CounterGroup>> =
        const { std::cell::OnceCell::new() };
}

/// Run `f` with the calling thread's counter group; `None` when perf is
/// unavailable (the group failed to open on first use).
pub fn with_thread_group<R>(f: impl FnOnce(&CounterGroup) -> R) -> Option<R> {
    THREAD_GROUP.with(|cell| cell.get_or_init(CounterGroup::open).as_ref().map(f))
}

/// Counter totals attributed to one stage. `samples` is the number of
/// guard regions folded in (0 means the stage ran without counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounterValues {
    pub cycles: u64,
    pub instructions: u64,
    pub llc_miss: u64,
    pub branch_miss: u64,
    pub samples: u64,
}

impl StageCounterValues {
    /// Instructions per cycle, if both events counted.
    pub fn ipc(&self) -> Option<f64> {
        (self.cycles > 0 && self.instructions > 0).then(|| self.instructions as f64 / self.cycles as f64)
    }
}

/// Per-stage hardware-counter accumulators for one query run: the
/// Table-1 attribution ("where do the cycles/misses go?") sliced by
/// pipeline stage instead of whole query. Thread-safe; each guard adds
/// its thread's group delta to its stage. Deltas cover exactly the
/// calling thread, so totals are exact for single-threaded runs and
/// per-thread attribution evidence otherwise.
pub struct StageCounters {
    stages: Vec<StageCells>,
}

#[derive(Default)]
struct StageCells {
    cycles: AtomicU64,
    instructions: AtomicU64,
    llc_miss: AtomicU64,
    branch_miss: AtomicU64,
    samples: AtomicU64,
}

impl StageCounters {
    pub fn new(stages: usize) -> StageCounters {
        StageCounters {
            stages: (0..stages).map(|_| StageCells::default()).collect(),
        }
    }

    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Begin a counted region attributed to `stage`; the returned guard
    /// folds the delta in when dropped. `None` (cheaply, after the first
    /// probe) when perf is unavailable or the index is out of range.
    pub fn start_stage(&self, stage: usize) -> Option<StageCounterGuard<'_>> {
        if stage >= self.stages.len() {
            return None;
        }
        let start = with_thread_group(CounterGroup::read)??;
        Some(StageCounterGuard {
            owner: self,
            stage,
            start,
        })
    }

    /// Fold a measured delta into `stage`'s totals.
    pub fn record(&self, stage: usize, delta: GroupReading) {
        if let Some(cells) = self.stages.get(stage) {
            // ORDERING: Relaxed — independent statistics counters; the
            // final snapshot happens after the run joins its workers.
            cells.cycles.fetch_add(delta.cycles, Ordering::Relaxed);
            cells
                .instructions
                .fetch_add(delta.instructions, Ordering::Relaxed);
            cells.llc_miss.fetch_add(delta.llc_miss, Ordering::Relaxed);
            cells.branch_miss.fetch_add(delta.branch_miss, Ordering::Relaxed);
            cells.samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current totals, one entry per stage.
    pub fn snapshot(&self) -> Vec<StageCounterValues> {
        self.stages
            .iter()
            .map(|c| StageCounterValues {
                // ORDERING: Relaxed — statistics reads (see `record`).
                cycles: c.cycles.load(Ordering::Relaxed),
                instructions: c.instructions.load(Ordering::Relaxed),
                llc_miss: c.llc_miss.load(Ordering::Relaxed),
                branch_miss: c.branch_miss.load(Ordering::Relaxed),
                samples: c.samples.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Sum over all stages (for whole-run cross-checks).
    pub fn total(&self) -> StageCounterValues {
        let mut t = StageCounterValues::default();
        for v in self.snapshot() {
            t.cycles += v.cycles;
            t.instructions += v.instructions;
            t.llc_miss += v.llc_miss;
            t.branch_miss += v.branch_miss;
            t.samples += v.samples;
        }
        t
    }
}

/// RAII region: reads the thread's group at construction and folds the
/// delta into the owning [`StageCounters`] on drop.
pub struct StageCounterGuard<'a> {
    owner: &'a StageCounters,
    stage: usize,
    start: GroupReading,
}

impl Drop for StageCounterGuard<'_> {
    fn drop(&mut self) {
        if let Some(Some(end)) = with_thread_group(CounterGroup::read) {
            self.owner.record(self.stage, end.delta_since(&self.start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_never_panics_and_tracks_wall_time() {
        let (sum, vals) = measure(|| {
            let mut s = 0u64;
            for i in 0..2_000_000u64 {
                s = s.wrapping_add(i * i);
            }
            std::hint::black_box(s)
        });
        assert_ne!(sum, 0);
        assert!(vals.wall > Duration::ZERO);
        // TSC must move forward on x86.
        #[cfg(target_arch = "x86_64")]
        assert!(vals.tsc_cycles > 0);
    }

    #[test]
    fn counters_plausible_when_available() {
        if !CounterSet::available() {
            eprintln!("perf counters unavailable; skipping plausibility check");
            return;
        }
        let (_, vals) = measure(|| {
            let mut s = 0u64;
            for i in 0..5_000_000u64 {
                s = s.wrapping_add(std::hint::black_box(i));
            }
            s
        });
        let instr = vals.instructions.expect("instructions counted");
        assert!(instr > 5_000_000, "loop must retire > 1 instr/iter, got {instr}");
        assert!(vals.ipc().expect("ipc") > 0.1);
    }

    #[test]
    fn tsc_rate_is_sane() {
        let r = tsc_per_ns();
        // Any real machine is between 0.5 and 6 GHz; fallback is 1.0.
        assert!((0.4..=7.0).contains(&r), "tsc rate {r}");
    }

    #[test]
    fn group_readings_are_monotone_when_available() {
        let Some(group) = CounterGroup::open() else {
            eprintln!("perf groups unavailable; skipping");
            return;
        };
        assert!(!group.is_empty());
        let a = group.read().expect("group read");
        let mut s = 0u64;
        for i in 0..2_000_000u64 {
            s = s.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(s);
        let b = group.read().expect("group read");
        let d = b.delta_since(&a);
        assert!(d.instructions > 1_000_000, "loop retires instructions, got {d:?}");
        assert!(b.cycles >= a.cycles, "cycles are monotone");
        assert!(d.ipc().expect("ipc") > 0.05);
    }

    #[test]
    fn delta_since_saturates() {
        let lo = GroupReading {
            cycles: 5,
            ..GroupReading::default()
        };
        let hi = GroupReading {
            cycles: 9,
            instructions: 2,
            ..GroupReading::default()
        };
        assert_eq!(hi.delta_since(&lo).cycles, 4);
        assert_eq!(lo.delta_since(&hi).cycles, 0);
        assert_eq!(GroupReading::default().ipc(), None);
    }

    #[test]
    fn stage_counters_accumulate_recorded_deltas() {
        let sc = StageCounters::new(2);
        assert_eq!(sc.stages(), 2);
        let d = GroupReading {
            cycles: 100,
            instructions: 250,
            llc_miss: 3,
            branch_miss: 1,
        };
        sc.record(0, d);
        sc.record(0, d);
        sc.record(1, d);
        sc.record(9, d); // out of range: ignored
        let snap = sc.snapshot();
        assert_eq!(snap[0].cycles, 200);
        assert_eq!(snap[0].samples, 2);
        assert_eq!(snap[1].instructions, 250);
        assert!((snap[1].ipc().unwrap() - 2.5).abs() < 1e-9);
        let total = sc.total();
        assert_eq!(total.cycles, 300);
        assert_eq!(total.samples, 3);
    }

    #[test]
    fn stage_guards_attribute_to_their_stage() {
        let sc = StageCounters::new(3);
        {
            let _g = sc.start_stage(1);
            let mut s = 0u64;
            for i in 0..1_000_000u64 {
                s = s.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(s);
        }
        assert!(sc.start_stage(7).is_none(), "out-of-range stage");
        let snap = sc.snapshot();
        if with_thread_group(|_| ()).is_none() {
            assert_eq!(snap[1].samples, 0, "no counters, no samples");
            return;
        }
        assert_eq!(snap[1].samples, 1);
        assert!(
            snap[1].instructions > 500_000,
            "stage 1 owns the loop: {:?}",
            snap[1]
        );
        assert_eq!(snap[0], StageCounterValues::default());
        assert_eq!(snap[2], StageCounterValues::default());
    }
}
