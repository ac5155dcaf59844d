//! Where the threads of a serve workload run, and the three Linux calls
//! that put them there. Every `unsafe` block of the benchmark is in this
//! file; each changes a scheduling attribute of a thread and no memory.
//! Elsewhere than on Linux nothing is pinned and nothing polls.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// Lets the calling thread's sleeps end when they are due. Linux may fire
/// a thread's timers up to its *timer slack* (50 µs by default) late, to
/// batch them with other timers; how late depends on how this thread's
/// schedule happens to line up with every other timer in the system, so a
/// whole run's queries left 30 µs late or 80 µs late — charged to the tier
/// as latency, since replies are timed from the due time. (Spinning up to
/// the due time instead starves the tier's connection threads of a core:
/// query p95 rose from 0.3 to 0.4–1.7 ms.) Threads spawned from this one
/// inherit the setting, so call it after the tier has started.
pub fn precise_sleeps() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        // SAFETY: `prctl(PR_SET_TIMERSLACK, nanoseconds)` reads its two
        // integer arguments and changes only a scheduling attribute of the
        // calling thread; it touches no memory of this program.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    }
}

/// Which CPUs the threads of a serve workload run on.
///
/// Left to the scheduler, where the monolith's one detection thread runs
/// decides the query latency of the whole run. On the CPU of the query
/// handler it makes every reply wait for a time slice; on the other CPU
/// every reply has to wake a vCPU that halted 2 ms ago, which costs what the
/// *host* happens to be doing (30 µs or 80 µs). Either case lasts for
/// seconds, and two runs of one seed differ (median reply 40 µs or 70 µs;
/// the driver's ten runs spread 55 % around their median). So the benchmark
/// places the threads itself:
///
/// * `detection` — one CPU per detection worker, counted from the first.
///   The tier is started from a thread confined to them, so every thread it
///   ever starts inherits them; with several workers, each is then given a
///   CPU of its own.
/// * `ingest` — the first CPU: the ingest thread and the tier's handler
///   thread of its connection. Their 200 `Status` polls a second otherwise
///   collide with one query in twenty, which is where p95 sits.
/// * `query` — the last CPU: the query thread, the tier's handler thread of
///   its connection, and an idle poller (`idle_poll`). A query and its
///   reply change hands on one CPU that is awake; no vCPU has to be woken.
///
/// On this 2-CPU box the monolith detects on CPU 0 and answers on CPU 1;
/// the 2-shard router has a worker for each CPU, so its second worker shares
/// CPU 1 with the query side. The handler threads are found as the threads
/// that appear with a connection, the workers as the tier's threads the
/// preload kept busiest; nothing depends on what the tier calls them. With
/// one CPU everything shares it, and where `/proc` or the calls are missing
/// nothing is pinned.
pub struct Placement {
    pub all: Vec<usize>,
    pub detection: Vec<usize>,
    pub ingest: Vec<usize>,
    pub query: Vec<usize>,
}

impl Placement {
    pub fn new(detection_workers: usize) -> Self {
        let all = allowed_cpus();
        let detection = all.iter().copied().take(detection_workers.max(1)).collect();
        let ingest = all.first().map_or(Vec::new(), |&c| vec![c]);
        let query = all.last().map_or(Vec::new(), |&c| vec![c]);
        Self {
            all,
            detection,
            ingest,
            query,
        }
    }
}

/// Restricts thread `tid` of this process (0: the calling thread) to
/// `cpus`; `false` if that is empty or the kernel refuses.
pub fn set_affinity(tid: i32, cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_ulong};
        extern "C" {
            fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
        }
        let bits = c_ulong::BITS as usize;
        let mut mask = [0 as c_ulong; 16];
        if cpus.is_empty() || cpus.iter().any(|&c| c >= mask.len() * bits) {
            return false;
        }
        for &c in cpus {
            mask[c / bits] |= 1 << (c % bits);
        }
        // SAFETY: the call reads `size` bytes of the live `mask` and changes
        // only which CPUs one thread of this process may run on.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (tid, cpus);
        false
    }
}

/// Spins on the calling thread's CPUs at `SCHED_IDLE` until `stop`; returns
/// at once, with `false`, if the kernel refuses the policy.
///
/// The query CPU is busy for 40 µs in every 2 ms. Left alone it halts in
/// between and the host takes the core away, so a query starts on a core
/// with cold caches, or does not: median reply 48 µs or 56 µs, for seconds
/// at a time, as the host pleases. A `SCHED_IDLE` thread runs only while
/// nothing else wants the CPU and is preempted the moment anything does, so
/// it takes no time from the tier or the generator; it just keeps the vCPU
/// running, as booting with `idle=poll` would. It needs every other thread
/// on its CPU to be pinned there: the load balancer does not move work to a
/// CPU that runs a `SCHED_IDLE` thread, and unpinned shard workers ended up
/// sharing the other CPU (lag 310 → 520 ms).
pub fn idle_poll(stop: &AtomicBool) -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::c_int;
        extern "C" {
            fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
        }
        const SCHED_IDLE: c_int = 5;
        // `struct sched_param` is one int, the priority; SCHED_IDLE takes 0.
        let priority: c_int = 0;
        // SAFETY: the call reads its integer arguments and the live
        // `priority` and changes only the calling thread's (pid 0) policy.
        if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
            return false;
        }
        while !stop.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
        true
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = stop;
        false
    }
}

/// The ids of this process's threads; empty where `/proc` has none.
pub fn thread_ids() -> BTreeSet<i32> {
    std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// CPU time thread `tid` of this process has used, in clock ticks.
pub fn cpu_ticks(tid: i32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap_or_default();
    // The fields after the parenthesised name: state is the first, utime
    // and stime the twelfth and thirteenth.
    let fields = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    fields
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum()
}

/// The CPUs this process may run on, from `Cpus_allowed_list` (`0-1`,
/// `0,2-3`); empty where `/proc` has none.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            Some(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}
