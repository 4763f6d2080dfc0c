//! A work-stealing task pool for the engine's map and reduce phases.
//!
//! The old engine popped tasks off one shared `Mutex<Vec<_>>`; every pop
//! serialized all workers on a single lock, and a worker finishing early had
//! no way to relieve a loaded one beyond racing for the next pop. This pool
//! gives each worker its own deque, seeded with a contiguous chunk of the
//! task list; a worker drains its own deque from the front and, when empty,
//! steals the back half of a victim's deque — the classic Cilk/Chase-Lev
//! shape, built here on `std::thread::scope` and plain `Mutex<VecDeque>`
//! (contention is per-victim and steals are rare, so the simple lock is
//! cheaper than an atomic deque would be to maintain).
//!
//! ## Determinism
//!
//! Task execution *order* is racy by design, but the pool's results are
//! returned sorted by task index, and the engine only ever derives output
//! from per-task results in index order — so data order is identical at any
//! worker count, with any steal interleaving.
//!
//! ## Busy-time accounting
//!
//! Each worker accumulates the CPU time (thread CPU clock, not wall time)
//! it spends *inside* task bodies into [`PoolStats::busy_ns`]. On an
//! undersubscribed machine the per-worker maximum ("busy makespan")
//! approximates the phase's parallel wall time; on an oversubscribed or
//! timeshared machine it still measures how evenly the pool spread the
//! work, which is what the scaling benchmark reports (see
//! `crates/bench/benches/scale.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What one pool invocation observed about itself.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Per-worker CPU nanoseconds spent inside task bodies: one entry per
    /// requested worker, zero for a worker the phase gave no thread.
    pub busy_ns: Vec<u64>,
    /// Tasks moved between worker deques by steals.
    pub steals: u64,
}

impl PoolStats {
    /// The busiest worker's CPU time — the phase's critical path under
    /// perfect parallelism.
    pub fn makespan_ns(&self) -> u64 {
        self.busy_ns.iter().copied().max().unwrap_or(0)
    }

    /// Total CPU time across all workers — what a serial run would take.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// Current thread's CPU clock in nanoseconds (Linux
/// `CLOCK_THREAD_CPUTIME_ID`). Unlike wall time, this is immune to
/// timeslicing: on a 1-core machine running 4 workers, each worker's wall
/// time covers all four, but its CPU clock only advances while it runs.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: clock_gettime writes one Timespec; the layout above matches
    // the 64-bit Linux ABI struct timespec (two 64-bit fields), and std
    // already links libc.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Fallback for non-Linux hosts: a process-wide monotonic clock. Busy times
/// then include timeslicing noise, but every consumer of these numbers
/// treats them as measurements, never as part of the determinism contract.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `tasks` across `workers` work-stealing threads and return each
/// task's result, sorted by task index, plus the pool's stats.
///
/// `f` is called as `f(task_index, task)`. Results are independent of
/// worker count and scheduling: the output vector is always in task order.
///
/// The pool spawns at most one thread per task — `min(workers, tasks)` —
/// since a thread with nothing seeded could only steal. One thread needs no
/// pool at all: with one worker, or a phase of one task, the tasks run in
/// index order on the caller's thread and nothing is spawned, so a 1-worker
/// engine — one dry-run candidate of the plan enumerator, or any engine on a
/// 1-core host — and a single-split job pay no thread start or join per
/// phase. [`PoolStats::busy_ns`] keeps one entry per requested worker either
/// way; a worker that got no thread reports zero.
pub fn run_tasks<T, R, F>(workers: usize, tasks: Vec<T>, f: F) -> (Vec<R>, PoolStats)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = workers.max(1);
    let n = tasks.len();
    let threads = workers.min(n);
    if threads <= 1 {
        let t0 = thread_cpu_ns();
        let results = tasks
            .into_iter()
            .enumerate()
            .map(|(idx, t)| f(idx, t))
            .collect();
        let mut busy_ns = vec![0u64; workers];
        busy_ns[0] = thread_cpu_ns().saturating_sub(t0);
        return (results, PoolStats { busy_ns, steals: 0 });
    }

    // Seed each deque with a contiguous chunk: task i goes to thread
    // i / ceil(n / threads). Contiguous chunks keep the initial assignment
    // aligned with data locality (adjacent splits, adjacent partitions) and
    // make back-half steals grab the work farthest from the victim's
    // cursor.
    let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    {
        let per = n.div_ceil(threads);
        let mut it = tasks.into_iter().enumerate();
        'fill: for q in &mut queues {
            let q = q.get_mut().expect("fresh mutex");
            for _ in 0..per {
                match it.next() {
                    Some(t) => q.push_back(t),
                    None => break 'fill,
                }
            }
        }
    }

    let steals = AtomicU64::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    let busy: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::with_capacity(threads));
    let queues = &queues;
    std::thread::scope(|scope| {
        for w in 0..threads {
            let steals = &steals;
            let results = &results;
            let busy = &busy;
            let f = &f;
            scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut busy_ns = 0u64;
                loop {
                    let own = queues[w].lock().expect("queue poisoned").pop_front();
                    let Some((idx, t)) = own.or_else(|| steal(queues, w, steals)) else {
                        break;
                    };
                    let t0 = thread_cpu_ns();
                    local.push((idx, f(idx, t)));
                    busy_ns += thread_cpu_ns().saturating_sub(t0);
                }
                results.lock().expect("results poisoned").append(&mut local);
                busy.lock().expect("busy poisoned").push((w, busy_ns));
            });
        }
    });

    let mut indexed = results.into_inner().expect("pool worker panicked");
    debug_assert_eq!(indexed.len(), n, "every task must produce one result");
    // Unique task indices: sort_unstable has no equal elements to reorder.
    indexed.sort_unstable_by_key(|(idx, _)| *idx);

    let mut busy_ns = vec![0u64; workers];
    for (w, ns) in busy.into_inner().expect("busy poisoned") {
        busy_ns[w] = ns;
    }
    (
        indexed.into_iter().map(|(_, r)| r).collect(),
        PoolStats {
            busy_ns,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

/// Steal the back half of some victim's deque into worker `w`'s, returning
/// the first stolen task to run immediately. Scans victims twice before
/// giving up: tasks never spawn tasks, so after two all-empty scans the only
/// remaining work is already executing on other workers and `w` can retire.
fn steal<T>(
    queues: &[Mutex<VecDeque<(usize, T)>>],
    w: usize,
    steals: &AtomicU64,
) -> Option<(usize, T)> {
    let k = queues.len();
    for round in 0..2 {
        for off in 1..k {
            let v = (w + off) % k;
            let mut vq = queues[v].lock().expect("victim queue poisoned");
            let len = vq.len();
            if len == 0 {
                continue;
            }
            let take = len.div_ceil(2);
            let mut grabbed: Vec<(usize, T)> = Vec::with_capacity(take);
            for _ in 0..take {
                grabbed.push(vq.pop_back().expect("len checked"));
            }
            drop(vq);
            // Popped back-to-front; reverse to restore original order.
            grabbed.reverse();
            steals.fetch_add(take as u64, Ordering::Relaxed);
            let mut it = grabbed.into_iter();
            let first = it.next();
            let mut own = queues[w].lock().expect("own queue poisoned");
            for t in it {
                own.push_back(t);
            }
            return first;
        }
        if round == 0 {
            // Between scans, yield once: a steal batch in flight (popped
            // from a victim, not yet in the thief's deque) gets a chance to
            // land where the second scan can see it.
            std::thread::yield_now();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_task_order_at_any_worker_count() {
        let tasks: Vec<usize> = (0..103).collect();
        for workers in [1, 2, 3, 4, 8, 16] {
            let (got, stats) = run_tasks(workers, tasks.clone(), |idx, t| {
                assert_eq!(idx, t);
                t * 2
            });
            let want: Vec<usize> = (0..103).map(|t| t * 2).collect();
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(stats.busy_ns.len(), workers);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let (got, _) = run_tasks(4, (0..1000).collect::<Vec<usize>>(), |_, t| {
            counter.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(got.len(), 1000);
    }

    #[test]
    fn unbalanced_tasks_get_stolen() {
        // One long chunk: worker 0 is seeded with everything heavy; with
        // enough tasks, other workers must steal to finish.
        let (got, stats) = run_tasks(4, (0..64).collect::<Vec<u64>>(), |_, t| {
            // A little real work so thieves have time to engage.
            let mut acc = t;
            for i in 0..20_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            t
        });
        assert_eq!(got, (0..64).collect::<Vec<u64>>());
        assert!(
            stats.steals > 0,
            "4 workers over 64 tasks should steal at least once"
        );
    }

    #[test]
    fn empty_task_list_is_fine() {
        let (got, stats) = run_tasks(4, Vec::<u32>::new(), |_, t| t);
        assert!(got.is_empty());
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn one_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let (got, stats) = run_tasks(1, (0..17).collect::<Vec<usize>>(), |idx, t| {
            assert_eq!(std::thread::current().id(), caller, "task {idx} left the caller");
            (idx, t * 2)
        });
        let want: Vec<(usize, usize)> = (0..17).map(|t| (t, t * 2)).collect();
        assert_eq!(got, want);
        assert_eq!(stats.busy_ns.len(), 1);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn a_single_task_runs_inline_at_any_worker_count() {
        let caller = std::thread::current().id();
        for workers in [2, 4, 8] {
            let (got, stats) = run_tasks(workers, vec![21usize], |idx, t| {
                let here = std::thread::current().id();
                assert_eq!(here, caller, "workers={workers}: the task left the caller");
                (idx, t * 2)
            });
            assert_eq!(got, vec![(0, 42)]);
            assert_eq!(
                stats.busy_ns.len(),
                workers,
                "one busy entry per requested worker"
            );
            assert_eq!(stats.steals, 0);
        }
    }

    #[test]
    fn no_more_threads_than_tasks() {
        // Three tasks on eight workers: three threads, each seeded with one
        // task, so none is left to steal; the other five workers report zero.
        let threads = Mutex::new(std::collections::HashSet::new());
        let (got, stats) = run_tasks(8, vec![0usize, 1, 2], |idx, t| {
            threads.lock().unwrap().insert(std::thread::current().id());
            (idx, t)
        });
        assert_eq!(got, vec![(0, 0), (1, 1), (2, 2)]);
        assert!(threads.into_inner().unwrap().len() <= 3);
        assert_eq!(stats.busy_ns.len(), 8);
        assert!(stats.busy_ns[3..].iter().all(|&ns| ns == 0));
    }

    #[test]
    fn busy_time_accumulates() {
        let (_, stats) = run_tasks(2, (0..8).collect::<Vec<u64>>(), |_, t| {
            let mut acc = t;
            for i in 0..200_000u64 {
                acc = acc.wrapping_mul(2862933555777941757).wrapping_add(i);
            }
            std::hint::black_box(acc)
        });
        assert!(
            stats.total_busy_ns() > 0,
            "CPU-clock busy time must be observed"
        );
        assert!(stats.makespan_ns() <= stats.total_busy_ns());
    }
}
