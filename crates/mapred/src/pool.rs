//! A work-stealing task pool for the engine's map and reduce phases.
//!
//! The old engine popped tasks off one shared `Mutex<Vec<_>>`; every pop
//! serialized all workers on a single lock, and a worker finishing early had
//! no way to relieve a loaded one beyond racing for the next pop. This pool
//! gives each worker its own deque, seeded with a contiguous chunk of the
//! task list; a worker drains its own deque from the front and, when empty,
//! steals the back half of a victim's deque — the classic Cilk/Chase-Lev
//! shape, built here on plain `Mutex<VecDeque>` (contention is per-victim
//! and steals are rare, so the simple lock is cheaper than an atomic deque
//! would be to maintain).
//!
//! ## Parked helpers
//!
//! A phase does not start threads. The process keeps a stack of parked
//! helper threads; a phase of `threads = min(workers, tasks) ≥ 2` offers
//! itself to at most `threads − 1` of them, and the caller runs slot 0 on
//! its own thread. A woken helper claims the next free slot and runs that
//! slot's loop — its own deque, then steals — exactly as a spawned worker
//! did; a slot no helper claims is drained by the others' steals, so a
//! phase finishes even with no helper at all, and a task may itself run a
//! phase (nesting cannot deadlock). Helpers are spawned only when fewer are
//! parked than a phase asks for, and never exit, so concurrent callers and
//! nested phases run on as many threads as before while a sequence of
//! phases reuses the same few. A phase thus pays a wake-up per helper, not a
//! thread start and join per worker.
//!
//! `run_tasks` returns only after every helper that claimed a slot has left
//! it, and after it has taken back every offer no helper took, so the phase
//! closure may borrow the caller's stack. A panicking task is caught on
//! whichever slot ran it and re-raised in the caller, with its payload,
//! once every slot is left; the helper survives and serves later phases.
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

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What one pool invocation observed about itself.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Per-worker CPU nanoseconds spent inside task bodies: one entry per
    /// requested worker, zero for a worker whose slot no thread ran.
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

/// Run `tasks` across `workers` work-stealing slots and return each task's
/// result, sorted by task index, plus the pool's stats.
///
/// `f` is called as `f(task_index, task)`. Results are independent of
/// worker count and scheduling: the output vector is always in task order.
///
/// The phase has at most one slot per task — `min(workers, tasks)` — since a
/// slot seeded with nothing could only steal. The caller runs slot 0 and
/// parked helpers claim the others (module doc). One slot needs no pool at
/// all: with one worker, or a phase of one task, the tasks run in index
/// order on the caller's thread and no helper is woken, so a 1-worker engine
/// — one dry-run candidate of the plan enumerator, or any engine on a 1-core
/// host — and a single-split job pay no hand-off per phase.
/// [`PoolStats::busy_ns`] keeps one entry per requested worker either way; a
/// worker whose slot nothing ran reports zero.
///
/// A panic in `f` is re-raised here, with its payload, after every slot of
/// the phase has been left.
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

    // Seed each deque with a contiguous chunk: task i goes to slot
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
    let run_slot = |w: usize| {
        let mut local: Vec<(usize, R)> = Vec::new();
        let mut busy_ns = 0u64;
        loop {
            let own = queues[w].lock().expect("queue poisoned").pop_front();
            let Some((idx, t)) = own.or_else(|| steal(queues, w, &steals)) else {
                break;
            };
            let t0 = thread_cpu_ns();
            local.push((idx, f(idx, t)));
            busy_ns += thread_cpu_ns().saturating_sub(t0);
        }
        results.lock().expect("results poisoned").append(&mut local);
        busy.lock().expect("busy poisoned").push((w, busy_ns));
    };
    let run_slot: &(dyn Fn(usize) + Sync) = &run_slot;
    // SAFETY: only the lifetime changes; the reference stays valid for as
    // long as any helper can reach it. Helpers reach it only through
    // `Phase::claim`, which hands it out under the phase lock and counts the
    // claimant in `active`. Below, nothing between `wake` and `close` can
    // unwind out of this function: slot 0 runs under `catch_unwind`, and
    // `wake`/`close` panic only on poisoned locks, which no code panics
    // while holding. `close` clears the reference under the phase lock and
    // returns only when `active` is zero, so when this function returns or
    // re-raises a panic, no helper holds the reference and none can claim
    // it again; `run_slot`, and everything it borrows, outlives that point.
    let work: Work = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Work>(run_slot) };
    let phase = Arc::new(Phase {
        state: Mutex::new(PhaseState {
            work: Some(work),
            next_slot: 1,
            active: 0,
            panic: None,
        }),
        left: Condvar::new(),
    });
    let woken = wake(&phase, threads - 1);
    let own = panic::catch_unwind(AssertUnwindSafe(|| run_slot(0)));
    let helper_panic = phase.close(woken);
    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        panic::resume_unwind(payload);
    }

    let mut indexed = results.into_inner().expect("results poisoned");
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

/// One phase's slot loop, borrowed from its `run_tasks` call with the
/// lifetime erased (the SAFETY proof there says why that holds).
type Work = &'static (dyn Fn(usize) + Sync);

/// A panic payload, carried from the slot that raised it to the caller.
type Payload = Box<dyn Any + Send>;

/// One phase, as its helpers see it. Shared through an `Arc`, not borrowed
/// from `run_tasks`: the last helper to leave still holds the phase lock
/// when it wakes the caller, which may then return.
struct Phase {
    state: Mutex<PhaseState>,
    /// Signalled when the last claimed slot is left.
    left: Condvar,
}

struct PhaseState {
    /// The slot loop; `None` once the caller has closed the phase.
    work: Option<Work>,
    /// The slot the next claimant runs; slot 0 is the caller's.
    next_slot: usize,
    /// Helpers inside a claimed slot.
    active: usize,
    /// The first payload a helper's slot panicked with.
    panic: Option<Payload>,
}

const PHASE_LOCK: &str = "phase lock poisoned: no code panics while holding it";
const OFFER_LOCK: &str = "offer lock poisoned: no code panics while holding it";
const IDLE_LOCK: &str = "idle stack poisoned: no code panics while holding it";

impl Phase {
    /// Claim the next slot, unless the phase is closed.
    fn claim(&self) -> Option<(usize, Work)> {
        let mut st = self.state.lock().expect(PHASE_LOCK);
        let work = st.work?;
        let slot = st.next_slot;
        st.next_slot += 1;
        st.active += 1;
        Some((slot, work))
    }

    /// Leave a claimed slot, keeping the first panic any slot raised.
    fn leave(&self, panic: Option<Payload>) {
        let mut st = self.state.lock().expect(PHASE_LOCK);
        st.active -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.active == 0 {
            self.left.notify_one();
        }
    }

    /// The caller's end of the phase: take back each offer in `woken` that
    /// no helper has taken (re-parking that helper), close the phase so no
    /// slot can be claimed, and wait until every claimed slot is left.
    /// Returns the first panic a helper's slot raised.
    fn close(&self, woken: Vec<Arc<Helper>>) -> Option<Payload> {
        let untaken: Vec<Arc<Helper>> = woken
            .into_iter()
            .filter(|h| h.offer.lock().expect(OFFER_LOCK).take().is_some())
            .collect();
        IDLE.lock().expect(IDLE_LOCK).extend(untaken);
        let mut st = self.state.lock().expect(PHASE_LOCK);
        st.work = None;
        while st.active > 0 {
            st = self.left.wait(st).expect(PHASE_LOCK);
        }
        st.panic.take()
    }
}

/// A helper thread's mailbox.
struct Helper {
    /// The phase this helper was woken for, until it takes the offer or the
    /// phase's caller takes it back.
    offer: Mutex<Option<Arc<Phase>>>,
    wake: Condvar,
}

/// Parked helpers, the most recently parked last. A phase wakes from the
/// top, so a run of phases keeps reusing the same few threads.
static IDLE: Mutex<Vec<Arc<Helper>>> = Mutex::new(Vec::new());

/// Offer `phase` to `k` helpers: parked ones first, spawning the rest.
/// Returns the helpers offered to. A helper the OS refuses to start is
/// skipped: its slot is left to the other slots' steals.
fn wake(phase: &Arc<Phase>, k: usize) -> Vec<Arc<Helper>> {
    let mut woken = {
        let mut idle = IDLE.lock().expect(IDLE_LOCK);
        let from = idle.len().saturating_sub(k);
        idle.split_off(from)
    };
    for h in &woken {
        *h.offer.lock().expect(OFFER_LOCK) = Some(Arc::clone(phase));
        h.wake.notify_one();
    }
    for _ in woken.len()..k {
        let h = Arc::new(Helper {
            offer: Mutex::new(Some(Arc::clone(phase))),
            wake: Condvar::new(),
        });
        let mine = Arc::clone(&h);
        // Detached on purpose: a helper lives as long as the process and
        // never unwinds (every slot runs under `catch_unwind`).
        let spawned = std::thread::Builder::new()
            .name("rapida-pool".into())
            .spawn(move || serve(&mine));
        if spawned.is_ok() {
            woken.push(h);
        }
    }
    woken
}

/// A helper's life: wait for an offer, claim a slot of it, run the slot,
/// park again.
fn serve(helper: &Arc<Helper>) {
    loop {
        let mut offer = helper.offer.lock().expect(OFFER_LOCK);
        let phase = loop {
            match offer.take() {
                Some(phase) => break phase,
                None => offer = helper.wake.wait(offer).expect(OFFER_LOCK),
            }
        };
        // Claimed under the offer lock, so the caller's take-back in
        // `Phase::close` finds either an untaken offer or a claimed slot.
        let claimed = phase.claim();
        drop(offer);
        let outcome =
            claimed.map(|(slot, work)| panic::catch_unwind(AssertUnwindSafe(|| work(slot))));
        // Parked before leaving the slot: when the caller returns, every
        // helper it woke is back on the stack for the next phase.
        IDLE.lock().expect(IDLE_LOCK).push(Arc::clone(helper));
        if let Some(outcome) = outcome {
            phase.leave(outcome.err());
        }
    }
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
