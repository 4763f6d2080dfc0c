//! The pool's contract as seen from outside the crate: phases reuse parked
//! helper threads, a panicking task reaches the caller with its payload and
//! leaves the pool usable, a task may run a phase of its own, and phases
//! from several threads at once each get their results in task order.
//!
//! The helpers are process-wide, so every test here holds [`SERIAL`]: a
//! test counting threads must not see helpers another test is using.

use rapida_mapred::pool::run_tasks;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The payload of a panic, as the `&str` a literal `panic!` carries.
fn message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or("<not a &str>")
}

#[test]
fn sequential_phases_reuse_the_same_helpers() {
    let _serial = serial();
    let seen = Mutex::new(HashSet::<ThreadId>::new());
    for phase in 0..200usize {
        let (got, stats) = run_tasks(4, (0..8).collect::<Vec<usize>>(), |idx, t| {
            seen.lock().unwrap().insert(thread::current().id());
            idx * 1000 + t + phase
        });
        let want: Vec<usize> = (0..8).map(|t| t * 1001 + phase).collect();
        assert_eq!(got, want, "phase {phase}");
        assert_eq!(stats.busy_ns.len(), 4);
    }
    let threads = seen.into_inner().unwrap().len();
    assert!(
        threads <= 4,
        "200 phases of 4 workers ran on {threads} threads; the caller and 3 parked helpers suffice"
    );
}

/// Two tasks that meet at a barrier before either returns: neither can
/// finish until the other has started, so they run on two threads — task 0
/// on the caller (its own slot's first task), task 1 on a helper.
/// `panics` names the task that then panics, if any; each task returns the
/// thread it ran on.
fn meet(panics: Option<usize>) -> Vec<ThreadId> {
    let barrier = Barrier::new(2);
    let (got, _) = run_tasks(2, vec![0usize, 1], |idx, _| {
        barrier.wait();
        match (panics, idx) {
            (Some(0), 0) => panic!("slot zero"),
            (Some(1), 1) => panic!("helper slot"),
            _ => thread::current().id(),
        }
    });
    got
}

#[test]
fn a_panicking_task_reaches_the_caller_and_the_helper_survives() {
    let _serial = serial();
    let caller = thread::current().id();
    for (task, want) in [(1, "helper slot"), (0, "slot zero")] {
        let ran = meet(None);
        assert_eq!(ran[0], caller, "task 0 runs on the caller");
        assert_ne!(ran[1], caller, "task 1 runs on a helper");

        let payload = panic::catch_unwind(AssertUnwindSafe(|| meet(Some(task))))
            .expect_err("the task's panic must reach the caller");
        assert_eq!(message(&*payload), want);

        // The pool still works, and the helper that ran task 1 was parked
        // again rather than lost: the most recently parked helper is woken
        // first, so the next 2-worker phase runs on the same thread.
        let again = meet(None);
        assert_eq!(again, ran, "after the panic in task {task}");
        let (got, _) = run_tasks(4, (0..50).collect::<Vec<u64>>(), |_, t| t * t);
        assert_eq!(got, (0..50).map(|t| t * t).collect::<Vec<u64>>());
    }
}

#[test]
fn a_task_may_run_a_phase_of_its_own() {
    let _serial = serial();
    for workers in [2, 4] {
        let (got, _) = run_tasks(workers, (0..16).collect::<Vec<u64>>(), |_, t| {
            let (inner, _) = run_tasks(2, (0..10).collect::<Vec<u64>>(), |j, u| {
                assert_eq!(j as u64, u);
                t * 100 + u
            });
            inner
        });
        let want: Vec<Vec<u64>> = (0..16)
            .map(|t| (0..10).map(|u| t * 100 + u).collect())
            .collect();
        assert_eq!(got, want, "workers={workers}");
    }
}

#[test]
fn concurrent_callers_each_get_their_results_in_task_order() {
    let _serial = serial();
    let start = Barrier::new(4);
    thread::scope(|s| {
        for caller in 0..4u64 {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for phase in 0..50u64 {
                    let n = 7 + (phase + caller) % 29;
                    let (got, _) = run_tasks(4, (0..n).collect::<Vec<u64>>(), |idx, t| {
                        assert_eq!(idx as u64, t);
                        (caller, phase, t)
                    });
                    let want: Vec<(u64, u64, u64)> = (0..n).map(|t| (caller, phase, t)).collect();
                    assert_eq!(got, want, "caller {caller}, phase {phase}");
                }
            });
        }
    });
}
