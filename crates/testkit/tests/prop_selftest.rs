//! End-to-end self-test of the property harness, used exactly the way the
//! workspace's ported test files use it: `use rapida_testkit::prelude::*;`
//! plus the `proptest::` / `prop::` path aliases.

use rapida_testkit::prelude::*;
use rapida_testkit::prop::{run, Config};
use std::panic::{catch_unwind, AssertUnwindSafe};

proptest! {
    #[test]
    fn addition_commutes(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }

    #[test]
    fn vec_strategy_respects_size(v in proptest::collection::vec(any::<u8>(), 2..10)) {
        prop_assert!((2..10).contains(&v.len()));
    }

    #[test]
    fn ranges_and_options(
        n in 5u32..50,
        o in prop::option::of(1i32..4),
        s in "[a-c]{2,4}",
    ) {
        prop_assert!((5..50).contains(&n));
        if let Some(x) = o {
            prop_assert!((1..4).contains(&x));
        }
        prop_assert!((2..=4).contains(&s.len()));
        prop_assert!(s.bytes().all(|b| (b'a'..=b'c').contains(&b)));
    }

    #[test]
    fn oneof_and_map(
        v in prop_oneof![
            (0u64..10).prop_map(|n| n * 2),
            (100u64..110).prop_map(|n| n * 3),
        ]
    ) {
        prop_assert!(v % 2 == 0 || v % 3 == 0);
        prop_assert!(!(20..300).contains(&v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 7, ..ProptestConfig::default() })]
    #[test]
    fn per_test_config_is_honoured(_x in any::<u8>()) {
        // Body intentionally trivial: the test is that 7 cases run at all.
    }
}

/// A failing property must panic, and the report must carry the rerun seed
/// and a shrunk counterexample.
#[test]
fn failure_reports_seed_and_minimal_input() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        run(
            "selftest::never_big",
            Config { cases: 200, ..Config::default() },
            &(0u64..10_000),
            |n| {
                if n >= 100 {
                    Err(format!("{n} is too big"))
                } else {
                    Ok(())
                }
            },
        )
    }))
    .expect_err("property with a guaranteed counterexample must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(msg.contains("RAPIDA_PROP_SEED="), "no rerun seed in: {msg}");
    assert!(msg.contains("minimal failing input"), "no shrink report in: {msg}");
    // Greedy tape shrinking must walk 0..10_000 down to the boundary.
    assert!(
        msg.contains("100"),
        "counterexample should shrink to the boundary value 100: {msg}"
    );
}

/// Shrinking works through `prop_map` and collections: a "no vec of length
/// ≥ 3" property shrinks to exactly 3 minimal elements.
#[test]
fn shrinking_composes_through_map_and_collections() {
    let strategy = rapida_testkit::prop::collection::vec((1u64..1000).prop_map(|n| n * 2), 0..30);
    let err = catch_unwind(AssertUnwindSafe(|| {
        run(
            "selftest::len_bound",
            Config { cases: 300, ..Config::default() },
            &strategy,
            |v: Vec<u64>| {
                if v.len() >= 3 {
                    Err("too many elements".to_string())
                } else {
                    Ok(())
                }
            },
        )
    }))
    .expect_err("must find a failing vec");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    let report = msg
        .split("minimal failing input:")
        .nth(1)
        .expect("shrink report present")
        .split("error:")
        .next()
        .unwrap()
        .to_string();
    // Greedy tape shrinking must walk the length down to the boundary (3)
    // and zero every element draw, so each element is the strategy minimum:
    // (0 % 999 + 1) * 2 = 2.
    let elems = report.matches(',').count();
    assert!(
        (3..=4).contains(&elems),
        "expected a 3-element minimal vec, got ~{elems} elements in: {report}"
    );
    assert!(
        report.contains('2') && !report.chars().any(|c| matches!(c, '1' | '3'..='9')),
        "elements should shrink to the minimum value 2: {report}"
    );
}

/// Same seed, same cases: the harness is deterministic end-to-end.
#[test]
fn harness_is_deterministic() {
    thread_local! {
        static SEEN: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    fn collect(seed: u64) -> Vec<u64> {
        run(
            "selftest::collect",
            Config { cases: 16, seed, ..Config::default() },
            &(0u64..1_000_000),
            |n| {
                SEEN.with(|s| s.borrow_mut().push(n));
                Ok(())
            },
        );
        SEEN.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }
    let a = collect(99);
    let b = collect(99);
    let c = collect(100);
    assert_eq!(a, b, "same seed must replay the same cases");
    assert_ne!(a, c, "different seeds must explore different cases");
    assert_eq!(a.len(), 16);
}
