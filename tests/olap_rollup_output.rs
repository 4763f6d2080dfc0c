//! `examples/olap_rollup` prints exactly `tests/snapshots/olap_rollup.txt`:
//! the lattice's row count, its shuffle volume and every level's group count
//! and offer total. The example is compiled in here, so the pin reads the
//! report the example prints.

#[allow(dead_code)]
#[path = "../examples/olap_rollup.rs"]
mod olap_rollup;

#[test]
fn olap_rollup_prints_the_pinned_report() {
    assert_eq!(olap_rollup::report(), include_str!("snapshots/olap_rollup.txt"));
}
