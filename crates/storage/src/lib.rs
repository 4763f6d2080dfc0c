//! # rapida-storage
//!
//! Storage layouts for the two system families the paper compares:
//!
//! * [`vp`] — **vertical partitioning** with compressed columnar segments
//!   (the Hive + ORC setup): one `(s, o)` table per property, property–object
//!   partitions for `rdf:type`.
//! * [`tg_store`] — **subject triplegroups** partitioned by equivalence
//!   class (the RAPID+/RAPIDAnalytics setup).
//!
//! Both layouts materialize into the simulated DFS, so their (real,
//! compressed) sizes drive split counts and scan costs exactly as in the
//! paper's pre-processing section.

// Library code reports damage with a typed value, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

mod bitmap;
pub mod scan;
pub mod segment;
pub mod stats;
pub mod tg_store;
pub mod vp;

pub use scan::{scan_class, ScanClass};
pub use segment::{decode_segment, decode_stats, encode_segment, SegmentStats};
pub use stats::{PredStat, StatsCatalog};
pub use tg_store::{decode_tg, encode_tg, EcMeta, TgStore};
pub use vp::{read_dataset_rows, ExtVpKind, ExtVpMeta, VpKey, VpStore, VpTableMeta};
