//! # rapida-ntga
//!
//! The Nested TripleGroup Data Model and Algebra (NTGA) with this paper's
//! analytical extensions:
//!
//! * [`triplegroup`] — [`TripleGroup`] / [`AnnTg`] model and codecs.
//! * [`spec`] — operator specifications: star requirements, value filters
//!   (FILTER pushdown and the ExtVP subject gate), α-conditions (Table 2),
//!   variable references, aggregation specs and mergeable [`PartialAgg`]
//!   states.
//! * [`ops`] — the per-record kernels of the operators (Defs 3.3 and 3.6):
//!   the one-walk optional group filter σ^γopt and the Agg-Join's compiled
//!   [`SlotProgram`].
//! * [`physical`] — MR physical operators (Algorithms 1–3): filter + α-join
//!   map/reduce pairs and the Agg-Join with map-side hash aggregation.
//! * [`hashagg`] — the open-addressing [`AggTable`] backing map-side
//!   combining (flat key/state arenas, deterministic sorted drain).
//!
//! The operators run on the borrowed view [`TgRef`] and the star directory
//! [`StarDir`]: records are walked once, in place, and re-emitted by copying
//! raw spans into per-task scratch buffers (see `DESIGN.md` §2d). That is
//! the only physical form. The logical operators of Defs 3.3–3.6 — σ^γopt,
//! the n-split χ, the α-Join and the TG Agg-Join γ^AgJ over owned values —
//! and the owned-decode tasks written against them live in `tests/common`
//! as the spec oracle, which `tests/view_identity.rs` and
//! `tests/prop_ops.rs` hold the production operators to.

// Library code reports damage with a typed value, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod hashagg;
pub mod ops;
pub mod physical;
pub mod spec;
pub mod triplegroup;

pub use hashagg::AggTable;
pub use ops::{opt_group_filter_into, SlotProgram};
pub use spec::{
    any_alpha_partial, any_alpha_partial_merged, read_group_key, write_group_key, AggJoinSpec,
    AggOp, AggRec, AggSpec, AlphaCond, AlphaTerm, IdPred, JoinKey, PartialAgg, PropReq, StarSpec,
    ValueFilter, VarRef,
};
pub use physical::{
    AggJoinConfig, AggJoinMapper, AggJoinReducer, AlphaJoinReducer, AnnRoute, InputRoutes, Side,
    StarRoute, TgJoinMapConfig, TgJoinMapper,
};
pub use triplegroup::{AnnTg, StarDir, Stars, TgRef, TripleGroup};
