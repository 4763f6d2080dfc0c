//! # rapida-ntga
//!
//! The Nested TripleGroup Data Model and Algebra (NTGA) with this paper's
//! analytical extensions:
//!
//! * [`triplegroup`] — [`TripleGroup`] / [`AnnTg`] model and codecs.
//! * [`spec`] — operator specifications: star requirements, α-conditions
//!   (Table 2), variable references, aggregation specs and mergeable
//!   [`PartialAgg`] states.
//! * [`ops`] — logical operators (Defs 3.3–3.6): the optional group filter
//!   σ^γopt, the n-split χ, the α-Join, and the TG Agg-Join γ^AgJ.
//! * [`physical`] — MR physical operators (Algorithms 1–3): filter + α-join
//!   map/reduce pairs and the Agg-Join with map-side hash aggregation.
//! * [`hashagg`] — the open-addressing [`AggTable`] backing map-side
//!   combining (flat key/state arenas, deterministic sorted drain).
//!
//! The hot operator paths run on the borrowed view [`TgRef`] and the star
//! directory [`StarDir`]: records are walked once, in place, and re-emitted
//! by copying raw spans into per-task scratch buffers (see `DESIGN.md`
//! §2d). That is the only physical form: the owned-decode operators they
//! replaced live on as the test-only reference in `tests/common`, which
//! `tests/view_identity.rs` holds the production operators to byte for
//! byte.

pub mod hashagg;
pub mod ops;
pub mod physical;
pub mod spec;
pub mod triplegroup;

pub use hashagg::AggTable;
pub use ops::{
    accumulate, agg_join, alpha_join, finalize_groups, finalize_groups_par, n_split,
    opt_group_filter, opt_group_filter_into, SlotProgram,
};
pub use spec::{
    any_alpha_partial, any_alpha_partial_merged, read_group_key, write_group_key, AggJoinSpec,
    AggOp, AggRec, AggSpec, AlphaCond, AlphaTerm, JoinKey, NumericSnapshot, PartialAgg, PropReq,
    StarSpec, VarRef,
};
pub use physical::{
    AggJoinConfig, AggJoinMapper, AggJoinReducer, AlphaJoinReducer, AnnRoute, InputRoutes, Side,
    StarRoute, TgJoinMapConfig, TgJoinMapper, TgTransform,
};
pub use triplegroup::{AnnTg, StarDir, Stars, TgRef, TripleGroup};
