//! Region arithmetic and interval containers for the `weakdep` dependency engine.
//!
//! The OpenMP extension reproduced by this workspace (Pérez et al., IPDPS 2017) relies on
//! dependencies declared over *data regions* — contiguous byte ranges of an allocation — that may
//! **partially overlap** between a parent task and its subtasks (§VII of the paper). The
//! dependency engine therefore needs containers that can:
//!
//! * fragment a region against a set of previously registered regions,
//! * keep a per-domain *bottom map* from region fragments to their latest accessors,
//! * track which sub-ranges of an access are still covered by live child accesses, and
//! * represent arbitrary unions of regions (for per-fragment satisfaction / release state).
//!
//! This crate provides those containers free of any runtime concerns so they can be tested and
//! property-checked in isolation:
//!
//! * [`Region`] / [`SpaceId`] — a half-open `[start, end)` range inside an address space.
//! * [`IntervalMap`] — an ordered map from disjoint ranges of a *single* space to values, with
//!   fragmentation on update.
//! * [`RegionMap`] — the multi-space composition of [`IntervalMap`]s keyed by [`SpaceId`].
//! * [`RegionSet`] — a set of regions (union of disjoint fragments across spaces).
//! * [`CoverageCounter`] — a multiset of regions with increment/decrement, used to know when the
//!   last live child access over a fragment disappears.
//! * [`RegionStore`] — the two-tier (exact-match hash tier + fragmented interval tier) map the
//!   engine's bottom maps use, with per-region lazy promotion on the first partial overlap.
//!
//! The dependency engine serialises mutations under one domain lock, so these types are
//! deliberately not `Sync`-optimised. Their hash maps use a crate-private multiply-rotate hasher
//! instead of SipHash: the keys are internal coordinates, never attacker-controlled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod coverage;
mod hash;
mod interval_map;
mod region;
mod region_map;
mod set;
mod store;

pub use coverage::CoverageCounter;
pub use interval_map::{IntervalMap, RangeUpdate};
pub use region::{Region, SpaceId};
pub use region_map::RegionMap;
pub use set::RegionSet;
pub use store::{RegionStore, StoreTier};
