#![warn(missing_docs)]
//! `amoeba-fleet`: the sharded parallel simulation fabric.
//!
//! The per-experiment runtime (`amoeba-core`) simulates one pool of
//! services serially. Vendor-scale questions — does Amoeba's per-tenant
//! switching still pay at a *thousand* services over a *week* of
//! diurnal load? — need runs two orders of magnitude larger, which is
//! wall-clock-bound long before it is memory-bound. This crate supplies
//! the missing scale axis:
//!
//! - [`FleetSpec`] generates a reproducible thousand-service fleet
//!   (phase-spread diurnal tenants via `amoeba-tenancy`'s
//!   `FleetBuilder`), runs vendor admission against the aggregate pool,
//!   and partitions the admitted tenants into **cells** — self-contained
//!   experiments with their own `SimWorld`, event calendar and forked
//!   RNG streams.
//! - [`FleetRun`] advances the cells on a pool of `std::thread` workers
//!   between **epoch barriers**: within an epoch no two cells share any
//!   state, so threads never contend; at each barrier the executor
//!   aggregates cross-cell signals (vendor-pool occupancy) and injects
//!   cross-cell effects (external pressure, fleet-level reclamation
//!   caps) in deterministic cell-index order. Results are therefore
//!   **independent of thread count and interleaving** — the same
//!   [`FleetOutcome::digest`] at 1, 2, 4 or 8 workers.
//! - [`DigestSink`] folds every telemetry event into an FNV-1a-64 hash
//!   of the event's canonical JSON-line bytes, so a million-event run
//!   can assert byte-identity without materialising traces.
//!
//! ```
//! use amoeba_fleet::FleetSpec;
//!
//! let spec = FleetSpec::new(7).services(24).cells(4).days(0.002);
//! let a = spec.clone().build().run(1);
//! let b = spec.build().run(4);
//! assert_eq!(a.digest, b.digest);
//! ```

mod digest;
mod run;
mod spec;

pub use digest::{fnv1a, DigestSink, FNV_OFFSET};
pub use run::{FleetOutcome, FleetRun, FleetTotals};
pub use spec::{assign_cell, FleetSpec};
