#![warn(missing_docs)]
//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate on which the Amoeba reproduction runs. The
//! paper evaluated Amoeba on a physical 3-node cluster (OpenWhisk +
//! Nameko-on-VMs); here the cluster is replaced by a discrete-event
//! simulation, so everything above this crate needs three primitives:
//!
//! * a microsecond-resolution virtual clock ([`SimTime`], [`SimDuration`]),
//! * a deterministically ordered event calendar ([`EventQueue`]),
//! * reproducible randomness ([`rng`]) so that every experiment is exactly
//!   replayable from a seed.
//!
//! Determinism is load-bearing: Fig. 15 of the paper compares the
//! controller's *predicted* switch point against the *real* one found by
//! enumeration, which is only meaningful if re-running the same workload
//! yields the same latencies.

pub mod events;
pub mod rng;
pub mod time;

pub use events::{EventQueue, ScheduledEvent};
pub use rng::{Distributions, SimRng, SplitMix64, Xoshiro256StarStar};
pub use time::{SimDuration, SimTime};
