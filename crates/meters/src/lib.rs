#![warn(missing_docs)]
//! Contention meters and the performance models built from them.
//!
//! §IV-B of the paper: "we design three delicate functions as contention
//! meters to capture the pressure value on the shared core, IO bandwidth,
//! and network bandwidth in the serverless platform". Each meter is a
//! tiny function almost pure in one resource; its latency, compared
//! against an offline-profiled latency-vs-pressure curve (Fig. 8), reveals
//! how much pressure the co-located tenants are putting on that resource.
//!
//! The same profiling phase also builds, per microservice × resource, a
//! **latency surface** over (service load, meter pressure) — Fig. 9 —
//! which the deployment controller interpolates to predict `L₁, L₂, L₃`
//! in Eq. 6.

pub mod functions;
pub mod profile;
pub mod surface;

pub use functions::{
    cpu_meter, io_meter, meter_curve, meter_for, meter_overhead_fraction, net_meter, METER_QPS,
};
pub use profile::ProfileCurve;
pub use surface::LatencySurface;
