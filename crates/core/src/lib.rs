#![warn(missing_docs)]
//! Amoeba: the runtime system of the paper.
//!
//! Three components (§III, Fig. 6):
//!
//! * [`controller`] — the contention-aware deployment controller. Every
//!   control period it estimates each service's load, asks the monitor
//!   for the current platform pressure, predicts the per-container
//!   processing capacity `μ` (Eq. 6) from the profiled latency surfaces,
//!   evaluates the M/M/N discriminant `λ(μ)` (Eq. 5), and decides which
//!   deployment mode the service should be in.
//! * [`engine`] — the hybrid execution engine. Routes queries to the
//!   active platform, and on a switch first *prepares* the target side
//!   (prewarms Eq. 7's container count, or boots the VM group), waits
//!   for the acknowledgement, flips the router, and finally releases the
//!   old side after it drains (§V-B).
//! * [`monitor`] — the multi-resource contention monitor. Runs the three
//!   contention meters in the background, inverts their profiled curves
//!   into pressure estimates, aggregates heartbeat samples over the
//!   Eq. 8 sample period, and updates the Eq. 6 weights by PCA (§VI-A).
//!
//! [`runtime`] wires the components to the simulated platforms and runs
//! full experiments; [`baselines`] defines the comparison systems
//! (Nameko, OpenWhisk) and ablations (Amoeba-NoM, Amoeba-NoP).

pub mod baselines;
pub mod controller;
pub mod engine;
pub mod monitor;
pub mod profiler;
pub mod runtime;

pub use amoeba_telemetry::{Decision, DeployMode};
pub use baselines::SystemVariant;
pub use controller::{ControllerConfig, DeploymentController};
pub use engine::{EngineAction, HybridEngine};
pub use monitor::{sample_period_lower_bound, ContentionMonitor, MonitorConfig};
pub use runtime::{
    BreakdownMeans, EpochRun, Experiment, ExperimentBuilder, RunResult, ServiceResult,
    ServiceSetup, WorkflowResult, WorkflowSetup,
};
