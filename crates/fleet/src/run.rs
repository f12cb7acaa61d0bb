//! The epoch-barrier executor.
//!
//! A [`FleetRun`] owns a vector of cells (resumable `EpochRun`s). Each
//! epoch it splits the cells into contiguous shards — one per worker —
//! advances every shard to the epoch boundary on its own scoped thread,
//! then performs the **exchange** single-threaded in cell-index order:
//!
//! 1. read every cell's vendor-pool occupancy,
//! 2. fold the fleet-wide mean and step fleet-level reclamation,
//! 3. write the resulting external pressure and container caps back
//!    into every cell for the next epoch.
//!
//! Determinism is by construction, not by locking: within an epoch,
//! cells share nothing (each has its own world, calendar and forked RNG
//! streams), so a cell's event sequence is a function of its own state
//! and the values written at the last barrier — never of which thread
//! ran it, how many threads exist, or how cells interleave in time. The
//! exchange reads and writes in cell-index order on one thread, so the
//! values it produces are equally schedule-free. `run(1)` and `run(8)`
//! therefore produce bit-identical telemetry (asserted per event by
//! [`FleetOutcome::digest`], and in `tests/` against the serial golden
//! fixtures).

use std::time::{Duration, Instant};

use amoeba_core::{EpochRun, Experiment, RunResult};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::{
    FleetSampleRecord, MemorySink, NoopSink, ShardSpanRecord, TelemetryEvent, TelemetrySink, Trace,
};
use amoeba_tenancy::Reclamation;

use crate::digest::{combine, DigestSink};

/// Aggregate counters over every service of every cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetTotals {
    /// Managed services across all cells.
    pub services: usize,
    /// Queries submitted / completed / failed, fleet-wide.
    pub submitted: u64,
    /// Completed queries.
    pub completed: u64,
    /// Failed queries.
    pub failed: u64,
    /// QoS-violating queries (per-service violation ratio × count).
    pub violations: u64,
    /// Services whose percentile QoS target was missed.
    pub services_in_violation: usize,
    /// Allocated core-seconds, fleet-wide.
    pub core_seconds: f64,
    /// Deployment switches executed.
    pub switches: u64,
}

impl FleetTotals {
    /// Fold one cell's results into the totals.
    fn absorb(&mut self, result: &mut RunResult) {
        for s in result.services.iter_mut() {
            self.services += 1;
            self.submitted += s.submitted as u64;
            self.completed += s.completed as u64;
            self.failed += s.failed as u64;
            let n = s.latency.count() as f64;
            self.violations += (s.violation_ratio() * n).round() as u64;
            if !s.qos_met() {
                self.services_in_violation += 1;
            }
            self.core_seconds += s.usage.core_seconds;
            self.switches += s.switch_history.len() as u64;
        }
    }
}

/// Everything a fleet run produces.
pub struct FleetOutcome {
    /// Order-sensitive digest of every cell's full telemetry stream,
    /// folded in cell-index order. Equal digests ⇒ byte-identical
    /// per-cell JSONL traces.
    pub digest: u64,
    /// Per-cell results, in cell-index order.
    pub results: Vec<RunResult>,
    /// Fleet-wide aggregate counters.
    pub totals: FleetTotals,
    /// The executor's own telemetry: one `ShardSpan` per shard per
    /// epoch, one `FleetSample` per epoch. Deliberately *outside* the
    /// digest — span shapes vary with thread count; results do not.
    pub fleet_trace: Trace,
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// Events dispatched across all cells.
    pub events: u64,
    /// Tenants rejected at fleet-level admission.
    pub rejected: usize,
    /// Wall-clock time of the execute loop.
    pub wall: Duration,
}

/// One cell and the sink its telemetry feeds.
struct Cell<S> {
    run: EpochRun,
    sink: S,
}

/// A built, not-yet-executed fleet: cells plus the exchange policy.
pub struct FleetRun {
    pub(crate) cells: Vec<Experiment>,
    pub(crate) epoch: SimDuration,
    pub(crate) horizon: SimDuration,
    /// Run the exchange's pressure coupling and fleet-level
    /// reclamation.
    pub(crate) coupling: bool,
    pub(crate) rejected: usize,
}

impl FleetRun {
    /// Wrap pre-built experiments (one cell each) with the exchange
    /// disabled — the harness the golden-trace tests use to check the
    /// sharded executor against the serial runtime's fixtures.
    pub fn from_experiments(cells: Vec<Experiment>, epoch: SimDuration) -> Self {
        let horizon = cells
            .iter()
            .map(|e| e.horizon)
            .max()
            .unwrap_or(SimDuration::ZERO);
        FleetRun {
            cells,
            epoch,
            horizon,
            coupling: false,
            rejected: 0,
        }
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Managed services across all cells.
    pub fn service_count(&self) -> usize {
        self.cells.iter().map(|c| c.services.len()).sum()
    }

    /// Tenants rejected at fleet-level admission.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Execute on `threads` workers, hashing telemetry as it streams.
    pub fn run(self, threads: usize) -> FleetOutcome {
        let (mut out, sinks) = self.execute(threads, DigestSink::new);
        out.digest = combine(sinks.iter().map(DigestSink::digest));
        out
    }

    /// Execute with telemetry discarded, each cell's digest reading 0:
    /// the fast path for wall-clock measurements, where per-event
    /// encoding and hashing would otherwise be timed along with the
    /// simulation itself.
    pub fn run_quiet(self, threads: usize) -> FleetOutcome {
        let (mut out, sinks) = self.execute(threads, || NoopSink);
        out.digest = combine(sinks.iter().map(|_| 0));
        out
    }

    /// Execute and keep every cell's full trace (cell-index order).
    /// Memory-heavy; meant for tests at reduced scale.
    pub fn run_traced(self, threads: usize) -> (FleetOutcome, Vec<Trace>) {
        let (mut out, sinks) = self.execute(threads, MemorySink::new);
        let traces: Vec<Trace> = sinks.into_iter().map(MemorySink::into_trace).collect();
        out.digest = combine(traces.iter().map(DigestSink::of_trace));
        (out, traces)
    }

    /// Run every cell with its own sink from `new_sink`, monomorphised
    /// over the sink type so quiet cells run the branch-free `NoopSink`
    /// kernel. Returns the outcome, its digest unset, and the sinks in
    /// cell-index order.
    fn execute<S: TelemetrySink + Send>(
        self,
        threads: usize,
        new_sink: impl Fn() -> S,
    ) -> (FleetOutcome, Vec<S>) {
        assert!(threads >= 1, "need at least one worker");
        let start = Instant::now();
        let mut fleet_sink = MemorySink::new();

        let mut cells: Vec<Cell<S>> = self
            .cells
            .into_iter()
            .map(|exp| {
                let mut sink = new_sink();
                let run = EpochRun::new(exp, &mut sink);
                Cell { run, sink }
            })
            .collect();

        // Shards are contiguous chunks of cells, one per worker.
        let chunk = cells.len().div_ceil(threads).max(1);
        let end = SimTime::ZERO + self.horizon;
        let mut boundary = SimTime::ZERO;
        let mut epoch: u64 = 0;
        let mut reclamation = Reclamation::default();

        while boundary < end && !cells.is_empty() {
            boundary = (boundary + self.epoch).min(end);

            // Advance every shard to the boundary in parallel. Shards
            // are disjoint `&mut` chunks; the scope joins them all
            // before the exchange below reads anything.
            let spans: Vec<(usize, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = cells
                    .chunks_mut(chunk)
                    .map(|shard| {
                        scope.spawn(move || {
                            let mut events = 0;
                            for cell in shard.iter_mut() {
                                let before = cell.run.events_processed();
                                cell.run.run_until(boundary, &mut cell.sink);
                                events += cell.run.events_processed() - before;
                            }
                            (shard.len(), events)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });

            for (shard, &(cell_count, events)) in spans.iter().enumerate() {
                fleet_sink.record(TelemetryEvent::ShardSpan(ShardSpanRecord {
                    t: boundary,
                    epoch,
                    shard,
                    cells: cell_count as u64,
                    events,
                }));
            }

            // The exchange: single-threaded, cell-index order.
            let mut mean = [0.0f64; 3];
            for cell in cells.iter() {
                let u = cell.run.pool_utilization();
                for (m, v) in mean.iter_mut().zip(u) {
                    *m += v;
                }
            }
            let n = cells.len() as f64;
            for m in mean.iter_mut() {
                *m /= n;
            }

            let mut external = [0.0f64; 3];
            if self.coupling {
                external = mean;
                for cell in cells.iter_mut() {
                    cell.run.set_external_pressure(external);
                }
                let peak = mean.iter().cloned().fold(0.0f64, f64::max);
                if let Some(cap) = reclamation.step(peak) {
                    for cell in cells.iter_mut() {
                        cell.run.set_service_caps(cap);
                    }
                }
            }

            fleet_sink.record(TelemetryEvent::FleetSample(FleetSampleRecord {
                t: boundary,
                epoch,
                mean_util: mean,
                external_pressure: external,
                throttled: reclamation.throttled,
            }));
            epoch += 1;
        }

        // Final drain: completions and teardown past the horizon.
        if !cells.is_empty() {
            std::thread::scope(|scope| {
                for shard in cells.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for cell in shard.iter_mut() {
                            cell.run.run_to_completion(&mut cell.sink);
                        }
                    });
                }
            });
        }

        let mut sinks = Vec::with_capacity(cells.len());
        let mut results = Vec::with_capacity(cells.len());
        let mut totals = FleetTotals::default();
        let mut events = 0;
        for cell in cells {
            events += cell.run.events_processed();
            sinks.push(cell.sink);
            let mut result = cell.run.finish();
            totals.absorb(&mut result);
            results.push(result);
        }

        let outcome = FleetOutcome {
            digest: 0,
            results,
            totals,
            fleet_trace: fleet_sink.into_trace(),
            epochs: epoch,
            events,
            rejected: self.rejected,
            wall: start.elapsed(),
        };
        (outcome, sinks)
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::FleetSpec;

    fn tiny() -> FleetSpec {
        FleetSpec::new(5)
            .services(12)
            .cells(3)
            .days(2.0)
            .day_seconds(90.0)
            .epoch_s(20.0)
            .peak_scale(0.05, 0.1)
            .peak_floor(0.5)
    }

    #[test]
    fn digest_independent_of_thread_count() {
        let one = tiny().build().run(1);
        for threads in [2usize, 4, 8] {
            let many = tiny().build().run(threads);
            assert_eq!(one.digest, many.digest, "threads={threads}");
            assert_eq!(one.totals, many.totals, "threads={threads}");
            assert_eq!(one.events, many.events, "threads={threads}");
        }
    }

    #[test]
    fn traced_run_matches_digest_run() {
        let plain = tiny().build().run(1);
        let (traced, traces) = tiny().build().run_traced(4);
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(traces.len(), 3);
        assert!(traces.iter().any(|t| !t.events().is_empty()));
    }

    #[test]
    fn executor_emits_shard_and_fleet_telemetry() {
        let out = tiny().build().run(2);
        assert!(out.epochs > 0);
        assert_eq!(out.fleet_trace.fleet_samples().count() as u64, out.epochs);
        assert!(out.fleet_trace.shard_spans().count() as u64 >= out.epochs);
        let dispatched: u64 = out.fleet_trace.shard_spans().map(|s| s.events).sum();
        assert!(dispatched <= out.events);
    }

    #[test]
    fn epoch_length_does_not_change_results() {
        let coarse = tiny().epoch_s(45.0).build().run(2);
        let fine = tiny().epoch_s(7.0).coupling(false).build();
        // Different epoch lengths change *coupling sampling times*, so
        // compare with coupling off on both sides.
        let coarse_uncoupled = tiny().epoch_s(45.0).coupling(false).build().run(2);
        let fine = fine.run(3);
        assert_eq!(coarse_uncoupled.digest, fine.digest);
        // Coupled run still produces the same fleet shape.
        assert_eq!(coarse.totals.services, fine.totals.services);
    }
}
