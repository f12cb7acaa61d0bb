//! Running one cell — one simulated experiment or one fleet run — with
//! a host-time mark at every layer boundary, and folding its results
//! into summable counts, a fingerprint and the conservation gate.

use std::time::Instant;

use amoeba_core::{EpochRun, Experiment, RunResult};
use amoeba_fleet::{fnv1a, FleetTotals, FNV_OFFSET};
use amoeba_telemetry::{MemorySink, NoopSink, TelemetrySink};

use crate::traced::TallySink;
use crate::workloads::{self, Scale, Workload, FLEET_THREADS, GRID_CELLS};

/// An FNV-1a-64 fold over fixed-width little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Fold one word.
    pub fn word(&mut self, x: u64) {
        self.0 = fnv1a(self.0, &x.to_le_bytes());
    }
}

/// Simulated outcome counts of one or more cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub submitted: u64,
    pub completed: u64,
    pub violations: u64,
    pub core_s: f64,
    pub switches: u64,
    pub failed_switches: u64,
    pub wasted_prewarms: u64,
    pub cold_starts: u64,
    pub warm_execs: u64,
    pub serverless_queries: u64,
    pub spills: u64,
    pub wf_instances: u64,
    pub events: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.submitted += o.submitted;
        self.completed += o.completed;
        self.violations += o.violations;
        self.core_s += o.core_s;
        self.switches += o.switches;
        self.failed_switches += o.failed_switches;
        self.wasted_prewarms += o.wasted_prewarms;
        self.cold_starts += o.cold_starts;
        self.warm_execs += o.warm_execs;
        self.serverless_queries += o.serverless_queries;
        self.spills += o.spills;
        self.wf_instances += o.wf_instances;
        self.events += o.events;
    }
}

/// What the fleet executor reports beyond per-service results.
#[derive(Debug, Clone, Copy)]
pub struct FleetFacts {
    pub digest: u64,
    pub epochs: u64,
    pub events: u64,
    pub totals: FleetTotals,
    /// Σ per-epoch max ÷ Σ per-epoch mean shard events (1 = balanced).
    pub shard_imbalance: f64,
}

/// One timed cell.
pub struct CellRun {
    /// Host-time marks: start, after set-up (building the experiment and
    /// `EpochRun::new`, or `FleetSpec::build`), after advancing, after
    /// the result fold (`EpochRun::finish`), after reading telemetry,
    /// and after the benchmark's own bookkeeping.
    pub marks: [Instant; 6],
    pub tally: Tally,
    /// Counts toward `qos_violation_pct` and `core_s_per_query`.
    pub scored: bool,
    pub fingerprint: u64,
    /// Correctness gates this cell failed.
    pub broken: Vec<String>,
    pub fleet: Option<FleetFacts>,
}

impl CellRun {
    fn phase(&self, i: usize) -> f64 {
        (self.marks[i + 1] - self.marks[i]).as_secs_f64()
    }

    pub fn setup_s(&self) -> f64 {
        self.phase(0)
    }

    pub fn advance_s(&self) -> f64 {
        self.phase(1)
    }

    pub fn finish_s(&self) -> f64 {
        self.phase(2)
    }

    pub fn telemetry_s(&self) -> f64 {
        self.phase(3)
    }

    /// Whole cell, bookkeeping included.
    pub fn wall_s(&self) -> f64 {
        (self.marks[5] - self.marks[0]).as_secs_f64()
    }
}

/// One unit of a workload: its cells and their combined fingerprint.
pub struct UnitRun {
    pub cells: Vec<CellRun>,
    pub fingerprint: u64,
}

impl UnitRun {
    pub fn submitted(&self) -> u64 {
        self.cells.iter().map(|c| c.tally.submitted).sum()
    }

    pub fn broken(&self) -> impl Iterator<Item = &String> {
        self.cells.iter().flat_map(|c| c.broken.iter())
    }
}

/// Run unit `unit` of workload `w`. With `tally`, the single-experiment
/// cells record telemetry into it (the traced repetition).
pub fn run_unit(
    w: Workload,
    scale: &Scale,
    seed: u64,
    unit: u64,
    mut tally: Option<&mut TallySink>,
) -> UnitRun {
    let useed = workloads::unit_seed(seed, unit);
    let mut cells: Vec<CellRun> = match w {
        Workload::PaperGrid => (0..GRID_CELLS)
            .map(|c| {
                let build = || workloads::grid_experiment(c, scale.day_s, useed);
                let scored = workloads::scored(w, c);
                match tally.as_deref_mut() {
                    Some(t) => experiment_cell(build, t, scored),
                    None => experiment_cell(build, &mut NoopSink, scored),
                }
            })
            .collect(),
        Workload::ChaosDag => vec![chaos_cell(scale.day_s, useed, tally)],
        Workload::FleetWeek | Workload::FleetWeekDigest => {
            vec![fleet_cell(w, scale, seed, FLEET_THREADS)]
        }
    };
    let mut fp = Fnv::default();
    for (i, c) in cells.iter_mut().enumerate() {
        fp.word(c.fingerprint);
        for b in &mut c.broken {
            *b = format!("{} seed {useed} cell {i}: {b}", w.name());
        }
    }
    UnitRun {
        fingerprint: fp.0,
        cells,
    }
}

/// Build, advance and fold one experiment into `sink`, marking each
/// layer call. Returns the marks up to the fold and the raw result.
fn run_experiment<S: TelemetrySink>(
    build: impl FnOnce() -> Experiment,
    sink: &mut S,
) -> ([Instant; 4], RunResult, u64) {
    let t0 = Instant::now();
    let mut run = EpochRun::new(build(), sink);
    let t1 = Instant::now();
    run.run_to_completion(sink);
    let t2 = Instant::now();
    let events = run.events_processed();
    let result = run.finish();
    let t3 = Instant::now();
    ([t0, t1, t2, t3], result, events)
}

fn experiment_cell<S: TelemetrySink>(
    build: impl FnOnce() -> Experiment,
    sink: &mut S,
    scored: bool,
) -> CellRun {
    let ([t0, t1, t2, t3], result, events) = run_experiment(build, sink);
    let t4 = Instant::now();
    let mut f = Folded::default();
    f.result(&result);
    f.tally.events = events;
    f.into_cell([t0, t1, t2, t3, t4], scored, None)
}

/// The chaos cell records to memory and reads the trace's fault,
/// recovery and switch-span accessors, as the resilience report does;
/// what they return joins the fingerprint.
fn chaos_cell(day_s: f64, seed: u64, tally: Option<&mut TallySink>) -> CellRun {
    let mut sink = MemorySink::new();
    let ([t0, t1, t2, t3], result, events) =
        run_experiment(|| workloads::chaos_experiment(day_s, seed), &mut sink);
    let trace = sink.into_trace();
    let faults = trace.faults().count() as u64;
    let recovery_s: f64 = trace.recoveries().map(|r| r.after_s).sum();
    let completed_spans = trace
        .switch_spans()
        .iter()
        .filter(|s| s.completed())
        .count();
    if let Some(t) = tally {
        for e in trace.events() {
            t.count(e);
        }
    }
    drop(trace);
    let t4 = Instant::now();
    let mut f = Folded::default();
    f.result(&result);
    f.tally.events = events;
    for word in [faults, recovery_s.to_bits(), completed_spans as u64] {
        f.fp.word(word);
    }
    f.into_cell([t0, t1, t2, t3, t4], true, None)
}

/// One fleet run on `threads` workers: `FleetSpec::build` is the set-up,
/// the run (cells advance and fold inside the executor) the advance.
pub fn fleet_cell(w: Workload, scale: &Scale, seed: u64, threads: usize) -> CellRun {
    let digest_mode = w == Workload::FleetWeekDigest;
    let t0 = Instant::now();
    let run = workloads::fleet_spec(scale, seed).build();
    let t1 = Instant::now();
    let out = if digest_mode {
        run.run(threads)
    } else {
        run.run_quiet(threads)
    };
    let t2 = Instant::now();
    let mut f = Folded::default();
    for r in &out.results {
        f.result(r);
    }
    f.tally.events = out.events;
    f.fp.word(out.digest);
    if let Some((known_seed, known)) = scale.known_digest {
        if digest_mode && seed == known_seed && out.digest != known {
            f.broken.push(format!(
                "fleet digest {:#018x} at seed {seed}, expected {known:#018x}",
                out.digest
            ));
        }
    }
    let facts = FleetFacts {
        digest: out.digest,
        epochs: out.epochs,
        events: out.events,
        totals: out.totals,
        shard_imbalance: shard_imbalance(&out.fleet_trace),
    };
    drop(out);
    // The executor folds cell results inside the run: no separate
    // finish or telemetry phase is visible from outside.
    f.into_cell([t0, t1, t2, t2, t2], true, Some(facts))
}

fn shard_imbalance(trace: &amoeba_telemetry::Trace) -> f64 {
    let mut per_epoch: std::collections::BTreeMap<u64, (u64, u64, u64)> = Default::default();
    for s in trace.shard_spans() {
        let e = per_epoch.entry(s.epoch).or_default();
        e.0 = e.0.max(s.events);
        e.1 += s.events;
        e.2 += 1;
    }
    let (max_sum, mean_sum) = per_epoch
        .values()
        .fold((0.0, 0.0), |(m, a), &(max, sum, n)| {
            (m + max as f64, a + sum as f64 / n as f64)
        });
    if mean_sum > 0.0 {
        max_sum / mean_sum
    } else {
        1.0
    }
}

/// Time set-up alone: what one cell of `w` does before its first event.
pub fn setup_only(w: Workload, scale: &Scale, seed: u64) -> f64 {
    let t0 = Instant::now();
    let exp = match w {
        Workload::PaperGrid => workloads::grid_experiment(0, scale.day_s, seed),
        Workload::ChaosDag => workloads::chaos_experiment(scale.day_s, seed),
        Workload::FleetWeek | Workload::FleetWeekDigest => {
            let run = workloads::fleet_spec(scale, seed).build();
            let s = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(run));
            return s;
        }
    };
    let run = EpochRun::new(exp, &mut NoopSink);
    let s = t0.elapsed().as_secs_f64();
    drop(std::hint::black_box(run));
    s
}

/// Results folded into counts, fingerprint and gate failures.
#[derive(Default)]
struct Folded {
    tally: Tally,
    fp: Fnv,
    broken: Vec<String>,
}

impl Folded {
    /// Fold one experiment's results: per-service submitted, completed,
    /// failed, violations, core-seconds and switches into the
    /// fingerprint, and `submitted == completed + failed` per service
    /// and per workflow.
    fn result(&mut self, r: &RunResult) {
        let t = &mut self.tally;
        for s in &r.services {
            let violations = (s.violation_ratio() * s.latency.count() as f64).round() as u64;
            if s.submitted != s.completed + s.failed {
                self.broken.push(format!(
                    "service {}: submitted {} != completed {} + failed {}",
                    s.name, s.submitted, s.completed, s.failed
                ));
            }
            for word in [
                s.submitted as u64,
                s.completed as u64,
                s.failed as u64,
                violations,
                s.usage.core_seconds.to_bits(),
                s.switch_history.len() as u64,
            ] {
                self.fp.word(word);
            }
            t.submitted += s.submitted as u64;
            t.completed += s.completed as u64;
            t.violations += violations;
            t.core_s += s.usage.core_seconds;
            t.switches += s.switch_history.len() as u64;
            t.warm_execs += s.breakdown.count as u64;
            t.serverless_queries += s.serverless_queries as u64;
        }
        for wf in &r.workflows {
            if wf.submitted != wf.completed + wf.failed {
                self.broken.push(format!(
                    "workflow {}: submitted {} != completed {} + failed {}",
                    wf.name, wf.submitted, wf.completed, wf.failed
                ));
            }
            for word in [wf.submitted, wf.completed, wf.failed, wf.violations] {
                self.fp.word(word as u64);
            }
            t.wf_instances += wf.submitted as u64;
        }
        t.failed_switches += r.failed_switches;
        t.wasted_prewarms += r.wasted_prewarms;
        t.cold_starts += r.cold_starts;
        t.spills += r.multinode.as_ref().map_or(0, |m| m.spill_total);
    }

    /// The cell, given its marks up to reading telemetry; the last mark
    /// (the end of the benchmark's own bookkeeping) is taken now.
    fn into_cell(self, m: [Instant; 5], scored: bool, fleet: Option<FleetFacts>) -> CellRun {
        CellRun {
            marks: [m[0], m[1], m[2], m[3], m[4], Instant::now()],
            tally: self.tally,
            scored,
            fingerprint: self.fp.0,
            broken: self.broken,
            fleet,
        }
    }
}
