//! The shared serverless platform: per-service FIFO queues, container
//! pool, cold starts, keep-alive, prewarming and multi-resource
//! contention.

use crate::cluster::{ClusterEvent, Effect};
use crate::config::ServerlessConfig;
use crate::ids::{ContainerId, ServiceId};
use crate::query::{LatencyBreakdown, Query, QueryOutcome};
use crate::resources::{LoadVector, SharedResources};
use amoeba_sim::{Distributions, SimDuration, SimRng, SimTime};
use amoeba_telemetry::DeployMode;
use amoeba_workload::MicroserviceSpec;
use std::collections::VecDeque;

/// Pre-derived execution profile of a registered service.
#[derive(Debug, Clone)]
struct ServiceProfile {
    spec: MicroserviceSpec,
    /// Uncontended phase durations [cpu, io, net], seconds.
    phases: [f64; 3],
    /// Average resource rates while executing (cpu cores, MB/s disk,
    /// MB/s net) — the invocation's contribution to pool contention.
    rates: LoadVector,
    /// Code-loading overhead for this function, seconds.
    code_load_s: f64,
}

#[derive(Debug, Clone)]
enum ContainerState {
    /// Cold-starting since `since`; optionally a query is riding the cold
    /// start (it pays the cold-start latency). `None` = prewarm.
    Warming {
        since: SimTime,
        query: Option<Query>,
    },
    /// Warm and idle in idle-`epoch` (guards stale expire timers).
    Idle { epoch: u64 },
    /// Executing one query (one in-flight execution per container, §V-A).
    Busy {
        query: Query,
        assigned: SimTime,
        cold_start: SimDuration,
        load: LoadVector,
        exec_s: f64,
    },
}

/// Struct-of-arrays container table.
///
/// `ContainerId`s are issued from a monotone counter, so appending keeps
/// `ids` sorted ascending: binary search replaces the old `BTreeMap`
/// lookup, positional access (`ids[victim_idx]`) replaces the ordered
/// `keys().nth()` crash-victim walk with identical ascending-id
/// semantics, and state scans walk contiguous memory. Per-service
/// live/busy tallies are maintained on every insert/remove/transition so
/// the capacity checks and metering reads the runtime performs per tick
/// (`container_count`, `busy_count`, `can_create_container`) are O(1)
/// instead of full-pool filters.
struct ContainerTable {
    /// Live container ids, strictly ascending.
    ids: Vec<ContainerId>,
    /// Owning service, parallel to `ids`.
    service: Vec<ServiceId>,
    /// Execution state, parallel to `ids`.
    state: Vec<ContainerState>,
    /// Reuse-epoch counter (guards stale expire timers), parallel to `ids`.
    epoch: Vec<u64>,
    /// Containers per service, any state.
    live: Vec<u32>,
    /// Busy containers per service.
    busy: Vec<u32>,
}

impl ContainerTable {
    fn new() -> Self {
        ContainerTable {
            ids: Vec::new(),
            service: Vec::new(),
            state: Vec::new(),
            epoch: Vec::new(),
            live: Vec::new(),
            busy: Vec::new(),
        }
    }

    /// Extend the per-service tallies for a newly registered service.
    fn add_service(&mut self) {
        self.live.push(0);
        self.busy.push(0);
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn index_of(&self, cid: ContainerId) -> Option<usize> {
        self.ids.binary_search(&cid).ok()
    }

    /// Append a new container. `cid` must exceed every stored id (ids
    /// come from a monotone counter), keeping the table sorted.
    fn insert(&mut self, cid: ContainerId, service: ServiceId, state: ContainerState) {
        debug_assert!(self.ids.last().is_none_or(|&last| last < cid));
        if matches!(state, ContainerState::Busy { .. }) {
            self.busy[service.raw() as usize] += 1;
        }
        self.live[service.raw() as usize] += 1;
        self.ids.push(cid);
        self.service.push(service);
        self.state.push(state);
        self.epoch.push(0);
    }

    /// Remove the container at `idx`, returning its service and state.
    fn remove_at(&mut self, idx: usize) -> (ServiceId, ContainerState) {
        let service = self.service.remove(idx);
        let state = self.state.remove(idx);
        self.ids.remove(idx);
        self.epoch.remove(idx);
        self.live[service.raw() as usize] -= 1;
        if matches!(state, ContainerState::Busy { .. }) {
            self.busy[service.raw() as usize] -= 1;
        }
        (service, state)
    }

    fn remove(&mut self, cid: ContainerId) -> Option<(ServiceId, ContainerState)> {
        self.index_of(cid).map(|idx| self.remove_at(idx))
    }

    /// Transition the container at `idx`, keeping the busy tally exact.
    fn set_state(&mut self, idx: usize, new: ContainerState) {
        let sid = self.service[idx].raw() as usize;
        let was_busy = matches!(self.state[idx], ContainerState::Busy { .. });
        let is_busy = matches!(new, ContainerState::Busy { .. });
        match (was_busy, is_busy) {
            (false, true) => self.busy[sid] += 1,
            (true, false) => self.busy[sid] -= 1,
            _ => {}
        }
        self.state[idx] = new;
    }
}

/// What one injected container crash hit (see
/// [`ServerlessPlatform::crash_container`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// The service whose container died.
    pub service: ServiceId,
    /// The in-flight query that was executing (or riding the cold
    /// start) when the container died, if any.
    pub displaced: Option<Query>,
    /// The victim was a prewarm still warming up — its readiness ack
    /// will never arrive.
    pub was_prewarm: bool,
}

/// The serverless computing platform.
pub struct ServerlessPlatform {
    cfg: ServerlessConfig,
    services: Vec<ServiceProfile>,
    containers: ContainerTable,
    /// Idle warm containers per service, oldest first.
    idle: Vec<VecDeque<ContainerId>>,
    /// Queued queries per service, oldest first, each with its arrival
    /// number. Together with `order` this is the FIFO queue of Fig. 7.
    queues: Vec<VecDeque<(u64, Query)>>,
    /// `(arrival number, service)` of queued queries across services,
    /// oldest first. A query that leaves through a warm hit ahead of an
    /// older one leaves its entry behind; the entry is dropped when it
    /// reaches the front, or by a sweep once stale entries outnumber
    /// live ones by more than 64.
    order: VecDeque<(u64, ServiceId)>,
    /// The next arrival number.
    next_arrival: u64,
    /// Queued queries across every service.
    queued: usize,
    resources: SharedResources,
    /// Outstanding prewarm counts per service.
    prewarm_pending: Vec<u32>,
    /// Per-service container-cap overrides (vendor admission hook);
    /// `None` falls back to the global `tenant_container_cap`.
    tenant_caps: Vec<Option<u32>>,
    /// Services released by the engine: their busy containers terminate
    /// on completion instead of going idle.
    draining: Vec<bool>,
    next_container: u64,
    /// Completion counters for observability.
    completed: u64,
    cold_starts: u64,
}

impl ServerlessPlatform {
    /// A platform with the given configuration and no services.
    pub fn new(cfg: ServerlessConfig) -> Self {
        let resources = SharedResources::new(
            LoadVector {
                cpu_cores: cfg.node.cores,
                io_mbps: cfg.node.disk_bw_mbps,
                net_mbps: cfg.node.nic_bw_mbps,
            },
            cfg.slowdown_kappa,
            cfg.max_utilization,
        );
        ServerlessPlatform {
            cfg,
            services: Vec::new(),
            containers: ContainerTable::new(),
            idle: Vec::new(),
            queues: Vec::new(),
            order: VecDeque::new(),
            next_arrival: 0,
            queued: 0,
            resources,
            prewarm_pending: Vec::new(),
            tenant_caps: Vec::new(),
            draining: Vec::new(),
            next_container: 0,
            completed: 0,
            cold_starts: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServerlessConfig {
        &self.cfg
    }

    /// Register a microservice's function. Called once per service at
    /// submission time (§III: the maintainer provides the executable
    /// function).
    pub fn register(&mut self, spec: MicroserviceSpec) -> ServiceId {
        assert!(spec.is_valid(), "invalid spec for {}", spec.name);
        let d = &spec.demand;
        let phases = [
            d.cpu_s,
            d.io_mb / self.cfg.per_flow_io_mbps,
            d.net_mb / self.cfg.per_flow_net_mbps,
        ];
        // Rates averaged over the uncontended execution; floor the base
        // duration so a near-empty demand vector cannot divide by zero.
        let base: f64 = phases.iter().sum::<f64>().max(1e-3);
        let rates = LoadVector {
            cpu_cores: d.cpu_s / base,
            io_mbps: d.io_mb / base,
            net_mbps: d.net_mb / base,
        };
        let code_load_s = self.cfg.code_load_base_s + self.cfg.code_load_s_per_mb * d.mem_mb;
        let id = ServiceId(self.services.len() as u32);
        self.services.push(ServiceProfile {
            spec,
            phases,
            rates,
            code_load_s,
        });
        self.idle.push(VecDeque::new());
        self.queues.push(VecDeque::new());
        self.containers.add_service();
        self.prewarm_pending.push(0);
        self.tenant_caps.push(None);
        self.draining.push(false);
        id
    }

    /// Override (or with `None` restore) one service's container cap.
    /// The vendor's reclamation loop uses this to throttle tenants when
    /// the pool saturates; containers above a lowered cap are not killed,
    /// they age out through keep-alive.
    pub fn set_tenant_cap(&mut self, service: ServiceId, cap: Option<u32>) {
        self.tenant_caps[service.raw() as usize] = cap;
    }

    /// The container cap currently in force for `service`.
    pub fn tenant_cap(&self, service: ServiceId) -> u32 {
        self.tenant_caps[service.raw() as usize].unwrap_or(self.cfg.tenant_container_cap)
    }

    /// The registered spec.
    pub fn spec(&self, service: ServiceId) -> &MicroserviceSpec {
        &self.services[service.raw() as usize].spec
    }

    /// Uncontended execution time of one query (the `L₀` exec component).
    pub fn solo_exec_seconds(&self, service: ServiceId) -> f64 {
        self.services[service.raw() as usize].phases.iter().sum()
    }

    /// Average resource rates one in-flight invocation of `service`
    /// drives (cores, MB/s disk, MB/s net) — what the controller uses to
    /// estimate the service's own contribution to pool pressure and the
    /// impact a switch would have on co-located tenants (§III: a switch
    /// must not cause QoS violation of current applications).
    pub fn service_rates(&self, service: ServiceId) -> LoadVector {
        self.services[service.raw() as usize].rates
    }

    /// Uncontended phase durations [cpu, io, net] of one query, seconds.
    pub fn service_phases(&self, service: ServiceId) -> [f64; 3] {
        self.services[service.raw() as usize].phases
    }

    /// Total per-query platform overhead (auth + code load + post) — the
    /// `α` of Eq. 6.
    pub fn overhead_seconds(&self, service: ServiceId) -> f64 {
        let p = &self.services[service.raw() as usize];
        self.cfg.auth_s + p.code_load_s + self.cfg.result_post_s
    }

    /// Uncontended end-to-end latency of one query (`L₀` including
    /// overheads), which is what a solo profiling run observes.
    pub fn solo_latency_seconds(&self, service: ServiceId) -> f64 {
        self.solo_exec_seconds(service) + self.overhead_seconds(service)
    }

    // ------------------------------------------------------------------
    // Capacity bookkeeping
    // ------------------------------------------------------------------

    /// Number of containers currently held by `service` (any state).
    pub fn container_count(&self, service: ServiceId) -> u32 {
        self.containers.live[service.raw() as usize]
    }

    /// Number of busy containers of `service`.
    pub fn busy_count(&self, service: ServiceId) -> u32 {
        self.containers.busy[service.raw() as usize]
    }

    /// Total containers in the pool.
    pub fn total_containers(&self) -> u32 {
        self.containers.len() as u32
    }

    /// Queued (not yet assigned) queries.
    pub fn queue_len(&self) -> usize {
        self.queued
    }

    /// Pool utilisation on [cpu, io, net].
    pub fn utilization(&self) -> [f64; 3] {
        self.resources.utilization()
    }

    /// Current slowdown factors on [cpu, io, net].
    pub fn slowdowns(&self) -> [f64; 3] {
        self.resources.slowdowns()
    }

    /// Aggregate load on the pool (for usage accounting).
    pub fn current_load(&self) -> LoadVector {
        self.resources.current_load()
    }

    /// Completed-query counter.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Cold starts incurred so far.
    pub fn cold_start_count(&self) -> u64 {
        self.cold_starts
    }

    fn can_create_container(&self, service: ServiceId) -> bool {
        // Both operands are O(1) reads off the tallies.
        let tenant_ok = self.container_count(service) < self.tenant_cap(service);
        let memory_ok = (self.containers.len() as u32) < self.cfg.memory_container_cap();
        tenant_ok && memory_ok
    }

    /// Evict the oldest idle container of any *other* service to free one
    /// memory slot. Returns true if something was evicted.
    fn evict_one_idle(&mut self, except: ServiceId) -> bool {
        // Deterministic order: scan services by id, oldest idle first.
        for (sid, idle) in self.idle.iter_mut().enumerate() {
            if sid as u32 == except.raw() {
                continue;
            }
            if let Some(cid) = idle.pop_front() {
                self.containers.remove(cid);
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Query path
    // ------------------------------------------------------------------

    /// Submit a query to the platform.
    pub fn submit(&mut self, query: Query, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        let mut effects = Vec::new();
        if !self.try_place(query, now, rng, &mut effects) {
            let arrival = self.next_arrival;
            self.next_arrival += 1;
            self.queues[query.service.raw() as usize].push_back((arrival, query));
            self.order.push_back((arrival, query.service));
            self.queued += 1;
        }
        effects
    }

    /// Try to start `query` right now (warm hit or cold start). Returns
    /// false if it must queue.
    fn try_place(
        &mut self,
        query: Query,
        now: SimTime,
        rng: &mut SimRng,
        effects: &mut Vec<Effect>,
    ) -> bool {
        // Warm hit. LIFO reuse: always take the most recently idled
        // container so a low-rate tenant keeps exactly one container hot
        // and the excess ages out through keep-alive (FIFO rotation
        // would refresh the whole pool forever).
        if let Some(cid) = self.idle[query.service.raw() as usize].pop_back() {
            self.start_execution(cid, query, now, SimDuration::ZERO, rng, effects);
            return true;
        }
        // Cold start, evicting an idle container of another tenant if the
        // pool is memory-full.
        if !self.can_create_container(query.service)
            && self.container_count(query.service) < self.tenant_cap(query.service)
        {
            self.evict_one_idle(query.service);
        }
        if self.can_create_container(query.service) {
            let cid = self.create_container(query.service, now, Some(query), rng, effects);
            debug_assert!(self.containers.index_of(cid).is_some());
            return true;
        }
        false
    }

    fn create_container(
        &mut self,
        service: ServiceId,
        now: SimTime,
        query: Option<Query>,
        rng: &mut SimRng,
        effects: &mut Vec<Effect>,
    ) -> ContainerId {
        let cid = ContainerId(self.next_container);
        self.next_container += 1;
        self.containers
            .insert(cid, service, ContainerState::Warming { since: now, query });
        self.cold_starts += 1;
        // Lognormal cold start around the configured median (§V-A: one to
        // three seconds).
        let mu = self.cfg.cold_start_median_s.ln();
        let cold_s = rng.lognormal(mu, self.cfg.cold_start_sigma);
        effects.push(Effect::Schedule {
            after: SimDuration::from_secs_f64(cold_s),
            event: ClusterEvent::ColdStartDone { container: cid },
        });
        cid
    }

    fn start_execution(
        &mut self,
        cid: ContainerId,
        query: Query,
        now: SimTime,
        cold_start: SimDuration,
        rng: &mut SimRng,
        effects: &mut Vec<Effect>,
    ) {
        let idx = self
            .containers
            .index_of(cid)
            .expect("start_execution requires a live container: caller just looked it up");
        let service = self.containers.service[idx];
        debug_assert_eq!(service, query.service, "container/service mismatch");
        let profile = &self.services[service.raw() as usize];
        let rates = profile.rates;
        let phases = profile.phases;

        // The new invocation contributes to the contention it suffers,
        // but at *work-conserving* rates: it moves the same totals
        // (cpu-seconds, MB) over its contention-stretched execution, so
        // its average rate is the uncontended rate divided by the
        // stretch. The stretch depends on the slowdown which depends on
        // the rates — resolve with one fixed-point step: estimate the
        // stretch from the environment's slowdowns, account ourselves at
        // that rate, then sample the slowdowns we actually experience.
        let base_exec: f64 = phases.iter().sum::<f64>().max(1e-9);
        let s_env = self.resources.slowdowns();
        let stretch_est = ((phases[0] * s_env[0] + phases[1] * s_env[1] + phases[2] * s_env[2])
            / base_exec)
            .max(1.0);
        let held_est = LoadVector {
            cpu_cores: rates.cpu_cores / stretch_est,
            io_mbps: rates.io_mbps / stretch_est,
            net_mbps: rates.net_mbps / stretch_est,
        };
        self.resources.acquire(&held_est);
        let s = self.resources.slowdowns();
        let jitter = rng.lognormal(0.0, self.cfg.exec_jitter_sigma);
        let exec_s = (phases[0] * s[0] + phases[1] * s[1] + phases[2] * s[2]) * jitter;
        let busy_s = self.cfg.auth_s
            + self.services[service.raw() as usize].code_load_s
            + exec_s
            + self.cfg.result_post_s;
        // Final accounting at the realised stretch.
        self.resources.release(&held_est);
        let stretch = (exec_s / base_exec).max(1e-3);
        let held = LoadVector {
            cpu_cores: rates.cpu_cores / stretch,
            io_mbps: rates.io_mbps / stretch,
            net_mbps: rates.net_mbps / stretch,
        };
        self.resources.acquire(&held);

        self.containers.epoch[idx] += 1;
        self.containers.set_state(
            idx,
            ContainerState::Busy {
                query,
                assigned: now,
                cold_start,
                load: held,
                exec_s,
            },
        );
        effects.push(Effect::Schedule {
            after: SimDuration::from_secs_f64(busy_s),
            event: ClusterEvent::ServerlessExecDone { container: cid },
        });
    }

    /// Handle a fired event. Unknown/stale events are ignored (they can
    /// outlive their container by design — see `ContainerExpire`).
    pub fn handle(&mut self, event: ClusterEvent, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        match event {
            ClusterEvent::ColdStartDone { container } => {
                self.on_cold_start_done(container, now, rng)
            }
            ClusterEvent::ServerlessExecDone { container } => {
                self.on_exec_done(container, now, rng)
            }
            ClusterEvent::ContainerExpire { container, epoch } => {
                self.on_expire(container, epoch, now, rng)
            }
            _ => Vec::new(),
        }
    }

    fn on_cold_start_done(
        &mut self,
        cid: ContainerId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        let Some(idx) = self.containers.index_of(cid) else {
            return effects;
        };
        let service = self.containers.service[idx];
        match self.containers.state[idx].clone() {
            ContainerState::Warming {
                since,
                query: Some(q),
            } => {
                let cold = now.duration_since(since);
                self.start_execution(cid, q, now, cold, rng, &mut effects);
            }
            ContainerState::Warming {
                since: _,
                query: None,
            } => {
                // Prewarmed container comes up idle.
                self.make_idle(cid, now, &mut effects);
                let pending = &mut self.prewarm_pending[service.raw() as usize];
                if *pending > 0 {
                    *pending -= 1;
                    if *pending == 0 {
                        effects.push(Effect::PrewarmReady { service });
                    }
                }
                self.dispatch_queue(Some(service), now, rng, &mut effects);
            }
            _ => {}
        }
        effects
    }

    fn on_exec_done(&mut self, cid: ContainerId, now: SimTime, rng: &mut SimRng) -> Vec<Effect> {
        let mut effects = Vec::new();
        let Some(idx) = self.containers.index_of(cid) else {
            return effects;
        };
        if let ContainerState::Busy {
            query,
            assigned,
            cold_start,
            load,
            exec_s,
        } = self.containers.state[idx].clone()
        {
            self.resources.release(&load);
            self.completed += 1;
            let profile = &self.services[query.service.raw() as usize];
            let queue_wait = assigned
                .duration_since(query.submitted)
                .saturating_sub(cold_start);
            let breakdown = LatencyBreakdown {
                queue_wait,
                cold_start,
                auth: SimDuration::from_secs_f64(self.cfg.auth_s),
                code_load: SimDuration::from_secs_f64(profile.code_load_s),
                result_post: SimDuration::from_secs_f64(self.cfg.result_post_s),
                exec: SimDuration::from_secs_f64(exec_s),
            };
            effects.push(Effect::Completed(QueryOutcome {
                query,
                completed: now,
                executed_on: DeployMode::Serverless,
                breakdown,
            }));
            let sid = query.service.raw() as usize;
            if self.draining[sid] && !self.idle[sid].is_empty() {
                // The engine switched this service away; its containers
                // terminate as they drain instead of idling for a full
                // keep-alive (S_sd, §V-B). One warm container is kept so
                // the low-rate shadow/calibration traffic (§III step 1)
                // does not cold-start every probe.
                self.containers.remove(cid);
            } else {
                self.make_idle(cid, now, &mut effects);
            }
            self.dispatch_queue(Some(query.service), now, rng, &mut effects);
        }
        effects
    }

    fn make_idle(&mut self, cid: ContainerId, _now: SimTime, effects: &mut Vec<Effect>) {
        let idx = self
            .containers
            .index_of(cid)
            .expect("make_idle requires a live container: callers transition existing state");
        self.containers.epoch[idx] += 1;
        let epoch = self.containers.epoch[idx];
        let service = self.containers.service[idx];
        self.containers
            .set_state(idx, ContainerState::Idle { epoch });
        self.idle[service.raw() as usize].push_back(cid);
        effects.push(Effect::Schedule {
            after: self.cfg.keep_alive,
            event: ClusterEvent::ContainerExpire {
                container: cid,
                epoch,
            },
        });
    }

    fn on_expire(
        &mut self,
        cid: ContainerId,
        epoch: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        let Some(idx) = self.containers.index_of(cid) else {
            return effects;
        };
        if matches!(self.containers.state[idx], ContainerState::Idle { epoch: e } if e == epoch) {
            let (service, _) = self.containers.remove_at(idx);
            self.idle[service.raw() as usize].retain(|&x| x != cid);
            // The freed memory slot may unblock queued queries of a
            // capped tenant.
            self.dispatch_queue(None, now, rng, &mut effects);
        }
        effects
    }

    /// Place queued queries until neither rule applies: the oldest query
    /// starts on a warm container of its service or, if its service may
    /// grow, on a cold one (new capacity goes out in FIFO order); failing
    /// that, the oldest query of `woken` takes a warm hit past the
    /// blocked head (OpenWhisk schedules per action). `woken` is the
    /// service whose container just went idle, if any. It is the only
    /// service that can hold an idle container and a queued query here,
    /// because between public calls no service holds both: `submit`
    /// takes a warm hit before it queues, every path that idles a
    /// container ends in a dispatch, and nothing else adds idle ones.
    fn dispatch_queue(
        &mut self,
        woken: Option<ServiceId>,
        now: SimTime,
        rng: &mut SimRng,
        effects: &mut Vec<Effect>,
    ) {
        loop {
            let service = match self.oldest_queued() {
                Some(head)
                    if !self.idle[head.raw() as usize].is_empty()
                        || self.can_create_container(head) =>
                {
                    head
                }
                _ => match woken {
                    Some(w)
                        if !self.idle[w.raw() as usize].is_empty()
                            && !self.queues[w.raw() as usize].is_empty() =>
                    {
                        w
                    }
                    _ => break,
                },
            };
            let (_, q) = self.queues[service.raw() as usize]
                .pop_front()
                .expect("the chosen service has a queued query");
            self.queued -= 1;
            let ok = self.try_place(q, now, rng, effects);
            debug_assert!(ok, "placement decided above must succeed");
        }
        if self.order.len() > 2 * self.queued + 64 {
            // Each service's queries leave in arrival order, so an entry
            // is live iff its service's oldest queued query is no newer.
            let queues = &self.queues;
            self.order.retain(|&(arrival, sid)| {
                queues[sid.raw() as usize]
                    .front()
                    .is_some_and(|&(oldest, _)| oldest <= arrival)
            });
        }
        debug_assert!(
            self.idle
                .iter()
                .zip(&self.queues)
                .all(|(idle, queued)| idle.is_empty() || queued.is_empty()),
            "a service holds an idle container and a queued query"
        );
        debug_assert_eq!(
            self.queued,
            self.queues.iter().map(VecDeque::len).sum::<usize>()
        );
    }

    /// The service of the oldest queued query, dropping order entries
    /// whose query already left.
    fn oldest_queued(&mut self) -> Option<ServiceId> {
        while let Some(&(arrival, sid)) = self.order.front() {
            let oldest = self.queues[sid.raw() as usize].front();
            if oldest.is_some_and(|&(a, _)| a == arrival) {
                return Some(sid);
            }
            self.order.pop_front();
        }
        None
    }

    // ------------------------------------------------------------------
    // Prewarm & release (the hybrid engine's levers)
    // ------------------------------------------------------------------

    /// Ensure `count` warm (idle or warming) containers exist for
    /// `service`, creating the shortfall. Emits [`Effect::PrewarmReady`]
    /// once all requested containers are warm — immediately if already
    /// satisfied. (Eq. 7 decides `count`; the engine calls this before a
    /// switch to serverless, §V-B.)
    pub fn prewarm(
        &mut self,
        service: ServiceId,
        count: u32,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Effect> {
        self.draining[service.raw() as usize] = false;
        let mut effects = Vec::new();
        let sid = service.raw() as usize;
        let existing = self.containers.live[sid] - self.containers.busy[sid];
        let mut shortfall = count.saturating_sub(existing);
        if shortfall == 0 {
            effects.push(Effect::PrewarmReady { service });
            return effects;
        }
        let mut created = 0;
        while shortfall > 0 {
            if !self.can_create_container(service)
                && self.container_count(service) < self.tenant_cap(service)
                && !self.evict_one_idle(service)
            {
                break;
            }
            if !self.can_create_container(service) {
                break;
            }
            self.create_container(service, now, None, rng, &mut effects);
            created += 1;
            shortfall -= 1;
        }
        if created == 0 {
            // Could not create anything (caps). Report ready with what
            // exists rather than deadlocking the switch.
            effects.push(Effect::PrewarmReady { service });
        } else {
            self.prewarm_pending[sid] += created;
        }
        effects
    }

    /// Clear a service's draining state: its containers idle normally
    /// again. The engine calls this when real traffic is routed back to
    /// the serverless platform (the NoP ablation flips the router with
    /// no prewarm, which is the other path that ends a drain).
    pub fn resume_service(&mut self, service: ServiceId) {
        self.draining[service.raw() as usize] = false;
    }

    // ------------------------------------------------------------------
    // Fault injection (the chaos layer's lever)
    // ------------------------------------------------------------------

    /// Kill the `victim_idx`-th live container (by ascending container
    /// id, `victim_idx < total_containers()`), modelling a container
    /// crash. The caller picks the index — typically uniformly from a
    /// fault-injection RNG stream — so the platform itself stays
    /// deterministic and RNG-free on this path.
    ///
    /// Held resources are released, stale scheduled events for the
    /// container become no-ops (the pool ignores events for unknown
    /// ids), and any in-flight query is handed back in the
    /// [`CrashReport`] for the caller to re-queue or fail. A crashed
    /// prewarm decrements the outstanding prewarm count *without*
    /// emitting [`Effect::PrewarmReady`] — the ack is simply lost,
    /// which is what the engine's ack-timeout machinery exists for.
    pub fn crash_container(
        &mut self,
        victim_idx: usize,
        now: SimTime,
        rng: &mut SimRng,
    ) -> (Vec<Effect>, Option<CrashReport>) {
        let mut effects = Vec::new();
        let Some(&cid) = self.containers.ids.get(victim_idx) else {
            return (effects, None);
        };
        // Positional removal on the sorted table: the same victim the
        // old ordered-map `keys().nth()` walk selected.
        let (service, state) = self.containers.remove_at(victim_idx);
        let sid = service.raw() as usize;
        let mut displaced = None;
        let mut was_prewarm = false;
        match state {
            ContainerState::Busy { query, load, .. } => {
                self.resources.release(&load);
                displaced = Some(query);
            }
            ContainerState::Warming { query: Some(q), .. } => {
                displaced = Some(q);
            }
            ContainerState::Warming { query: None, .. } => {
                was_prewarm = true;
                if self.prewarm_pending[sid] > 0 {
                    self.prewarm_pending[sid] -= 1;
                }
            }
            ContainerState::Idle { .. } => {
                self.idle[sid].retain(|&x| x != cid);
            }
        }
        // The freed memory slot may unblock queued queries.
        self.dispatch_queue(None, now, rng, &mut effects);
        let report = CrashReport {
            service,
            displaced,
            was_prewarm,
        };
        (effects, Some(report))
    }

    /// Drop all idle containers of `service` immediately (the shutdown
    /// signal `S_sd` after a switch away from serverless). Busy
    /// containers finish their in-flight queries and then expire
    /// normally.
    pub fn release_service(&mut self, service: ServiceId) {
        let idle = std::mem::take(&mut self.idle[service.raw() as usize]);
        for cid in idle {
            self.containers.remove(cid);
        }
        self.prewarm_pending[service.raw() as usize] = 0;
        self.draining[service.raw() as usize] = true;
    }
}

#[cfg(test)]
#[path = "serverless_tests.rs"]
mod tests;
