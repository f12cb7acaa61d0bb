//! Arrival handling: one user query enters the system.

use super::cluster::Cluster;
use super::{Ev, SimWorld};
use crate::engine::HybridEngine;
use amoeba_platform::{Query, QueryId};
use amoeba_sim::{EventQueue, SimDuration, SimTime};
use amoeba_telemetry::{DeployMode, PlacementRecord, TelemetryEvent, TelemetrySink};
use amoeba_workload::ArrivalProcess;

/// A real query of service `idx` arrives: record it with the
/// controller's load estimator, route it via the engine (background
/// services are pinned serverless), place it on a node, submit it to
/// the chosen platform and re-arm the service's next arrival.
pub(crate) fn on_arrival<S: TelemetrySink + ?Sized>(
    world: &mut SimWorld,
    idx: usize,
    now: SimTime,
    sink: &mut S,
) {
    let SimWorld {
        services,
        controller,
        engine,
        cluster,
        queue,
        workflow,
        warmup_t,
        ..
    } = world;
    let sid = services[idx].sid;
    controller.record_arrival(idx, now);
    let seq = services[idx].next_query_id;
    services[idx].next_query_id += 1;
    if now >= *warmup_t {
        services[idx].submitted += 1;
    }
    // Workflow root stages tag the query with their stage index and
    // open the instance record; a plain service's untagged id is
    // bit-identical to a stage-0 tag.
    let qid = match workflow.open_root(idx, seq, now, now >= *warmup_t) {
        Some(stage) => QueryId::user_stage(seq, stage),
        None => QueryId::user(seq),
    };
    let query = Query {
        id: qid,
        service: sid,
        submitted: now,
    };
    let target = if services[idx].background {
        DeployMode::Serverless
    } else {
        engine.mode(sid)
    };
    route_and_submit(query, target, now, engine, cluster, queue, sink);
    if !services[idx].exhausted {
        if let Some(t) = services[idx].arrivals.next_after(now) {
            queue.push(t, Ev::Arrival { idx });
        } else {
            services[idx].exhausted = true;
        }
    }
}

/// Place a routed user query on a node and submit it there. Shared
/// between external arrivals and workflow stage hand-offs — both
/// classes of traffic pay the same placement, spill and wire-delay
/// rules. A single node executes everything; with more, the fabric
/// places the query and a spill off the service's home node pays the
/// inter-node RTT.
pub(crate) fn route_and_submit<S: TelemetrySink + ?Sized>(
    query: Query,
    target: DeployMode,
    now: SimTime,
    engine: &HybridEngine,
    cluster: &mut Cluster,
    queue: &mut EventQueue<Ev>,
    sink: &mut S,
) {
    let home = engine.home(query.service);
    let node = if cluster.nodes.len() > 1 {
        let node = cluster.fabric.place(&cluster.nodes, home, target);
        if sink.enabled() {
            sink.record(TelemetryEvent::Placement(PlacementRecord {
                t: now,
                service: query.service.raw() as usize,
                node: node.index(),
                spill: node != home,
            }));
        }
        node
    } else {
        home
    };
    let spill = node != home;
    let totals = &mut cluster.nodes[node.index()].totals;
    totals.submitted += 1;
    totals.spills += u64::from(spill);
    // The query keeps its original submit stamp, so the wire shows up
    // as latency, not as vanished time.
    let delay = if spill {
        cluster.fabric.spill_delay
    } else {
        SimDuration::ZERO
    };
    cluster.submit(node, query, target, delay, now, queue);
}
