//! Queries and their measured outcomes.

use crate::ids::{QueryId, ServiceId};
use amoeba_sim::{SimDuration, SimTime};
use amoeba_telemetry::DeployMode;

/// A user query submitted to one of the platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Unique id.
    pub id: QueryId,
    /// The microservice it belongs to.
    pub service: ServiceId,
    /// When the user submitted it.
    pub submitted: SimTime,
}

/// The latency decomposition of Fig. 4: queuing, cold start, platform
/// overheads (auth + code loading + result posting) and actual
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Time spent waiting in the FIFO queue (or for a free core on IaaS).
    pub queue_wait: SimDuration,
    /// Container cold-start time attributed to this query (zero on warm
    /// hits and on IaaS).
    pub cold_start: SimDuration,
    /// Authentication/processing overhead.
    pub auth: SimDuration,
    /// Code/data loading overhead.
    pub code_load: SimDuration,
    /// Result posting overhead.
    pub result_post: SimDuration,
    /// The function's own execution time (contention-stretched).
    pub exec: SimDuration,
}

impl LatencyBreakdown {
    /// End-to-end latency: the sum of all components.
    pub fn total(&self) -> SimDuration {
        self.queue_wait
            + self.cold_start
            + self.auth
            + self.code_load
            + self.result_post
            + self.exec
    }

    /// The serverless "extra overhead" share of Fig. 4: (auth + code
    /// loading + result posting) / total. Zero for an empty breakdown.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        (self.auth + self.code_load + self.result_post).as_secs_f64() / total
    }
}

/// A completed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The query.
    pub query: Query,
    /// When it finished.
    pub completed: SimTime,
    /// Which platform executed it — the label harnesses split CDFs by
    /// (Fig. 10: Amoeba's curve hugs OpenWhisk's at low latencies and
    /// Nameko's in the tail).
    pub executed_on: DeployMode,
    /// The latency decomposition.
    pub breakdown: LatencyBreakdown,
}

impl QueryOutcome {
    /// End-to-end latency as observed by the user.
    pub fn latency(&self) -> SimDuration {
        self.completed.duration_since(self.query.submitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = LatencyBreakdown {
            queue_wait: ms(10),
            cold_start: ms(1000),
            auth: ms(3),
            code_load: ms(25),
            result_post: ms(7),
            exec: ms(80),
        };
        assert_eq!(b.total(), ms(1125));
    }

    #[test]
    fn overhead_fraction_matches_fig4_definition() {
        let b = LatencyBreakdown {
            queue_wait: ms(0),
            cold_start: ms(0),
            auth: ms(5),
            code_load: ms(20),
            result_post: ms(5),
            exec: ms(70),
        };
        assert!((b.overhead_fraction() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = LatencyBreakdown::default();
        assert_eq!(b.total(), SimDuration::ZERO);
        assert_eq!(b.overhead_fraction(), 0.0);
    }

    #[test]
    fn outcome_latency_is_completion_minus_submission() {
        let q = Query {
            id: QueryId(1),
            service: ServiceId(0),
            submitted: SimTime::from_secs(10),
        };
        let o = QueryOutcome {
            query: q,
            completed: SimTime::from_secs(12),
            executed_on: DeployMode::Serverless,
            breakdown: LatencyBreakdown::default(),
        };
        assert_eq!(o.latency(), SimDuration::from_secs(2));
    }
}
