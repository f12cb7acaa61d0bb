//! The multi-resource contention monitor (§VI).
//!
//! Responsibilities, mapped to the paper:
//!
//! * hold the profiled latency-vs-pressure curves of the three contention
//!   meters (Fig. 8) and invert observed meter latencies into pressure
//!   estimates (`P = {P_cpu, P_io, P_net}`, §IV-B step 2);
//! * collect heartbeat samples of per-resource pressure over the sample
//!   period `T` (Eq. 8) and run PCA over them to update the Eq. 6
//!   weights `w₀ → w₁ … wₙ` (§VI-A);
//! * calibrate the scalar gain of the latency prediction from observed
//!   serverless latencies so `μₙ` "converges to the real processing
//!   capacity of containers" (§VI-A).

use amoeba_linalg::{Matrix, Pca};
use amoeba_meters::ProfileCurve;

/// Eq. 8: the lower bound on the sample period so that one accidental
/// cold start inside a period cannot trick the controller into seeing a
/// QoS violation:
///
/// ```text
/// T > (cold_start − QoS_t + t_exec) / ((1 − e)·QoS_t)
/// ```
///
/// All arguments in seconds; `e` is the allowed error fraction. Returns
/// 0 when the numerator is non-positive (a cold start fits inside the
/// QoS budget — any period works).
pub fn sample_period_lower_bound(
    cold_start_s: f64,
    qos_target_s: f64,
    t_exec_s: f64,
    e: f64,
) -> f64 {
    assert!(qos_target_s > 0.0 && (0.0..1.0).contains(&e));
    let numerator = cold_start_s - qos_target_s + t_exec_s;
    if numerator <= 0.0 {
        return 0.0;
    }
    numerator / ((1.0 - e) * qos_target_s)
}

/// EWMA smoothing factor for meter latencies (0 < α ≤ 1; higher =
/// more reactive).
pub const EWMA_ALPHA: f64 = 0.3;

/// Monitor configuration. The meters' smoothing factor is fixed by
/// [`EWMA_ALPHA`].
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Use the PCA weight correction (false = Amoeba-NoM's pessimistic
    /// uniform weights).
    pub use_pca: bool,
    /// Heartbeat samples kept for PCA (sliding window).
    pub pca_window: usize,
    /// Minimum samples before PCA replaces the initial weights.
    pub pca_min_samples: usize,
    /// Median filter over the last `median_window` raw meter samples
    /// before the EWMA sees them: a dropped/corrupted meter sample
    /// (GC pause, scheduling stall, chaos-injected outlier) then
    /// cannot yank the pressure estimate or the PCA weight update.
    /// `1` (the default) disables the filter and reproduces the
    /// plain-EWMA behaviour bit for bit.
    pub median_window: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            use_pca: true,
            pca_window: 240,
            pca_min_samples: 12,
            median_window: 1,
        }
    }
}

/// Median of the last `window` raw samples in `buf` after pushing
/// `raw` (the pre-EWMA filter; even counts average the middle pair).
/// `window <= 1` bypasses the buffer entirely.
fn median_filter(buf: &mut Vec<f64>, window: usize, raw: f64) -> f64 {
    if window <= 1 {
        return raw;
    }
    buf.push(raw);
    if buf.len() > window {
        buf.remove(0);
    }
    let mut sorted = buf.clone();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The paper's monitor: exactly the three Fig. 8 meters `[cpu, io,
/// net]`. One instance serves the whole platform (pressures are
/// global); the per-service calibration gain lives in the controller's
/// per-service state.
pub struct ContentionMonitor {
    cfg: MonitorConfig,
    curves: [ProfileCurve; 3],
    /// EWMA of each meter's (median-filtered) latency, seconds.
    smoothed_latency: [Option<f64>; 3],
    /// Each meter's raw samples inside the median window.
    recent: [Vec<f64>; 3],
    /// The PCA window: one pressure row per heartbeat, oldest first.
    heartbeats: Vec<[f64; 3]>,
    /// How many heartbeats in a row, up to the latest, carried a row
    /// bit-equal to the latest one.
    equal_rows: usize,
    weights: [f64; 3],
}

impl ContentionMonitor {
    /// A monitor with the given profiled curves `[cpu, io, net]`.
    ///
    /// Initial weights: uniform `(1, 1, 1)` — §IV-B: "previous queries
    /// routed to the serverless platform serve to estimate the value of
    /// the weight w₀"; until enough heartbeats arrive the monitor stays
    /// at the pessimistic prior (which is also exactly the Amoeba-NoM
    /// behaviour when PCA is disabled).
    pub fn new(cfg: MonitorConfig, curves: [ProfileCurve; 3]) -> Self {
        ContentionMonitor {
            cfg,
            curves,
            smoothed_latency: [None; 3],
            recent: Default::default(),
            heartbeats: Vec::new(),
            equal_rows: 0,
            weights: [1.0; 3],
        }
    }

    /// Record one observed meter query latency for the `resource`-th
    /// meter (0 = cpu, 1 = io, 2 = net). Non-finite and non-positive
    /// samples are dropped.
    pub fn observe_meter_latency(&mut self, resource: usize, latency_s: f64) {
        if !(latency_s.is_finite() && latency_s > 0.0) {
            return;
        }
        let filtered = median_filter(
            &mut self.recent[resource],
            self.cfg.median_window,
            latency_s,
        );
        let s = &mut self.smoothed_latency[resource];
        *s = Some(match *s {
            None => filtered,
            Some(prev) => prev + EWMA_ALPHA * (filtered - prev),
        });
    }

    /// Current pressure estimate `P = {P_cpu, P_io, P_net}` — observed
    /// meter latencies inverted through the Fig. 8 curves. Resources
    /// with no observation yet read as zero pressure.
    pub fn pressures(&self) -> [f64; 3] {
        std::array::from_fn(|r| {
            self.smoothed_latency[r].map_or(0.0, |l| self.curves[r].pressure_at(l))
        })
    }

    /// Deliver one heartbeat package (end of a sample period): the
    /// current pressure vector is appended to the PCA window and the
    /// weights are refreshed (§VI-A).
    ///
    /// The weights are a pure function of the window's rows, so they
    /// are refitted only when the heartbeat changes the window. It does
    /// not when the window was already full of rows bit-equal to the
    /// new one: the oldest row leaves and an identical one arrives.
    pub fn heartbeat(&mut self) {
        let p = self.pressures();
        let same = self
            .heartbeats
            .last()
            .is_some_and(|last| last.map(f64::to_bits) == p.map(f64::to_bits));
        self.equal_rows = if same { self.equal_rows + 1 } else { 1 };
        self.heartbeats.push(p);
        if self.heartbeats.len() > self.cfg.pca_window {
            let excess = self.heartbeats.len() - self.cfg.pca_window;
            self.heartbeats.drain(0..excess);
        }
        if self.equal_rows <= self.cfg.pca_window {
            self.refresh_weights();
        }
    }

    fn refresh_weights(&mut self) {
        if !self.cfg.use_pca {
            self.weights = [1.0; 3];
            return;
        }
        if self.heartbeats.len() < self.cfg.pca_min_samples {
            return;
        }
        let data = Matrix::from_rows(self.heartbeats.len(), 3, self.heartbeats.as_flattened());
        if let Some(model) = Pca::default().fit(&data) {
            let w = model.variable_importance();
            self.weights = [w[0], w[1], w[2]];
        }
    }

    /// The current Eq. 6 weights `w = (w_cpu, w_io, w_net)` (sum 1
    /// once PCA is active).
    pub fn weights(&self) -> [f64; 3] {
        self.weights
    }

    /// The smoothed meter latencies `[cpu, io, net]` in seconds (`None`
    /// where a meter has not reported yet). These are the raw inputs the
    /// pressure inversion reads; telemetry heartbeats record them.
    pub fn smoothed_latencies(&self) -> [Option<f64>; 3] {
        self.smoothed_latency
    }

    /// Number of heartbeat samples currently in the PCA window.
    pub fn heartbeat_count(&self) -> usize {
        self.heartbeats.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curves() -> [ProfileCurve; 3] {
        let mk = |base: f64| {
            ProfileCurve::from_sweep(vec![
                (0.0, base),
                (0.3, base * 1.2),
                (0.6, base * 1.8),
                (0.9, base * 5.0),
            ])
        };
        [mk(0.05), mk(0.08), mk(0.07)]
    }

    #[test]
    fn eq8_sample_period() {
        // cold_start 1.5s, QoS 0.2s, exec 0.1s, e = 0.1:
        // T > (1.5 - 0.2 + 0.1) / (0.9 * 0.2) = 1.4 / 0.18.
        let t = sample_period_lower_bound(1.5, 0.2, 0.1, 0.1);
        assert!((t - 1.4 / 0.18).abs() < 1e-12);
    }

    #[test]
    fn eq8_zero_when_cold_start_fits() {
        assert_eq!(sample_period_lower_bound(0.5, 1.0, 0.1, 0.1), 0.0);
    }

    #[test]
    fn eq8_smaller_error_means_more_frequent_sampling() {
        // "If the allowed error is small, Amoeba has to sample the
        // contention on the serverless platform more frequently" — i.e.
        // a smaller allowed error e yields a smaller lower bound on T.
        let loose = sample_period_lower_bound(2.0, 0.3, 0.1, 0.3);
        let tight = sample_period_lower_bound(2.0, 0.3, 0.1, 0.05);
        assert!(
            tight < loose,
            "smaller e ⇒ shorter sample period: {tight} vs {loose}"
        );
    }

    #[test]
    fn pressures_invert_meter_latency() {
        let mut m = ContentionMonitor::new(MonitorConfig::default(), curves());
        assert_eq!(m.pressures(), [0.0; 3]);
        // Feed the cpu meter its latency at pressure 0.6 repeatedly so
        // the EWMA converges there.
        for _ in 0..50 {
            m.observe_meter_latency(0, 0.05 * 1.8);
        }
        let p = m.pressures();
        assert!((p[0] - 0.6).abs() < 0.01, "{p:?}");
        assert_eq!(p[1], 0.0);
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn ewma_smooths_spikes() {
        let mut m = ContentionMonitor::new(MonitorConfig::default(), curves());
        for _ in 0..50 {
            m.observe_meter_latency(0, 0.05); // idle
        }
        m.observe_meter_latency(0, 0.25); // one cold-start outlier
        let p = m.pressures();
        assert!(p[0] < 0.9, "one outlier must not read as saturation: {p:?}");
        // A few more idle observations wash the outlier out again.
        for _ in 0..15 {
            m.observe_meter_latency(0, 0.05);
        }
        let p = m.pressures();
        assert!(p[0] < 0.1, "EWMA must recover after the outlier: {p:?}");
    }

    #[test]
    fn median_filter_rejects_a_single_outlier_outright() {
        let cfg = MonitorConfig {
            median_window: 3,
            ..Default::default()
        };
        let mut filtered = ContentionMonitor::new(cfg, curves());
        let mut plain = ContentionMonitor::new(MonitorConfig::default(), curves());
        for _ in 0..50 {
            filtered.observe_meter_latency(0, 0.05);
            plain.observe_meter_latency(0, 0.05);
        }
        // One corrupted sample (chaos outlier, 25× the idle latency).
        filtered.observe_meter_latency(0, 0.05 * 25.0);
        plain.observe_meter_latency(0, 0.05 * 25.0);
        // The median over {0.05, 0.05, 1.25} is 0.05: the outlier never
        // reaches the EWMA, whereas the plain monitor absorbs a bite.
        let pf = filtered.pressures()[0];
        let pp = plain.pressures()[0];
        assert!(pf < 1e-9, "median-filtered pressure moved: {pf}");
        assert!(pp > 0.1, "plain EWMA should have absorbed it: {pp}");
    }

    #[test]
    fn median_window_one_is_bit_identical_to_the_plain_path() {
        let explicit = MonitorConfig {
            median_window: 1,
            ..Default::default()
        };
        let mut a = ContentionMonitor::new(explicit, curves());
        let mut b = ContentionMonitor::new(MonitorConfig::default(), curves());
        for i in 0..200 {
            let l = 0.05 * (1.0 + (i % 13) as f64 * 0.07);
            a.observe_meter_latency(i % 3, l);
            b.observe_meter_latency(i % 3, l);
            if i % 4 == 0 {
                a.heartbeat();
                b.heartbeat();
            }
        }
        assert_eq!(a.pressures(), b.pressures());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn median_filter_still_tracks_sustained_contention() {
        // A real pressure shift is not an outlier: after `window`
        // consecutive high samples the median follows the shift and the
        // EWMA converges as usual.
        let cfg = MonitorConfig {
            median_window: 5,
            ..Default::default()
        };
        let mut m = ContentionMonitor::new(cfg, curves());
        for _ in 0..60 {
            m.observe_meter_latency(0, 0.05 * 1.8); // pressure 0.6 latency
        }
        let p = m.pressures();
        assert!((p[0] - 0.6).abs() < 0.01, "{p:?}");
    }

    #[test]
    fn median_filter_window_one_is_a_pass_through() {
        let mut buf = Vec::new();
        assert_eq!(median_filter(&mut buf, 1, 0.42), 0.42);
        assert_eq!(median_filter(&mut buf, 0, 7.0), 7.0);
        assert!(buf.is_empty(), "window <= 1 must not buffer samples");
    }

    #[test]
    fn median_filter_odd_window_takes_the_middle() {
        let mut buf = Vec::new();
        median_filter(&mut buf, 3, 0.1);
        median_filter(&mut buf, 3, 9.0); // outlier
        assert_eq!(median_filter(&mut buf, 3, 0.2), 0.2);
        // Window slides: {9.0, 0.2, 0.3} → median 0.3.
        assert_eq!(median_filter(&mut buf, 3, 0.3), 0.3);
    }

    #[test]
    fn median_filter_even_count_averages_the_middle_pair() {
        let mut buf = Vec::new();
        median_filter(&mut buf, 4, 0.1);
        let m = median_filter(&mut buf, 4, 0.3);
        assert!((m - 0.2).abs() < 1e-12, "median of {{0.1, 0.3}}: {m}");
    }

    #[test]
    fn median_filter_evicts_oldest_sample_first() {
        let mut buf = Vec::new();
        for x in [1.0, 2.0, 3.0] {
            median_filter(&mut buf, 3, x);
        }
        median_filter(&mut buf, 3, 4.0);
        assert_eq!(buf, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut m = ContentionMonitor::new(MonitorConfig::default(), curves());
        m.observe_meter_latency(1, f64::NAN);
        m.observe_meter_latency(1, -1.0);
        assert_eq!(m.pressures()[1], 0.0);
    }

    #[test]
    fn weights_start_uniform() {
        let m = ContentionMonitor::new(MonitorConfig::default(), curves());
        assert_eq!(m.weights(), [1.0; 3]);
    }

    #[test]
    fn nom_variant_keeps_uniform_weights() {
        let cfg = MonitorConfig {
            use_pca: false,
            ..Default::default()
        };
        let mut m = ContentionMonitor::new(cfg, curves());
        for i in 0..100 {
            m.observe_meter_latency(0, 0.05 + (i % 7) as f64 * 0.01);
            m.observe_meter_latency(1, 0.08 + (i % 5) as f64 * 0.01);
            m.heartbeat();
        }
        assert_eq!(m.weights(), [1.0; 3], "NoM never departs from uniform");
    }

    #[test]
    fn pca_downweights_a_quiet_resource() {
        let mut m = ContentionMonitor::new(MonitorConfig::default(), curves());
        // CPU and IO pressures move (correlated); network stays silent.
        for i in 0..60 {
            let level = (i % 10) as f64 / 10.0 * 0.6;
            m.observe_meter_latency(0, m_curve_lat(0.05, level));
            m.observe_meter_latency(1, m_curve_lat(0.08, level));
            m.observe_meter_latency(2, 0.07); // idle network
            m.heartbeat();
        }
        let w = m.weights();
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "PCA weights normalised: {w:?}");
        assert!(
            w[2] < w[0] && w[2] < w[1],
            "quiet resource downweighted: {w:?}"
        );
        // Correlated cpu/io share the weight roughly equally.
        assert!((w[0] - w[1]).abs() < 0.15, "{w:?}");
    }

    /// Latency of the test curve (base latency scaled like `curves()`)
    /// at a given pressure, linear between the control points.
    fn m_curve_lat(base: f64, u: f64) -> f64 {
        let pts = [(0.0, 1.0), (0.3, 1.2), (0.6, 1.8), (0.9, 5.0)];
        for w in pts.windows(2) {
            if u <= w[1].0 {
                let f = (u - w[0].0) / (w[1].0 - w[0].0);
                return base * (w[0].1 * (1.0 - f) + w[1].1 * f);
            }
        }
        base * 5.0
    }

    /// One fixed input: three meters on distinct periodic load patterns,
    /// a 30× outlier every 11th sample per meter, and a heartbeat every
    /// third round (32 in all, enough for PCA to engage).
    fn feed_pinned_sequence(m: &mut ContentionMonitor) {
        let bases = [0.05, 0.08, 0.07];
        for i in 0..96usize {
            for (r, base) in bases.iter().enumerate() {
                let level = ((i * (r + 2)) % 9) as f64 / 9.0 * 0.8;
                let l = if (i + r) % 11 == 0 {
                    base * 30.0
                } else {
                    m_curve_lat(*base, level)
                };
                m.observe_meter_latency(r, l);
            }
            if i % 3 == 2 {
                m.heartbeat();
            }
        }
    }

    #[test]
    fn readouts_are_pinned_bit_for_bit() {
        // Window-3 median filter with PCA: the chaos-workload path.
        let cfg = MonitorConfig {
            median_window: 3,
            ..Default::default()
        };
        let mut m = ContentionMonitor::new(cfg, curves());
        feed_pinned_sequence(&mut m);
        assert_eq!(
            m.pressures(),
            [0.4621256846643703, 0.30815707185655355, 0.4272812555139863]
        );
        assert_eq!(
            m.weights(),
            [
                0.36408099743202194,
                0.27159755704313526,
                0.36432144552484264
            ]
        );
        assert_eq!(
            m.smoothed_latencies(),
            [
                Some(0.07621256846643704),
                Some(0.09730513149704857),
                Some(0.1018193757719581)
            ]
        );
        assert_eq!(m.heartbeat_count(), 32);

        // Plain EWMA without PCA: the outliers reach the smoothing and
        // the weights never leave the uniform prior.
        let cfg = MonitorConfig {
            use_pca: false,
            ..Default::default()
        };
        let mut m = ContentionMonitor::new(cfg, curves());
        feed_pinned_sequence(&mut m);
        assert_eq!(
            m.pressures(),
            [0.653444411050829, 0.606827570762823, 0.610840855846511]
        );
        assert_eq!(m.weights(), [1.0; 3]);
        assert_eq!(
            m.smoothed_latencies(),
            [
                Some(0.11850368589377548),
                Some(0.14982619371760902),
                Some(0.1340945056987283)
            ]
        );
        assert_eq!(m.heartbeat_count(), 32);
    }

    #[test]
    fn heartbeat_window_is_bounded() {
        let cfg = MonitorConfig {
            pca_window: 10,
            ..Default::default()
        };
        let mut m = ContentionMonitor::new(cfg, curves());
        for _ in 0..50 {
            m.heartbeat();
        }
        assert_eq!(m.heartbeat_count(), 10);
    }

    /// After every heartbeat the weights must equal, bit for bit, a
    /// shadow that refits the whole window every time. The stretches
    /// cover a window of zero rows, moving pressures, a constant
    /// non-zero row held for more than a window, and one changed row
    /// inside such a stretch. Seven copies of a constant row do not
    /// average back to it exactly, so its standardized covariance is
    /// tiny but not zero and the fit is not uniform: a shortcut that
    /// maps a constant window to uniform weights fails here.
    #[test]
    fn weights_match_a_refit_at_every_heartbeat() {
        for use_pca in [true, false] {
            let cfg = MonitorConfig {
                use_pca,
                pca_window: 7,
                pca_min_samples: 3,
                ..Default::default()
            };
            let mut m = ContentionMonitor::new(cfg, curves());
            let mut window: Vec<[f64; 3]> = Vec::new();
            let mut weights = [1.0; 3];
            let mut beat = |m: &mut ContentionMonitor, stretch: &str| {
                window.push(m.pressures());
                if window.len() > cfg.pca_window {
                    window.remove(0);
                }
                if !use_pca {
                    weights = [1.0; 3];
                } else if window.len() >= cfg.pca_min_samples {
                    let data = Matrix::from_rows(window.len(), 3, window.as_flattened());
                    if let Some(model) = Pca::default().fit(&data) {
                        let w = model.variable_importance();
                        weights = [w[0], w[1], w[2]];
                    }
                }
                m.heartbeat();
                assert_eq!(
                    m.weights().map(f64::to_bits),
                    weights.map(f64::to_bits),
                    "{stretch} (use_pca {use_pca}): {:?} vs {weights:?}",
                    m.weights()
                );
            };
            for _ in 0..20 {
                beat(&mut m, "zero rows");
            }
            for i in 0..12 {
                let level = (i % 5) as f64 / 5.0 * 0.8;
                m.observe_meter_latency(0, m_curve_lat(0.05, level));
                m.observe_meter_latency(1, m_curve_lat(0.08, 0.8 - level));
                m.observe_meter_latency(2, m_curve_lat(0.07, level * 0.5));
                beat(&mut m, "moving pressures");
            }
            for _ in 0..20 {
                beat(&mut m, "constant row");
            }
            if use_pca {
                assert_ne!(m.weights(), [1.0 / 3.0; 3], "constant row");
            }
            m.observe_meter_latency(1, m_curve_lat(0.08, 0.45));
            beat(&mut m, "one changed row");
            for _ in 0..20 {
                beat(&mut m, "constant again");
            }
            if use_pca {
                assert_ne!(m.weights(), [1.0 / 3.0; 3], "constant again");
            }
        }
    }

    #[test]
    fn weights_sum_to_one_after_pca_kicks_in() {
        let mut m = ContentionMonitor::new(MonitorConfig::default(), curves());
        for i in 0..40 {
            m.observe_meter_latency(0, 0.05 * (1.0 + (i % 9) as f64 * 0.1));
            m.observe_meter_latency(1, 0.08 * (1.0 + ((i * 3) % 7) as f64 * 0.1));
            m.observe_meter_latency(2, 0.07 * (1.0 + ((i * 5) % 4) as f64 * 0.1));
            m.heartbeat();
        }
        let w = m.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{w:?}");
        assert!(w.iter().all(|&x| x >= 0.0));
    }
}
