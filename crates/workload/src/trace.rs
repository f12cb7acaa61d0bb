//! Diurnal load traces.
//!
//! The paper drives every benchmark with "the load trace from Didi" to
//! "emulate real-system load fluctuate patterns" (§II-A) and relies on
//! the diurnal property that the low load is under 30 % of the peak
//! (§I). The trace itself is not redistributable, so [`DiurnalPattern`]
//! ships a Didi-*shaped* ride-hailing day — a bimodal curve with morning
//! and evening rush peaks and a ~25 % overnight trough — plus constructors
//! for custom shapes. §II-A: "The actual fluctuate pattern does not affect
//! the analysis."

use amoeba_sim::SimTime;

/// A normalised 24-point diurnal shape (hourly multipliers in `[0, 1]`,
/// max = 1 at the peak hour), interpolated linearly between points and
/// wrapped around midnight.
#[derive(Debug, Clone)]
pub struct DiurnalPattern {
    hourly: Vec<f64>,
}

impl DiurnalPattern {
    /// The Didi-shaped default: overnight trough at 25 % of peak, rush
    /// peaks at 09:00 and 18:00.
    pub fn didi() -> Self {
        DiurnalPattern {
            hourly: vec![
                0.30, 0.26, 0.25, 0.25, 0.26, 0.32, // 00..05
                0.45, 0.70, 0.95, 1.00, 0.85, 0.75, // 06..11
                0.70, 0.68, 0.65, 0.68, 0.75, 0.90, // 12..17
                1.00, 0.95, 0.80, 0.60, 0.45, 0.35, // 18..23
            ],
        }
    }

    /// A single-peak sinusoid-like shape (trough `lo`, peak 1.0 at
    /// mid-day), for experiments that want a smoother pattern.
    pub fn single_peak(lo: f64) -> Self {
        assert!((0.0..1.0).contains(&lo));
        let hourly = (0..24)
            .map(|h| {
                let phase = (h as f64 - 3.0) / 24.0 * std::f64::consts::TAU;
                lo + (1.0 - lo) * 0.5 * (1.0 - phase.cos())
            })
            .collect();
        DiurnalPattern { hourly }
    }

    /// A constant shape (no diurnality) at the given level.
    pub fn flat(level: f64) -> Self {
        assert!((0.0..=1.0).contains(&level));
        DiurnalPattern {
            hourly: vec![level; 24],
        }
    }

    /// Build from custom hourly multipliers. Panics unless exactly 24
    /// values in `[0, 1]` with at least one positive.
    pub fn from_hourly(hourly: Vec<f64>) -> Self {
        assert_eq!(hourly.len(), 24, "need 24 hourly points");
        assert!(hourly.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(hourly.iter().any(|&v| v > 0.0));
        DiurnalPattern { hourly }
    }

    /// Build from arbitrary `(hour, multiplier)` breakpoints — e.g. a
    /// trace digitised from a production dashboard. Hours must be
    /// strictly increasing within `[0, 24)`; the 24 hourly points are
    /// filled by linear interpolation with midnight wrap-around.
    pub fn from_breakpoints(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two breakpoints");
        assert!(
            points.windows(2).all(|w| w[1].0 > w[0].0),
            "hours must be strictly increasing"
        );
        assert!(
            points
                .iter()
                .all(|&(h, m)| (0.0..24.0).contains(&h) && (0.0..=1.0).contains(&m)),
            "breakpoints out of range"
        );
        let interp = |h: f64| -> f64 {
            // Find the surrounding breakpoints, wrapping past the ends.
            let first = points[0];
            let last = points[points.len() - 1];
            if h < first.0 {
                // Between last (yesterday) and first.
                let span = first.0 + 24.0 - last.0;
                let f = (h + 24.0 - last.0) / span;
                return last.1 * (1.0 - f) + first.1 * f;
            }
            if h >= last.0 {
                let span = first.0 + 24.0 - last.0;
                let f = (h - last.0) / span;
                return last.1 * (1.0 - f) + first.1 * f;
            }
            for w in points.windows(2) {
                if h < w[1].0 {
                    let f = (h - w[0].0) / (w[1].0 - w[0].0);
                    return w[0].1 * (1.0 - f) + w[1].1 * f;
                }
            }
            last.1
        };
        DiurnalPattern {
            hourly: (0..24).map(|h| interp(h as f64)).collect(),
        }
    }

    /// The shape rotated by `hours` whole hours: hour `h` of the result
    /// is hour `(h + hours) % 24` of `self`, so every peak comes `hours`
    /// hours earlier. Moving the hourly points by index gives, bit for
    /// bit, what sampling [`Self::at_day_fraction`] at those integer
    /// hours would, because interpolation at a breakpoint returns the
    /// breakpoint itself.
    pub fn rotated_hours(&self, hours: usize) -> Self {
        let mut hourly = self.hourly.clone();
        hourly.rotate_left(hours % 24);
        DiurnalPattern { hourly }
    }

    /// Scale the whole shape by `factor` (clamped to `[0, 1]`) — e.g. a
    /// weekend day at 60 % of weekday traffic.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0);
        DiurnalPattern {
            hourly: self.hourly.iter().map(|&v| (v * factor).min(1.0)).collect(),
        }
    }

    /// The multiplier at a fraction `f ∈ [0, 1)` of the day, linearly
    /// interpolated and wrapping around midnight.
    pub fn at_day_fraction(&self, f: f64) -> f64 {
        let f = f.rem_euclid(1.0);
        let x = f * 24.0;
        let i = x.floor() as usize % 24;
        let j = (i + 1) % 24;
        let frac = x - x.floor();
        self.hourly[i] * (1.0 - frac) + self.hourly[j] * frac
    }

    /// Trough-to-peak ratio of the shape.
    pub fn trough_ratio(&self) -> f64 {
        let max = self.hourly.iter().cloned().fold(0.0, f64::max);
        let min = self.hourly.iter().cloned().fold(f64::MAX, f64::min);
        if max > 0.0 {
            min / max
        } else {
            0.0
        }
    }
}

/// A concrete load trace: a diurnal shape scaled to a peak QPS, an
/// optionally compressed day length (so a full diurnal cycle fits in a
/// short simulation), and optional load bursts
/// (§II-E: "Amoeba should be able to capture the load change").
///
/// # Examples
///
/// ```
/// use amoeba_sim::SimTime;
/// use amoeba_workload::{DiurnalPattern, LoadTrace};
///
/// // A Didi-shaped day compressed to 480 simulated seconds, peaking at
/// // 120 queries/second at the 09:00 rush (t = 180 s compressed).
/// let trace = LoadTrace::new(DiurnalPattern::didi(), 120.0, 480.0);
/// assert_eq!(trace.rate_at(SimTime::from_secs(180)), 120.0);
/// // Overnight trough is ~25 % of peak.
/// assert!(trace.rate_at(SimTime::from_secs(50)) < 40.0);
/// ```
#[derive(Debug, Clone)]
pub struct LoadTrace {
    pattern: DiurnalPattern,
    peak_qps: f64,
    day_seconds: f64,
    bursts: Vec<Burst>,
    /// Optional per-day-of-week scale factors (cycle of 7 days); `None`
    /// means every day is identical.
    weekly: Option<[f64; 7]>,
}

/// A transient load burst injected on top of the diurnal shape.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// When the burst starts.
    pub start: SimTime,
    /// Burst length, seconds.
    pub duration_s: f64,
    /// Additional load, as a multiple of peak QPS (0.5 = +50 % of peak).
    pub magnitude: f64,
}

impl LoadTrace {
    /// A trace with the given shape, peak and (possibly compressed) day
    /// length in seconds.
    pub fn new(pattern: DiurnalPattern, peak_qps: f64, day_seconds: f64) -> Self {
        assert!(peak_qps > 0.0 && day_seconds > 0.0);
        LoadTrace {
            pattern,
            peak_qps,
            day_seconds,
            bursts: Vec::new(),
            weekly: None,
        }
    }

    /// Scale each day of a 7-day cycle by a factor in `[0, 1]` — e.g.
    /// `[1, 1, 1, 1, 1, 0.55, 0.5]` for a workweek with quiet weekends.
    /// Day 0 starts at `t = 0`.
    pub fn with_weekly_scale(mut self, weekly: [f64; 7]) -> Self {
        assert!(weekly.iter().all(|&f| (0.0..=1.0).contains(&f)));
        self.weekly = Some(weekly);
        self
    }

    /// Add a burst.
    pub fn with_burst(mut self, burst: Burst) -> Self {
        self.bursts.push(burst);
        self
    }

    /// Peak rate, queries/second.
    pub fn peak_qps(&self) -> f64 {
        self.peak_qps
    }

    /// Day length in (simulated) seconds.
    pub fn day_seconds(&self) -> f64 {
        self.day_seconds
    }

    /// The deterministic instantaneous rate at `t` (shape × peak +
    /// bursts), queries/second.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let f = t.as_secs_f64() / self.day_seconds;
        let mut rate = self.pattern.at_day_fraction(f) * self.peak_qps;
        if let Some(weekly) = &self.weekly {
            let day = (f.floor() as usize).rem_euclid(7);
            rate *= weekly[day];
        }
        for b in &self.bursts {
            let dt = t.as_secs_f64() - b.start.as_secs_f64();
            if (0.0..b.duration_s).contains(&dt) {
                rate += b.magnitude * self.peak_qps;
            }
        }
        rate
    }

    /// Upper bound on the rate over the whole trace — the thinning bound
    /// for the non-homogeneous Poisson sampler. Includes bursts.
    pub fn rate_upper_bound(&self) -> f64 {
        let burst_extra: f64 = self.bursts.iter().map(|b| b.magnitude).fold(0.0, f64::max);
        self.peak_qps * (1.0 + burst_extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_rotation_equals_sampled_rotation() {
        for shape in [DiurnalPattern::didi(), DiurnalPattern::single_peak(0.25)] {
            for hours in 0..24 {
                let sampled: Vec<u64> = (0..24)
                    .map(|h| {
                        let f = ((h + hours) % 24) as f64 / 24.0;
                        shape.at_day_fraction(f).to_bits()
                    })
                    .collect();
                let rotated: Vec<u64> = shape
                    .rotated_hours(hours)
                    .hourly
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(rotated, sampled, "rotation by {hours} h");
            }
        }
    }

    #[test]
    fn didi_pattern_has_low_trough_and_two_peaks() {
        let p = DiurnalPattern::didi();
        let ratio = p.trough_ratio();
        assert!(
            ratio <= 0.30,
            "trough ratio {ratio} — paper: low < 30% of peak"
        );
        // Peaks at 09:00 and 18:00.
        assert_eq!(p.at_day_fraction(9.0 / 24.0), 1.0);
        assert_eq!(p.at_day_fraction(18.0 / 24.0), 1.0);
        // Mid-day dip between them.
        assert!(p.at_day_fraction(14.0 / 24.0) < 0.8);
    }

    #[test]
    fn interpolation_between_hours() {
        let p = DiurnalPattern::didi();
        // 08:30 is halfway between 0.95 and 1.00.
        let v = p.at_day_fraction(8.5 / 24.0);
        assert!((v - 0.975).abs() < 1e-9);
    }

    #[test]
    fn wraps_around_midnight() {
        let p = DiurnalPattern::didi();
        // 23:30 interpolates hour 23 (0.35) and hour 0 (0.30).
        let v = p.at_day_fraction(23.5 / 24.0);
        assert!((v - 0.325).abs() < 1e-9);
        // Fractions outside [0,1) wrap.
        assert!((p.at_day_fraction(1.25) - p.at_day_fraction(0.25)).abs() < 1e-12);
        assert!((p.at_day_fraction(-0.75) - p.at_day_fraction(0.25)).abs() < 1e-12);
    }

    #[test]
    fn flat_and_single_peak_shapes() {
        let f = DiurnalPattern::flat(0.5);
        assert_eq!(f.at_day_fraction(0.3), 0.5);
        let s = DiurnalPattern::single_peak(0.25);
        assert!(s.trough_ratio() >= 0.24 && s.trough_ratio() <= 0.30);
    }

    #[test]
    #[should_panic(expected = "24 hourly")]
    fn from_hourly_validates_length() {
        DiurnalPattern::from_hourly(vec![0.5; 23]);
    }

    #[test]
    fn from_breakpoints_interpolates_and_wraps() {
        let p = DiurnalPattern::from_breakpoints(&[(6.0, 0.2), (12.0, 1.0), (22.0, 0.4)]);
        // Exact breakpoints land.
        assert!((p.at_day_fraction(6.0 / 24.0) - 0.2).abs() < 1e-9);
        assert!((p.at_day_fraction(12.0 / 24.0) - 1.0).abs() < 1e-9);
        // Midpoint between 6h and 12h.
        assert!((p.at_day_fraction(9.0 / 24.0) - 0.6).abs() < 1e-9);
        // Midnight wraps between 22h (0.4) and 6h-next-day (0.2):
        // 0h is 2/8 of the way from 22h to 30h.
        let v = p.at_day_fraction(0.0);
        assert!((v - (0.4 + (0.2 - 0.4) * 2.0 / 8.0)).abs() < 1e-9, "{v}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_breakpoints_rejects_unsorted() {
        DiurnalPattern::from_breakpoints(&[(12.0, 0.5), (6.0, 0.2)]);
    }

    #[test]
    fn scaled_shrinks_the_shape() {
        let weekday = DiurnalPattern::didi();
        let weekend = weekday.scaled(0.6);
        for f in [0.1, 0.375, 0.75] {
            assert!((weekend.at_day_fraction(f) - 0.6 * weekday.at_day_fraction(f)).abs() < 1e-9);
        }
        // Scaling never exceeds 1.
        let over = weekday.scaled(5.0);
        assert!(over.at_day_fraction(9.0 / 24.0) <= 1.0);
    }

    #[test]
    fn trace_scales_pattern_to_peak() {
        let tr = LoadTrace::new(DiurnalPattern::didi(), 100.0, 86_400.0);
        assert!((tr.rate_at(SimTime::from_secs(9 * 3600)) - 100.0).abs() < 1e-9);
        assert!((tr.rate_at(SimTime::from_secs(3 * 3600)) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn compressed_day_speeds_up_cycle() {
        // Same shape squeezed into 240 s: 09:00 maps to t = 90 s.
        let tr = LoadTrace::new(DiurnalPattern::didi(), 100.0, 240.0);
        assert!((tr.rate_at(SimTime::from_secs(90)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bursts_add_on_top() {
        let tr = LoadTrace::new(DiurnalPattern::flat(0.5), 100.0, 1000.0).with_burst(Burst {
            start: SimTime::from_secs(100),
            duration_s: 10.0,
            magnitude: 0.5,
        });
        assert!((tr.rate_at(SimTime::from_secs(99)) - 50.0).abs() < 1e-9);
        assert!((tr.rate_at(SimTime::from_secs(105)) - 100.0).abs() < 1e-9);
        assert!((tr.rate_at(SimTime::from_secs(110)) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bound_dominates_rate() {
        let tr = LoadTrace::new(DiurnalPattern::didi(), 80.0, 600.0).with_burst(Burst {
            start: SimTime::from_secs(10),
            duration_s: 5.0,
            magnitude: 0.4,
        });
        let ub = tr.rate_upper_bound();
        for i in 0..600 {
            assert!(tr.rate_at(SimTime::from_secs(i)) <= ub + 1e-9);
        }
    }

    #[test]
    fn weekly_scale_modulates_days() {
        let tr = LoadTrace::new(DiurnalPattern::flat(1.0), 100.0, 100.0)
            .with_weekly_scale([1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.4]);
        // Day 0 (t in [0, 100)) at full rate; day 5 at half; day 6 at 0.4;
        // day 7 wraps to day 0.
        assert!((tr.rate_at(SimTime::from_secs(50)) - 100.0).abs() < 1e-9);
        assert!((tr.rate_at(SimTime::from_secs(550)) - 50.0).abs() < 1e-9);
        assert!((tr.rate_at(SimTime::from_secs(650)) - 40.0).abs() < 1e-9);
        assert!((tr.rate_at(SimTime::from_secs(750)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weekly_scale_respects_upper_bound() {
        let tr = LoadTrace::new(DiurnalPattern::didi(), 80.0, 200.0)
            .with_weekly_scale([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]);
        let ub = tr.rate_upper_bound();
        for i in 0..1400 {
            assert!(tr.rate_at(SimTime::from_secs(i)) <= ub + 1e-9);
        }
    }
}
