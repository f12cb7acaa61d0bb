//! Latency-vs-pressure profile curves (Fig. 8) and their inversion.
//!
//! §IV-B, step 1 (*Profiling*): run a meter alone on the platform at
//! increasing pressure and record its latency — a monotone curve per
//! resource. Step 2 (*Measurement*): at runtime, compare the observed
//! meter latency against the curve to recover the pressure on that
//! resource.

/// A monotone pressure → latency curve with both directions of lookup.
///
/// Pressure is the resource's utilisation in `[0, u_max]`; latency is the
/// meter's mean end-to-end latency in seconds.
///
/// # Examples
///
/// ```
/// use amoeba_meters::ProfileCurve;
///
/// let curve = ProfileCurve::from_sweep(vec![
///     (0.0, 0.050),
///     (0.5, 0.080),
///     (0.9, 0.400),
/// ]);
/// // Observe a 80 ms meter latency at runtime -> the pool is at ~50 %.
/// assert!((curve.pressure_at(0.080) - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileCurve {
    /// `(pressure, latency_s)` pairs, strictly increasing in both
    /// coordinates.
    points: Vec<(f64, f64)>,
}

impl ProfileCurve {
    /// Build from sweep samples. Pressures must be strictly increasing;
    /// latencies are made non-decreasing by a running maximum (measured
    /// sweeps jitter, but the underlying relation is monotone — the
    /// paper's Fig. 8 curves are). Panics on fewer than two samples.
    pub fn from_sweep(mut samples: Vec<(f64, f64)>) -> Self {
        assert!(samples.len() >= 2, "need at least two profile points");
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(
            samples.windows(2).all(|w| w[1].0 > w[0].0),
            "duplicate pressure points"
        );
        let mut run_max = f64::MIN;
        for p in &mut samples {
            assert!(p.1.is_finite() && p.1 > 0.0, "bad latency {}", p.1);
            run_max = run_max.max(p.1);
            p.1 = run_max;
        }
        ProfileCurve { points: samples }
    }

    /// The analytic curve for a meter on the simulated platform: latency
    /// = overhead + Σ phases·slowdown. Useful as ground truth in tests
    /// and as a bootstrap before any measured sweep exists.
    pub fn analytic(
        phases: [f64; 3],
        resource: usize,
        overhead_s: f64,
        kappa: f64,
        u_max: f64,
        points: usize,
    ) -> Self {
        assert!(resource < 3 && points >= 2);
        let samples = (0..points)
            .map(|i| {
                let u = u_max * i as f64 / (points - 1) as f64;
                let slow = 1.0 + kappa * u * u / (1.0 - u);
                let mut lat = overhead_s;
                for (r, &ph) in phases.iter().enumerate() {
                    lat += if r == resource { ph * slow } else { ph };
                }
                (u, lat)
            })
            .collect();
        ProfileCurve::from_sweep(samples)
    }

    /// The profile points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Latency at a given pressure, linearly interpolated; clamps outside
    /// the profiled range.
    pub fn latency_at(&self, pressure: f64) -> f64 {
        interp(&self.points, pressure, |p| p.0, |p| p.1)
    }

    /// Invert: the pressure that produces `latency_s`. Clamps to the
    /// profiled range — an observed latency below the idle point reads as
    /// zero pressure, above the last point as the maximum profiled
    /// pressure. Flat (zero-sensitivity) stretches resolve to their left
    /// edge, the conservative (lower-pressure) reading.
    pub fn pressure_at(&self, latency_s: f64) -> f64 {
        let pts = &self.points;
        if latency_s <= pts[0].1 {
            return pts[0].0;
        }
        if latency_s >= pts[pts.len() - 1].1 {
            return pts[pts.len() - 1].0;
        }
        for w in pts.windows(2) {
            let (p0, l0) = w[0];
            let (p1, l1) = w[1];
            if latency_s <= l1 {
                if l1 <= l0 {
                    return p0;
                }
                let f = (latency_s - l0) / (l1 - l0);
                return p0 + f * (p1 - p0);
            }
        }
        pts[pts.len() - 1].0
    }
}

fn interp<T>(pts: &[T], x: f64, fx: impl Fn(&T) -> f64, fy: impl Fn(&T) -> f64) -> f64 {
    if x <= fx(&pts[0]) {
        return fy(&pts[0]);
    }
    let last = pts.len() - 1;
    if x >= fx(&pts[last]) {
        return fy(&pts[last]);
    }
    for w in pts.windows(2) {
        let (x0, x1) = (fx(&w[0]), fx(&w[1]));
        if x <= x1 {
            let f = (x - x0) / (x1 - x0);
            return fy(&w[0]) * (1.0 - f) + fy(&w[1]) * f;
        }
    }
    fy(&pts[last])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> ProfileCurve {
        ProfileCurve::from_sweep(vec![
            (0.0, 0.050),
            (0.25, 0.060),
            (0.50, 0.085),
            (0.75, 0.150),
            (0.95, 0.600),
        ])
    }

    #[test]
    fn latency_interpolates() {
        let c = curve();
        assert_eq!(c.latency_at(0.0), 0.050);
        assert!((c.latency_at(0.125) - 0.055).abs() < 1e-12);
        assert_eq!(c.latency_at(0.95), 0.600);
    }

    #[test]
    fn latency_clamps_outside_range() {
        let c = curve();
        assert_eq!(c.latency_at(-1.0), 0.050);
        assert_eq!(c.latency_at(2.0), 0.600);
    }

    #[test]
    fn pressure_inverts_latency() {
        let c = curve();
        for &u in &[0.0, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 0.95] {
            let lat = c.latency_at(u);
            let back = c.pressure_at(lat);
            assert!((back - u).abs() < 1e-9, "u={u} back={back}");
        }
    }

    #[test]
    fn pressure_clamps_outside_range() {
        let c = curve();
        assert_eq!(c.pressure_at(0.001), 0.0);
        assert_eq!(c.pressure_at(10.0), 0.95);
    }

    #[test]
    fn noisy_sweep_is_monotonised() {
        let c = ProfileCurve::from_sweep(vec![
            (0.0, 0.050),
            (0.2, 0.048), // measurement dip
            (0.4, 0.070),
            (0.6, 0.069), // dip
            (0.8, 0.120),
        ]);
        let pts = c.points();
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1, "not monotone after cleanup: {pts:?}");
        }
    }

    #[test]
    fn flat_stretch_resolves_to_left_edge() {
        let c = ProfileCurve::from_sweep(vec![(0.0, 0.05), (0.5, 0.05), (1.0 - 1e-9, 0.10)]);
        // Within the flat region the conservative answer is pressure 0.
        assert_eq!(c.pressure_at(0.05), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_point() {
        ProfileCurve::from_sweep(vec![(0.0, 0.05)]);
    }

    #[test]
    #[should_panic(expected = "duplicate pressure")]
    fn rejects_duplicate_pressures() {
        ProfileCurve::from_sweep(vec![(0.5, 0.05), (0.5, 0.06)]);
    }

    #[test]
    fn analytic_curve_matches_slowdown_model() {
        let phases = [0.04, 0.0, 0.0];
        let c = ProfileCurve::analytic(phases, 0, 0.01, 1.2, 0.95, 20);
        // At zero pressure: overhead + cpu phase.
        assert!((c.latency_at(0.0) - 0.05).abs() < 1e-12);
        // At u = 0.5 slowdown = 1 + 1.2*0.25/0.5 = 1.6.
        let want = 0.01 + 0.04 * 1.6;
        assert!((c.latency_at(0.5) - want).abs() < 1e-3);
        // Convex growth toward the pole.
        assert!(c.latency_at(0.95) > c.latency_at(0.5) * 2.0);
    }

    proptest::proptest! {
        #[test]
        fn inversion_round_trip(points in 3usize..20, seed in 0u64..100) {
            // Generate a strictly increasing random curve.
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
            let mut next = move || {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                (s % 1000) as f64 / 1000.0
            };
            let mut pressure = 0.0;
            let mut latency = 0.02;
            let mut pts = Vec::new();
            for _ in 0..points {
                pts.push((pressure, latency));
                pressure += 0.01 + next() * 0.2;
                latency += 0.001 + next() * 0.05;
            }
            let c = ProfileCurve::from_sweep(pts.clone());
            for &(u, _) in &pts {
                let back = c.pressure_at(c.latency_at(u));
                prop_assert!((back - u).abs() < 1e-6, "u={u} back={back}");
            }
        }
    }

    use proptest::prelude::*;
}
