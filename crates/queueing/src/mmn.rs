//! The M/M/N model and the Eq. 5 discriminant.

use crate::roots::bisect;

/// An M/M/N service station: `n` identical servers (containers), each with
/// processing capacity `mu` queries/second.
///
/// # Examples
///
/// ```
/// use amoeba_queueing::MmnModel;
///
/// // 16 containers, 8 queries/second each.
/// let m = MmnModel::new(16, 8.0).unwrap();
/// // The largest Poisson arrival rate whose p95 response time stays
/// // under a 200 ms target (Eq. 5):
/// let lambda = m.discriminant_lambda(0.2, 0.95);
/// assert!(lambda > 0.0 && lambda < m.capacity());
/// // At that load the QoS check agrees:
/// use amoeba_queueing::QosCheck;
/// assert_eq!(m.qos_check(lambda * 0.99, 0.2, 0.95), QosCheck::Satisfied);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmnModel {
    /// Number of containers, `n ≥ 1`.
    pub n: u32,
    /// Per-container processing capacity `μ` (queries/second), `> 0`.
    pub mu: f64,
}

/// Outcome of a QoS admission check (paper: "If λ ≤ λ(μ), the QoS of the
/// microservice can be satisfied when it is switched to the serverless
/// platform").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosCheck {
    /// The r-ile response time fits within the QoS target.
    Satisfied,
    /// The r-ile response time exceeds the QoS target.
    Violated,
    /// `ρ ≥ 1`: the queue is unstable and the tail latency diverges.
    Unstable,
}

impl MmnModel {
    /// Construct, validating parameters.
    pub fn new(n: u32, mu: f64) -> Option<Self> {
        // `!(mu > 0)` is deliberate: it catches NaN as well as <= 0.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if n == 0 || !(mu > 0.0) || !mu.is_finite() {
            None
        } else {
            Some(MmnModel { n, mu })
        }
    }

    /// Total service capacity `n·μ`.
    pub fn capacity(&self) -> f64 {
        self.n as f64 * self.mu
    }

    /// Utilisation `ρ = λ / (nμ)`.
    pub fn rho(&self, lambda: f64) -> f64 {
        lambda / self.capacity()
    }

    /// Erlang-B blocking probability for offered load `a = λ/μ` on `n`
    /// servers, via the standard recurrence
    /// `B_k = a·B_{k−1} / (k + a·B_{k−1})` — numerically stable for any
    /// `n` (no factorials).
    pub fn erlang_b(&self, lambda: f64) -> f64 {
        let a = lambda / self.mu;
        let mut b = 1.0;
        for k in 1..=self.n {
            b = a * b / (k as f64 + a * b);
        }
        b
    }

    /// Erlang-C probability that an arriving query waits,
    /// `P{W > 0} = π_n / (1 − ρ)` (cf. Eq. 2). Only defined for `ρ < 1`;
    /// returns 1.0 at or beyond saturation (every query waits).
    pub fn erlang_c(&self, lambda: f64) -> f64 {
        let rho = self.rho(lambda);
        if rho >= 1.0 {
            return 1.0;
        }
        if lambda <= 0.0 {
            return 0.0;
        }
        let b = self.erlang_b(lambda);
        b / (1.0 - rho * (1.0 - b))
    }

    /// Stationary probability `π_k` of `k` queries in the system (Eq. 1).
    /// Computed through the Erlang-B chain so it stays finite for large
    /// `n`. Returns `None` when `ρ ≥ 1` (no stationary distribution).
    pub fn pi_k(&self, lambda: f64, k: u32) -> Option<f64> {
        let rho = self.rho(lambda);
        if rho >= 1.0 {
            return None;
        }
        if lambda <= 0.0 {
            return Some(if k == 0 { 1.0 } else { 0.0 });
        }
        // π_n = ErlangC · (1 − ρ); below n walk the birth-death ratios
        // downward: π_{k-1} = π_k · k / a  (since π_k = π_{k-1}·a/k for
        // k ≤ n); above n: π_{k+1} = ρ·π_k.
        let a = lambda / self.mu;
        let pi_n = self.erlang_c(lambda) * (1.0 - rho);
        if k >= self.n {
            Some(pi_n * rho.powi((k - self.n) as i32))
        } else {
            let mut p = pi_n;
            let mut j = self.n;
            while j > k {
                p = p * j as f64 / a;
                j -= 1;
            }
            Some(p)
        }
    }

    /// Waiting-time CDF `F_W(t)` under steady state (Eq. 4). `t` in
    /// seconds. Returns `None` when `ρ ≥ 1`.
    pub fn wait_cdf(&self, lambda: f64, t: f64) -> Option<f64> {
        let rho = self.rho(lambda);
        if rho >= 1.0 {
            return None;
        }
        if t < 0.0 {
            return Some(0.0);
        }
        let c = self.erlang_c(lambda);
        let decay = self.capacity() * (1.0 - rho);
        Some(1.0 - c * (-decay * t).exp())
    }

    /// The `r`-quantile of the waiting time: smallest `t` with
    /// `F_W(t) ≥ r`. Zero when even `F_W(0) = 1 − ErlangC ≥ r`.
    pub fn wait_quantile(&self, lambda: f64, r: f64) -> Option<f64> {
        debug_assert!((0.0..1.0).contains(&r));
        let rho = self.rho(lambda);
        if rho >= 1.0 {
            return None;
        }
        let c = self.erlang_c(lambda);
        if c <= 1.0 - r {
            return Some(0.0);
        }
        let decay = self.capacity() * (1.0 - rho);
        Some((c / (1.0 - r)).ln() / decay)
    }

    /// Mean waiting time `E[W] = ErlangC / (nμ − λ)`.
    pub fn mean_wait(&self, lambda: f64) -> Option<f64> {
        let rho = self.rho(lambda);
        if rho >= 1.0 {
            return None;
        }
        Some(self.erlang_c(lambda) / (self.capacity() - lambda))
    }

    /// Mean response time `E[T] = E[W] + 1/μ`.
    pub fn mean_response(&self, lambda: f64) -> Option<f64> {
        self.mean_wait(lambda).map(|w| w + 1.0 / self.mu)
    }

    /// Mean number of queries in the system, `E[N] = Σ k·π_k` computed
    /// in closed form: `L_q + λ/μ` with `L_q = C·ρ/(1−ρ)`.
    pub fn mean_in_system(&self, lambda: f64) -> Option<f64> {
        let rho = self.rho(lambda);
        if rho >= 1.0 {
            return None;
        }
        let lq = self.erlang_c(lambda) * rho / (1.0 - rho);
        Some(lq + lambda / self.mu)
    }

    /// The paper's admission predicate: the QoS of a microservice with
    /// target `t_d` seconds at percentile `r` is satisfied iff the
    /// r-quantile of the waiting time fits in the budget left after one
    /// service time, `t_d − 1/μ` (this is the `T_D − 1/μ` term of Eq. 5).
    pub fn qos_check(&self, lambda: f64, t_d: f64, r: f64) -> QosCheck {
        if self.rho(lambda) >= 1.0 {
            return QosCheck::Unstable;
        }
        let budget = t_d - 1.0 / self.mu;
        if budget < 0.0 {
            // One service time alone blows the target.
            return QosCheck::Violated;
        }
        match self.wait_quantile(lambda, r) {
            Some(q) if q <= budget => QosCheck::Satisfied,
            Some(_) => QosCheck::Violated,
            None => QosCheck::Unstable,
        }
    }

    /// Exact maximum admissible arrival rate: the largest `λ` for which
    /// [`Self::qos_check`] is `Satisfied`, found by bisection (the QoS
    /// predicate is monotone in `λ`). Returns 0 when even `λ → 0` fails
    /// (service time alone exceeds the target).
    pub fn max_admissible_lambda(&self, t_d: f64, r: f64) -> f64 {
        let cap = self.capacity();
        bisect(1e-9, cap * (1.0 - 1e-9), cap * 1e-9, |lam| {
            self.qos_check(lam, t_d, r) == QosCheck::Satisfied
        })
        .unwrap_or(0.0)
    }

    /// Eq. 5 evaluated at a given `λ` (one step of the implicit equation):
    ///
    /// ```text
    /// λ(μ) = nμ + ln[(1−r)(1−ρ)/π_n] / (T_D − 1/μ)
    /// ```
    pub fn discriminant_step(&self, lambda: f64, t_d: f64, r: f64) -> Option<f64> {
        let rho = self.rho(lambda);
        if rho >= 1.0 || lambda <= 0.0 {
            return None;
        }
        let budget = t_d - 1.0 / self.mu;
        if budget <= 0.0 {
            return Some(0.0);
        }
        // (1−r)(1−ρ)/π_n = (1−r)/ErlangC.
        let c = self.erlang_c(lambda);
        if c <= 0.0 {
            return Some(self.capacity());
        }
        let val = self.capacity() + ((1.0 - r) / c).ln() / budget;
        Some(val.max(0.0))
    }

    /// Resolve the implicit Eq. 5 by damped fixed-point iteration, giving
    /// the paper's theoretical switch point `λ(μ)`. Converges for every
    /// parameterisation we exercise (the map is a contraction near the
    /// fixed point; damping guards the rest). Falls back to the exact
    /// bisection answer if the iteration fails to settle.
    pub fn discriminant_lambda(&self, t_d: f64, r: f64) -> f64 {
        let cap = self.capacity();
        if t_d <= 1.0 / self.mu {
            return 0.0;
        }
        let mut lam = 0.8 * cap;
        for _ in 0..200 {
            let Some(next) = self.discriminant_step(lam, t_d, r) else {
                break;
            };
            let next = next.clamp(1e-9, cap * (1.0 - 1e-9));
            let new_lam = 0.5 * lam + 0.5 * next;
            if (new_lam - lam).abs() <= 1e-9 * cap {
                return new_lam;
            }
            lam = new_lam;
        }
        self.max_admissible_lambda(t_d, r)
    }
}

/// The container ceiling of §IV-A: "an upper limit for container quantity
/// `n_max = min{1/δ, M₀/M₁}`" — the platform bounds how many containers a
/// single microservice may hold, by a vendor-set concurrency share `1/δ`
/// and by memory (`M₀` platform memory / `M₁` per-container memory).
#[derive(Debug, Clone, Copy)]
pub struct ContainerLimits {
    /// Vendor concurrency cap for one tenant (the `1/δ` term).
    pub tenant_cap: u32,
    /// Platform memory, MB (`M₀`).
    pub platform_memory_mb: u64,
    /// Per-container memory, MB (`M₁`, Table II: 256 MB).
    pub container_memory_mb: u64,
}

impl ContainerLimits {
    /// `n_max = min{1/δ, M₀/M₁}`.
    pub fn n_max(&self) -> u32 {
        let by_memory = (self.platform_memory_mb / self.container_memory_mb.max(1)) as u32;
        self.tenant_cap.min(by_memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: u32, mu: f64) -> MmnModel {
        MmnModel::new(n, mu).unwrap()
    }

    /// Brute-force π_k from the textbook formula with factorials, for
    /// small n, to cross-check the recurrence-based implementation.
    fn pi_k_naive(n: u32, mu: f64, lambda: f64, k: u32) -> f64 {
        let rho = lambda / (n as f64 * mu);
        let a = lambda / mu; // = n·ρ
        let fact = |m: u32| (1..=m).map(|x| x as f64).product::<f64>();
        let mut sum = 0.0;
        for j in 0..n {
            sum += a.powi(j as i32) / fact(j);
        }
        sum += a.powi(n as i32) / (fact(n) * (1.0 - rho));
        let pi0 = 1.0 / sum;
        if k < n {
            a.powi(k as i32) / fact(k) * pi0
        } else {
            (n as f64).powi(n as i32) * rho.powi(k as i32) / fact(n) * pi0
        }
    }

    #[test]
    fn construction_validates() {
        assert!(MmnModel::new(0, 1.0).is_none());
        assert!(MmnModel::new(1, 0.0).is_none());
        assert!(MmnModel::new(1, f64::NAN).is_none());
        assert!(MmnModel::new(4, 2.0).is_some());
    }

    #[test]
    fn erlang_b_single_server_closed_form() {
        // n=1: B = a/(1+a).
        let m = model(1, 1.0);
        for &lam in &[0.1, 0.5, 0.9, 2.0] {
            let a = lam / m.mu;
            assert!((m.erlang_b(lam) - a / (1.0 + a)).abs() < 1e-12);
        }
    }

    #[test]
    fn erlang_c_single_server_equals_rho() {
        // M/M/1: P{wait} = ρ.
        let m = model(1, 2.0);
        for &lam in &[0.2, 1.0, 1.8] {
            let rho = m.rho(lam);
            assert!((m.erlang_c(lam) - rho).abs() < 1e-12, "rho={rho}");
        }
    }

    #[test]
    fn erlang_c_is_one_at_saturation() {
        let m = model(4, 1.0);
        assert_eq!(m.erlang_c(4.0), 1.0);
        assert_eq!(m.erlang_c(10.0), 1.0);
    }

    #[test]
    fn pi_k_matches_naive_formula() {
        let m = model(5, 1.5);
        let lam = 5.0; // rho = 2/3
        for k in 0..15 {
            let got = m.pi_k(lam, k).unwrap();
            let want = pi_k_naive(5, 1.5, lam, k);
            assert!((got - want).abs() < 1e-10, "k={k}: {got} vs {want}");
        }
    }

    #[test]
    fn pi_k_sums_to_one() {
        let m = model(3, 2.0);
        let lam = 4.5; // rho = 0.75
        let sum: f64 = (0..2000).map(|k| m.pi_k(lam, k).unwrap()).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn pi_k_none_when_unstable() {
        let m = model(2, 1.0);
        assert!(m.pi_k(2.0, 0).is_none());
        assert!(m.pi_k(3.0, 5).is_none());
    }

    #[test]
    fn zero_load_is_always_empty() {
        let m = model(4, 1.0);
        assert_eq!(m.pi_k(0.0, 0), Some(1.0));
        assert_eq!(m.pi_k(0.0, 3), Some(0.0));
        assert_eq!(m.erlang_c(0.0), 0.0);
    }

    #[test]
    fn wait_cdf_properties() {
        let m = model(4, 2.0);
        let lam = 6.0; // rho = 0.75
        let f0 = m.wait_cdf(lam, 0.0).unwrap();
        // F_W(0) = P{W=0} = 1 − ErlangC.
        assert!((f0 - (1.0 - m.erlang_c(lam))).abs() < 1e-12);
        // Monotone nondecreasing, → 1.
        let mut prev = f0;
        for i in 1..100 {
            let f = m.wait_cdf(lam, i as f64 * 0.05).unwrap();
            assert!(f >= prev - 1e-15);
            prev = f;
        }
        assert!(m.wait_cdf(lam, 50.0).unwrap() > 0.999_999);
        assert_eq!(m.wait_cdf(lam, -1.0), Some(0.0));
    }

    #[test]
    fn wait_quantile_inverts_cdf() {
        let m = model(8, 1.0);
        let lam = 7.0;
        for &r in &[0.5, 0.9, 0.95, 0.99] {
            let q = m.wait_quantile(lam, r).unwrap();
            if q > 0.0 {
                let f = m.wait_cdf(lam, q).unwrap();
                assert!((f - r).abs() < 1e-9, "r={r} q={q} F={f}");
            }
        }
    }

    #[test]
    fn wait_quantile_zero_at_light_load() {
        // At tiny load almost nobody waits: the 50th percentile is 0.
        let m = model(10, 1.0);
        assert_eq!(m.wait_quantile(0.1, 0.5), Some(0.0));
    }

    #[test]
    fn mean_wait_matches_erlang_formula() {
        let m = model(2, 1.0);
        let lam = 1.5; // rho = 0.75
                       // E[W] = C/(nμ−λ).
        let w = m.mean_wait(lam).unwrap();
        assert!((w - m.erlang_c(lam) / (2.0 - 1.5)).abs() < 1e-12);
        assert!(m.mean_response(lam).unwrap() > w);
    }

    #[test]
    fn qos_check_cases() {
        let m = model(4, 10.0); // service time 100ms
        assert_eq!(m.qos_check(5.0, 0.5, 0.95), QosCheck::Satisfied);
        assert_eq!(m.qos_check(39.9, 0.11, 0.95), QosCheck::Violated);
        assert_eq!(m.qos_check(40.0, 0.5, 0.95), QosCheck::Unstable);
        // Target below one service time can never be met.
        assert_eq!(m.qos_check(0.1, 0.05, 0.95), QosCheck::Violated);
    }

    #[test]
    fn max_admissible_lambda_is_the_qos_boundary() {
        let m = model(6, 4.0);
        let (t_d, r) = (0.5, 0.95);
        let lam_max = m.max_admissible_lambda(t_d, r);
        assert!(lam_max > 0.0 && lam_max < m.capacity());
        assert_eq!(m.qos_check(lam_max * 0.999, t_d, r), QosCheck::Satisfied);
        assert_eq!(m.qos_check(lam_max * 1.001, t_d, r), QosCheck::Violated);
    }

    #[test]
    fn max_admissible_lambda_zero_for_impossible_target() {
        let m = model(4, 1.0); // service 1s
        assert_eq!(m.max_admissible_lambda(0.5, 0.95), 0.0);
    }

    #[test]
    fn discriminant_matches_bisection() {
        for &(n, mu, t_d, r) in &[
            (4u32, 5.0, 0.5, 0.95),
            (8, 2.0, 1.2, 0.95),
            (16, 10.0, 0.25, 0.99),
            (2, 1.0, 3.0, 0.9),
            (32, 20.0, 0.1, 0.95),
        ] {
            let m = model(n, mu);
            let fp = m.discriminant_lambda(t_d, r);
            let ex = m.max_admissible_lambda(t_d, r);
            let rel = (fp - ex).abs() / ex.max(1e-9);
            assert!(rel < 0.01, "n={n} mu={mu}: fixed-point {fp} vs exact {ex}");
        }
    }

    #[test]
    fn discriminant_increases_with_capacity() {
        let (t_d, r) = (0.5, 0.95);
        let mut prev = 0.0;
        for n in [2u32, 4, 8, 16, 32] {
            let lam = model(n, 5.0).discriminant_lambda(t_d, r);
            assert!(lam > prev, "n={n}: {lam} <= {prev}");
            prev = lam;
        }
    }

    #[test]
    fn discriminant_decreases_as_mu_degrades() {
        // The paper's core observation: contention lowers μ, which lowers
        // the admissible load — there is no fixed switch point.
        let (t_d, r) = (0.5, 0.95);
        let healthy = model(8, 10.0).discriminant_lambda(t_d, r);
        let contended = model(8, 4.0).discriminant_lambda(t_d, r);
        assert!(contended < healthy);
    }

    #[test]
    fn container_limits_take_minimum() {
        let l = ContainerLimits {
            tenant_cap: 100,
            platform_memory_mb: 256 * 60,
            container_memory_mb: 256,
        };
        assert_eq!(l.n_max(), 60);
        let l2 = ContainerLimits {
            tenant_cap: 40,
            ..l
        };
        assert_eq!(l2.n_max(), 40);
    }

    #[test]
    fn container_limits_guard_zero_memory() {
        let l = ContainerLimits {
            tenant_cap: 10,
            platform_memory_mb: 1024,
            container_memory_mb: 0,
        };
        assert_eq!(l.n_max(), 10);
    }

    #[test]
    fn mean_in_system_matches_pi_k_sum() {
        let m = model(4, 2.0);
        let lam = 6.0; // rho = 0.75
        let direct: f64 = (0..3000).map(|k| k as f64 * m.pi_k(lam, k).unwrap()).sum();
        let closed = m.mean_in_system(lam).unwrap();
        assert!((direct - closed).abs() < 1e-6, "{direct} vs {closed}");
    }

    proptest::proptest! {
        /// Little's law: E[N] = λ·E[T], an identity that ties together
        /// three independently-computed quantities of the model.
        #[test]
        fn littles_law(n in 1u32..32, mu in 0.5f64..20.0, rho in 0.05f64..0.95) {
            let m = model(n, mu);
            let lam = rho * m.capacity();
            let en = m.mean_in_system(lam).unwrap();
            let et = m.mean_response(lam).unwrap();
            let rel = (en - lam * et).abs() / en.max(1e-12);
            prop_assert!(rel < 1e-9, "E[N]={en} λE[T]={}", lam * et);
        }

        #[test]
        fn erlang_c_in_unit_interval(n in 1u32..64, mu in 0.1f64..50.0, rho in 0.01f64..0.99) {
            let m = model(n, mu);
            let lam = rho * m.capacity();
            let c = m.erlang_c(lam);
            prop_assert!((0.0..=1.0).contains(&c), "c={c}");
        }

        #[test]
        fn erlang_c_monotone_in_load(n in 1u32..32, mu in 0.5f64..20.0) {
            let m = model(n, mu);
            let mut prev = 0.0;
            for i in 1..20 {
                let lam = m.capacity() * i as f64 / 20.0 * 0.99;
                let c = m.erlang_c(lam);
                prop_assert!(c >= prev - 1e-12);
                prev = c;
            }
        }

        #[test]
        fn qos_boundary_consistency(n in 1u32..32, mu in 1.0f64..20.0, r in 0.5f64..0.99) {
            // λ at (just inside) the discriminant must satisfy QoS.
            let m = model(n, mu);
            let t_d = 3.0 / mu; // three service times of headroom
            let lam = m.discriminant_lambda(t_d, r);
            if lam > 1e-6 {
                prop_assert_eq!(m.qos_check(lam * 0.99, t_d, r), QosCheck::Satisfied);
            }
        }

        #[test]
        fn pi_k_nonnegative(n in 1u32..16, k in 0u32..50) {
            let m = model(n, 2.0);
            let lam = m.capacity() * 0.7;
            let p = m.pi_k(lam, k).unwrap();
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `λ(μ)` is finite and never negative. A controller may
        /// therefore take zero load as below any non-negative multiple
        /// of it without evaluating it.
        #[test]
        fn discriminant_is_finite_and_nonnegative(
            n in 1u32..257,
            mu in (-6.0f64..=6.0).prop_map(|e| 10f64.powf(e)),
            t_d in (0.0f64..1.0).prop_map(|u| 10.0 * (1.0 - u)),
            r in 0.5f64..=0.999,
        ) {
            let lam = model(n, mu).discriminant_lambda(t_d, r);
            prop_assert!(
                lam.is_finite() && lam >= 0.0,
                "n={n} mu={mu} t_d={t_d} r={r}: λ(μ) = {lam}"
            );
        }
    }

    use proptest::prelude::*;
}
