//! The billing model of the simulation study (§5.5.1).
//!
//! The provider pays for provisioned EC2 hosts; users pay 1.15× the
//! provider's rate in proportion to the resources they use. Standby
//! distributed-kernel replicas are charged 12.5 % of the base rate. The
//! paper's worked example: with an 8-GPU VM at $10/hour, a standby replica
//! bills $1.44/hour (10 × 1.15 × 0.125) and a replica training on 4 GPUs
//! bills $5.75/hour (10 × 1.15 × 4/8).

/// Provider's hourly cost for one 8-GPU server (the paper's running
/// example uses $10/hour).
const HOST_HOURLY_USD: f64 = 10.0;

/// Users pay this multiple of the provider's rate (1.15×).
const USER_MULTIPLIER: f64 = 1.15;

/// Standby replicas are charged this fraction of the base rate (12.5 %).
const STANDBY_FRACTION: f64 = 0.125;

/// Streaming revenue/cost meter for one platform run.
#[derive(Debug, Clone)]
pub struct BillingMeter {
    host_gpus: u32,
    last_time_s: f64,
    cost_usd: f64,
    revenue_usd: f64,
    // Current rates (per hour), updated on every state change. Hosts are
    // tracked in host-equivalents (fractional for heterogeneous fleets).
    hosts: f64,
    standby_replicas: u32,
    // GPU counts are `u32`, so `f64::from` converts them exactly in one
    // instruction (a `u64` cast takes several on baseline x86-64).
    active_gpus: u32,
    reserved_gpus: u32,
}

impl BillingMeter {
    /// Creates a meter for hosts with `host_gpus` GPUs each.
    pub fn new(host_gpus: u32) -> Self {
        BillingMeter {
            host_gpus: host_gpus.max(1),
            last_time_s: 0.0,
            cost_usd: 0.0,
            revenue_usd: 0.0,
            hosts: 0.0,
            standby_replicas: 0,
            active_gpus: 0,
            reserved_gpus: 0,
        }
    }

    fn accrue(&mut self, now_s: f64) {
        debug_assert!(now_s >= self.last_time_s, "billing went backwards");
        // Most rate changes land at the instant of the previous one (a
        // cell's commit, standby and gauge updates share a timestamp). A
        // zero-hour interval would add `+0.0` to totals that are never
        // negative, which changes no bit.
        if now_s == self.last_time_s {
            return;
        }
        let hours = (now_s - self.last_time_s) / 3600.0;
        self.last_time_s = now_s;
        let base = HOST_HOURLY_USD;
        let user = base * USER_MULTIPLIER;

        // Provider cost: every provisioned host, all the time.
        self.cost_usd += self.hosts * base * hours;

        // Revenue: standby replicas at the standby fraction, actively
        // training replicas in proportion to GPUs used, and (Reservation)
        // reserved GPUs in proportion to the reservation.
        self.revenue_usd += f64::from(self.standby_replicas) * user * STANDBY_FRACTION * hours;
        self.revenue_usd += f64::from(self.active_gpus) / f64::from(self.host_gpus) * user * hours;
        self.revenue_usd +=
            f64::from(self.reserved_gpus) / f64::from(self.host_gpus) * user * hours;
    }

    /// Updates the provisioned fleet in *host-equivalents* — total fleet
    /// GPUs divided by the reference host's GPUs — so heterogeneous
    /// fleets bill in proportion to their capacity (a 4-GPU box costs
    /// half an 8-GPU server). Equals the host count for homogeneous
    /// fleets.
    pub fn set_host_equivalents(&mut self, now_s: f64, equivalents: f64) {
        self.accrue(now_s);
        self.hosts = equivalents.max(0.0);
    }

    /// Updates the number of standby (idle) kernel replicas at `now_s`.
    pub fn set_standby_replicas(&mut self, now_s: f64, replicas: u32) {
        self.accrue(now_s);
        self.standby_replicas = replicas;
    }

    /// Updates the number of GPUs actively used by executing replicas.
    pub fn set_active_gpus(&mut self, now_s: f64, gpus: u32) {
        self.accrue(now_s);
        self.active_gpus = gpus;
    }

    /// Updates the number of GPUs held by full-lifetime reservations
    /// (Reservation baseline only).
    pub fn set_reserved_gpus(&mut self, now_s: f64, gpus: u32) {
        self.accrue(now_s);
        self.reserved_gpus = gpus;
    }

    /// Accrues up to `now_s` and reports `(provider_cost, revenue)` in USD.
    pub fn totals(&mut self, now_s: f64) -> (f64, f64) {
        self.accrue(now_s);
        (self.cost_usd, self.revenue_usd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> BillingMeter {
        BillingMeter::new(8)
    }

    #[test]
    fn paper_worked_example_standby() {
        // One standby replica for one hour → $1.44.
        let mut m = meter();
        m.set_standby_replicas(0.0, 1);
        let (_, revenue) = m.totals(3600.0);
        assert!((revenue - 1.4375).abs() < 1e-9, "revenue {revenue}");
    }

    #[test]
    fn paper_worked_example_active() {
        // Training on 4 of 8 GPUs for one hour → $5.75.
        let mut m = meter();
        m.set_active_gpus(0.0, 4);
        let (_, revenue) = m.totals(3600.0);
        assert!((revenue - 5.75).abs() < 1e-9, "revenue {revenue}");
    }

    #[test]
    fn provider_cost_tracks_hosts() {
        let mut m = meter();
        m.set_host_equivalents(0.0, 3.0);
        m.set_host_equivalents(1800.0, 1.0); // 3 hosts for 30 min, then 1 host
        let (cost, _) = m.totals(3600.0);
        // 3×10×0.5 + 1×10×0.5 = 20.
        assert!((cost - 20.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn fractional_host_equivalents_bill_proportionally() {
        // A mixed fleet of one 8-GPU server and one 4-GPU box is 1.5
        // host-equivalents: cost 1.5 × $10/h.
        let mut m = meter();
        m.set_host_equivalents(0.0, 1.5);
        let (cost, _) = m.totals(3600.0);
        assert!((cost - 15.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn reservation_revenue_proportional() {
        let mut m = meter();
        m.set_reserved_gpus(0.0, 8);
        let (_, revenue) = m.totals(3600.0);
        assert!((revenue - 11.5).abs() < 1e-9, "revenue {revenue}");
    }

    #[test]
    fn profit_margin() {
        let mut m = meter();
        m.set_host_equivalents(0.0, 1.0);
        m.set_reserved_gpus(0.0, 8);
        // Revenue 11.5/h, cost 10/h → margin (1.5/11.5) ≈ 13.04 %.
        let (cost, revenue) = m.totals(3600.0);
        let margin = (revenue - cost) / revenue * 100.0;
        assert!((margin - 13.043).abs() < 0.01, "margin {margin}");
        // An empty platform neither costs nor earns anything.
        let mut empty = meter();
        assert_eq!(empty.totals(100.0), (0.0, 0.0));
    }

    /// `BillingMeter` as it was before it skipped zero-length intervals
    /// and before its GPU counts were `u32`: every rate change accrues,
    /// however short the interval, and a count converts as a `u64` cast.
    struct EveryCallMeter(BillingMeter);

    impl EveryCallMeter {
        fn accrue(&mut self, now_s: f64) {
            let m = &mut self.0;
            let hours = (now_s - m.last_time_s) / 3600.0;
            m.last_time_s = now_s;
            let base = HOST_HOURLY_USD;
            let user = base * USER_MULTIPLIER;
            m.cost_usd += m.hosts * base * hours;
            m.revenue_usd += f64::from(m.standby_replicas) * user * STANDBY_FRACTION * hours;
            let (active, reserved) = (u64::from(m.active_gpus), u64::from(m.reserved_gpus));
            m.revenue_usd += active as f64 / f64::from(m.host_gpus) * user * hours;
            m.revenue_usd += reserved as f64 / f64::from(m.host_gpus) * user * hours;
        }
    }

    #[test]
    fn skipping_same_instant_accruals_changes_no_bit() {
        let mut rng = notebookos_des::SimRng::seed(29);
        for repeats in [false, true] {
            let mut fast = meter();
            let mut reference = EveryCallMeter(meter());
            let mut now = 0.0f64;
            for step in 0..20_000u32 {
                // Half the calls land at the previous call's instant when
                // `repeats`; the rest move time by an arbitrary amount.
                if !repeats || rng.chance(0.5) {
                    now += rng.next_f64() * 100.0;
                }
                let value = rng.below(40);
                // Half the GPU counts span all of `u32`.
                let gpus = if step % 8 < 4 {
                    value as u32
                } else {
                    rng.next_u64() as u32
                };
                reference.accrue(now);
                let r = &mut reference.0;
                match step % 4 {
                    0 => {
                        fast.set_host_equivalents(now, value as f64 / 3.0);
                        r.hosts = value as f64 / 3.0;
                    }
                    1 => {
                        fast.set_standby_replicas(now, value as u32);
                        r.standby_replicas = value as u32;
                    }
                    2 => {
                        fast.set_active_gpus(now, gpus);
                        r.active_gpus = gpus;
                    }
                    _ => {
                        fast.set_reserved_gpus(now, gpus);
                        r.reserved_gpus = gpus;
                    }
                }
                if step % 97 == 0 {
                    reference.accrue(now);
                    let (cost, revenue) = fast.totals(now);
                    assert_eq!(cost.to_bits(), reference.0.cost_usd.to_bits());
                    assert_eq!(revenue.to_bits(), reference.0.revenue_usd.to_bits());
                }
            }
            reference.accrue(now + 1.0);
            let (cost, revenue) = fast.totals(now + 1.0);
            assert_eq!(cost.to_bits(), reference.0.cost_usd.to_bits(), "{repeats}");
            assert_eq!(
                revenue.to_bits(),
                reference.0.revenue_usd.to_bits(),
                "{repeats}"
            );
            assert!(cost > 0.0 && revenue > 0.0);
        }
    }

    #[test]
    fn mixed_accrual_is_piecewise() {
        let mut m = meter();
        m.set_host_equivalents(0.0, 2.0);
        m.set_active_gpus(3600.0, 8);
        let (cost, revenue) = m.totals(7200.0);
        assert!((cost - 40.0).abs() < 1e-9);
        assert!((revenue - 11.5).abs() < 1e-9);
    }
}
