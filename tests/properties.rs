//! Cross-crate property-based tests: protocol safety, codec round-trips,
//! and accounting invariants under randomized inputs.

use proptest::prelude::*;

use notebookos::cluster::{Cluster, HostId, ResourceBundle, ResourceRequest, Viability};
use notebookos::core::sweep::{Scenario, SweepRun, SweepSpec};
use notebookos::core::{
    BinPacking, LeastLoaded, PlacementContext, PlacementPolicy, Platform, PlatformConfig,
    PolicyKind, RandomPlacement, RoundRobin,
};
use notebookos::des::{Distribution, Empirical, SimRng};
use notebookos::jupyter::{wire, Json, JupyterMessage};
use notebookos::raft::harness::Network;
use notebookos::trace::SyntheticConfig;

// ---------------------------------------------------------------------
// Raft safety: state-machine prefix agreement under lossy networks.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the drop rate and schedule, any two replicas' applied
    /// command sequences must agree on their common prefix (Raft's
    /// state-machine safety property).
    #[test]
    fn raft_applied_prefix_agreement(seed in 0u64..5000, drop in 0usize..30) {
        let mut net: Network<u64> = Network::new(3, seed);
        net.set_drop_rate(drop as f64 / 100.0);
        let leader = net.run_until_leader();
        for i in 0..20u64 {
            // Leadership may move under drops; follow it.
            let target = net.leader().unwrap_or(leader);
            let _ = net.propose(target, i);
            net.run_micros(20_000);
        }
        net.run_micros(2_000_000);
        let logs: Vec<Vec<u64>> = (1..=3).map(|n| net.applied_by(n).to_vec()).collect();
        for a in 0..3 {
            for b in (a + 1)..3 {
                let common = logs[a].len().min(logs[b].len());
                prop_assert_eq!(
                    &logs[a][..common],
                    &logs[b][..common],
                    "prefix divergence between replicas {} and {}",
                    a + 1,
                    b + 1
                );
            }
        }
    }

    /// No committed command is ever applied twice by the same replica.
    #[test]
    fn raft_no_duplicate_application(seed in 0u64..5000) {
        let mut net: Network<u64> = Network::new(3, seed);
        let leader = net.run_until_leader();
        for i in 0..15u64 {
            net.propose(leader, i).expect("stable leader");
        }
        net.run_micros(2_000_000);
        for n in 1..=3u64 {
            let applied = net.applied_by(n);
            let mut sorted = applied.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), applied.len(), "replica {} duplicated", n);
        }
    }
}

// ---------------------------------------------------------------------
// Jupyter wire protocol round-trips.
// ---------------------------------------------------------------------

fn arb_code() -> impl Strategy<Value = String> {
    // Printable payloads including JSON-hostile characters.
    proptest::string::string_regex("[ -~\n\t]{0,200}").expect("valid regex")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dates stay under 2^52 µs (~142 years of virtual time): the JSON
    /// codec stores numbers as f64, which is exact in that range.
    #[test]
    fn wire_round_trip_any_code(code in arb_code(), session in "[a-z0-9-]{1,20}", date in 0u64..(1u64 << 52)) {
        let msg = JupyterMessage::execute_request("m1", session, code, date)
            .with_destination("kernel-π")
            .with_gpu_device_ids(&[0, 7]);
        let frames = wire::encode(&[], &msg, b"key");
        let (_, decoded) = wire::decode(&frames, b"key").expect("round trip");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn json_round_trip_strings(s in "\\PC{0,80}") {
        let v = Json::Str(s.clone());
        let parsed = Json::parse(&v.encode()).expect("encoded JSON is valid");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    #[test]
    fn json_round_trip_numbers(n in -1.0e12f64..1.0e12) {
        let parsed = Json::parse(&Json::Num(n).encode()).expect("valid");
        let got = parsed.as_f64().expect("number");
        prop_assert!((got - n).abs() <= n.abs() * 1e-12 + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Host resource-accounting invariants under random commit/release.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn host_accounting_never_oversubscribes_exclusive_resources(ops in proptest::collection::vec((0u64..12, 1u32..5), 1..60)) {
        let mut cluster = Cluster::with_hosts(1, ResourceBundle::p3_16xlarge());
        let mut devices = Vec::new();
        let mut live: Vec<(u64, u32)> = Vec::new();
        for (owner, gpus) in ops {
            if let Some(pos) = live.iter().position(|&(o, _)| o == owner) {
                let (o, _) = live.remove(pos);
                prop_assert!(cluster.release(0, o));
            } else {
                let req = ResourceRequest::new(1000, 4096, gpus, 16);
                if cluster.try_commit(0, owner, &req, &mut devices) {
                    live.push((owner, gpus));
                }
            }
            // Invariants after every operation.
            let host = &cluster.hosts()[0];
            let committed: u32 = live.iter().map(|&(_, g)| g).sum();
            prop_assert_eq!(host.committed_gpus(), committed);
            prop_assert!(host.committed_gpus() <= host.capacity().gpus);
            prop_assert_eq!(host.idle_gpus(), host.capacity().gpus - committed);
            prop_assert_eq!(host.active_commitments(), live.len());
        }
    }

    #[test]
    fn bundle_arithmetic_is_consistent(a_cpu in 0u64..1_000_000, a_mem in 0u64..1_000_000, a_gpu in 0u32..64,
                                       b_cpu in 0u64..1_000_000, b_mem in 0u64..1_000_000, b_gpu in 0u32..64) {
        let a = ResourceBundle::new(a_cpu, a_mem, a_gpu);
        let b = ResourceBundle::new(b_cpu, b_mem, b_gpu);
        let sum = a + b;
        prop_assert!(sum.covers(&a) && sum.covers(&b));
        prop_assert_eq!(sum - b, a);
        prop_assert_eq!(sum.saturating_sub(&a), b);
    }
}

// ---------------------------------------------------------------------
// Placement policies: shared viability screen and determinism.
// ---------------------------------------------------------------------

/// A randomized cluster: per-host (shape die, subscriptions, commits);
/// `shape == 0` (1 in 4) makes the host CPU-only, which the viability
/// screen rejects for any GPU request.
fn arb_cluster_ops() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..4, 0u8..16, 0u8..3), 2..10)
}

fn build_cluster(ops: &[(u8, u8, u8)]) -> Cluster {
    let mut c = Cluster::new();
    for &(shape_die, subs, commits) in ops {
        if shape_die == 0 {
            c.add_host(ResourceBundle::new(8_000, 32_768, 0));
            continue;
        }
        let host = c.add_host(ResourceBundle::p3_16xlarge());
        let one_gpu = ResourceRequest::one_gpu();
        for _ in 0..subs {
            assert!(c.subscribe(host, &one_gpu));
        }
        for k in 0..commits {
            let fits = c.try_commit(host, u64::from(k) + 1, &one_gpu, &mut Vec::new());
            assert!(fits, "commit fits");
        }
    }
    c
}

/// The policy's full ranking through its one ranking method.
fn rank_all(policy: &mut dyn PlacementPolicy, ctx: &PlacementContext<'_>) -> Vec<HostId> {
    let mut out = Vec::new();
    policy.rank_top_into(ctx, usize::MAX, &mut out);
    out
}

fn all_policies(seed: u64) -> Vec<Box<dyn PlacementPolicy>> {
    vec![
        Box::new(LeastLoaded::default()),
        Box::new(RoundRobin::default()),
        Box::new(BinPacking::default()),
        Box::new(RandomPlacement::new(seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy ranks exactly the hosts the viability screen admits,
    /// each once, whatever the cluster state: never a host too small for
    /// the request, and never a host twice.
    #[test]
    fn policies_rank_exactly_the_viable_hosts_once(ops in arb_cluster_ops(), seed in 0u64..1000) {
        let cluster = build_cluster(&ops);
        let request = ResourceRequest::one_gpu();
        let ctx = PlacementContext {
            cluster: &cluster,
            request: &request,
            replication_factor: 3,
        };
        let mut viable = Viability::default();
        ctx.viable_into(&mut viable);
        let mut admitted = [viable.within_cap, viable.over_cap].concat();
        admitted.sort_unstable();
        for policy in &mut all_policies(seed) {
            // Repeated calls (stateful policies rotate) stay clean too.
            for _ in 0..3 {
                let mut ranked = rank_all(policy.as_mut(), &ctx);
                ranked.sort_unstable();
                prop_assert_eq!(&ranked, &admitted, "{} ranked another set", policy.name());
            }
        }
    }

    /// For a fixed seed, every policy's ranking sequence is a pure function
    /// of the context sequence it has seen.
    #[test]
    fn policies_are_deterministic_for_a_fixed_seed(ops in arb_cluster_ops(), seed in 0u64..1000) {
        let cluster = build_cluster(&ops);
        let request = ResourceRequest::one_gpu();
        let ctx = PlacementContext {
            cluster: &cluster,
            request: &request,
            replication_factor: 3,
        };
        let mut a = all_policies(seed);
        let mut b = all_policies(seed);
        for (pa, pb) in a.iter_mut().zip(b.iter_mut()) {
            for _ in 0..4 {
                prop_assert_eq!(
                    rank_all(pa.as_mut(), &ctx),
                    rank_all(pb.as_mut(), &ctx),
                    "{} diverged",
                    pa.name()
                );
            }
        }
    }

    /// Whenever the SR cap still admits some host, no policy puts a
    /// cap-forbidden host ahead of an admitted one (the unified-viability
    /// bugfix: baselines used to rank on total capacity alone).
    #[test]
    fn policies_rank_sr_capped_hosts_behind_admitted_ones(ops in arb_cluster_ops(), seed in 0u64..1000) {
        let cluster = build_cluster(&ops);
        let request = ResourceRequest::one_gpu();
        let ctx = PlacementContext {
            cluster: &cluster,
            request: &request,
            replication_factor: 3,
        };
        let mut viable = Viability::default();
        ctx.viable_into(&mut viable);
        for policy in &mut all_policies(seed) {
            let ranked = rank_all(policy.as_mut(), &ctx);
            prop_assert_eq!(ranked.len(), viable.len(), "{} changed the viable set", policy.name());
            // All within-cap hosts precede all over-cap hosts.
            let first_over = ranked
                .iter()
                .position(|id| viable.over_cap.contains(id))
                .unwrap_or(ranked.len());
            for (i, id) in ranked.iter().enumerate() {
                if viable.within_cap.contains(id) {
                    prop_assert!(
                        i < first_over,
                        "{} ranked admitted host {} behind a cap-forbidden one",
                        policy.name(),
                        id
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sweep engine: parallel execution is observationally sequential.
// ---------------------------------------------------------------------

#[test]
fn sweep_runs_equal_sequential_runs() {
    let scenario = Scenario::new("smoke", SyntheticConfig::smoke());
    let spec = SweepSpec::new()
        .policies(vec![PolicyKind::Reservation, PolicyKind::NotebookOs])
        .seeds(vec![41, 42])
        .scenarios(vec![scenario.clone()])
        .workers(3);
    let report = spec.run();
    assert_eq!(report.len(), 4);
    for run in &report.runs {
        let mut config = PlatformConfig::evaluation(run.policy);
        config.seed = run.seed;
        let sequential = Platform::run(config, scenario.trace(run.seed));
        assert_eq!(
            run.metrics, sequential,
            "{} seed {}: sweep metrics must be bit-identical to a sequential run",
            run.policy, run.seed
        );
    }
    // Aggregation is pure over the per-run records: pooled sample counts
    // and totals match hand-computed sums.
    let in_cell = |r: &SweepRun| r.scenario == "smoke" && r.policy == PolicyKind::NotebookOs;
    let agg = report.aggregate(in_cell).expect("cell exists");
    let runs: Vec<&SweepRun> = report.runs.iter().filter(|r| in_cell(r)).collect();
    assert_eq!(agg.seeds, vec![41, 42]);
    assert_eq!(
        agg.interactivity_ms.len(),
        runs.iter()
            .map(|r| r.metrics.interactivity_ms.len())
            .sum::<usize>()
    );
    assert_eq!(
        agg.executions,
        runs.iter()
            .map(|r| r.metrics.counters.executions)
            .sum::<u64>()
    );
}

// ---------------------------------------------------------------------
// Empirical distributions: quantile monotonicity and anchor fidelity.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn empirical_quantile_monotone(v1 in 1.0f64..100.0, scale2 in 1.01f64..10.0, scale3 in 1.01f64..10.0, seed in 0u64..1000) {
        let v2 = v1 * scale2;
        let v3 = v2 * scale3;
        let dist = Empirical::from_quantiles(&[(0.25, v1), (0.5, v2), (0.9, v3)]).expect("valid anchors");
        // Quantile function is monotone.
        let mut prev = 0.0;
        for i in 1..100 {
            let q = dist.quantile(i as f64 / 100.0);
            prop_assert!(q >= prev);
            prev = q;
        }
        // Anchors are hit exactly.
        prop_assert!((dist.quantile(0.5) - v2).abs() < v2 * 1e-9);
        // Samples are positive and finite.
        let mut rng = SimRng::seed(seed);
        for _ in 0..100 {
            let s = dist.sample(&mut rng);
            prop_assert!(s.is_finite() && s > 0.0);
        }
    }
}
