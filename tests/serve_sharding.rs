//! Cross-shard determinism for the sharded serving loop (PR 8).
//!
//! The multi-core gateway partitions sessions across shards by user-id
//! hash and merges per-shard reports at shutdown. Two properties make
//! that safe to rely on:
//!
//! * the partition is a **disjoint exact cover** for any shard count —
//!   every session lands on exactly one shard, and the choice is stable;
//! * the merged report is **invariant under the shard count** — same
//!   counters, same latency multiset, whether one thread served
//!   everything or five threads served a fifth each.

use proptest::prelude::*;

use notebookos_bench::serve::{run_serve_sharded, shard_of_user, ServeEv, ServeOpts};
use notebookos_des::{DesScheduler, Scheduler, SimTime};

fn des(_shard: usize) -> Box<dyn Scheduler<ServeEv>> {
    Box::new(DesScheduler::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every user id maps to exactly one in-range shard, the mapping is a
    /// pure function of the id, and per-shard counts add up to the whole
    /// population: a disjoint exact cover for any N — and the cover the
    /// engine served, not just one a free function computes.
    #[test]
    fn shard_partition_is_a_disjoint_exact_cover(
        shards in 1usize..12,
        users in 1usize..200,
    ) {
        let mut counts = vec![0usize; shards];
        for user in 0..users {
            let shard = shard_of_user(user, shards);
            prop_assert!(shard < shards, "user {user} -> {shard} out of {shards}");
            prop_assert_eq!(shard, shard_of_user(user, shards), "stable for user {}", user);
            counts[shard] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), users, "exact cover");
        let run = run_serve_sharded(&ServeOpts::new(users, SimTime::from_secs(1)), shards, &des);
        let served: Vec<usize> = run.coordination.shards.iter().map(|s| s.sessions).collect();
        prop_assert_eq!(served, counts, "what `run_serve_sharded` partitioned");
    }

    /// The merged report's shard-invariant view is identical for any
    /// shard count — the serving loop's determinism contract, over
    /// random workload sizes, fleets, seeds, and uniform or Zipfian
    /// tenants rather than the one smoke configuration the unit tests pin.
    #[test]
    fn merged_report_is_invariant_under_shard_count(
        users in 1usize..10,
        hosts in 3usize..10,
        shards in 2usize..6,
        seed in 0u64..1_000,
        skewed in any::<bool>(),
    ) {
        let mut opts = ServeOpts::new(users, SimTime::from_secs(2));
        opts.hosts = hosts;
        opts.seed = seed;
        opts.skew = skewed.then_some(1.1);
        let single = run_serve_sharded(&opts, 1, &des);
        let multi = run_serve_sharded(&opts, shards, &des);
        prop_assert_eq!(multi.per_shard.len(), shards);
        prop_assert_eq!(
            single.report.shard_invariant_view(),
            multi.report.shard_invariant_view(),
            "{} shards diverged from 1 (users {}, hosts {}, seed {}, skewed {})",
            shards, users, hosts, seed, skewed
        );
    }
}
