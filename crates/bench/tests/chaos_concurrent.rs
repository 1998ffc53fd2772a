//! Two chaos drills with one seed, at once in one process — what `cargo test`
//! does with the drill's own tests — each keep to WALs of their own. (They
//! used to share `notebookos-chaos-{pid}-{seed}` and delete each other's.)

use notebookos_bench::chaos::{run_chaos_drill, ChaosOpts};

#[test]
fn two_drills_of_one_seed_at_once_do_not_share_wals() {
    let drills: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(|| run_chaos_drill(&ChaosOpts::smoke(11))))
        .collect();
    let reports: Vec<_> = drills.into_iter().map(|d| d.join().unwrap()).collect();
    for report in &reports {
        assert!(report.state_match, "{:?}", report.mismatch);
    }
    // Same seed, same schedule: each replayed exactly its own records.
    let replayed = |i: usize| -> Vec<u64> {
        let cycles = &reports[i].cycle_latencies;
        cycles.iter().map(|c| c.replayed_records).collect()
    };
    assert_eq!(replayed(0), replayed(1));
}
