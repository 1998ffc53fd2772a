//! Golden determinism gate for the hot-path optimization work (PR 5)
//! and the scheduler-trait refactor (live service mode).
//!
//! The committed reports under `tests/golden/` hold the full
//! [`RunMetrics`] record (every CDF histogram, timeline point, counter) of a
//! small placement × elasticity matrix plus one run per scheduling
//! policy, captured at the pre-optimization commit (their `cdfs` and
//! `breakdown` re-captured, and nothing else, when `Cdf` became a
//! histogram). The tests re-run the same specs through today's code and
//! compare the bytes `SweepReport::write_json` writes with the committed
//! files. The writer serialises every `RunMetrics` field, each CDF as its
//! exact count, sum, min, max, zeros and bucket counts, and floats in
//! shortest round-trip `{:?}` form, so equal bytes mean equal histograms
//! and equal bits: no cluster-index or scratch-buffer refactor can
//! silently change simulation results.
//!
//! Since the platform dispatches through `&mut dyn Scheduler<Ev>`, every
//! golden comparison also pins the trait path: `Platform::run` *is* the
//! trait-dispatched DES run. The `trait_*` tests below make the seam
//! explicit — an externally supplied [`DesScheduler`] and a
//! [`RealTimeScheduler`] on a manual clock must both reproduce the
//! direct run bit-for-bit, so live service mode can never drift from the
//! simulated studies.
//!
//! The serve replay is pinned the same way: `serve_*.json` hold
//! [`ServeReport::to_json`](notebookos_bench::serve::ServeReport::to_json)
//! of [`run_serve`] under a [`DesScheduler`] at two shapes, the `serve`
//! bin's default and `--users 2048 --duration 60 --hosts 256`, byte for
//! byte.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//!
//! ```sh
//! NOTEBOOKOS_UPDATE_GOLDEN=1 cargo test --test golden_determinism
//! ```

use std::path::PathBuf;

use notebookos::core::sweep::{Scenario, SweepSpec};
use notebookos::core::{Platform, PlatformConfig, PolicyKind};
use notebookos::des::{DesScheduler, ManualClock, RealTimeScheduler, Scheduler, SimTime};
use notebookos::trace::{generate, SyntheticConfig};
use notebookos_bench::serve::{run_serve, ServeOpts};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A compact workload that still exercises placement pressure,
/// migrations, and scale-out: fewer sessions than the evaluation excerpt
/// but the same generator shape.
fn golden_workload() -> SyntheticConfig {
    SyntheticConfig {
        sessions: 8,
        span_s: 2.0 * 3600.0,
        ..SyntheticConfig::smoke()
    }
}

/// One run per placement × elasticity policy (the interaction matrix the
/// placement fast path must reproduce), on a heterogeneous fleet so the
/// shape census and shape-aware provisioning paths are covered too.
fn placement_matrix_spec() -> SweepSpec {
    SweepSpec::new()
        .policies(vec![PolicyKind::NotebookOs])
        .all_placements()
        .all_elasticities()
        .seeds(vec![11])
        .scenarios(vec![Scenario::new("golden", golden_workload())
            .with_host_mix(vec![
                (notebookos::cluster::ResourceBundle::p3_16xlarge(), 3),
                (
                    notebookos::cluster::ResourceBundle::new(32_000, 249_856, 4),
                    3,
                ),
            ])])
        .workers(2)
}

/// One run per scheduling policy (Reservation / Batch / NotebookOS /
/// LCP), covering the baseline submit paths the commit/release fast path
/// also touches.
fn policy_spec() -> SweepSpec {
    SweepSpec::new()
        .policies(PolicyKind::ALL.to_vec())
        .seeds(vec![23])
        .scenarios(vec![Scenario::new("golden", golden_workload())])
        .workers(2)
}

/// Runs `spec` and compares the report `write_json` writes with the
/// committed golden file byte for byte, regenerating the file when
/// `NOTEBOOKOS_UPDATE_GOLDEN` is set. A mismatch names the first differing
/// line and the run it belongs to.
fn assert_matches_golden(spec: &SweepSpec, file: &str) {
    let path = golden_dir().join(file);
    let report = spec.run();
    if std::env::var("NOTEBOOKOS_UPDATE_GOLDEN").is_ok() {
        report.write_json(&path).expect("golden report written");
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden report {} unreadable ({e}); regenerate with \
             NOTEBOOKOS_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let fresh_path =
        std::env::temp_dir().join(format!("notebookos-golden-{}-{file}", std::process::id()));
    report
        .write_json(&fresh_path)
        .expect("fresh report written");
    let fresh = std::fs::read_to_string(&fresh_path).expect("fresh report readable");
    std::fs::remove_file(&fresh_path).ok();
    if fresh == golden {
        return;
    }
    // One side may be a prefix of the other: the first line past the
    // shorter one then differs from nothing.
    let (fresh_lines, golden_lines): (Vec<&str>, Vec<&str>) =
        (fresh.lines().collect(), golden.lines().collect());
    let line = (0..fresh_lines.len().max(golden_lines.len()))
        .find(|&i| fresh_lines.get(i) != golden_lines.get(i))
        .expect("unequal texts differ in some line");
    // Every run object opens with a line of its own.
    let opened = fresh_lines
        .iter()
        .take(line + 1)
        .filter(|l| **l == "    {")
        .count();
    let run = match opened.checked_sub(1).and_then(|i| report.runs.get(i)) {
        Some(r) => format!(
            "run {} ({}/{}/{}/seed {})",
            opened - 1,
            r.policy,
            r.placement,
            r.elasticity,
            r.seed
        ),
        None => "outside any run".to_string(),
    };
    let clip = |l: Option<&&str>| -> String {
        let l = l.copied().unwrap_or("<no line>");
        l.chars().take(160).collect()
    };
    panic!(
        "{file}: line {} drifted from the golden, in {run}\n  now:    {}\n  golden: {}\n\
         (regenerate with NOTEBOOKOS_UPDATE_GOLDEN=1 only for an intended behaviour change)",
        line + 1,
        clip(fresh_lines.get(line)),
        clip(golden_lines.get(line)),
    );
}

#[test]
fn placement_by_elasticity_matrix_is_bit_identical_to_golden() {
    assert_matches_golden(&placement_matrix_spec(), "pr5_placement_matrix.json");
}

#[test]
fn per_policy_runs_are_bit_identical_to_golden() {
    assert_matches_golden(&policy_spec(), "pr5_policies.json");
}

/// Runs the serve replay under `opts` on a [`DesScheduler`] and compares
/// its `--out` bytes with the committed golden file, regenerating the file
/// when `NOTEBOOKOS_UPDATE_GOLDEN` is set. A mismatch names the first
/// differing member.
fn assert_serve_matches_golden(opts: &ServeOpts, file: &str) {
    let path = golden_dir().join(file);
    let fresh = run_serve(opts, &mut DesScheduler::new()).to_json().encode();
    if std::env::var("NOTEBOOKOS_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &fresh).expect("golden report written");
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden report {} unreadable ({e}); regenerate with \
             NOTEBOOKOS_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if fresh == golden {
        return;
    }
    // The report is one line: compare it member by member.
    let (now, was): (Vec<&str>, Vec<&str>) =
        (fresh.split(',').collect(), golden.split(',').collect());
    let i = (0..now.len().max(was.len()))
        .find(|&i| now.get(i) != was.get(i))
        .expect("unequal texts differ in some member");
    panic!(
        "{file}: member {i} drifted from the golden\n  now:    {}\n  golden: {}\n\
         (regenerate with NOTEBOOKOS_UPDATE_GOLDEN=1 only for an intended behaviour change)",
        now.get(i).unwrap_or(&"<none>"),
        was.get(i).unwrap_or(&"<none>"),
    );
}

/// The `serve` bin's default shape: 8 users over 10 s on 8 hosts.
#[test]
fn serve_replay_at_the_default_shape_is_bit_identical_to_golden() {
    let opts = ServeOpts::new(8, SimTime::from_secs(10));
    assert_serve_matches_golden(&opts, "serve_default.json");
}

/// `serve --users 2048 --duration 60 --hosts 256`, the shape CI replays
/// twice.
#[test]
fn serve_replay_at_2048_users_is_bit_identical_to_golden() {
    let mut opts = ServeOpts::new(2048, SimTime::from_secs(60));
    opts.hosts = 256;
    assert_serve_matches_golden(&opts, "serve_2048_users.json");
}

#[test]
fn externally_supplied_des_scheduler_matches_the_direct_run() {
    let trace = generate(&golden_workload(), 11);
    let config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
    let direct = Platform::run(config.clone(), trace.clone());
    let mut sched = DesScheduler::new();
    let via_trait = Platform::run_with_scheduler(config, trace, &mut sched);
    assert_eq!(
        &direct,
        via_trait.metrics(),
        "a caller-owned DesScheduler must reproduce Platform::run bit-for-bit"
    );
    assert_eq!(sched.pending(), 0, "the run drains its own event queue");
}

#[test]
fn realtime_scheduler_on_a_manual_clock_matches_the_des_run() {
    // The live-service scheduler, with its sleeps short-circuited by a
    // hand-advanced clock: identical event order, identical handler
    // timestamps, so the full RunMetrics record — every CDF bucket —
    // must equal the DES run's. This is the guarantee that lets the
    // serve loop be tested in virtual time and deployed on the wall
    // clock without a behavioral seam between the two.
    let trace = generate(&golden_workload(), 11);
    let config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
    let des = Platform::run(config.clone(), trace.clone());
    let mut sched = RealTimeScheduler::with_clock(Box::new(ManualClock::new()));
    let live = Platform::run_with_scheduler(config, trace, &mut sched);
    assert_eq!(
        &des,
        live.metrics(),
        "wall-clock dispatch must not change simulation results"
    );
    assert_eq!(
        sched.max_lateness(),
        notebookos::des::SimTime::ZERO,
        "a manual clock sleeps exactly to each deadline"
    );
}
