//! Cross-process sweep invariants: sharding partitions the job list
//! exactly, persisted reports round-trip bit-identically, shard reports
//! merge into the unsharded report, a duplicated cell or a report from
//! another spec is refused, and corrupt report files surface clear errors
//! instead of panics. These are the properties CI's `sweep-determinism`
//! job exercises end to end through the `sweep_shard` binary.

use std::path::PathBuf;

use proptest::prelude::*;

use notebookos::core::sweep::{Scenario, SweepError, SweepReport, SweepSpec};
use notebookos::core::{ElasticityKind, PlacementKind, PolicyKind};
use notebookos::trace::SyntheticConfig;
use notebookos_bench::sweep_cli::SweepCli;

/// A tiny workload so property cases and multi-run tests stay fast.
fn tiny_workload() -> SyntheticConfig {
    SyntheticConfig {
        sessions: 3,
        span_s: 1800.0,
        ..SyntheticConfig::smoke()
    }
}

/// The smoke-scale `placement × elasticity` interaction spec — the
/// flagship sharded workload, shrunk to test size. Includes a
/// parameterized hysteresis cell so persisted labels with embedded
/// commas exercise the CSV quoting path.
fn interaction_spec() -> SweepSpec {
    SweepSpec::new()
        .policies(vec![PolicyKind::NotebookOs])
        .placements(vec![PlacementKind::LeastLoaded, PlacementKind::RoundRobin])
        .elasticities(vec![
            ElasticityKind::Threshold,
            ElasticityKind::Hysteresis {
                cooldown_s: 90.0,
                surplus_ticks: 3,
            },
        ])
        .seeds(vec![1])
        .scenarios(vec![Scenario::new("smoke", SyntheticConfig::smoke())])
        .workers(2)
}

/// A scratch file under a per-process temp dir, cleaned up by the caller.
fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("notebookos-sharding-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

// ---------------------------------------------------------------------
// Persistence round trip: write_json → read_json is PartialEq-identity.
// ---------------------------------------------------------------------

#[test]
fn json_report_round_trips_bit_identically() {
    let report = interaction_spec().run();
    assert_eq!(report.len(), 4);
    let dir = temp_dir();
    let path = dir.join("round-trip.json");
    report.write_json(&path).expect("write json");
    let loaded = SweepReport::read_json(&path).expect("read json");
    assert_eq!(
        loaded, report,
        "write_json → read_json must reproduce the report exactly: \
         every sample, point, counter, label, and the fingerprint"
    );
    // Serialization is deterministic: re-writing the loaded report
    // produces a byte-identical file (the CI merge gate's `cmp`).
    let path2 = dir.join("round-trip-2.json");
    loaded.write_json(&path2).expect("rewrite json");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap(),
        "serialization must be deterministic"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

#[test]
fn csv_report_round_trips_headline_scalars() {
    let report = interaction_spec().run();
    let dir = temp_dir();
    let path = dir.join("round-trip.csv");
    report.write_csv(&path).expect("write csv");
    let text = std::fs::read_to_string(&path).expect("read csv");
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some(
            "scenario,policy,elasticity,placement,seed,job_index,executions,aborted,\
             kernel_creations,migrations,scale_outs,scale_ins,cold_starts,warm_hits,\
             prewarms_discarded,prewarms_reconciled,distinct_shapes_provisioned,\
             interactivity_p50_ms,tct_p50_ms,provisioned_gpu_hours,gpu_hours_saved,\
             provider_cost_usd,revenue_usd,end_s"
        )
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), report.len(), "one row per run");
    // Hysteresis labels contain commas; quoting must survive.
    assert!(text.contains(",\"hysteresis(cooldown=90s,surplus=3)\","));
    for (row, run) in rows.iter().zip(&report.runs) {
        let mut elasticity = run.elasticity.to_string();
        if elasticity.contains(',') {
            elasticity = format!("\"{elasticity}\"");
        }
        let labels = format!(
            "{},{},{elasticity},{},{},{},{},",
            run.scenario,
            run.policy,
            run.placement,
            run.seed,
            run.job_index,
            run.metrics.counters.executions
        );
        assert!(row.starts_with(&labels), "{row} !~ {labels}");
        assert!(
            row.ends_with(&format!(",{:?}", run.metrics.end_s)),
            "{row} does not end in end_s"
        );
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Sharding: merged shard reports equal the unsharded report.
// ---------------------------------------------------------------------

#[test]
fn merged_shard_files_equal_unsharded_report() {
    let spec = interaction_spec();
    let full = spec.run();
    let dir = temp_dir();
    // Run each shard in isolation, persist it, and merge the files read
    // back from disk — the exact workflow of the CI shard matrix.
    let mut shard_reports = Vec::new();
    for i in 0..3 {
        let path = dir.join(format!("shard-{i}.json"));
        spec.clone()
            .shard(i, 3)
            .run()
            .write_json(&path)
            .expect("persist shard");
        shard_reports.push(SweepReport::read_json(&path).expect("reload shard"));
        std::fs::remove_file(&path).ok();
    }
    // Merge in scrambled order: order must not matter.
    shard_reports.rotate_left(1);
    let merged = SweepReport::merge(shard_reports).expect("disjoint shards");
    assert_eq!(
        merged, full,
        "2-way split, persisted, reloaded, merged out of order — still \
         bit-identical to the single-process run"
    );
}

// ---------------------------------------------------------------------
// What a merge refuses: a cell twice, a report from another spec. (The
// names date from the resume path these checks once guarded; resuming is
// now re-running a shard, and the same files arrive through `--merge`.)
// ---------------------------------------------------------------------

#[test]
fn resume_rejects_duplicate_job_indices_in_the_file() {
    let dir = temp_dir();
    let path = dir.join("duplicated.json");
    let spec = interaction_spec();
    let mut report = spec.clone().shard(0, 2).run();
    let duplicate = report.runs[0].clone();
    report.runs.push(duplicate);
    report.write_json(&path).expect("write");
    // One hand-assembled file holding the same cell twice.
    let err = SweepReport::merge([SweepReport::read_json(&path).expect("read")]).unwrap_err();
    assert!(
        matches!(err, SweepError::OverlappingRuns { job_index: 0 }),
        "duplicated cell must be refused, not double-counted: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_reports_from_a_different_spec() {
    let dir = temp_dir();
    let path = dir.join("foreign.json");
    interaction_spec()
        .shard(0, 2)
        .run()
        .write_json(&path)
        .expect("seed the file");
    let other_spec = interaction_spec().seeds(vec![1, 2]);
    let cli = SweepCli {
        merge: vec![path.clone()],
        ..SweepCli::default()
    };
    let err = cli.execute(&other_spec, "test").unwrap_err();
    assert!(
        matches!(err, SweepError::FingerprintMismatch { .. }),
        "merging under a different spec must be refused, got: {err}"
    );
    // The same file under its own spec merges (into a partial report).
    let merged = cli.execute(&interaction_spec(), "test").expect("own spec");
    assert_eq!(merged.len(), 2);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Corrupt report files: clear errors, not panics.
// ---------------------------------------------------------------------

#[test]
fn corrupt_report_files_yield_clear_errors() {
    let dir = temp_dir();

    // Truncated mid-stream (what a non-atomic writer killed mid-write
    // would have left behind).
    let report = interaction_spec().shard(0, 4).run();
    let path = dir.join("truncated.json");
    report.write_json(&path).expect("write");
    let full_bytes = std::fs::read(&path).expect("read back");
    std::fs::write(&path, &full_bytes[..full_bytes.len() / 2]).expect("truncate");
    let err = SweepReport::read_json(&path).unwrap_err();
    assert!(
        matches!(err, SweepError::Json { .. }),
        "truncated file must be a JSON error, got: {err}"
    );
    assert!(
        err.to_string().contains("truncated.json"),
        "error names the offending file: {err}"
    );

    // Outright garbage.
    std::fs::write(&path, b"not json at all {{{").expect("garbage");
    assert!(matches!(
        SweepReport::read_json(&path).unwrap_err(),
        SweepError::Json { .. }
    ));

    // Valid JSON that is not a sweep report.
    std::fs::write(&path, b"{\"runs\": 7}").expect("wrong shape");
    let err = SweepReport::read_json(&path).unwrap_err();
    assert!(
        matches!(err, SweepError::Format { .. }),
        "wrong shape must be a format error, got: {err}"
    );

    // A report whose run object is missing a field names the run.
    std::fs::write(
        &path,
        b"{\"fingerprint\": \"0x0000000000000001\", \"runs\": [{\"policy\": \"Batch\"}]}",
    )
    .expect("missing fields");
    let err = SweepReport::read_json(&path).unwrap_err().to_string();
    assert!(err.contains("run 0"), "error pinpoints the run: {err}");

    // Missing file is an I/O error, not a panic.
    assert!(matches!(
        SweepReport::read_json(dir.join("does-not-exist.json")).unwrap_err(),
        SweepError::Io { .. }
    ));
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Property: for any spec shape and any M ≥ 1, the shards partition the
// job list — every job appears in exactly one shard, in order.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shards_partition_the_job_list_exactly(
        n_policies in 1usize..=3,
        n_placements in 0usize..=3,
        n_elasticities in 1usize..=3,
        n_seeds in 1usize..=3,
        n_scenarios in 1usize..=2,
        total_shards in 1usize..=6,
    ) {
        let spec = SweepSpec::new()
            .policies(PolicyKind::ALL[..n_policies].to_vec())
            .placements(PlacementKind::ALL[..n_placements].to_vec())
            .elasticities(ElasticityKind::ALL[..n_elasticities].to_vec())
            .seeds((0..n_seeds as u64).collect())
            .scenarios(
                (0..n_scenarios)
                    .map(|i| Scenario::new(format!("s{i}"), tiny_workload()))
                    .collect(),
            );
        // Label tuple of every expanded job, across all shards.
        let mut union: Vec<(usize, String, PolicyKind, PlacementKind, ElasticityKind, u64)> =
            Vec::new();
        for shard in 0..total_shards {
            let sharded = spec.clone().shard(shard, total_shards);
            prop_assert_eq!(sharded.fingerprint(), spec.fingerprint());
            for job in sharded.jobs() {
                prop_assert_eq!(job.index % total_shards, shard, "round-robin assignment");
                union.push((
                    job.index,
                    job.scenario,
                    job.policy,
                    job.placement,
                    job.elasticity,
                    job.seed,
                ));
            }
        }
        union.sort_by_key(|labels| labels.0);
        let unsharded: Vec<_> = spec
            .jobs()
            .into_iter()
            .map(|job| {
                (
                    job.index,
                    job.scenario,
                    job.policy,
                    job.placement,
                    job.elasticity,
                    job.seed,
                )
            })
            .collect();
        prop_assert_eq!(union, unsharded, "no job lost, none duplicated");
    }
}
