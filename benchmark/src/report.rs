//! The ledger's vocabulary and its output: the fixed lists of end-to-end
//! and per-layer metric names, one [`Outcome`] per workload run, the result
//! line the driver reads, the `--out` file and `--compare`.

use std::collections::BTreeMap;

use notebookos_jupyter::Json;

/// `(name, unit)` of every end-to-end metric, printed by every workload
/// when tracing is off. `BENCHMARK.json` adds direction and bound;
/// `check.sh` verifies the two lists agree.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, printed by every workload
/// when tracing is on. A layer the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.schedule_ns", "ns"),
    ("des.pop_ns", "ns"),
    ("des.schedule_calls", "count"),
    ("des.pop_calls", "count"),
    ("des.pending_max", "count"),
    ("des.busy_share", "share"),
    ("core.platform.handle_ns", "ns"),
    ("core.platform.session_start_ns", "ns"),
    ("core.platform.session_end_ns", "ns"),
    ("core.platform.cell_submit_ns", "ns"),
    ("core.platform.exec_finish_ns", "ns"),
    ("core.platform.autoscale_tick_ns", "ns"),
    ("core.platform.metrics_tick_ns", "ns"),
    ("core.platform.other_ev_ns", "ns"),
    ("core.platform.busy_share", "share"),
    ("core.platform.new_s", "s"),
    ("core.policy.rank_top3_ns", "ns"),
    ("cluster.best_commit_ns", "ns"),
    ("cluster.commit_release_ns", "ns"),
    ("cluster.subscribe_unsubscribe_ns", "ns"),
    ("cluster.add_remove_host_ns", "ns"),
    ("cluster.viable_counts_ns", "ns"),
    ("datastore.write_keyed_ns", "ns"),
    ("datastore.read_keyed_ns", "ns"),
    ("core.election.designation_ns", "ns"),
    ("metrics.cdf_record_ns", "ns"),
    ("metrics.cdf_percentile_ns", "ns"),
    ("metrics.cdf_merge_ns", "ns"),
    ("metrics.timeline_set_ns", "ns"),
    ("trace.generate_s", "s"),
    ("trace.events", "count"),
    ("sim.attributed_share", "share"),
    ("sim.gpu_hours_saved", "GPUh"),
    ("sim.interactivity_p99_ms", "ms"),
    ("sim.aborted_executions", "count"),
    ("core.serve.request_build_ns", "ns"),
    ("core.serve.client_send_ns", "ns"),
    ("core.serve.pump_ns", "ns"),
    ("core.serve.finish_ns", "ns"),
    ("core.serve.client_drain_ns", "ns"),
    ("core.serve.start_session_ns", "ns"),
    ("core.serve.end_session_ns", "ns"),
    ("core.serve.fan_out_per_exec", "count"),
    ("core.serve.attributed_share", "share"),
    ("serve.exec_p99_ns", "ns"),
    ("jupyter.wire.encode_ns", "ns"),
    ("jupyter.wire.decode_ns", "ns"),
    ("jupyter.wire.bytes_per_msg", "B"),
    ("jupyter.json.encode_ns", "ns"),
    ("jupyter.json.parse_ns", "ns"),
    ("jupyter.router.route_execute_ns", "ns"),
    ("jupyter.router.accept_reply_ns", "ns"),
    ("jupyter.message.execute_reply_ns", "ns"),
    ("core.placement_service.launch_roundtrip_ns", "ns"),
    ("raft.node.propose_ns", "ns"),
    ("raft.node.recv_append_ns", "ns"),
    ("raft.node.recv_append_resp_ns", "ns"),
    ("raft.node.tick_ns", "ns"),
    ("raft.node.msgs_per_commit", "count"),
    ("raft.node.entries_shipped_per_commit", "count"),
    ("raft.node.empty_append_share", "share"),
    ("raft.node.elections", "count"),
    ("raft.node.queue_depth_max", "count"),
    ("raft.commit_p99_us", "us"),
    ("raft.log.append_ns", "ns"),
    ("raft.log.slice_ns", "ns"),
    ("raft.log.merge_ns", "ns"),
    ("raft.storage.append_ns", "ns"),
    ("raft.storage.sync_ns", "ns"),
    ("raft.storage.syncs_per_commit", "count"),
    ("raft.storage.fsyncs_per_commit", "count"),
    ("raft.storage.bytes_per_commit", "B"),
    ("raft.storage.busy_share", "share"),
    ("raft.storage.replay_s", "s"),
    ("raft.wal.commits_per_s", "1/s"),
    ("raft.wal.commit_p50_us", "us"),
    ("machine.scalar_ops_per_ns", "1/ns"),
    ("machine.stream_gbps_l1", "GB/s"),
    ("machine.stream_gbps_l2", "GB/s"),
    ("machine.stream_gbps_dram", "GB/s"),
    ("trace_overhead_share", "share"),
];

/// The per-layer metrics that are counts or simulated results: they repeat
/// exactly for a seed, so `--compare` holds them to a bound of zero.
pub const EXACT: &[&str] = &[
    "des.schedule_calls",
    "des.pop_calls",
    "des.pending_max",
    "trace.events",
    "sim.gpu_hours_saved",
    "sim.interactivity_p99_ms",
    "sim.aborted_executions",
    "core.serve.fan_out_per_exec",
    "jupyter.wire.bytes_per_msg",
    "raft.node.msgs_per_commit",
    "raft.node.entries_shipped_per_commit",
    "raft.node.empty_append_share",
    "raft.node.elections",
    "raft.node.queue_depth_max",
    "raft.storage.syncs_per_commit",
    "raft.storage.fsyncs_per_commit",
    "raft.storage.bytes_per_commit",
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The measurement, as measured.
    pub value: f64,
    /// Samples (passes, calls or batches) the value summarises.
    pub samples: u64,
}

/// The result of one workload run in one tracing mode.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks violated; empty means the outputs were correct.
    pub violations: Vec<String>,
    /// Remarks for the human reader (sampling, degraded percentiles).
    pub notes: Vec<String>,
    names: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, Value>,
}

impl Outcome {
    /// An outcome with every metric of its mode present and zero.
    pub fn new(workload: &'static str, traced: bool) -> Self {
        let names = if traced { PER_LAYER } else { END_TO_END };
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            notes: Vec::new(),
            names,
            values: names
                .iter()
                .map(|&(name, _)| {
                    (
                        name,
                        Value {
                            value: 0.0,
                            samples: 0,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Sets metric `name`. A value that is not a number (a rate over no
    /// time, a ratio to a phase that never ran) is a violation, and reads 0.
    ///
    /// # Panics
    ///
    /// Panics on a name outside this mode's list — the lists are the
    /// contract, so a typo must not silently add a metric.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the ledger's list"));
        if value.is_finite() {
            *slot = Value { value, samples };
        } else {
            self.violations
                .push(format!("metric `{name}` is {value}, not a number"));
        }
    }

    /// The value recorded for `name`, if it belongs to this mode.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// Records a violated output check.
    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Prints every metric by name with unit and sample count, then any
    /// notes and violations.
    pub fn print_table(&self) {
        let mode = if self.traced {
            "per-layer, traced"
        } else {
            "end-to-end, untraced"
        };
        println!("# {} ({mode})", self.workload);
        for &(name, unit) in self.names {
            let v = self.values[name];
            println!("{name:<44} {:>18.6} {unit:<6} n={}", v.value, v.samples);
        }
        println!(
            "attempted={} failed={} failed_share={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for note in &self.notes {
            println!("note: {note}");
        }
        for violation in &self.violations {
            println!("VIOLATION: {violation}");
        }
    }

    /// `name → {value, unit}` for every metric of this mode, in the
    /// repo's own JSON codec (which keeps every digit of a float).
    fn metrics_json(&self, with_samples: bool) -> Json {
        self.names
            .iter()
            .fold(Json::object(), |metrics, &(name, unit)| {
                let v = self.values[name];
                let mut metric = Json::object().with("value", v.value).with("unit", unit);
                if with_samples {
                    metric = metric.with("samples", v.samples);
                }
                metrics.with(name, metric)
            })
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics_json(false))
            .encode()
    }

    /// The record `--out` stores for this outcome.
    pub fn record_json(&self) -> Json {
        Json::object()
            .with("workload", self.workload)
            .with("traced", self.traced)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics_json(true))
    }
}

/// Renders the `--out` document for a set of run records.
pub fn out_document(seed: u64, smoke: bool, runs: Vec<Json>) -> String {
    Json::object()
        .with("schema", 1u64)
        .with("seed", seed)
        .with("smoke", smoke)
        .with("runs", runs)
        .encode()
}

/// One metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit as the manifest states it.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; 0 for a
    /// per-layer metric, which the manifest gives none.
    pub bound: f64,
}

/// What the benchmark itself needs from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with direction and bound.
    pub end_to_end: Vec<Bound>,
    /// Per-layer metrics with direction.
    pub per_layer: Vec<Bound>,
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn list<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not a list"))
}

fn bounds(doc: &Json, key: &str, bounded: bool) -> Result<Vec<Bound>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match text(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: if bounded {
                    field(m, "bound")?
                        .as_f64()
                        .ok_or("`bound` is not a number")?
                } else {
                    0.0
                },
            })
        })
        .collect()
}

impl Manifest {
    /// Parses the parts of `BENCHMARK.json` the benchmark itself uses.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped key.
    pub fn parse(source: &str) -> Result<Manifest, String> {
        let doc = Json::parse(source).map_err(|e| format!("not JSON: {e}"))?;
        Ok(Manifest {
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: bounds(&doc, "end_to_end", true)?,
            per_layer: bounds(&doc, "per_layer", false)?,
        })
    }

    /// Checks that the manifest names exactly the metrics (and units) the
    /// binary prints and exactly `workloads`. Returns every disagreement.
    pub fn disagreements(&self, workloads: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        let mut diff = |what: &str, manifest: &[Bound], code: &[(&str, &str)]| {
            for m in manifest {
                if !code.contains(&(m.name.as_str(), m.unit.as_str())) {
                    out.push(format!(
                        "{what} `{}` [{}] is in the manifest but not printed",
                        m.name, m.unit
                    ));
                }
            }
            for &(name, unit) in code {
                if !manifest.iter().any(|m| m.name == name && m.unit == unit) {
                    out.push(format!(
                        "{what} `{name}` [{unit}] is printed but not in the manifest"
                    ));
                }
            }
        };
        diff("end-to-end metric", &self.end_to_end, END_TO_END);
        diff("per-layer metric", &self.per_layer, PER_LAYER);
        let named: Vec<&str> = self.workloads.iter().map(String::as_str).collect();
        if named != workloads {
            out.push(format!(
                "manifest workloads {named:?} differ from {workloads:?}"
            ));
        }
        out
    }
}

/// One row of a comparison: a metric on a workload in both files.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Workload name.
    pub workload: String,
    /// Metric name, or what is wrong with the run as a whole.
    pub metric: String,
    /// Value in the first (baseline) file.
    pub a: f64,
    /// Value in the second file.
    pub b: f64,
    /// `(b - a) / a`, signed so that positive means *worse*.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl CompareRow {
    /// Whether the second file is worse than the first beyond the bound.
    pub fn beyond_bound(&self) -> bool {
        self.worse_by > self.bound
    }

    fn of(workload: &str, m: &Bound, a: f64, b: f64) -> CompareRow {
        let relative = if a == b {
            0.0
        } else if a == 0.0 {
            f64::INFINITY.copysign(b)
        } else {
            (b - a) / a.abs()
        };
        CompareRow {
            workload: workload.to_string(),
            metric: m.name.clone(),
            a,
            b,
            worse_by: if m.higher_is_better {
                -relative
            } else {
                relative
            },
            bound: m.bound,
        }
    }

    /// A row for a run that is worse whatever its metrics say: `what`
    /// counts `a` in the first file and `b` in the second.
    fn broken(workload: &str, what: &str, a: f64, b: f64) -> CompareRow {
        CompareRow {
            workload: workload.to_string(),
            metric: what.to_string(),
            a,
            b,
            worse_by: f64::INFINITY,
            bound: 0.0,
        }
    }
}

/// One run of an `--out` document.
struct Run {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// An `--out` document: its seed and its runs by `(workload, traced)`.
struct Document {
    seed: u64,
    runs: BTreeMap<(String, bool), Run>,
}

impl Document {
    fn parse(source: &str) -> Result<Document, String> {
        let doc = Json::parse(source).map_err(|e| format!("not JSON: {e}"))?;
        let seed = field(&doc, "seed")?
            .as_u64()
            .ok_or("`seed` is not a number")?;
        let mut runs = BTreeMap::new();
        for run in list(&doc, "runs")? {
            let flag = |key: &str| {
                field(run, key)?
                    .as_bool()
                    .ok_or(format!("`{key}` is not true or false"))
            };
            let metrics = match field(run, "metrics")? {
                Json::Obj(map) => map
                    .iter()
                    .map(|(name, m)| {
                        let v = field(m, "value")?
                            .as_f64()
                            .ok_or("`value` is not a number")?;
                        Ok((name.clone(), v))
                    })
                    .collect::<Result<_, String>>()?,
                _ => return Err("`metrics` is not an object".to_string()),
            };
            runs.insert(
                (text(run, "workload")?, flag("traced")?),
                Run {
                    correct: flag("correct")?,
                    failed: field(run, "failed")?
                        .as_u64()
                        .ok_or("`failed` is not a count")?,
                    metrics,
                },
            );
        }
        Ok(Document { seed, runs })
    }
}

/// Compares two `--out` documents, the first being the baseline. Every run
/// of the first must be in the second, correct, with no more failures; an
/// untraced run is then held to the manifest's bound on every end-to-end
/// metric, and a traced run, when both documents are of one seed, to no
/// worsening at all of the [`EXACT`] metrics. What breaks these is a row
/// that is beyond its bound.
///
/// # Errors
///
/// Describes the first malformed document.
pub fn compare(a: &str, b: &str, manifest: &Manifest) -> Result<Vec<CompareRow>, String> {
    let (a, b) = (Document::parse(a)?, Document::parse(b)?);
    let mut rows = Vec::new();
    for ((workload, traced), run_a) in &a.runs {
        let Some(run_b) = b.runs.get(&(workload.clone(), *traced)) else {
            rows.push(CompareRow::broken(workload, "runs", 1.0, 0.0));
            continue;
        };
        if !run_b.correct {
            rows.push(CompareRow::broken(workload, "violated checks", 0.0, 1.0));
        }
        if run_b.failed > run_a.failed {
            rows.push(CompareRow::broken(
                workload,
                "failed",
                run_a.failed as f64,
                run_b.failed as f64,
            ));
        }
        let held: Vec<&Bound> = if !traced {
            manifest.end_to_end.iter().collect()
        } else if a.seed == b.seed {
            let exact = |m: &&Bound| EXACT.contains(&m.name.as_str());
            manifest.per_layer.iter().filter(exact).collect()
        } else {
            Vec::new()
        };
        for m in held {
            let (Some(&va), Some(&vb)) = (run_a.metrics.get(&m.name), run_b.metrics.get(&m.name))
            else {
                continue;
            };
            // A traced run prints 0 for the layers its workload never calls.
            if !traced || (va, vb) != (0.0, 0.0) {
                rows.push(CompareRow::of(workload, m, va, vb));
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"{
        "command": ["x"], "paths": ["benchmark"], "run_seconds": 10,
        "workloads": [{"name": "w1", "why": "a"}, {"name": "w2", "why": "b"}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ],
        "per_layer": [{"name": "des.pop_ns", "unit": "ns", "better": "lower"}]
    }"#;

    fn outcome(workload: &'static str, ops: f64, setup: f64, failed: u64) -> Outcome {
        let mut o = Outcome::new(workload, false);
        o.attempted = 100;
        o.failed = failed;
        o.set("ops_per_s", ops, 5);
        o.set("setup_s", setup, 5);
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let o = outcome("w1", 1234.5678, 0.25, 0);
        let parsed = Json::parse(&o.result_line()).expect("valid JSON");
        let Json::Obj(map) = &parsed else {
            panic!("object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["attempted", "correct", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["ops_per_s"].get("value").and_then(Json::as_f64),
            Some(1234.5678)
        );
        assert_eq!(
            metrics["ops_per_s"].get("unit").and_then(Json::as_str),
            Some("1/s")
        );
    }

    #[test]
    fn traced_outcome_prints_every_per_layer_metric_even_at_zero() {
        let o = Outcome::new("w1", true);
        let parsed = Json::parse(&o.result_line()).expect("valid JSON");
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not in the ledger's list")]
    fn setting_an_unlisted_metric_panics() {
        Outcome::new("w1", false).set("des.pop_ns", 1.0, 1);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn manifest_parses_and_reports_disagreements() {
        let m = Manifest::parse(MANIFEST).expect("parses");
        assert_eq!(m.workloads, vec!["w1", "w2"]);
        assert_eq!(m.end_to_end.len(), 2);
        assert!(m.end_to_end[0].higher_is_better);
        assert!(!m.end_to_end[1].higher_is_better);
        let d = m.disagreements(&["w1", "w2"]);
        // The toy manifest omits most metrics; each omission is named.
        assert!(d.iter().any(|l| l.contains("`op_p50_us`")));
        assert!(!d.iter().any(|l| l.contains("`ops_per_s`")));
        assert!(!d.iter().any(|l| l.contains("workloads")));
        assert!(m
            .disagreements(&["w1"])
            .iter()
            .any(|l| l.contains("workloads")));
        assert!(Manifest::parse("{}").is_err());
    }

    fn document(seed: u64, outcomes: &[Outcome]) -> String {
        out_document(
            seed,
            false,
            outcomes.iter().map(Outcome::record_json).collect(),
        )
    }

    #[test]
    fn compare_signs_by_direction_and_flags_only_beyond_the_bound() {
        let m = Manifest::parse(MANIFEST).expect("parses");
        let a = document(1, &[outcome("w1", 1000.0, 1.0, 0)]);
        // Throughput down 5 % (within 0.1), set-up up 30 % (beyond 0.25).
        let b = document(1, &[outcome("w1", 950.0, 1.3, 0)]);
        let rows = compare(&a, &b, &m).expect("compares");
        assert_eq!(rows.len(), 2);
        assert!((rows[0].worse_by - 0.05).abs() < 1e-12 && !rows[0].beyond_bound());
        assert!((rows[1].worse_by - 0.3).abs() < 1e-12 && rows[1].beyond_bound());
        // An improvement is negative and never beyond the bound.
        let c = document(1, &[outcome("w1", 2000.0, 0.5, 0)]);
        assert!(compare(&a, &c, &m)
            .expect("compares")
            .iter()
            .all(|r| !r.beyond_bound()));
    }

    #[test]
    fn compare_fails_a_run_that_is_missing_incorrect_or_failed_more() {
        let m = Manifest::parse(MANIFEST).expect("parses");
        let a = document(1, &[outcome("w1", 1000.0, 1.0, 0)]);
        let beyond = |b: &str| -> Vec<String> {
            let rows = compare(&a, b, &m).expect("compares");
            let beyond = rows.iter().filter(|r| r.beyond_bound());
            beyond.map(|r| r.metric.clone()).collect()
        };
        // A new failure, with every metric unchanged.
        assert_eq!(
            beyond(&document(1, &[outcome("w1", 1000.0, 1.0, 1)])),
            vec!["failed"]
        );
        // A violated output check that failed no operation.
        let mut violated = outcome("w1", 1000.0, 1.0, 0);
        violated.violate("fan-out copies: 299, expected 300");
        assert_eq!(beyond(&document(1, &[violated])), vec!["violated checks"]);
        // The workload is not in the second file; what only the second
        // file has is no regression.
        assert_eq!(
            beyond(&document(1, &[outcome("w2", 1.0, 1.0, 0)])),
            vec!["runs"]
        );
        // The untraced run is there, the traced one is not.
        let both = document(
            1,
            &[outcome("w1", 1000.0, 1.0, 0), Outcome::new("w1", true)],
        );
        assert!(compare(&both, &both, &m)
            .expect("compares")
            .iter()
            .all(|r| !r.beyond_bound()));
        let rows = compare(&both, &a, &m).expect("compares");
        assert_eq!(rows.iter().filter(|r| r.beyond_bound()).count(), 1);
    }

    #[test]
    fn compare_holds_exact_per_layer_metrics_to_zero_on_one_seed() {
        let manifest = MANIFEST.replace(
            r#""per_layer": ["#,
            r#""per_layer": [{"name": "raft.storage.fsyncs_per_commit", "unit": "count", "better": "lower"},"#,
        );
        let m = Manifest::parse(&manifest).expect("parses");
        let traced = |fsyncs: f64, pop_ns: f64| {
            let mut o = Outcome::new("w1", true);
            o.set("raft.storage.fsyncs_per_commit", fsyncs, 1);
            o.set("des.pop_ns", pop_ns, 1);
            o
        };
        let a = document(1, &[traced(4.0, 50.0)]);
        // A timing may move freely; the count may not get worse.
        let rows = compare(&a, &document(1, &[traced(4.0, 90.0)]), &m).expect("compares");
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].beyond_bound());
        let rows = compare(&a, &document(1, &[traced(4.001, 50.0)]), &m).expect("compares");
        assert!(rows[0].beyond_bound());
        let rows = compare(&a, &document(1, &[traced(3.0, 50.0)]), &m).expect("compares");
        assert!(!rows[0].beyond_bound());
        // A count that was 0 and no longer is got worse.
        let zero = document(1, &[traced(0.0, 50.0)]);
        assert!(compare(&zero, &a, &m).expect("compares")[0].beyond_bound());
        // Across seeds counts differ by construction: not compared.
        assert!(compare(&a, &document(2, &[traced(9.0, 50.0)]), &m)
            .expect("compares")
            .is_empty());
    }

    #[test]
    fn a_value_that_is_not_a_number_is_a_violation() {
        let mut o = outcome("w1", 1000.0, 1.0, 0);
        o.set("ops_per_s", f64::INFINITY, 1);
        o.set("setup_s", f64::NAN, 1);
        assert_eq!(o.violations.len(), 2);
        assert!(o.result_line().contains("\"correct\":false"));
    }

    #[test]
    fn every_exact_metric_is_a_per_layer_metric() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }
}
