//! The paper's evaluation section (§5, Figs. 2, 7–14, 16–20, Table 1) as
//! one table of figure functions over shared inputs — what the `repro`
//! binary prints.
//!
//! [`FIGURES`] lists every regenerator in canonical order. Each is a
//! function of [`Inputs`], which builds the two workload traces and the
//! four-policy simulation over each of them lazily and at most once, so a
//! full reproduction is 2 traces + 8 simulations however many figures read
//! them. The figure functions only format: none generates a trace or runs
//! a simulation of its own. Output is a pure function of [`EVAL_SEED`] —
//! `tests/golden/repro.txt` is the whole transcript, byte for byte.

use std::cell::OnceCell;
use std::io::{self, Write};

use notebookos_core::{fig13_sweep, PolicyKind, RunMetrics};
use notebookos_metrics::{Cdf, Table, Timeline};
use notebookos_trace::{sample_distributions, table1_rows, TraceProfile, WorkloadTrace};

use crate::{fmt0, EVAL_SEED};

/// One regenerator: formats its tables from the shared inputs into `out`.
pub type Figure = fn(&Inputs, &mut dyn Write) -> io::Result<()>;

/// Every regenerator, in the order the transcript prints them.
pub const FIGURES: &[(&str, Figure)] = &[
    ("table1", table1),
    ("fig02", fig02),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig16_19", fig16_19),
    ("fig20", fig20),
];

/// The four evaluated policies' results over one trace, in
/// [`PolicyKind::ALL`] order.
pub type PolicyRuns = Vec<(PolicyKind, RunMetrics)>;

/// What the figures are computed from: the 17.5-hour excerpt, the 90-day
/// summer trace, and all four policies simulated over each. Every member
/// is built on first use and then shared, so a figure that needs only the
/// excerpt never pays for a 90-day simulation. `Inputs::default()` has
/// nothing built yet.
#[derive(Default)]
pub struct Inputs {
    excerpt: OnceCell<WorkloadTrace>,
    summer: OnceCell<WorkloadTrace>,
    excerpt_runs: OnceCell<PolicyRuns>,
    summer_runs: OnceCell<PolicyRuns>,
}

impl Inputs {
    /// The 17.5-hour AdobeTrace excerpt (§5.2).
    pub fn excerpt(&self) -> &WorkloadTrace {
        self.excerpt.get_or_init(crate::excerpt_trace)
    }

    /// The 90-day summer workload (§5.5).
    pub fn summer(&self) -> &WorkloadTrace {
        self.summer.get_or_init(crate::summer_trace)
    }

    /// All four policies over the excerpt.
    pub fn excerpt_runs(&self) -> &PolicyRuns {
        self.excerpt_runs
            .get_or_init(|| crate::run_all_policies(self.excerpt()))
    }

    /// All four policies over the summer trace.
    pub fn summer_runs(&self) -> &PolicyRuns {
        self.summer_runs
            .get_or_init(|| crate::run_all_policies(self.summer()))
    }
}

/// The run of `policy` among `runs`.
fn pick(runs: &PolicyRuns, policy: PolicyKind) -> &RunMetrics {
    &runs
        .iter()
        .find(|(p, _)| *p == policy)
        .expect("every evaluated policy has a run")
        .1
}

/// The `repro` binary: with no argument, every section of [`FIGURES`]
/// under its banner and the closing line; with figure names, just those
/// bodies, in the order given. Returns the process exit status — 2, with
/// the list of names on `err`, for a name [`FIGURES`] does not hold.
pub fn repro(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let mut selected = Vec::with_capacity(args.len());
    for arg in args {
        match FIGURES.iter().find(|(name, _)| name == arg) {
            Some((_, figure)) => selected.push(*figure),
            None => {
                let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
                // Nothing useful is left to do if stderr itself is gone.
                let _ = writeln!(
                    err,
                    "repro: unknown figure {arg:?}; usage: repro [{}]...",
                    names.join("|")
                );
                return 2;
            }
        }
    }
    let inputs = Inputs::default();
    let printed = if selected.is_empty() {
        transcript(&inputs, out)
    } else {
        selected.iter().try_for_each(|figure| figure(&inputs, out))
    };
    match printed {
        Ok(()) => 0,
        Err(error) => {
            let _ = writeln!(err, "repro: {error}");
            1
        }
    }
}

/// Every section under its banner, then the closing line.
fn transcript(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    for (name, figure) in FIGURES {
        writeln!(out, "\n################ {name} ################\n")?;
        figure(inputs, out)?;
    }
    writeln!(out, "\nAll evaluation artifacts regenerated.")
}

/// Table 1 — models and datasets used in the evaluation, with their
/// application domains (and the state sizes the checkpoint traffic uses).
fn table1(_: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let mut table = Table::new(
        "Table 1 — models and datasets per application domain",
        &["app domain", "dataset", "dataset MB", "model", "params MB"],
    );
    for (domain, dataset, model) in table1_rows() {
        table.row_owned(vec![
            domain.to_string(),
            dataset.name.to_string(),
            (dataset.size_bytes / 1_000_000).to_string(),
            model.name.to_string(),
            (model.param_bytes / 1_000_000).to_string(),
        ]);
    }
    writeln!(out, "{table}")
}

fn cdf_rows(out: &mut dyn Write, title: &str, unit: &str, mut cdfs: Vec<Cdf>) -> io::Result<()> {
    let mut table = Table::new(
        title,
        &[
            "trace",
            &format!("p25 ({unit})"),
            &format!("p50 ({unit})"),
            &format!("p75 ({unit})"),
            &format!("p90 ({unit})"),
            &format!("p99 ({unit})"),
        ],
    );
    for cdf in &mut cdfs {
        table.row_owned(vec![
            cdf.name().to_string(),
            format!("{:.0}", cdf.percentile(25.0)),
            format!("{:.0}", cdf.percentile(50.0)),
            format!("{:.0}", cdf.percentile(75.0)),
            format!("{:.0}", cdf.percentile(90.0)),
            format!("{:.0}", cdf.percentile(99.0)),
        ]);
    }
    writeln!(out, "{table}")
}

/// Fig. 2 — workload characteristics of the three cluster traces:
/// (a) task-duration CDFs, (b) per-session IAT CDFs, (c) GPU-utilization
/// CDFs for the Adobe-shaped trace, (d) reserved vs utilized GPUs/CPUs over
/// the 90-day window.
fn fig02(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let profiles = [
        TraceProfile::adobe(),
        TraceProfile::alibaba(),
        TraceProfile::philly(),
    ];
    let n = 50_000;

    // (a) + (b): duration and IAT CDFs.
    let mut durations = Vec::new();
    let mut iats = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let (d, t) = sample_distributions(profile, n, EVAL_SEED + i as u64);
        let mut dc = Cdf::new(profile.name);
        dc.record_all(d);
        durations.push(dc);
        let mut ic = Cdf::new(profile.name);
        ic.record_all(t);
        iats.push(ic);
    }
    cdf_rows(
        out,
        "Fig 2(a) — task duration CDF (paper medians: Adobe 120 s, Philly 621 s, Alibaba 957 s)",
        "s",
        durations,
    )?;
    cdf_rows(
        out,
        "Fig 2(b) — per-session IAT CDF (paper medians: Adobe 300 s, Philly 44 s, Alibaba 38 s)",
        "s",
        iats,
    )?;

    // (c): GPU utilization CDFs on the Adobe-shaped 90-day workload.
    let trace = inputs.summer();
    let mut busy = trace.busy_fraction_cdf("session GPU-active fraction");
    let mut table = Table::new(
        "Fig 2(c) — session GPU-utilization CDF (paper: 90 % of sessions use GPUs <= 31.13 % of lifetime)",
        &["percentile", "fraction of lifetime GPUs active"],
    );
    for p in [25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
        table.row_owned(vec![
            format!("p{p:.0}"),
            format!("{:.4}", busy.percentile(p)),
        ]);
    }
    let zero_frac = busy.fraction_at_most(0.0);
    table.row_owned(vec![
        "sessions completely idle".to_string(),
        format!("{:.1}%", zero_frac * 100.0),
    ]);
    writeln!(out, "{table}")?;

    // (d): reserved vs utilized GPUs over 90 days under Reservation.
    let metrics = pick(inputs.summer_runs(), PolicyKind::Reservation);
    let mut table = Table::new(
        "Fig 2(d) — reserved vs utilized GPUs over 90 days (Reservation policy)",
        &["day", "reserved GPUs", "utilized GPUs", "utilization %"],
    );
    for day in (0..=90).step_by(10) {
        let t = day as f64 * 86_400.0;
        let reserved = metrics.reserved_gpus.value_at(t);
        let utilized = metrics.committed_gpus.value_at(t);
        let pct = if reserved > 0.0 {
            utilized / reserved * 100.0
        } else {
            0.0
        };
        table.row_owned(vec![
            day.to_string(),
            fmt0(reserved),
            fmt0(utilized),
            format!("{pct:.1}"),
        ]);
    }
    let span = trace.span_s();
    let reserved_mean = metrics.reserved_gpus.time_mean(0.0, span);
    let utilized_mean = metrics.committed_gpus.time_mean(0.0, span);
    table.row_owned(vec![
        "mean".to_string(),
        format!("{reserved_mean:.1}"),
        format!("{utilized_mean:.1}"),
        format!("{:.1}", utilized_mean / reserved_mean.max(1e-9) * 100.0),
    ]);
    writeln!(out, "{table}")?;

    // CPU series (Fig. 2(d) plots CPUs on the secondary axis): reserved
    // vCPUs follow session reservations; utilized vCPUs follow active
    // trainings. Both derive from the trace directly.
    let mut cpu_table = Table::new(
        "Fig 2(d) — reserved vs utilized vCPUs over 90 days",
        &["day", "reserved vCPUs", "utilized vCPUs"],
    );
    let mut reserved_cpu = Timeline::new("reserved-cpus");
    let mut utilized_cpu = Timeline::new("utilized-cpus");
    let mut deltas_res: Vec<(f64, f64)> = Vec::new();
    let mut deltas_use: Vec<(f64, f64)> = Vec::new();
    for s in &trace.sessions {
        let vcpus = s.millicpus as f64 / 1000.0;
        deltas_res.push((s.start_s, vcpus));
        deltas_res.push((s.end_s, -vcpus));
        for e in &s.events {
            deltas_use.push((e.submit_s, vcpus));
            deltas_use.push((e.end_s(), -vcpus));
        }
    }
    for (deltas, timeline) in [
        (&mut deltas_res, &mut reserved_cpu),
        (&mut deltas_use, &mut utilized_cpu),
    ] {
        deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let mut level = 0.0;
        for &(t, d) in deltas.iter() {
            level += d;
            timeline.set(t, level.max(0.0));
        }
    }
    for day in (0..=90).step_by(15) {
        let t = day as f64 * 86_400.0;
        cpu_table.row_owned(vec![
            day.to_string(),
            fmt0(reserved_cpu.value_at(t)),
            fmt0(utilized_cpu.value_at(t)),
        ]);
    }
    writeln!(out, "{cpu_table}")?;
    writeln!(
        out,
        "Paper: by the end of the 3-month period only ~15% of reserved GPUs are actively utilized."
    )
}

/// Fig. 7 — number of active user-submitted training tasks and active user
/// sessions during the 17.5-hour AdobeTrace excerpt.
fn fig07(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let trace = inputs.excerpt();
    let sessions = trace.active_sessions_timeline();
    let trainings = trace.active_trainings_timeline();
    let span = trace.span_s();

    let mut table = Table::new(
        "Fig 7 — active trainings (left axis) and sessions (right axis)",
        &["hour", "active trainings", "active sessions"],
    );
    for half_hour in 0..=35 {
        let t = half_hour as f64 * 1800.0;
        table.row_owned(vec![
            format!("{:.1}", t / 3600.0),
            fmt0(trainings.value_at(t)),
            fmt0(sessions.value_at(t)),
        ]);
    }
    writeln!(out, "{table}")?;

    let mut summary = Table::new(
        "Fig 7 — summary (paper: sessions ramp 0->87, max 90; mean/median trainings 19.5/19, max 34)",
        &["metric", "value"],
    );
    summary.row_owned(vec![
        "sessions at end".into(),
        format!("{:.0}", sessions.value_at(span * 0.999)),
    ]);
    summary.row_owned(vec![
        "max sessions".into(),
        format!("{:.0}", sessions.max_value()),
    ]);
    summary.row_owned(vec![
        "mean trainings".into(),
        format!("{:.1}", trainings.time_mean(0.0, span)),
    ]);
    summary.row_owned(vec![
        "max trainings".into(),
        format!("{:.0}", trainings.max_value()),
    ]);
    summary.row_owned(vec![
        "trainings at end".into(),
        format!("{:.0}", trainings.value_at(span * 0.999)),
    ]);
    writeln!(out, "{summary}")
}

/// Fig. 8 — Provisioned-GPU timelines: Batch / NotebookOS / NotebookOS
/// (LCP) against the Oracle and Reservation curves, plus the GPU-hours
/// saved relative to Reservation.
fn fig08(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let trace = inputs.excerpt();
    let span = trace.span_s();
    let oracle = trace.oracle_gpu_timeline();
    let runs = inputs.excerpt_runs();

    // Timeline series sampled hourly, as the figure plots them.
    let mut series = Table::new(
        "Fig 8 — provisioned GPUs over the 17.5-hour excerpt",
        &[
            "hour",
            "oracle",
            "reservation",
            "batch",
            "notebookos",
            "lcp",
        ],
    );
    let reservation = pick(runs, PolicyKind::Reservation);
    for hour in 0..=17 {
        let t = (hour as f64) * 3600.0;
        series.row_owned(vec![
            hour.to_string(),
            fmt0(oracle.value_at(t)),
            fmt0(reservation.provisioned_gpus.value_at(t)),
            fmt0(pick(runs, PolicyKind::Batch).provisioned_gpus.value_at(t)),
            fmt0(
                pick(runs, PolicyKind::NotebookOs)
                    .provisioned_gpus
                    .value_at(t),
            ),
            fmt0(
                pick(runs, PolicyKind::NotebookOsLcp)
                    .provisioned_gpus
                    .value_at(t),
            ),
        ]);
    }
    writeln!(out, "{series}")?;

    let mut summary = Table::new(
        "Fig 8 — GPU-hour totals (paper: NotebookOS saves ~1187.66, LCP ~1662.53 vs Reservation)",
        &["policy", "provisioned GPU-hours", "saved vs Reservation"],
    );
    let reserved_hours = reservation.provisioned_gpus.integral(0.0, span) / 3600.0;
    for (policy, m) in runs {
        let provisioned = m.provisioned_gpus.integral(0.0, span) / 3600.0;
        summary.row_owned(vec![
            policy.to_string(),
            format!("{provisioned:.2}"),
            format!("{:.2}", reserved_hours - provisioned),
        ]);
    }
    writeln!(out, "{summary}")
}

/// Fig. 9 — CDFs of (a) interactivity delays and (b) task completion times
/// across the four scheduling policies, plus the §5.3.2 headline rates.
fn fig09(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let runs = inputs.excerpt_runs();

    let mut delay = Table::new(
        "Fig 9(a) — interactivity delay CDF (seconds)",
        &["policy", "p25", "p50", "p75", "p90", "p99", "max"],
    );
    let mut tct = Table::new(
        "Fig 9(b) — task completion time CDF (seconds)",
        &["policy", "p25", "p50", "p75", "p90", "p99", "max"],
    );
    for (policy, m) in runs {
        let mut d = m.interactivity_ms.clone();
        let mut t = m.tct_ms.clone();
        let row = |c: &mut Cdf| {
            vec![
                format!("{:.3}", c.percentile(25.0) / 1e3),
                format!("{:.3}", c.percentile(50.0) / 1e3),
                format!("{:.3}", c.percentile(75.0) / 1e3),
                format!("{:.3}", c.percentile(90.0) / 1e3),
                format!("{:.3}", c.percentile(99.0) / 1e3),
                format!("{:.3}", c.max() / 1e3),
            ]
        };
        let mut cells = vec![policy.to_string()];
        cells.extend(row(&mut d));
        delay.row_owned(cells);
        let mut cells = vec![policy.to_string()];
        cells.extend(row(&mut t));
        tct.row_owned(cells);
    }
    writeln!(out, "{delay}")?;
    writeln!(out, "{tct}")?;

    let nbos = pick(runs, PolicyKind::NotebookOs);
    let mut rates = Table::new(
        "§5.3.2 headline rates (paper: immediate commit 89.6 %, executor reuse 89.45 %)",
        &["metric", "value"],
    );
    rates.row_owned(vec![
        "GPUs committed immediately on request".into(),
        format!("{:.2}%", nbos.counters.immediate_commit_rate() * 100.0),
    ]);
    rates.row_owned(vec![
        "same executor reused for consecutive requests".into(),
        format!("{:.2}%", nbos.counters.executor_reuse_rate() * 100.0),
    ]);
    rates.row_owned(vec![
        "migrations".into(),
        nbos.counters.migrations.to_string(),
    ]);
    rates.row_owned(vec![
        "aborted executions".into(),
        nbos.counters.aborted.to_string(),
    ]);
    writeln!(out, "{rates}")
}

/// Fig. 10 — timeline of major events (kernel creations, migrations,
/// scale-outs) during the 17.5-hour workload, with the cluster-wide
/// subscription ratio on the secondary axis.
fn fig10(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let m = pick(inputs.excerpt_runs(), PolicyKind::NotebookOs);
    let span = inputs.excerpt().span_s();

    let count_in =
        |times: &[f64], lo: f64, hi: f64| times.iter().filter(|&&t| t >= lo && t < hi).count();

    let mut table = Table::new(
        "Fig 10 — events per hour and subscription ratio (NotebookOS)",
        &[
            "hour",
            "kernel creations",
            "migrations",
            "scale-outs",
            "SR at hour end",
        ],
    );
    for hour in 0..18 {
        let lo = hour as f64 * 3600.0;
        let hi = lo + 3600.0;
        table.row_owned(vec![
            hour.to_string(),
            count_in(&m.kernel_creation_times_s, lo, hi).to_string(),
            count_in(&m.migration_times_s, lo, hi).to_string(),
            count_in(&m.scale_out_times_s, lo, hi).to_string(),
            format!("{:.3}", m.subscription_ratio.value_at(hi.min(span))),
        ]);
    }
    writeln!(out, "{table}")?;

    let mut summary = Table::new(
        "Fig 10 — totals (paper: SR spikes at kernel-creation bursts trigger scale-outs; migrations follow SR climbs)",
        &["metric", "value"],
    );
    summary.row_owned(vec![
        "kernel creations".into(),
        m.counters.kernel_creations.to_string(),
    ]);
    summary.row_owned(vec!["migrations".into(), m.counters.migrations.to_string()]);
    summary.row_owned(vec![
        "scale-out operations".into(),
        m.counters.scale_outs.to_string(),
    ]);
    summary.row_owned(vec![
        "scale-in operations".into(),
        m.counters.scale_ins.to_string(),
    ]);
    summary.row_owned(vec![
        "peak SR".into(),
        format!("{:.3}", m.subscription_ratio.max_value()),
    ]);
    writeln!(out, "{summary}")
}

/// Fig. 11 — CDFs of large-object read/write latency and Raft small-state
/// synchronization latency, against the workload's event IATs.
fn fig11(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let m = pick(inputs.excerpt_runs(), PolicyKind::NotebookOs);

    let mut iat = inputs.excerpt().iat_cdf("event IATs");
    let mut table = Table::new(
        "Fig 11 — object synchronization latencies (milliseconds; log-scale in the paper)",
        &["series", "n", "p50", "p90", "p95", "p99"],
    );
    let mut push = |name: &str, cdf: &Cdf| {
        let mut c = cdf.clone();
        if c.is_empty() {
            return;
        }
        table.row_owned(vec![
            name.to_string(),
            c.len().to_string(),
            format!("{:.2}", c.percentile(50.0)),
            format!("{:.2}", c.percentile(90.0)),
            format!("{:.2}", c.percentile(95.0)),
            format!("{:.2}", c.percentile(99.0)),
        ]);
    };
    push("Writes (large objects)", &m.write_ms);
    push("Reads (large objects)", &m.read_ms);
    push("Sync (Raft small state)", &m.sync_ms);
    // IATs are recorded in seconds; present in ms for a common axis.
    table.row_owned(vec![
        "Event IATs".to_string(),
        iat.len().to_string(),
        format!("{:.0}", iat.percentile(50.0) * 1e3),
        format!("{:.0}", iat.percentile(90.0) * 1e3),
        format!("{:.0}", iat.percentile(95.0) * 1e3),
        format!("{:.0}", iat.percentile(99.0) * 1e3),
    ]);
    writeln!(out, "{table}")?;

    writeln!(
        out,
        "Paper anchors: Sync p90/p95/p99 = 54.79/66.69/268.25 ms; 99% of reads <= ~3950 ms, \
         writes <= ~7070 ms; the shortest event IAT is 240000 ms, so object traffic hides \
         inside think time."
    )?;
    let mut read = m.read_ms.clone();
    let mut write = m.write_ms.clone();
    if !read.is_empty() && !write.is_empty() {
        let hidden = read.percentile(99.0).max(write.percentile(99.0)) < 240_000.0;
        writeln!(
            out,
            "Check: p99 object latency {} the minimum IAT -> overhead {} hidden from users.",
            if hidden { "is below" } else { "EXCEEDS" },
            if hidden { "is" } else { "is NOT" }
        )?;
    }
    Ok(())
}

/// The last billing sample at or before `t`, as `(cost, revenue)`.
fn sample_at(samples: &[(f64, f64, f64)], t: f64) -> (f64, f64) {
    let mut best = (0.0, 0.0);
    for &(ts, c, r) in samples {
        if ts <= t {
            best = (c, r);
        } else {
            break;
        }
    }
    best
}

/// Fig. 12 — provider cost, revenue, and profit margin over the 90-day
/// simulation window: NotebookOS vs Reservation (§5.5.1).
fn fig12(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let runs = inputs.summer_runs();
    let reservation = pick(runs, PolicyKind::Reservation);
    let nbos = pick(runs, PolicyKind::NotebookOs);

    let mut table = Table::new(
        "Fig 12(a) — provider cost and revenue, millions of USD",
        &[
            "day",
            "Res. cost",
            "Res. revenue",
            "NbOS cost",
            "NbOS revenue",
        ],
    );
    for day in (0..=90).step_by(15) {
        let t = day as f64 * 86_400.0;
        let (rc, rr) = sample_at(&reservation.billing_samples, t);
        let (nc, nr) = sample_at(&nbos.billing_samples, t);
        table.row_owned(vec![
            day.to_string(),
            format!("{:.3}", rc / 1e6),
            format!("{:.3}", rr / 1e6),
            format!("{:.3}", nc / 1e6),
            format!("{:.3}", nr / 1e6),
        ]);
    }
    writeln!(out, "{table}")?;

    let mut margin = Table::new(
        "Fig 12(b) — profit margin (%)",
        &["day", "Reservation", "NotebookOS"],
    );
    for day in (15..=90).step_by(15) {
        let t = day as f64 * 86_400.0;
        let (rc, rr) = sample_at(&reservation.billing_samples, t);
        let (nc, nr) = sample_at(&nbos.billing_samples, t);
        let pm = |c: f64, r: f64| if r > 0.0 { (r - c) / r * 100.0 } else { 0.0 };
        margin.row_owned(vec![
            day.to_string(),
            format!("{:.1}", pm(rc, rr)),
            format!("{:.1}", pm(nc, nr)),
        ]);
    }
    writeln!(out, "{margin}")?;

    let (rc, _) = reservation.final_billing().expect("samples");
    let (nc, _) = nbos.final_billing().expect("samples");
    writeln!(
        out,
        "Provider-side cost reduction vs Reservation: {:.2}% (paper: up to 69.87%).",
        (rc - nc) / rc * 100.0
    )
}

/// Fig. 13 — GPU-hours saved by NotebookOS by avoiding cell re-execution
/// after idle session reclamations, for five reclamation intervals over the
/// 90-day trace.
fn fig13(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let sweep = fig13_sweep(inputs.summer());

    let mut table = Table::new(
        "Fig 13 — cumulative GPU-hours saved by state persistence",
        &["day", "15-min", "30-min", "60-min", "90-min", "120-min"],
    );
    for day in (0..=90).step_by(15) {
        let t = day as f64 * 86_400.0;
        let mut cells = vec![day.to_string()];
        for s in &sweep {
            cells.push(format!("{:.0}", s.saved_timeline.value_at(t)));
        }
        table.row_owned(cells);
    }
    writeln!(out, "{table}")?;

    let mut totals = Table::new(
        "Fig 13 — totals (paper: shorter intervals reclaim more, saving more GPU-hours)",
        &["reclamation interval", "reclamations", "GPU-hours saved"],
    );
    for s in &sweep {
        totals.row_owned(vec![
            format!("{} min", s.interval_min),
            s.reclamations.to_string(),
            format!("{:.0}", s.total_gpu_hours_saved),
        ]);
    }
    writeln!(out, "{totals}")
}

/// Fig. 14 — simulated 90-day GPU usage: (a) cluster-wide allocatable GPUs
/// per policy against Oracle and Reservation, (b) the ratio of allocatable
/// GPUs actively utilized.
fn fig14(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let trace = inputs.summer();
    let oracle = trace.oracle_gpu_timeline();
    let runs = inputs.summer_runs();
    let span = trace.span_s();

    let mut alloc = Table::new(
        "Fig 14(a) — allocatable GPUs over 90 days",
        &[
            "day",
            "oracle",
            "Reservation",
            "Batch",
            "NotebookOS",
            "NbOS (LCP)",
        ],
    );
    for day in (0..=90).step_by(10) {
        let t = day as f64 * 86_400.0;
        let mut cells = vec![day.to_string(), fmt0(oracle.value_at(t))];
        for (_, m) in runs {
            cells.push(fmt0(m.provisioned_gpus.value_at(t)));
        }
        alloc.row_owned(cells);
    }
    writeln!(out, "{alloc}")?;

    let mut ratio = Table::new(
        "Fig 14(b) — GPU usage ratio (utilized / allocatable), time-weighted mean",
        &["policy", "mean usage ratio"],
    );
    for (policy, m) in runs {
        let utilized = m.committed_gpus.integral(0.0, span);
        let allocatable = m.provisioned_gpus.integral(0.0, span);
        ratio.row_owned(vec![
            policy.to_string(),
            format!("{:.3}", utilized / allocatable.max(1e-9)),
        ]);
    }
    writeln!(out, "{ratio}")?;
    writeln!(
        out,
        "Paper: NotebookOS uses a significantly higher fraction of available GPUs than Reservation."
    )
}

/// Figs. 16–19 — detailed end-to-end latency breakdown of execute-request
/// messages for each of the four policies (the appendix box plots).
fn fig16_19(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    for (_, m) in inputs.excerpt_runs() {
        writeln!(out, "{}", m.breakdown.to_table())?;
    }
    writeln!(
        out,
        "Paper shape: Reservation/NotebookOS dominated by K Exec (8); Batch dominated by \
         GS P Rq (1) (queuing + cold containers); NotebookOS uniquely pays K PRP (6) \
         (executor election, tens of milliseconds); step 9 is asynchronous in NotebookOS."
    )
}

/// Fig. 20 — active user-submitted trainings and active user sessions over
/// the full 90-day "summer" trace.
fn fig20(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let trace = inputs.summer();
    let sessions = trace.active_sessions_timeline();
    let trainings = trace.active_trainings_timeline();
    let span = trace.span_s();

    let mut table = Table::new(
        "Fig 20 — active trainings (left axis) and sessions (right axis)",
        &["day", "active trainings", "active sessions"],
    );
    for day in (0..=90).step_by(5) {
        let t = day as f64 * 86_400.0;
        table.row_owned(vec![
            day.to_string(),
            fmt0(trainings.value_at(t)),
            fmt0(sessions.value_at(t)),
        ]);
    }
    writeln!(out, "{table}")?;

    let month = 30.0 * 86_400.0;
    let mut summary = Table::new(
        "Fig 20 — summary (paper: sessions 206/312/397 by month end, max 433; mean trainings 31/65/105 per month, max 141)",
        &["metric", "June", "July", "August"],
    );
    summary.row_owned(vec![
        "sessions at month end".into(),
        format!("{:.0}", sessions.value_at(month)),
        format!("{:.0}", sessions.value_at(2.0 * month)),
        format!("{:.0}", sessions.value_at((3.0 * month).min(span * 0.999))),
    ]);
    summary.row_owned(vec![
        "mean active trainings".into(),
        format!("{:.1}", trainings.time_mean(0.0, month)),
        format!("{:.1}", trainings.time_mean(month, 2.0 * month)),
        format!("{:.1}", trainings.time_mean(2.0 * month, span)),
    ]);
    writeln!(out, "{summary}")?;
    writeln!(
        out,
        "Max sessions: {:.0} (paper 433); max trainings: {:.0} (paper 141).",
        sessions.max_value(),
        trainings.max_value()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent commit's `repro_all` stdout, captured before that binary
    /// and the twelve it launched were folded into [`FIGURES`].
    const GOLDEN: &str = include_str!("../../../tests/golden/repro.txt");

    fn banner(name: &str) -> String {
        format!("\n################ {name} ################\n\n")
    }

    /// Section names of the golden transcript, in the order it prints them.
    fn golden_banners() -> Vec<&'static str> {
        GOLDEN
            .lines()
            .filter_map(|line| {
                line.strip_prefix("################ ")?
                    .strip_suffix(" ################")
            })
            .collect()
    }

    /// The body the golden transcript holds under `name`'s banner.
    fn golden_section(name: &str) -> &'static str {
        let banner = banner(name);
        let start = GOLDEN.find(&banner).expect("section in the golden") + banner.len();
        let rest = &GOLDEN[start..];
        let end = rest
            .find("\n################ ")
            .or_else(|| rest.find("\nAll evaluation artifacts regenerated.\n"))
            .expect("a next banner or the closing line");
        &rest[..end]
    }

    #[test]
    fn excerpt_sections_render_the_golden_transcript() {
        // The seven sections that need no 90-day simulation, over one
        // shared `Inputs`: one excerpt trace, four excerpt simulations.
        // CI's `repro | cmp - tests/golden/repro.txt` covers the rest.
        let inputs = Inputs::default();
        for name in [
            "table1", "fig07", "fig08", "fig09", "fig10", "fig11", "fig16_19",
        ] {
            let (_, figure) = FIGURES
                .iter()
                .find(|(n, _)| *n == name)
                .expect("figure in the table");
            let mut rendered = Vec::new();
            figure(&inputs, &mut rendered).expect("writes to a Vec");
            assert_eq!(
                String::from_utf8(rendered).expect("utf-8"),
                golden_section(name),
                "{name} differs from tests/golden/repro.txt"
            );
        }
        assert!(
            inputs.summer.get().is_none() && inputs.summer_runs.get().is_none(),
            "an excerpt figure built a summer input"
        );
    }

    #[test]
    fn figure_names_are_unique_and_in_the_golden_banner_order() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate figure name");
        assert_eq!(names, golden_banners());
        assert_eq!(GOLDEN.lines().count(), 396);
        assert!(GOLDEN.ends_with("\nAll evaluation artifacts regenerated.\n"));
    }

    #[test]
    fn unknown_figure_exits_2_with_the_list() {
        for args in [vec!["fig99"], vec!["fig08", "--smoke"]] {
            let args: Vec<String> = args.into_iter().map(String::from).collect();
            let (mut out, mut err) = (Vec::new(), Vec::new());
            assert_eq!(repro(&args, &mut out, &mut err), 2);
            assert!(out.is_empty(), "nothing runs before the names are checked");
            let err = String::from_utf8(err).expect("utf-8");
            assert!(
                err.contains(&format!("{:?}", args.last().unwrap())),
                "{err}"
            );
            for (name, _) in FIGURES {
                assert!(err.contains(name), "usage names {name}: {err}");
            }
        }
    }

    #[test]
    fn named_figures_print_bodies_without_banners() {
        let args = vec!["table1".to_string()];
        let (mut out, mut err) = (Vec::new(), Vec::new());
        assert_eq!(repro(&args, &mut out, &mut err), 0);
        assert!(err.is_empty());
        assert_eq!(String::from_utf8(out).unwrap(), golden_section("table1"));
    }
}
