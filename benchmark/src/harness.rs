//! What the six workloads share: the options of a run, the set-up/pass loop
//! that fills the time budget with fixed-work passes and tallies each one,
//! the zero-cost switch between traced and untraced driver loops, and the
//! process's peak memory.

use std::path::PathBuf;
use std::time::Instant;

use crate::report::Outcome;
use crate::span::{Op, Tracer};
use crate::stats::{median, percentile_sorted};

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Timed pass wall to accumulate before stopping, seconds.
    pub seconds: f64,
    /// Run every workload at 1/50 size, one timed pass, no warm-up.
    pub smoke: bool,
    /// Where WAL directories and trace files go.
    pub out_dir: PathBuf,
}

/// The switch between the traced and the untraced form of a driver loop.
/// Loops are generic over it, so with [`Off`] every call below compiles
/// away and the untraced run executes no tracing code at all.
pub trait Probe {
    /// Opens a span.
    fn enter(&mut self, op: Op);
    /// Closes the innermost span.
    fn exit(&mut self);
    /// The tracer, when tracing.
    fn tracer(&mut self) -> Option<&mut Tracer>;
}

/// Tracing off.
#[derive(Debug, Clone, Copy, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(&mut self, _op: Op) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn tracer(&mut self) -> Option<&mut Tracer> {
        None
    }
}

impl Probe for Tracer {
    #[inline]
    fn enter(&mut self, op: Op) {
        Tracer::enter(self, op);
    }
    #[inline]
    fn exit(&mut self) {
        Tracer::exit(self);
    }
    #[inline]
    fn tracer(&mut self) -> Option<&mut Tracer> {
        Some(self)
    }
}

/// What one pass hands back to [`measure`].
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Operations the pass attempted.
    pub ops: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks the pass violated.
    pub violations: Vec<String>,
    /// Wall seconds of each fixed-work chunk of the pass.
    pub chunk_walls: Vec<f64>,
    /// Latency of each operation in the order they were issued, ns; empty
    /// for workloads whose operations have none.
    pub latencies_ns: Vec<u32>,
    /// Seconds of this pass's set-up that `setup_s` leaves out (`raft-wal`:
    /// what its flushes took).
    pub setup_left_out_s: f64,
}

/// The timed passes of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Passes {
    /// Chunk walls of each pass.
    pub chunks: Vec<Vec<f64>>,
    /// For each operation of a pass, the fastest it ran in any pass, ns.
    pub best_latency_ns: Vec<u32>,
    /// Each pass's 99th-percentile latency, ns.
    pub p99_ns: Vec<f64>,
    /// Seconds each pass's set-up took.
    pub setup_s: Vec<f64>,
}

impl Passes {
    /// The wall time of one pass with machine noise taken out. This box
    /// slows down by 5 % to 40 % for seconds at a time, and noise only ever
    /// adds time. Every pass is the same fixed work cut at the same points
    /// into chunks of a few ms, so chunk `k` is comparable across passes;
    /// this sums, over `k`, the fastest chunk `k` any pass achieved. Every
    /// chunk, cheap or dear, still counts once, so a change to any part of
    /// the pass shows.
    pub fn best_wall(&self) -> f64 {
        let chunks = self.chunks.iter().map(Vec::len).min().unwrap_or(0);
        (0..chunks)
            .map(|k| {
                self.chunks
                    .iter()
                    .map(|p| p[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Wall seconds of all passes together.
    pub fn total_wall(&self) -> f64 {
        self.chunks.iter().flatten().sum()
    }

    /// The median operation latency with machine noise taken out the same
    /// way: operation `k` is the same operation in every pass, so its
    /// latency is the fastest it ran in any pass. `None` for workloads whose
    /// operations have no latency.
    pub fn best_p50_ns(&self) -> Option<f64> {
        let mut best = self.best_latency_ns.clone();
        best.sort_unstable();
        (!best.is_empty()).then(|| f64::from(percentile_sorted(&best, 50.0)))
    }
}

/// Runs `setup` → `pass` repeatedly: one untimed warm-up round when
/// `warm_up`, then timed rounds until the calls of `pass` (its output checks
/// included) have taken `budget_s` seconds — always at least one. Each
/// workload is fixed work per pass, so a pass's wall time is comparable
/// across runs and the budget only decides how many samples a run collects.
///
/// Every round's violations go to `outcome`; a timed round's operations and
/// failures are tallied there too. A violated check or a failed set-up ends
/// the phase at once.
pub fn measure<P: Probe, F>(
    probe: &mut P,
    budget_s: f64,
    warm_up: bool,
    outcome: &mut Outcome,
    mut setup: impl FnMut(&mut P) -> Result<F, String>,
    mut pass: impl FnMut(F, &mut P) -> PassReport,
) -> Passes {
    let label = if probe.tracer().is_some() {
        "traced pass"
    } else {
        "pass"
    };
    let mut passes = Passes::default();
    let mut timed = !warm_up;
    let mut spent_s = 0.0;
    for round in 0.. {
        let t = Instant::now();
        let fixture = match setup(probe) {
            Ok(fixture) => fixture,
            Err(e) => {
                outcome.violate(format!("{label} {round}: set-up: {e}"));
                break;
            }
        };
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = pass(fixture, probe);
        if timed {
            spent_s += t.elapsed().as_secs_f64();
        }
        for v in &report.violations {
            outcome.violate(format!("{label} {round}: {v}"));
        }
        if timed {
            outcome.attempted += report.ops;
            outcome.failed += report.failed;
            passes.setup_s.push(setup_s - report.setup_left_out_s);
            passes.chunks.push(report.chunk_walls);
            let mut latencies = report.latencies_ns;
            if !latencies.is_empty() {
                if passes.best_latency_ns.is_empty() {
                    passes.best_latency_ns.clone_from(&latencies);
                }
                for (best, &ns) in passes.best_latency_ns.iter_mut().zip(&latencies) {
                    *best = (*best).min(ns);
                }
                latencies.sort_unstable();
                passes
                    .p99_ns
                    .push(f64::from(percentile_sorted(&latencies, 99.0)));
            }
        }
        if !outcome.correct() || spent_s >= budget_s {
            break;
        }
        timed = true;
    }
    passes
}

/// Seconds between consecutive stamps.
pub fn chunk_walls(stamps: &[Instant]) -> Vec<f64> {
    stamps
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect()
}

/// Sets the four end-to-end metrics of an untraced run: `ops` of work per
/// pass over the best pass, the best median latency (or, for the simulator,
/// the host time per event — the rate's reciprocal), the median set-up, and
/// the peak resident set.
pub fn set_end_to_end(outcome: &mut Outcome, ops: u64, passes: &Passes) {
    let wall = passes.best_wall();
    let n = passes.chunks.len() as u64;
    outcome.set("ops_per_s", ops as f64 / wall, n);
    let p50_ns = passes.best_p50_ns().unwrap_or(wall * 1e9 / ops as f64);
    outcome.set("op_p50_us", p50_ns / 1e3, n * ops);
    outcome.set("setup_s", median(&passes.setup_s), n);
    outcome.set("peak_rss_mb", peak_rss_mb(), 1);
}

/// Ends a traced run: writes the kept spans to
/// `<out_dir>/trace-<workload>.json` and notes where they went.
pub fn write_trace(tracer: &Tracer, opts: &Opts, outcome: &mut Outcome) {
    let path = opts
        .out_dir
        .join(format!("trace-{}.json", outcome.workload));
    if let Err(e) = tracer.write_json(&path, outcome.workload) {
        outcome.violate(format!("cannot write {}: {e}", path.display()));
    }
    outcome.notes.push(format!(
        "{} spans closed, {} kept in {}",
        tracer.closed(),
        tracer.kept().len(),
        path.display()
    ));
}

/// The process's peak resident set (`VmHWM`), MiB; 0 where `/proc` does
/// not provide it. The mark only ever rises, so it speaks for a workload
/// only when that workload is all the process ran: `--workload all` starts
/// one process per workload for this reason.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleepy_pass(ops: u64) -> PassReport {
        let t = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(8));
        PassReport {
            ops,
            chunk_walls: vec![t.elapsed().as_secs_f64()],
            ..PassReport::default()
        }
    }

    #[test]
    fn passes_fill_the_budget_after_one_untallied_warm_up() {
        let mut outcome = Outcome::new("w", false);
        let (mut setups, mut rounds) = (0, 0);
        let passes = measure(
            &mut Off,
            0.02,
            true,
            &mut outcome,
            |_| {
                setups += 1;
                Ok(())
            },
            |(), _| {
                rounds += 1;
                sleepy_pass(5)
            },
        );
        // The warm-up round is not timed; then 8 ms passes until ≥ 20 ms.
        assert_eq!(passes.chunks.len(), rounds - 1);
        assert_eq!(passes.setup_s.len(), passes.chunks.len());
        assert_eq!(setups, rounds);
        assert!(passes.chunks.len() >= 2 && passes.chunks.len() <= 3);
        assert_eq!(outcome.attempted, 5 * passes.chunks.len() as u64);
        assert_eq!(passes.best_p50_ns(), None);
    }

    #[test]
    fn zero_budget_still_runs_one_timed_pass() {
        let mut outcome = Outcome::new("w", false);
        let passes = measure(
            &mut Off,
            0.0,
            false,
            &mut outcome,
            |_| Ok(()),
            |(), _| PassReport {
                ops: 3,
                failed: 1,
                latencies_ns: vec![30, 10, 20],
                ..PassReport::default()
            },
        );
        assert_eq!(passes.chunks.len(), 1);
        assert_eq!(
            (passes.best_p50_ns(), &passes.p99_ns),
            (Some(20.0), &vec![30.0])
        );
        assert_eq!((outcome.attempted, outcome.failed), (3, 1));
        assert!(outcome.correct());
    }

    #[test]
    fn each_operation_keeps_the_fastest_it_ran_in_any_pass() {
        let mut outcome = Outcome::new("w", false);
        // Three passes of the same three operations; each pass stalls on a
        // different one.
        let mut runs = [vec![10u32, 11, 90], vec![10, 70, 12], vec![80, 11, 12]].into_iter();
        let passes = measure(
            &mut Off,
            60.0,
            false,
            &mut outcome,
            |_| runs.next().ok_or_else(|| "done".to_string()),
            |latencies_ns, _| PassReport {
                latencies_ns,
                setup_left_out_s: -1.0,
                ..PassReport::default()
            },
        );
        assert_eq!(passes.best_latency_ns, vec![10, 11, 12]);
        assert_eq!(passes.best_p50_ns(), Some(11.0));
        assert_eq!(passes.p99_ns, vec![90.0, 70.0, 80.0]);
        // What a pass says its set-up should leave out is left out.
        assert!(passes.setup_s.iter().all(|&s| s > 1.0));
    }

    #[test]
    fn a_violated_check_or_a_failed_set_up_stops_the_phase() {
        let mut outcome = Outcome::new("w", false);
        let mut n = 0;
        let passes = measure(
            &mut Off,
            60.0,
            true,
            &mut outcome,
            |_| Ok(()),
            |(), _| {
                n += 1;
                PassReport {
                    violations: if n == 3 {
                        vec!["broke".to_string()]
                    } else {
                        Vec::new()
                    },
                    ..PassReport::default()
                }
            },
        );
        assert_eq!((n, passes.chunks.len()), (3, 2));
        assert_eq!(outcome.violations, vec!["pass 2: broke"]);

        let mut outcome = Outcome::new("w", false);
        let passes = measure(
            &mut Off,
            60.0,
            false,
            &mut outcome,
            |_| Err::<(), _>("no disk".to_string()),
            |(), _| PassReport::default(),
        );
        assert!(passes.chunks.is_empty());
        assert_eq!(outcome.violations, vec!["pass 0: set-up: no disk"]);
    }

    #[test]
    fn best_pass_ignores_stalls_but_counts_every_chunk() {
        // Three passes of three chunks; each stalls somewhere else.
        let passes = Passes {
            chunks: vec![
                vec![1.0, 10.0, 5.0],
                vec![1.0, 90.0, 1.0],
                vec![7.0, 11.0, 0.8],
            ],
            ..Passes::default()
        };
        assert_eq!(passes.best_wall(), 1.0 + 10.0 + 0.8);
        assert_eq!(passes.total_wall(), 126.8);
        assert_eq!(Passes::default().best_wall(), 0.0);
        let t = Instant::now();
        let stamps = [
            t,
            t + std::time::Duration::from_millis(5),
            t + std::time::Duration::from_millis(7),
        ];
        assert_eq!(chunk_walls(&stamps), vec![0.005, 0.002]);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
