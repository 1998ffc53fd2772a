//! Shared command-line plumbing for the sweep-driven bench binaries.
//!
//! Every binary that executes a [`SweepSpec`] (`sweep_shard`,
//! `elasticity_sweep`) speaks the same four flags — the one way this
//! workspace splits a sweep across processes:
//!
//! * `--shard I/M` — run only shard `I` of `M`, round-robin by global job
//!   index ([`SweepSpec::shard`])
//! * `--out FILE` — persist the report as JSON ([`SweepReport::write_json`])
//! * `--merge FILES...` — run nothing; merge previously persisted shard
//!   reports ([`SweepReport::merge`])
//! * `--workers N` — size the worker pool (default: the machine's cores)
//!
//! A shard is the unit of loss: a killed shard is run again, whole. Pick
//! `M` accordingly.
//!
//! [`SweepCli::parse`] recognizes the flags and [`SweepCli::execute`]
//! drives the corresponding engine entry point, so the binaries only build
//! their spec and render their tables.

use std::path::PathBuf;

use notebookos_core::sweep::{SweepError, SweepReport, SweepSpec};

/// Parsed sharding/persistence flags shared by the sweep binaries.
#[derive(Debug, Clone, Default)]
pub struct SweepCli {
    /// `--workers N` (0 = automatic).
    pub workers: usize,
    /// `--shard I/M`.
    pub shard: Option<(usize, usize)>,
    /// `--out FILE`.
    pub out: Option<PathBuf>,
    /// `--merge FILES...` (every following argument up to the next
    /// `--flag`).
    pub merge: Vec<PathBuf>,
}

/// Parses `"I/M"` into a `(index, total)` shard restriction.
///
/// # Errors
///
/// Rejects malformed fractions, `M == 0`, and `I >= M`.
pub fn parse_shard(s: &str) -> Result<(usize, usize), String> {
    let bad = || format!("--shard takes I/M with I < M, got `{s}`");
    let (index, total) = s.split_once('/').ok_or_else(bad)?;
    let index: usize = index.parse().map_err(|_| bad())?;
    let total: usize = total.parse().map_err(|_| bad())?;
    if total == 0 || index >= total {
        return Err(bad());
    }
    Ok((index, total))
}

impl SweepCli {
    /// Parses the shared flag set from `args` (program name already
    /// skipped). Unknown arguments are rejected with a message that
    /// embeds `usage`.
    ///
    /// # Errors
    ///
    /// Returns the message to print to stderr before exiting with
    /// status 2.
    pub fn parse(args: impl IntoIterator<Item = String>, usage: &str) -> Result<SweepCli, String> {
        let mut cli = SweepCli::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} takes a value; usage: {usage}"))
            };
            match arg.as_str() {
                "--workers" => {
                    cli.workers = value("--workers")?
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            format!("--workers takes a positive integer; usage: {usage}")
                        })?;
                }
                "--shard" => cli.shard = Some(parse_shard(&value("--shard")?)?),
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                "--merge" => {
                    // Shard report paths run up to the next `--flag`.
                    while args.peek().is_some_and(|a| !a.starts_with("--")) {
                        cli.merge.push(PathBuf::from(args.next().expect("peeked")));
                    }
                    if cli.merge.is_empty() {
                        return Err(format!("--merge takes at least one file; usage: {usage}"));
                    }
                }
                other => return Err(format!("unknown argument {other:?}; usage: {usage}")),
            }
        }
        // Merge mode runs nothing, so a shard restriction or a pool size
        // alongside it would be silently ignored — reject the combination
        // instead of letting the user believe it happened. (`--workers`
        // only parses as a positive count, so 0 means "not given".)
        let run_flags = [
            (cli.shard.is_some(), "--shard"),
            (cli.workers != 0, "--workers"),
        ];
        for (given, flag) in run_flags {
            if given && !cli.merge.is_empty() {
                return Err(format!(
                    "--merge cannot be combined with {flag}; usage: {usage}"
                ));
            }
        }
        // A sharded run must name a persistence target: partial results
        // exist only to be merged, so running a shard and discarding its
        // report would waste every cell it computed.
        if cli.shard.is_some() && cli.out.is_none() {
            return Err(format!(
                "--shard produces partial results; give it --out FILE so the other \
                 shards can be merged in; usage: {usage}"
            ));
        }
        Ok(cli)
    }

    /// Executes the flags against `spec`:
    ///
    /// * merge mode reads and merges the shard reports (running nothing);
    /// * otherwise the (possibly sharded) spec runs.
    ///
    /// In both modes the resulting report is persisted to `--out` when
    /// given, and per-run progress goes to stderr under `label`.
    ///
    /// # Errors
    ///
    /// Propagates report I/O, corruption, fingerprint, and overlap
    /// errors — the binaries print the error and exit non-zero.
    pub fn execute(&self, spec: &SweepSpec, label: &str) -> Result<SweepReport, SweepError> {
        let report = if !self.merge.is_empty() {
            let reports = self
                .merge
                .iter()
                .map(SweepReport::read_json)
                .collect::<Result<Vec<_>, _>>()?;
            let merged = SweepReport::merge(reports)?;
            // The shard files must agree with each other *and* with the
            // spec this binary would run — stale artifacts from an older
            // revision of the study must not render as current results.
            if merged.fingerprint != spec.fingerprint() {
                return Err(SweepError::FingerprintMismatch {
                    expected: spec.fingerprint(),
                    found: merged.fingerprint,
                });
            }
            eprintln!(
                "{label}: merged {} shard file(s) into {} runs",
                self.merge.len(),
                merged.len()
            );
            merged
        } else {
            let spec = match self.shard {
                Some((index, total)) => {
                    let sharded = spec.clone().shard(index, total);
                    eprintln!(
                        "{label}: shard {index}/{total} — {} of {} jobs",
                        sharded.job_indices().len(),
                        spec.total_jobs()
                    );
                    sharded
                }
                None => spec.clone(),
            };
            spec.workers(self.workers)
                .run_with_progress(|done, total| eprintln!("  [{done}/{total}] runs complete"))
        };
        if let Some(out) = &self.out {
            report.write_json(out).map_err(|source| SweepError::Io {
                path: out.clone(),
                source,
            })?;
            eprintln!("{label}: report written to {}", out.display());
        }
        Ok(report)
    }

    /// Whether `report` covers the full (unsharded) matrix of `spec` —
    /// completeness-gated summary tables and assertions key off this.
    pub fn is_complete(spec: &SweepSpec, report: &SweepReport) -> bool {
        report.len() == spec.total_jobs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepCli, String> {
        SweepCli::parse(args.iter().map(|s| s.to_string()), "test-usage")
    }

    #[test]
    fn parses_the_shared_flag_set() {
        let cli =
            parse(&["--workers", "4", "--shard", "1/3", "--out", "r.json"]).expect("valid flags");
        assert_eq!(cli.workers, 4);
        assert_eq!(cli.shard, Some((1, 3)));
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("r.json")));
        assert!(cli.merge.is_empty());
    }

    #[test]
    fn merge_stops_at_the_next_flag() {
        let cli = parse(&["--merge", "a.json", "b.json"]).expect("valid");
        assert_eq!(cli.merge.len(), 2);
        assert!(parse(&["--merge"]).is_err());
        let cli = parse(&["--merge", "a.json", "b.json", "--out", "m.json"]).expect("valid");
        assert_eq!(cli.merge.len(), 2);
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("m.json")));
    }

    #[test]
    fn rejects_bad_shards_and_unknown_flags() {
        assert!(parse(&["--shard", "3/3"]).is_err());
        assert!(parse(&["--shard", "0/0"]).is_err());
        assert!(parse(&["--shard", "nope"]).is_err());
        let err = parse(&["--frob"]).unwrap_err();
        assert!(err.contains("test-usage"));
        assert!(parse(&["--workers", "0"]).is_err());
    }

    #[test]
    fn rejects_merge_combined_with_run_flags() {
        assert!(parse(&["--merge", "a.json", "--shard", "0/2", "--out", "s.json"]).is_err());
        let err = parse(&["--merge", "a.json", "--workers", "2"]).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        assert!(parse(&["--workers", "2", "--merge", "a.json", "--out", "m.json"]).is_err());
        // --out with --merge is meaningful (persist the merged report).
        assert!(parse(&["--merge", "a.json", "--out", "m.json"]).is_ok());
    }

    #[test]
    fn shard_requires_a_persistence_target() {
        let err = parse(&["--shard", "0/2"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(parse(&["--shard", "0/2", "--out", "s.json"]).is_ok());
    }

    #[test]
    fn shard_fraction_accepts_full_range() {
        assert_eq!(parse_shard("0/1").unwrap(), (0, 1));
        assert_eq!(parse_shard("5/6").unwrap(), (5, 6));
    }
}
