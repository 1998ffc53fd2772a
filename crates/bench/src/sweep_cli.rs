//! Shared command-line plumbing for the sweep-driven bench binaries.
//!
//! Every binary that executes a [`SweepSpec`] (`interaction_sweep`,
//! `elasticity_sweep`) speaks the same two flags:
//!
//! * `--workers N` — size the worker pool (default: the machine's cores)
//! * `--out FILE` — persist the report as JSON ([`SweepReport::write_json`])
//!
//! A sweep runs in one process; a killed one is run again.
//!
//! [`SweepCli::parse`] recognizes the flags and [`SweepCli::execute`]
//! runs the spec, so the binaries only build their spec and render their
//! tables.

use std::path::PathBuf;

use notebookos_core::sweep::{SweepReport, SweepSpec};

/// Parsed flags shared by the sweep binaries.
#[derive(Debug, Clone, Default)]
pub struct SweepCli {
    /// `--workers N` (0 = automatic).
    pub workers: usize,
    /// `--out FILE`.
    pub out: Option<PathBuf>,
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
        let mut args = args.into_iter();
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
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                other => return Err(format!("unknown argument {other:?}; usage: {usage}")),
            }
        }
        Ok(cli)
    }

    /// Runs `spec` on a pool of `--workers` threads and persists the
    /// report to `--out` when given, saying so on stderr under `label`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of writing the report — the binaries
    /// print it and exit non-zero.
    pub fn execute(&self, spec: &SweepSpec, label: &str) -> std::io::Result<SweepReport> {
        let report = spec.clone().workers(self.workers).run();
        if let Some(out) = &self.out {
            report.write_json(out).map_err(|e| {
                std::io::Error::new(e.kind(), format!("sweep report {}: {e}", out.display()))
            })?;
            eprintln!("{label}: report written to {}", out.display());
        }
        Ok(report)
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
        let cli = parse(&["--workers", "4", "--out", "r.json"]).expect("valid flags");
        assert_eq!(cli.workers, 4);
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("r.json")));
        let cli = parse(&[]).expect("no flags");
        assert_eq!((cli.workers, cli.out), (0, None));
    }

    #[test]
    fn rejects_bad_shards_and_unknown_flags() {
        // A sweep runs in one process: `--shard` and `--merge` are usage
        // errors, not silently ignored.
        for flag in ["--shard", "--merge"] {
            let err = parse(&[flag, "0/2"]).unwrap_err();
            assert!(err.contains("unknown argument"), "{err}");
        }
        let err = parse(&["--frob"]).unwrap_err();
        assert!(err.contains("test-usage"));
        assert!(parse(&["--workers", "0"]).is_err());
        assert!(parse(&["--out"]).is_err(), "--out needs a value");
    }
}
