//! The one-shot reproduction of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p notebookos-bench --bin repro               # every section
//! cargo run --release -p notebookos-bench --bin repro fig08 fig12   # just those bodies
//! ```
//!
//! With no argument it prints every entry of
//! [`FIGURES`](notebookos_bench::figures::FIGURES) under a
//! `################ name ################` banner — byte for byte
//! `tests/golden/repro.txt`, which CI `cmp`s against. It runs in one
//! process, generates each trace once and simulates each (policy, trace)
//! pair once (2 traces + 8 simulations); a killed reproduction is run
//! again. An unknown name exits 2 with the list.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    ExitCode::from(notebookos_bench::figures::repro(
        &args,
        &mut stdout.lock(),
        &mut std::io::stderr(),
    ))
}
