//! AST-based identification of replicable kernel state (§3.2.4).
//!
//! After executing a cell, the executor replica analyzes the submitted code
//! to decide which interpreter state must be synchronized to the standby
//! replicas: small globals travel through the Raft log directly, while
//! large objects (models, datasets) are checkpointed to the Distributed
//! Data Store and only a pointer enters the log.
//!
//! The reproduction implements a Python *assignment-level* analyzer: a
//! single-pass scanner that extracts the top-level bindings a cell creates
//! (assignments, augmented assignments, tuple targets, imports, `def`/
//! `class` statements). That is exactly the signal the synchronization
//! protocol consumes — which names changed and roughly how big they are —
//! without dragging in a full Python grammar.

use std::collections::BTreeSet;

/// How large a binding is expected to be, which selects its replication
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingClass {
    /// Scalars, small containers, functions — replicated via Raft SMR.
    Small,
    /// Models/datasets/tensors — checkpointed to the data store; the Raft
    /// log carries a pointer.
    Large,
}

/// One binding the cell (re)defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The global name.
    pub name: String,
    /// Replication class.
    pub class: BindingClass,
}

/// The analysis result for one executed cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateUpdate {
    /// Bindings replicated through the Raft log.
    pub small: Vec<String>,
    /// Bindings checkpointed to the data store.
    pub large: Vec<String>,
}

impl StateUpdate {
    /// Total number of touched bindings.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.small.len() + self.large.len()
    }

    /// Whether the cell bound nothing (pure expression cells).
    pub fn is_empty(&self) -> bool {
        self.small.is_empty() && self.large.is_empty()
    }
}

/// Names that heuristically hold large objects. The prototype inspects
/// runtime types; statically, the well-known training-loop names cover the
/// models/datasets of Table 1.
const LARGE_NAME_HINTS: [&str; 10] = [
    "model",
    "net",
    "dataset",
    "train_data",
    "test_data",
    "weights",
    "checkpoint",
    "embeddings",
    "corpus",
    "tokenizer",
];

/// Calls whose results are large regardless of the target name.
const LARGE_CALL_HINTS: [&str; 6] = [
    "load_dataset",
    "DataLoader",
    "from_pretrained",
    "torch.load",
    "load_state_dict",
    "read_corpus",
];

fn classify(name: &str, rhs: &str) -> BindingClass {
    let lowered = name.to_ascii_lowercase();
    if LARGE_NAME_HINTS.iter().any(|h| lowered.contains(h)) {
        return BindingClass::Large;
    }
    if LARGE_CALL_HINTS.iter().any(|h| rhs.contains(h)) {
        return BindingClass::Large;
    }
    BindingClass::Small
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Strips an inline `#` comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_single = false;
    let mut in_double = false;
    for (i, c) in line.char_indices() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            '#' if !in_single && !in_double => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Analyzes one cell of Python-like code and returns the bindings it
/// creates at module (kernel-namespace) scope.
///
/// Indented lines are skipped: they execute inside a suite whose bindings
/// are local, mirroring how the kernel namespace only holds module-level
/// names.
pub fn analyze_cell(code: &str) -> StateUpdate {
    let mut bindings: Vec<Binding> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut push = |name: &str, class: BindingClass, bindings: &mut Vec<Binding>| {
        if is_identifier(name) && seen.insert(name.to_string()) {
            bindings.push(Binding {
                name: name.to_string(),
                class,
            });
        }
    };

    for raw in code.lines() {
        if raw.starts_with(' ') || raw.starts_with('\t') {
            continue; // suite-local, not kernel namespace
        }
        let line = strip_comment(raw).trim_end();
        if line.is_empty() {
            continue;
        }

        // import x / import x as y / from m import a, b as c
        if let Some(rest) = line.strip_prefix("import ") {
            for part in rest.split(',') {
                let part = part.trim();
                let name = match part.split_once(" as ") {
                    Some((_, alias)) => alias.trim(),
                    None => part.split('.').next().unwrap_or(part).trim(),
                };
                push(name, BindingClass::Small, &mut bindings);
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("from ") {
            if let Some((_, imports)) = rest.split_once(" import ") {
                for part in imports.split(',') {
                    let part = part.trim();
                    let name = match part.split_once(" as ") {
                        Some((_, alias)) => alias.trim(),
                        None => part,
                    };
                    push(name, BindingClass::Small, &mut bindings);
                }
            }
            continue;
        }

        // def f(...): / class C(...):
        if let Some(rest) = line.strip_prefix("def ") {
            if let Some(name) = rest.split('(').next() {
                push(name.trim(), BindingClass::Small, &mut bindings);
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("class ") {
            let name = rest.split(['(', ':']).next().unwrap_or("").trim();
            push(name, BindingClass::Small, &mut bindings);
            continue;
        }

        // Assignments. Find the first `=` that is not `==`, `<=`, `>=`,
        // `!=` and not inside parentheses (a call's kwargs).
        if let Some(eq) = find_assignment_eq(line) {
            let (targets, rhs) = line.split_at(eq);
            let rhs = &rhs[1..];
            // Augmented assignment: `x += 1` → target before the operator.
            let targets = targets.trim_end_matches(['+', '-', '*', '/', '%', '&', '|', '^']);
            for target in targets.split(',') {
                let target = target.trim();
                // Skip attribute/subscript targets: they mutate an existing
                // object rather than binding a new global.
                if target.contains('.') || target.contains('[') {
                    continue;
                }
                push(target, classify(target, rhs), &mut bindings);
            }
        }
    }

    let mut update = StateUpdate::default();
    for b in bindings {
        match b.class {
            BindingClass::Small => update.small.push(b.name),
            BindingClass::Large => update.large.push(b.name),
        }
    }
    update
}

/// Index of the assignment `=` at paren depth 0, if any.
fn find_assignment_eq(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'=' if depth == 0 => {
                let prev = if i > 0 { bytes[i - 1] } else { b' ' };
                let next = if i + 1 < bytes.len() {
                    bytes[i + 1]
                } else {
                    b' '
                };
                if next == b'=' {
                    i += 2;
                    continue;
                }
                if matches!(prev, b'<' | b'>' | b'!' | b'=') {
                    i += 1;
                    continue;
                }
                return Some(i);
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_assignments() {
        let u = analyze_cell("x = 1\ny = x + 2\n");
        assert_eq!(u.small, vec!["x", "y"]);
        assert!(u.large.is_empty());
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn large_objects_by_name_and_call() {
        let u = analyze_cell(
            "model = VGG16()\ntrain_data = load_dataset('cifar10')\nbatch = next(iter(loader))\n",
        );
        assert_eq!(u.large, vec!["model", "train_data"]);
        assert_eq!(u.small, vec!["batch"]);
    }

    #[test]
    fn rhs_call_hint_marks_large() {
        let u = analyze_cell("m = torch.load('ckpt.pt')\n");
        assert_eq!(u.large, vec!["m"]);
    }

    #[test]
    fn imports_and_defs_are_small_state() {
        let u = analyze_cell(
            "import torch\nimport numpy as np\nfrom torch import nn, optim as opt\ndef train_step(b):\n    pass\nclass Trainer:\n    pass\n",
        );
        assert_eq!(
            u.small,
            vec!["torch", "np", "nn", "opt", "train_step", "Trainer"]
        );
    }

    #[test]
    fn indented_lines_are_suite_local() {
        let u = analyze_cell("for i in range(3):\n    acc = i\nx = 1\n");
        assert_eq!(u.small, vec!["x"]);
    }

    #[test]
    fn tuple_and_augmented_assignment() {
        let u = analyze_cell("a, b = 1, 2\nloss += 0.5\n");
        assert_eq!(u.small, vec!["a", "b", "loss"]);
    }

    #[test]
    fn attribute_and_subscript_targets_skipped() {
        let u = analyze_cell("cfg.lr = 0.1\nstats['acc'] = 0.9\nplain = 1\n");
        assert_eq!(u.small, vec!["plain"]);
    }

    #[test]
    fn comparisons_and_kwargs_are_not_assignments() {
        let u = analyze_cell("print(x == 1)\nf(lr=0.1)\nassert y <= 2\n");
        assert!(u.is_empty());
    }

    #[test]
    fn comments_and_strings_handled() {
        let u = analyze_cell("x = 1  # model = huge\ns = \"a # b\"\n");
        assert_eq!(u.small, vec!["x", "s"]);
    }

    #[test]
    fn duplicate_bindings_deduplicated() {
        let u = analyze_cell("x = 1\nx = 2\n");
        assert_eq!(u.small, vec!["x"]);
    }

    #[test]
    fn expression_cells_bind_nothing() {
        assert!(analyze_cell("model.fit(train_data)\n").is_empty());
        assert!(analyze_cell("").is_empty());
    }
}
