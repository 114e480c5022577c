//! Repo task runner (`cargo run -p qvisor-xtask -- <task>`).
//!
//! The only task so far is `lint`: a determinism lint over the simulation
//! crates (`sim`, `netsim`, `scheduler`, `core`). Everything inside a
//! simulation must be a pure function of the scenario and its seed, so the
//! lint refuses:
//!
//! - **wall-clock reads** — `std::time::Instant` / `SystemTime` (simulation
//!   time is `Nanos`; host time differs run-to-run),
//! - **ambient randomness** — `thread_rng`, `rand::random`, `OsRng`
//!   (derive a stream from `SimRng::seed_from(seed).derive(label)` instead),
//! - **iteration over hash containers** — `HashMap`/`HashSet` iteration
//!   order is randomized per process, so any fold, merge, or report built
//!   from it diverges between identical runs (use `BTreeMap`/`BTreeSet`,
//!   or sort before consuming),
//! - **detached threads** — `std::thread::spawn` creates a thread whose
//!   lifetime and scheduling are unobservable; a simulation is one thread,
//!   and independent simulations fan out through
//!   `qvisor_sim::ordered_par_map` (`std::thread::scope` workers, joined,
//!   results in index order).
//!
//! Sanctioned exceptions carry an inline waiver comment on the offending
//! line: `// determinism: allowed (<why>)`. The current waivers are the
//! self-profiler's wall-clock reads (host cost of synthesis, stripped from
//! deterministic exports) and the detached I/O threads of the serve daemon
//! and the telemetry snapshot bus, which never feed simulation state.
//!
//! By repo convention test modules sit at the bottom of a file behind
//! `#[cfg(test)]`; the lint stops scanning a file at that marker.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crate source trees (or single files) that must stay deterministic.
/// The telemetry crate is only partially listed: the registry itself is
/// observability plumbing, but the SLO monitor, the Prometheus renderer,
/// and the snapshot bus feed deterministic exports and alert sim-times,
/// so they are held to the same standard as the simulation.
const LINT_ROOTS: &[&str] = &[
    "crates/sim/src",
    "crates/netsim/src",
    "crates/scheduler/src",
    "crates/core/src",
    "crates/serve/src",
    "crates/fuzz/src",
    "crates/topology/src",
    "crates/telemetry/src/monitor.rs",
    "crates/telemetry/src/prometheus.rs",
    "crates/telemetry/src/stream.rs",
];

/// Inline waiver marker: a finding on a line carrying this comment is
/// sanctioned.
const WAIVER: &str = "determinism: allowed";

/// Forbidden tokens with the reason they are forbidden. Longest-prefix
/// entries first so a line reports the most specific match only.
const FORBIDDEN: &[(&str, &str)] = &[
    (
        "std::time::Instant",
        "wall-clock read; simulations must use simulation time (Nanos)",
    ),
    (
        "std::time::SystemTime",
        "wall-clock read; simulations must use simulation time (Nanos)",
    ),
    (
        "Instant::now",
        "wall-clock read; simulations must use simulation time (Nanos)",
    ),
    (
        "SystemTime::now",
        "wall-clock read; simulations must use simulation time (Nanos)",
    ),
    (
        "thread_rng",
        "ambient RNG; derive a stream from SimRng::seed_from(seed).derive(label)",
    ),
    (
        "rand::random",
        "ambient RNG; derive a stream from SimRng::seed_from(seed).derive(label)",
    ),
    (
        "OsRng",
        "ambient RNG; derive a stream from SimRng::seed_from(seed).derive(label)",
    ),
    (
        "std::thread::spawn",
        "detached thread; run independent simulations through \
         qvisor_sim::ordered_par_map (std::thread::scope workers, joined)",
    ),
];

/// Methods whose call on a hash container iterates it in randomized order.
const HASH_ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// One lint finding.
#[derive(Debug, PartialEq, Eq)]
struct Finding {
    /// Path relative to the repo root.
    path: String,
    /// 1-based line number.
    line: usize,
    /// What is wrong and what to do instead.
    msg: String,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown task '{other}'\n\nUSAGE:\n    cargo run -p qvisor-xtask -- lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("no task given\n\nUSAGE:\n    cargo run -p qvisor-xtask -- lint");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    // The binary may be invoked from anywhere; anchor on the manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels under the repo root")
        .to_path_buf();
    let mut files = Vec::new();
    for tree in LINT_ROOTS {
        collect_rs_files(&root.join(tree), &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .display()
            .to_string();
        findings.extend(scan_source(&rel, &text));
    }
    if findings.is_empty() {
        println!("determinism lint: OK ({} files)", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{}:{}: {}", f.path, f.line, f.msg);
        }
        eprintln!("determinism lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    // A root may name a single file instead of a tree.
    if dir.is_file() {
        if dir.extension().is_some_and(|e| e == "rs") {
            out.push(dir.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strip `//` comments and the bodies of string literals from a line,
/// leaving only code that can actually execute. Keeps the line length
/// roughly stable so findings still point at real columns.
fn code_of(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Mark every line belonging to a `#[cfg(test)]`-gated item (the attribute
/// itself, then either a one-line `mod tests;` declaration or the whole
/// braced block). Test code may freely use hash iteration or host time.
fn test_mask(text: &str) -> Vec<bool> {
    let lines: Vec<&str> = text.lines().collect();
    let mut skip = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() != "#[cfg(test)]" {
            i += 1;
            continue;
        }
        skip[i] = true;
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut opened = false;
        while j < lines.len() {
            skip[j] = true;
            let code = code_of(lines[j]);
            for c in code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            if (opened && depth == 0) || (!opened && code.contains(';')) {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    skip
}

/// Lint one source file.
fn scan_source(path: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let skip = test_mask(text);

    // Pass 1: names bound to hash containers (lets, struct fields).
    let mut hash_idents: BTreeSet<String> = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        if skip[i] {
            continue;
        }
        let code = code_of(line);
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        if let Some(name) = binding_name(&code) {
            hash_idents.insert(name);
        }
    }

    // Pass 2: forbidden tokens and iteration over collected idents. A
    // waiver sanctions its own line, or — since rustfmt relocates
    // trailing comments — the line directly below it.
    let lines: Vec<&str> = text.lines().collect();
    for (i, &line) in lines.iter().enumerate() {
        if skip[i] {
            continue;
        }
        if line.contains(WAIVER) || (i > 0 && lines[i - 1].contains(WAIVER)) {
            continue;
        }
        let code = code_of(line);
        if let Some((token, why)) = FORBIDDEN.iter().find(|(token, _)| code.contains(token)) {
            findings.push(Finding {
                path: path.to_string(),
                line: i + 1,
                msg: format!("forbidden `{token}`: {why}"),
            });
            continue;
        }
        for ident in &hash_idents {
            if iterates_ident(&code, ident) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: i + 1,
                    msg: format!(
                        "iteration over hash container `{ident}`: order is \
                         randomized per process; use BTreeMap/BTreeSet or sort first"
                    ),
                });
                break;
            }
        }
    }
    findings
}

/// The identifier a `HashMap`/`HashSet` is bound to on this line, if any:
/// `let [mut] name[: T] = ...` or a `name: HashMap<...>` field/argument.
fn binding_name(code: &str) -> Option<String> {
    if let Some(pos) = code.find("let ") {
        let rest = code[pos + 4..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        return (!name.is_empty()).then_some(name);
    }
    // Field or argument form: the ident immediately before the `:` that
    // precedes the container type.
    let ty = code.find("HashMap").or_else(|| code.find("HashSet"))?;
    let before = code[..ty].trim_end();
    let before = before.strip_suffix(':')?.trim_end();
    let name: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!name.is_empty() && !name.chars().next().unwrap().is_numeric()).then_some(name)
}

/// Does this line iterate `ident`? Catches method-based iteration
/// (`ident.iter()`, `.keys()`, ...) and `for .. in [&[mut ]]ident`.
fn iterates_ident(code: &str, ident: &str) -> bool {
    for method in HASH_ITER_METHODS {
        let needle = format!("{ident}{method}");
        if let Some(pos) = code.find(&needle) {
            // Word boundary on the left so `my_map.iter()` doesn't match `map`.
            let boundary = pos == 0
                || !code[..pos]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if boundary {
                return true;
            }
        }
    }
    if let Some(pos) = code.find(" in ") {
        let target = code[pos + 4..].trim_start();
        let target = target.strip_prefix('&').unwrap_or(target);
        let target = target.strip_prefix("mut ").unwrap_or(target);
        let name: String = target
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name == ident {
            // `for (k, v) in map {` iterates; `for k in map.keys_sorted()`
            // resolves through a method, judged by the method list above.
            let after = target[name.len()..].trim_start();
            return !after.starts_with('.');
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_wall_clock_and_ambient_rng() {
        let src =
            "fn f() {\n    let t = std::time::Instant::now();\n    let r = thread_rng();\n}\n";
        let f = scan_source("x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].msg.contains("std::time::Instant"));
        assert_eq!(f[0].line, 2);
        assert!(f[1].msg.contains("thread_rng"));
    }

    #[test]
    fn detached_threads_are_flagged_but_scoped_ones_are_not() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n    \
                   std::thread::scope(|scope| { scope.spawn(|| {}); });\n}\n";
        let f = scan_source("x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].msg.contains("std::thread::spawn"));
    }

    #[test]
    fn waiver_comment_sanctions_a_line() {
        let src = "let t = std::time::Instant::now(); // determinism: allowed (profiler)\n";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn waiver_comment_on_the_preceding_line_also_sanctions() {
        // rustfmt relocates trailing comments, so a standalone waiver
        // directly above the offending line counts too.
        let src = "// determinism: allowed (daemon I/O)\nstd::thread::spawn(|| {});\n";
        assert!(scan_source("x.rs", src).is_empty());
        let src = "// determinism: allowed (daemon I/O)\nfn gap() {}\nstd::thread::spawn(|| {});\n";
        assert_eq!(scan_source("x.rs", src).len(), 1, "waiver must be adjacent");
    }

    #[test]
    fn comments_and_strings_do_not_trip() {
        let src = "// std::time::Instant is forbidden\nlet s = \"thread_rng\";\n";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn flags_hash_iteration_but_not_lookup() {
        let src = "let by_name: HashMap<&str, u32> = HashMap::new();\n\
                   let hit = by_name.get(\"x\");\n\
                   for (k, v) in &by_name {\n\
                   let ks: Vec<_> = by_name.keys().collect();\n";
        let f = scan_source("x.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
        assert!(f[0].msg.contains("by_name"));
    }

    #[test]
    fn field_bindings_are_tracked() {
        let src = "struct S {\n    chains: HashMap<u16, u64>,\n}\n\
                   fn f(s: &S) { for c in s.chains.values() {} }\n";
        let f = scan_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("chains"));
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_test_mod_declaration_is_still_scanned() {
        let src = "#[cfg(test)]\nmod differential;\n\
                   fn f() { let t = std::time::Instant::now(); }\n";
        let f = scan_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn longer_token_wins_and_lines_dedupe() {
        let src = "let t = std::time::Instant::now();\n";
        let f = scan_source("x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("`std::time::Instant`"));
    }
}
