//! Repo task runner (`cargo run -p qvisor-xtask -- <task>`).
//!
//! Three tasks: `lint` and `dead-pub` (below), and `bench-pairs`, which
//! measures a performance claim as alternating parent/change pairs (see
//! [`bench_pairs`]). `lint` is a determinism lint
//! over the simulation crates (`sim`, `netsim`, `scheduler`, `core`, …).
//! Everything inside a
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
//!
//! `dead-pub` flags a `pub` item in `crates/*/src` that no code outside
//! its own file names: an orphan left behind when its last caller went,
//! or an item that should be private. A reference counts only from
//! non-test code (the same `#[cfg(test)]` mask; integration tests do not
//! count) in the workspace's sources, benches, examples and the benchmark
//! (`benchmark/src`); `use` lines are not references, so a re-export alone
//! does not keep an item alive. Deliberate API with no such caller is
//! listed in [`DEAD_PUB_ALLOWED`] with its reason. The scan is textual —
//! an identifier named anywhere else keeps every item of that name alive
//! — so it misses some orphans, but every finding is real. An indented
//! `pub fn` (a method or an associated fn) is kept alive only by a `.name`
//! or `::name` elsewhere, so a local or a field that shares a common
//! method name (`cell`, `stat`) does not hide it.

mod bench_pairs;

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
    let usage = format!(
        "USAGE:\n    cargo run -p qvisor-xtask -- lint\n    \
         cargo run -p qvisor-xtask -- dead-pub\n    {}",
        bench_pairs::USAGE
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("dead-pub") => dead_pub(),
        Some("bench-pairs") => bench_pairs::bench_pairs(&repo_root(), &args[1..]),
        Some(other) => {
            eprintln!("unknown task '{other}'\n\n{usage}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("no task given\n\n{usage}");
            ExitCode::FAILURE
        }
    }
}

/// The repository root. The binary may be invoked from anywhere; anchor
/// on the manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels under the repo root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let sources = match read_sources(LINT_ROOTS) {
        Ok(sources) => sources,
        Err(code) => return code,
    };
    let findings = (sources.iter())
        .flat_map(|(path, text)| scan_source(path, text))
        .collect();
    report("determinism lint", sources.len(), findings)
}

fn dead_pub() -> ExitCode {
    let mut sources = match read_sources(REFERENCE_ROOTS) {
        Ok(sources) => sources,
        Err(code) => return code,
    };
    // Integration tests (a `tests` directory) and out-of-line test modules
    // (`#[cfg(test)] mod tests;`, a `tests.rs`) are test code.
    sources.retain(|(path, _)| !path.split('/').any(|c| c == "tests" || c == "tests.rs"));
    report("dead-pub lint", sources.len(), dead_pub_findings(&sources))
}

/// `(path from the repo root, text)` of every `.rs` file under `trees`,
/// sorted.
fn read_sources(trees: &[&str]) -> Result<Vec<(String, String)>, ExitCode> {
    let root = repo_root();
    let mut files = Vec::new();
    for tree in trees {
        collect_rs_files(&root.join(tree), &mut files);
    }
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let rel = file.strip_prefix(&root).unwrap_or(&file);
        match std::fs::read_to_string(&file) {
            Ok(text) => sources.push((rel.display().to_string(), text)),
            Err(e) => {
                eprintln!("cannot read {}: {e}", file.display());
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(sources)
}

/// Print a lint's findings (or its all-clear) and its exit code.
fn report(lint: &str, files: usize, findings: Vec<Finding>) -> ExitCode {
    if findings.is_empty() {
        println!("{lint}: OK ({files} files)");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("{}:{}: {}", f.path, f.line, f.msg);
    }
    eprintln!("{lint}: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

/// `pub` items with no caller outside their own file that are kept on
/// purpose, as `(file under crates/, item)`, each with why.
const DEAD_PUB_ALLOWED: &[(&str, &str)] = &[
    // Test-only reference selector: the heap event core checks the calendar.
    ("netsim/src/scenario/engine.rs", "with_event_core"),
    // The rule the observer-byte tests strip a telemetry export by.
    ("netsim/src/scenario/sweep.rs", "sanitize_export"),
    // Test-only reference selector: the policy a transform is checked against.
    ("netsim/src/sim/mod.rs", "joint_policy"),
    // Drop localisation in the report, read by the behaviour tests.
    ("netsim/src/report.rs", "hotspots"),
    // A hand-built chain, for the verifier's mutation and property tests.
    ("core/src/transform.rs", "from_ops"),
    // The adapted queue bounds, whose order the property tests check.
    ("scheduler/src/sp_pifo.rs", "bounds"),
    // The minimal rank context other crates' unit tests build.
    ("ranking/src/ctx.rs", "simple"),
    // The alert counts and sim-times the SLO tests read.
    ("telemetry/src/monitor.rs", "alerts_fired"),
    ("telemetry/src/monitor.rs", "alert_events"),
    // The quantile error bound the histogram and SLO sketch tests check.
    ("sim/src/stats.rs", "bucket_width"),
    // A site's aggregate, which the scheduler's and simulator's tests read.
    ("telemetry/src/profile.rs", "stat"),
];

/// Where a reference may come from: every non-test source tree that links
/// the workspace's crates.
const REFERENCE_ROOTS: &[&str] = &["crates", "src", "examples", "benchmark/src"];

/// Item kinds `dead-pub` judges. `mod` is left out (a dead module's items
/// are flagged themselves), and so are fields and `use` re-exports.
const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// The `pub` items of `crates/*/src` files among `sources` (path, text)
/// that no other file names, less [`DEAD_PUB_ALLOWED`].
fn dead_pub_findings(sources: &[(String, String)]) -> Vec<Finding> {
    let live: Vec<Vec<Option<String>>> = sources.iter().map(|(_, text)| live_code(text)).collect();
    let refs: Vec<References> = live.iter().map(|code| referenced_idents(code)).collect();
    let mut findings = Vec::new();
    for (i, (path, _)) in sources.iter().enumerate() {
        let in_crate_src = path.starts_with("crates/") && path.contains("/src/");
        if !in_crate_src {
            continue;
        }
        let interface = interface_idents(&live[i]);
        for (line, code) in live[i].iter().enumerate() {
            let Some((kind, name)) = code.as_deref().and_then(pub_item) else {
                continue;
            };
            // A type a public signature of its own file names is part of
            // that signature's interface: it cannot be private.
            let value = matches!(kind, "fn" | "const" | "static");
            // An indented `pub fn` is a method or an associated fn: it is
            // called as `.name` or `::name`, so a bare `name` elsewhere (a
            // local, a field, a free fn) does not keep it alive.
            let member = kind == "fn" && code.as_deref().is_some_and(|c| c.starts_with(' '));
            let named_in = |refs: &References| match member {
                true => refs.members.contains(&name),
                false => refs.names.contains(&name),
            };
            let named_elsewhere = (!value && interface.contains(&name))
                || (refs.iter().enumerate()).any(|(j, refs)| j != i && named_in(refs));
            let allowed = (DEAD_PUB_ALLOWED.iter())
                .any(|(file, item)| path == &format!("crates/{file}") && *item == name);
            if !named_elsewhere && !allowed {
                findings.push(Finding {
                    path: path.clone(),
                    line: line + 1,
                    msg: format!(
                        "`pub {kind} {name}` is named nowhere outside this file: \
                         make it private or delete it"
                    ),
                });
            }
        }
    }
    findings
}

/// A file's non-test code, line by line: `None` on a line of a
/// `#[cfg(test)]` item, else the line's code (see [`code_lines`]).
fn live_code(text: &str) -> Vec<Option<String>> {
    let code = code_lines(text);
    let skip = test_mask(&code);
    code.into_iter()
        .zip(skip)
        .map(|(code, test)| (!test).then_some(code))
        .collect()
}

/// The kind and name of the `pub` item one line of code defines, if any.
/// Restricted visibility (`pub(crate)`, `pub(super)`) is not `pub`.
fn pub_item(code: &str) -> Option<(&'static str, String)> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let mut words = rest.split_whitespace().peekable();
    // Qualifiers between `pub` and the item keyword (an ABI string is
    // already stripped from the code).
    let qualifier = |w: &str| matches!(w, "const" | "async" | "unsafe" | "extern");
    while words.peek().is_some_and(|w| qualifier(w))
        && words
            .clone()
            .nth(1)
            .is_some_and(|w| w == "fn" || qualifier(w))
    {
        words.next();
    }
    let keyword = words.next()?;
    let kind = ITEM_KINDS.iter().copied().find(|k| *k == keyword)?;
    let name: String = words
        .next()
        .unwrap_or("")
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some((kind, name))
}

/// Every identifier named in a public signature of `live` other than the
/// name it defines: a `pub fn` from its line to the `{` or `;` that ends
/// the signature, a `pub` field, an enum variant's payload.
fn interface_idents(live: &[Option<String>]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut in_signature = false;
    for code in live.iter().flatten() {
        let trimmed = code.trim_start();
        let starts = trimmed.starts_with("pub ") && !trimmed.starts_with("pub use ");
        // An enum variant (`Name(..)`, `Name { .. }`) inside a pub enum is
        // as public as the enum; its payload is named here too.
        let variant = trimmed.starts_with(|c: char| c.is_ascii_uppercase())
            && (trimmed.contains('(') || trimmed.contains('{'));
        if !(in_signature || starts || variant) {
            continue;
        }
        let own = pub_item(trimmed).map(|(_, name)| name);
        names.extend(
            idents_of(code)
                .filter(|w| Some(*w) != own.as_deref())
                .map(String::from),
        );
        // A `pub fn` signature runs to the `{` or `;` that ends it; a field,
        // a variant or any other one-line item ends with its line.
        let ends = code.contains('{') || code.contains(';');
        in_signature = !ends && (in_signature || (starts && trimmed.contains(" fn ")));
    }
    names
}

/// The identifiers of one line of code, in order.
fn idents_of(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// The identifiers a file's code names.
#[derive(Default)]
struct References {
    /// Every identifier.
    names: BTreeSet<String>,
    /// Those right after a `.` or a `::`: methods, fields and path members.
    members: BTreeSet<String>,
}

/// Every identifier named on a non-test, non-`use` line of `live`.
/// Comments and string literals are not code (see [`code_lines`]); a `use`
/// statement imports or re-exports a name without using it.
fn referenced_idents(live: &[Option<String>]) -> References {
    let mut refs = References::default();
    let mut in_use = false;
    for code in live.iter().flatten() {
        let trimmed = code.trim_start();
        let visibility = ["pub use ", "pub(crate) use ", "pub(super) use "];
        if trimmed.starts_with("use ") || visibility.iter().any(|v| trimmed.starts_with(v)) {
            in_use = true;
        }
        if in_use {
            in_use = !code.contains(';');
            continue;
        }
        for ident in idents_of(code) {
            // Where `ident` starts in `code`, of which it is a slice.
            let before = &code[..ident.as_ptr() as usize - code.as_ptr() as usize];
            if before.ends_with('.') || before.ends_with("::") {
                refs.members.insert(ident.to_string());
            }
            refs.names.insert(ident.to_string());
        }
    }
    refs
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

/// The code of each line of `text`: `//` comments and the bodies of
/// string and char literals stripped, leaving only what can execute. A
/// literal that spans lines — a `\` continuation, a raw string — is
/// followed across them, so a brace or a token inside it is never code.
fn code_lines(text: &str) -> Vec<String> {
    // Inside a string literal: `Some(None)` a plain one, `Some(Some(n))`
    // a raw one closed by `"` and `n` hashes.
    let mut open: Option<Option<usize>> = None;
    let mut out = Vec::new();
    for line in text.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(line.len());
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match open {
                Some(None) => {
                    match c {
                        '\\' => i += 1,
                        '"' => open = None,
                        _ => {}
                    }
                    i += 1;
                }
                Some(Some(n)) => {
                    let closes =
                        c == '"' && chars[i + 1..].iter().take_while(|&&h| h == '#').count() >= n;
                    if closes {
                        open = None;
                        i += n;
                    }
                    i += 1;
                }
                None => {
                    let raw = (c == 'r')
                        .then(|| chars[i + 1..].iter().take_while(|&&h| h == '#').count())
                        .filter(|&n| chars.get(i + 1 + n) == Some(&'"'))
                        .filter(|_| match i.checked_sub(1).map(|p| chars[p]) {
                            Some(p) => p == 'b' || !(p.is_alphanumeric() || p == '_'),
                            None => true,
                        });
                    if let Some(n) = raw {
                        open = Some(Some(n));
                        i += n + 2;
                    } else if c == '"' {
                        open = Some(None);
                        i += 1;
                    } else if c == '/' && chars.get(i + 1) == Some(&'/') {
                        break;
                    } else if c == '\'' && chars.get(i + 1) == Some(&'\\') {
                        // An escaped char literal: skip to its closing quote.
                        let close = chars[i + 2..].iter().position(|&q| q == '\'');
                        i += close.map_or(1, |p| p + 3);
                    } else if c == '\'' && chars.get(i + 2) == Some(&'\'') {
                        i += 3;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push(code);
    }
    out
}

/// Mark every line belonging to a `#[cfg(test)]`-gated item (the attribute
/// itself, then either a one-line `mod tests;` declaration or the whole
/// braced block). Test code may freely use hash iteration or host time.
fn test_mask(code: &[String]) -> Vec<bool> {
    let mut skip = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].trim() != "#[cfg(test)]" {
            i += 1;
            continue;
        }
        skip[i] = true;
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut opened = false;
        while j < code.len() {
            skip[j] = true;
            let code = &code[j];
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
    let code_lines = code_lines(text);
    let skip = test_mask(&code_lines);

    // Pass 1: names bound to hash containers (lets, struct fields).
    let mut hash_idents: BTreeSet<String> = BTreeSet::new();
    for (i, code) in code_lines.iter().enumerate() {
        if skip[i] {
            continue;
        }
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        if let Some(name) = binding_name(code) {
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
        let code = &code_lines[i];
        if let Some((token, why)) = FORBIDDEN.iter().find(|(token, _)| code.contains(token)) {
            findings.push(Finding {
                path: path.to_string(),
                line: i + 1,
                msg: format!("forbidden `{token}`: {why}"),
            });
            continue;
        }
        for ident in &hash_idents {
            if iterates_ident(code, ident) {
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

    fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect()
    }

    #[test]
    fn dead_pub_flags_an_item_no_other_file_names() {
        // The orphan a deleted caller leaves behind.
        let src = sources(&[
            (
                "crates/demo/src/snapshot.rs",
                "pub fn write_snapshot() {}\npub fn write_trace_snapshot() {}\n",
            ),
            (
                "crates/demo/src/bin/fig4.rs",
                "fn main() { write_snapshot(); }\n",
            ),
        ]);
        let f = dead_pub_findings(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/demo/src/snapshot.rs");
        assert_eq!(f[0].line, 2);
        assert!(f[0].msg.contains("`pub fn write_trace_snapshot`"), "{f:?}");
    }

    #[test]
    fn dead_pub_counts_no_test_code_comment_string_or_use_line() {
        let src = sources(&[
            ("crates/a/src/lib.rs", "pub mod x;\npub use x::helper;\n"),
            ("crates/a/src/x.rs", "pub fn helper() {}\n"),
            (
                "crates/b/src/lib.rs",
                "use a::helper;\n// helper()\nfn f() { let s = \"helper\"; }\n\
                 #[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\n",
            ),
        ]);
        let f = dead_pub_findings(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("helper"));
        // Outside `crates/*/src` a definition is not judged, but a use is
        // a reference.
        let src = sources(&[
            ("crates/a/src/x.rs", "pub fn helper() {}\n"),
            ("benchmark/src/main.rs", "fn main() { a::helper(); }\n"),
        ]);
        assert!(dead_pub_findings(&src).is_empty());
    }

    #[test]
    fn dead_pub_keeps_types_of_a_public_signature_and_restricted_items() {
        let src = sources(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Report {\n    pub rows: Vec<Row>,\n}\npub struct Row;\n\
                 pub enum Outcome {\n    Done(Detail),\n}\npub struct Detail;\n\
                 pub fn run(\n    n: u32,\n) -> Report {\n    todo!()\n}\n\
                 pub(crate) fn internal() {}\npub fn outcome() -> Outcome { todo!() }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn f() { a::run(1); a::outcome(); }\n",
            ),
        ]);
        let f = dead_pub_findings(&src);
        assert!(f.is_empty(), "{f:?}");
        // A type only used privately in its file is flagged.
        let src = sources(&[(
            "crates/a/src/lib.rs",
            "pub struct Scratch;\nfn f() { let _s = Scratch; }\n",
        )]);
        assert_eq!(dead_pub_findings(&src).len(), 1);
    }

    #[test]
    fn a_method_is_kept_alive_only_by_a_member_reference() {
        let plane = (
            "crates/a/src/plane.rs",
            "pub struct Plane;\nimpl Plane {\n    pub fn new() -> Plane { Plane }\n    \
             pub fn cell(&self) -> u8 { 0 }\n}\n",
        );
        // A local, a field and a free fn of the same name call no method.
        let bare = "fn f(s: S) {\n    let cell = 1;\n    cell();\n    s.x = S { cell };\n    \
                    let _p = a::Plane::new();\n}\n";
        let f = dead_pub_findings(&sources(&[plane, ("crates/b/src/lib.rs", bare)]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            (f[0].path.as_str(), f[0].line),
            ("crates/a/src/plane.rs", 4)
        );
        assert!(f[0].msg.contains("`pub fn cell`"), "{f:?}");
        // A method call, a path and a call on the next line of a chain do.
        for call in [
            "let _ = p.cell();",
            "let _ = Plane::cell(&p);",
            "let _ = p\n        .cell();",
        ] {
            let user = format!("fn f(p: a::Plane) {{\n    {call}\n    a::Plane::new();\n}}\n");
            let src = sources(&[plane, ("crates/b/src/lib.rs", &user)]);
            assert!(dead_pub_findings(&src).is_empty(), "{call}");
        }
        // A free `pub fn` keeps the old rule: any mention elsewhere.
        let free = sources(&[
            ("crates/a/src/lib.rs", "pub fn cell() {}\n"),
            ("crates/b/src/lib.rs", "fn f() { let g = cell; g(); }\n"),
        ]);
        assert!(dead_pub_findings(&free).is_empty());
    }

    #[test]
    fn dead_pub_honours_the_allow_list() {
        let (file, name) = DEAD_PUB_ALLOWED[0];
        let src = sources(&[(
            file,
            &format!("    pub fn {name}(self) -> Self {{ self }}\n"),
        )]);
        assert!(dead_pub_findings(&src).is_empty());
    }

    #[test]
    fn pub_item_reads_qualifiers_and_skips_fields_and_modules() {
        let src = "pub const fn a() {}\npub unsafe fn b() {}\npub const C: u8 = 1;\n\
                   pub mod d;\n    pub field: u8,\npub(crate) fn e() {}\npub type F = u8;\n";
        let items: Vec<_> = src.lines().filter_map(pub_item).collect();
        let names: Vec<_> = items.iter().map(|(k, n)| (*k, n.as_str())).collect();
        assert_eq!(
            names,
            [("fn", "a"), ("fn", "b"), ("const", "C"), ("type", "F")]
        );
    }

    #[test]
    fn literals_are_not_code_even_across_lines() {
        let src = "let a = r#\"} \"x\" {\"#; let b = '}'; let c = '\\'';\n\
                   let s = \"one \\\n two } std::time::Instant\";\n\
                   let d = br\"{\"; // }\n";
        let code = code_lines(src);
        assert_eq!(code.len(), 4);
        assert!(
            code.iter().all(|c| !c.contains('{') && !c.contains('}')),
            "{code:?}"
        );
        assert!(code[0].contains("let c ="), "{code:?}");
        assert!(!code[2].contains("Instant"), "{code:?}");
        assert_eq!(code[3].trim_end(), "let d = b;", "{code:?}");
        // A test module holding a brace in a raw string is masked whole.
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = r\"}\";\n    \
                   fn t() { let x = std::time::Instant::now(); }\n}\n";
        assert!(scan_source("x.rs", src).is_empty());
    }
}
