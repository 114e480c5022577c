//! Implementation of the `qvisor` command-line tool.
//!
//! Kept as a library module (the binary in `src/bin/qvisor.rs` is a thin
//! wrapper) so every command is unit-testable: each takes parsed inputs
//! and returns the text it would print.

use qvisor_core::{
    compile, verify, DeploymentConfig, HardwareModel, QvisorError, SpecPaths, VerifyReport,
};
use qvisor_netsim::{Engine, ScenarioError, ScenarioSpec, SweepSpec};
use std::fmt::Write as _;

/// CLI-level errors: usage problems or underlying QVISOR errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (prints usage).
    Usage(String),
    /// I/O problem reading a config file.
    Io(std::io::Error),
    /// QVISOR rejected the input.
    Qvisor(QvisorError),
    /// A telemetry export file could not be parsed.
    Telemetry(String),
    /// A scenario or sweep document was rejected.
    Scenario(ScenarioError),
    /// An output file could not be written.
    Output {
        /// The path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// `qvisor check` refuted the policy (or found warnings under
    /// `--deny-warnings`). Carries the rendered report and whether any
    /// error-severity finding exists (vs a pure warning promotion).
    Check {
        /// The rendered report text/JSONL.
        report: String,
        /// True when some report contains error-severity findings; false
        /// when the gate failed only via `--deny-warnings` promotion.
        errors: bool,
    },
    /// The control-plane daemon failed to start or run.
    Serve(String),
    /// `qvisor fuzz` found verifier-vs-simulation disagreements. Carries
    /// the campaign summary (including the minimized cases).
    Fuzz(String),
}

impl CliError {
    /// Process exit code for scripting: `0` is success, `2` a `check`
    /// gate failure with error-severity findings, `3` a `check` failure
    /// caused purely by `--deny-warnings` promotion, and `1` everything
    /// else (usage, I/O, parse errors, fuzz disagreements, ...). The
    /// serve daemon's admission scripts rely on this distinction.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Check { errors: true, .. } => 2,
            CliError::Check { errors: false, .. } => 3,
            _ => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "cannot read configuration: {e}"),
            CliError::Qvisor(e) => write!(f, "{e}"),
            CliError::Telemetry(msg) => write!(f, "invalid telemetry export: {msg}"),
            CliError::Scenario(e) => write!(f, "{e}"),
            CliError::Output { path, source } => write!(f, "cannot write {path}: {source}"),
            CliError::Check { report, .. } => write!(f, "{report}check: verification FAILED"),
            CliError::Serve(msg) => write!(f, "serve error: {msg}"),
            CliError::Fuzz(summary) => write!(f, "{summary}fuzz: conformance FAILED"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ScenarioError> for CliError {
    fn from(e: ScenarioError) -> CliError {
        CliError::Scenario(e)
    }
}

impl From<QvisorError> for CliError {
    fn from(e: QvisorError) -> CliError {
        CliError::Qvisor(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
qvisor — multi-tenant packet scheduling hypervisor (HotNets '23 reproduction)

USAGE:
    qvisor synth   <config.json>                 synthesize; show chains + verification
    qvisor compile <config.json> --queues N --rank-bits B
                                                 fit onto constrained hardware
    qvisor check <file.json>                     statically verify a policy
               [--deny-warnings] [--jsonl]       (config, scenario, or sweep)
    qvisor analyze <file.json> [...]             another name for check
    qvisor run <scenario.json>                   run a declarative scenario
               [--telemetry PATH] [--trace PATH] [--monitor PATH]
               [--deny-warnings]
    qvisor sweep <sweep.json> [--jobs N]         run a scenario grid in parallel
               [--out PATH] [--telemetry PREFIX] [--deny-warnings]
    qvisor serve <config.json>                   run the control-plane daemon
               [--listen ADDR] [--deny-warnings] (line-delimited JSON over TCP)
    qvisor monitor <addr|export.jsonl|->         live per-tenant SLO health view
                                                 (subscribes to a daemon, or
                                                 renders a JSONL export offline)
    qvisor fuzz [--seed N] [--cases N]           differential fuzz campaign:
               [--jobs N] [--out DIR]            verifier verdicts vs exact-PIFO
                                                 simulation; summary is
                                                 byte-identical at any --jobs
    qvisor telemetry report <export.jsonl>       render a telemetry export
    qvisor trace report <trace.jsonl>            latency breakdown + inversions
    qvisor trace export <trace.jsonl>            convert to Chrome/Perfetto JSON
    qvisor example                               print a starter config
    qvisor help                                  show this help (also --help, -h)

Report commands accept '-' in place of a file to read from stdin.

Scenario files describe a full simulation declaratively (topology, workloads,
schedulers, QVISOR deployment); see examples/scenarios/. Sweep files add a
grid of overrides on top of a base scenario; see examples/sweeps/. Sweep
output is byte-identical at any --jobs level. A sweep whose \"view\" is
\"fct_buckets\" (Fig. 4) or \"jain\" prints that figure's table, and --out
gets its rows. One run is one thread; --jobs
(grid points for `sweep`, cases for `fuzz`) is how the tool goes parallel.

Scenarios may declare `alerts` rules ({metric, tenant, window_ns, threshold});
`run --monitor PATH` evaluates them over sliding sim-time windows and writes
the SLO monitor export (per-tenant health plus fired/resolved alert events)
as JSONL. `monitor` renders that export — or a telemetry export, or a live
daemon's stream — as a per-tenant health table. Alert sim-times are
deterministic: identical across runs and at any --jobs level.

`check` proves (or refutes, with concrete witness rank pairs) that the
synthesized policy is overflow-free, order-preserving, and isolating —
without running a simulation. It auto-detects the file kind and checks every
grid point of a sweep. The same verifier gates `run`, `sweep` and `serve`,
and every runtime re-synthesis: errors always refuse to deploy;
--deny-warnings also refuses on warnings (for `serve`, on a withdrawal as on
a submission). `check`
also replays fuzz corpus documents (objects with `config` + `expect`).
Exit codes: 0 = gate passed, 2 = check failed with errors, 3 = check failed
only via --deny-warnings promotion, 1 = any other error.

`fuzz` generates random deployments over the full `>>`/`>`/`+` grammar,
verifies each, and differentially replays witnesses and schedules on an
exact PIFO; disagreements are minimized into replayable corpus documents
(written to --out DIR when given). Reproduce any case with the same --seed.

The config file is the Fig. 1 Configuration API as JSON:
    { \"tenants\": [ {\"id\": 1, \"name\": \"T1\", \"algorithm\": \"pFabric\",
                     \"rank_min\": 0, \"rank_max\": 100000, \"levels\": 512}, ... ],
      \"policy\": \"T1 >> T2 + T3\" }
";

/// Run the CLI against `args` (without the program name); returns the text
/// to print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("synth") => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("synth needs a config file".into()))?;
            cmd_synth(&std::fs::read_to_string(path)?)
        }
        Some("compile") => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("compile needs a config file".into()))?;
            let (queues, rank_bits) = parse_compile_flags(&args[2..])?;
            cmd_compile(&std::fs::read_to_string(path)?, queues, rank_bits)
        }
        Some(cmd @ ("check" | "analyze")) => {
            let path = args.get(1).ok_or_else(|| {
                CliError::Usage(format!("{cmd} needs a config, scenario, or sweep file"))
            })?;
            let opts = parse_check_flags(&args[2..])?;
            cmd_check(&std::fs::read_to_string(path)?, &opts)
        }
        Some("run") => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("run needs a scenario file".into()))?;
            let opts = parse_run_flags(&args[2..])?;
            cmd_run(&std::fs::read_to_string(path)?, &opts)
        }
        Some("sweep") => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("sweep needs a sweep file".into()))?;
            let opts = parse_sweep_flags(&args[2..])?;
            cmd_sweep(&std::fs::read_to_string(path)?, &opts)
        }
        Some("telemetry") => match args.get(1).map(String::as_str) {
            Some("report") => {
                let path = args.get(2).ok_or_else(|| {
                    CliError::Usage("telemetry report needs an export file".into())
                })?;
                cmd_telemetry_report(&read_input(path)?)
            }
            Some(other) => Err(CliError::Usage(format!(
                "unknown telemetry subcommand '{other}'"
            ))),
            None => Err(CliError::Usage("telemetry needs a subcommand".into())),
        },
        Some("trace") => match args.get(1).map(String::as_str) {
            Some("report") => {
                let path = args
                    .get(2)
                    .ok_or_else(|| CliError::Usage("trace report needs a trace file".into()))?;
                cmd_trace_report(&read_input(path)?)
            }
            Some("export") => {
                let path = args
                    .get(2)
                    .ok_or_else(|| CliError::Usage("trace export needs a trace file".into()))?;
                cmd_trace_export(&read_input(path)?)
            }
            Some(other) => Err(CliError::Usage(format!(
                "unknown trace subcommand '{other}'"
            ))),
            None => Err(CliError::Usage("trace needs a subcommand".into())),
        },
        Some("serve") => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("serve needs a daemon config file".into()))?;
            let opts = parse_serve_flags(&args[2..])?;
            cmd_serve(&std::fs::read_to_string(path)?, &opts)
        }
        Some("fuzz") => {
            let opts = parse_fuzz_flags(&args[1..])?;
            cmd_fuzz(&opts)
        }
        Some("monitor") => {
            let target = args.get(1).ok_or_else(|| {
                CliError::Usage("monitor needs a daemon address, an export file, or '-'".into())
            })?;
            cmd_monitor(target)
        }
        Some("example") => Ok(example_config()),
        Some("help" | "--help" | "-h") => Ok(USAGE.to_string()),
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
        None => Err(CliError::Usage("no command given".into())),
    }
}

/// Cursor over a subcommand's flag arguments: the one loop behind every
/// `parse_*_flags`.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    /// The flag [`Self::next_flag`] returned last, for error messages.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next flag, or `None` once the arguments are used up.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    fn needs(&self, what: &str) -> CliError {
        CliError::Usage(format!("{} needs {what}", self.flag))
    }

    /// The current flag's value, or the usage error `<flag> needs <what>`.
    fn value(&mut self, what: &str) -> Result<&'a str, CliError> {
        let value = self.args.next().map(String::as_str);
        value.ok_or_else(|| self.needs(what))
    }

    /// The current flag's value parsed as `T` and accepted by `ok`.
    fn parsed<T: std::str::FromStr>(
        &mut self,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, CliError> {
        let parsed = self.args.next().and_then(|v| v.parse().ok());
        parsed.filter(ok).ok_or_else(|| self.needs(what))
    }

    /// The usage error for the current flag when no arm matched it.
    fn unknown(&self) -> CliError {
        CliError::Usage(format!("unknown flag '{}'", self.flag))
    }
}

fn parse_compile_flags(args: &[String]) -> Result<(usize, u32), CliError> {
    let mut queues = 8usize;
    let mut rank_bits = 16u32;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--queues" => queues = flags.parsed("a number", |_| true)?,
            "--rank-bits" => rank_bits = flags.parsed("1..=63", |b| (1..=63).contains(b))?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok((queues, rank_bits))
}

/// Options for `qvisor serve`.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub listen: String,
    /// Reject submissions whose verification reports warnings.
    pub deny_warnings: bool,
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts {
            listen: "127.0.0.1:4733".to_string(),
            deny_warnings: false,
        }
    }
}

fn parse_serve_flags(args: &[String]) -> Result<ServeOpts, CliError> {
    let mut opts = ServeOpts::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--listen" => opts.listen = flags.value("an address")?.to_string(),
            "--deny-warnings" => opts.deny_warnings = true,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

/// `qvisor serve`: run the control-plane daemon until a client sends
/// `{"op":"shutdown"}`. The bound address is announced on stderr (so
/// scripts using `--listen 127.0.0.1:0` can discover the port) and the
/// run summary is returned for stdout.
fn cmd_serve(config_text: &str, opts: &ServeOpts) -> Result<String, CliError> {
    let config = DeploymentConfig::from_json(config_text)?;
    let daemon = qvisor_serve::Daemon::start(
        config,
        qvisor_serve::ServeOptions {
            listen: opts.listen.clone(),
            deny_warnings: opts.deny_warnings,
        },
    )
    .map_err(CliError::Serve)?;
    eprintln!("serve: listening on {}", daemon.local_addr());
    Ok(daemon.wait())
}

/// Options for `qvisor run`.
#[derive(Debug, Default)]
pub struct RunOpts {
    /// Write the telemetry export (JSONL) here.
    pub telemetry: Option<String>,
    /// Write the packet-lifecycle trace snapshot (JSONL) here.
    pub trace: Option<String>,
    /// Write the SLO monitor export (JSONL) here; enables the streaming
    /// monitor and evaluates the scenario's declared alert rules.
    pub monitor: Option<String>,
    /// Refuse to run when the verifier finds warnings (errors always refuse).
    pub deny_warnings: bool,
}

fn parse_run_flags(args: &[String]) -> Result<RunOpts, CliError> {
    let mut opts = RunOpts::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--telemetry" => opts.telemetry = Some(flags.value("a path")?.to_string()),
            "--trace" => opts.trace = Some(flags.value("a path")?.to_string()),
            "--monitor" => opts.monitor = Some(flags.value("a path")?.to_string()),
            "--deny-warnings" => opts.deny_warnings = true,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

/// Options for `qvisor check`.
#[derive(Debug, Default)]
pub struct CheckOpts {
    /// Fail on warnings too (errors always fail).
    pub deny_warnings: bool,
    /// Emit machine-readable JSONL instead of the text report.
    pub jsonl: bool,
}

fn parse_check_flags(args: &[String]) -> Result<CheckOpts, CliError> {
    let mut opts = CheckOpts::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--deny-warnings" => opts.deny_warnings = true,
            "--jsonl" => opts.jsonl = true,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

/// Options for `qvisor fuzz`.
#[derive(Clone, Debug)]
pub struct FuzzOpts {
    /// Campaign seed (every case is a pure function of `(seed, index)`).
    pub seed: u64,
    /// Number of generated deployments to check.
    pub cases: u64,
    /// Worker threads (the summary is byte-identical at any value).
    pub jobs: usize,
    /// Directory to write minimized disagreement corpus documents into.
    pub out: Option<String>,
}

impl Default for FuzzOpts {
    fn default() -> FuzzOpts {
        FuzzOpts {
            seed: qvisor_fuzz::DEFAULT_SEED,
            cases: 1000,
            jobs: 1,
            out: None,
        }
    }
}

fn parse_fuzz_flags(args: &[String]) -> Result<FuzzOpts, CliError> {
    let mut opts = FuzzOpts::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--seed" => opts.seed = flags.parsed("a number", |_| true)?,
            "--cases" => opts.cases = flags.parsed("a positive number", |&c| c >= 1)?,
            "--jobs" => opts.jobs = flags.parsed("a positive number", |&j| j >= 1)?,
            "--out" => opts.out = Some(flags.value("a directory")?.to_string()),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

/// `qvisor fuzz`: run a differential fuzz campaign — generated policies,
/// verifier verdicts, witness replays, and exact-PIFO schedule oracles —
/// and print the deterministic summary. Disagreements fail the command;
/// their minimized corpus documents are written under `--out` when given.
pub fn cmd_fuzz(opts: &FuzzOpts) -> Result<String, CliError> {
    let report = qvisor_fuzz::run_campaign(&qvisor_fuzz::CampaignOpts {
        seed: opts.seed,
        cases: opts.cases,
        jobs: opts.jobs,
    });
    let mut out = report.summary();
    if !report.conformant() {
        if let Some(dir) = &opts.out {
            std::fs::create_dir_all(dir).map_err(|source| CliError::Output {
                path: dir.clone(),
                source,
            })?;
            for f in &report.failures {
                let path = format!("{dir}/fuzz_seed{}_case{}.json", opts.seed, f.index);
                write_output(&path, &format!("{}\n", f.minimized.to_pretty()))?;
                out.push_str(&format!("wrote {path}\n"));
            }
        }
        return Err(CliError::Fuzz(out));
    }
    Ok(out)
}

/// Options for `qvisor sweep`.
#[derive(Debug)]
pub struct SweepOpts {
    /// Worker threads (grid points run one engine per thread).
    pub jobs: usize,
    /// Write the merged results document here instead of stdout.
    pub out: Option<String>,
    /// Write per-point telemetry snapshots as `PREFIX.point<i>.telemetry.jsonl`.
    pub telemetry: Option<String>,
    /// Refuse to run when the verifier finds warnings (errors always refuse).
    pub deny_warnings: bool,
}

impl Default for SweepOpts {
    fn default() -> SweepOpts {
        SweepOpts {
            jobs: 1,
            out: None,
            telemetry: None,
            deny_warnings: false,
        }
    }
}

fn parse_sweep_flags(args: &[String]) -> Result<SweepOpts, CliError> {
    let mut opts = SweepOpts::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--jobs" => opts.jobs = flags.parsed("a positive number", |&j| j >= 1)?,
            "--out" => opts.out = Some(flags.value("a path")?.to_string()),
            "--telemetry" => opts.telemetry = Some(flags.value("a prefix")?.to_string()),
            "--deny-warnings" => opts.deny_warnings = true,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(opts)
}

/// An output file, created (truncated) *before* the run whose result it
/// will hold: a mistyped `--trace /no/such/dir/t.jsonl` fails in
/// milliseconds with `cannot write <path>`, not after the simulation — or
/// a sweep's whole grid — has run and its report is thrown away.
struct OutputFile {
    path: String,
    file: std::fs::File,
}

impl OutputFile {
    fn create(path: &str) -> Result<OutputFile, CliError> {
        let path = path.to_string();
        match std::fs::File::create(&path) {
            Ok(file) => Ok(OutputFile { path, file }),
            Err(source) => Err(CliError::Output { path, source }),
        }
    }

    fn write(self, contents: &str) -> Result<(), CliError> {
        use std::io::Write as _;
        self.stream(|out| out.write_all(contents.as_bytes()))
    }

    /// Let `render` write the contents through a buffer, so they never
    /// have to be whole in memory.
    fn stream(
        self,
        render: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
    ) -> Result<(), CliError> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(self.file);
        render(&mut out)
            .and_then(|()| out.flush())
            .map_err(|source| CliError::Output {
                path: self.path,
                source,
            })
    }
}

/// Write an output file, reporting the offending path on failure instead
/// of panicking.
fn write_output(path: &str, contents: &str) -> Result<(), CliError> {
    OutputFile::create(path)?.write(contents)
}

/// `qvisor check`: statically verify a policy without running anything.
/// Auto-detects the document kind — a sweep (has `base`; every grid point
/// is checked), a scenario (has `topology`/`workloads`), a fuzz corpus
/// document (has `config` + `expect`; replayed against its recorded
/// verdict), or a raw deployment config (`tenants` + `policy`).
pub fn cmd_check(json: &str, opts: &CheckOpts) -> Result<String, CliError> {
    use qvisor_sim::json::Value;
    let v = Value::parse(json).map_err(|e| CliError::Scenario(ScenarioError::Json(e)))?;
    if qvisor_fuzz::is_corpus_doc(&v) {
        return cmd_check_corpus(json, opts);
    }
    // `(label, report)` pairs: sweeps produce one per grid point, the
    // other kinds a single unlabeled report.
    let reports: Vec<(String, VerifyReport)> = if v.get("base").is_some() {
        let sweep = SweepSpec::from_value(&v)?;
        let engine = Engine::new();
        let paths = SpecPaths::with_prefix("base.qvisor.");
        let mut out = Vec::new();
        for point in sweep.points()? {
            let label = if point.label.is_empty() {
                format!("point {}", point.index)
            } else {
                point.label.clone()
            };
            out.push((label, engine.check_with_paths(&point.spec, &paths)?));
        }
        out
    } else if v.get("topology").is_some() || v.get("workloads").is_some() {
        let spec = ScenarioSpec::from_value(&v)?;
        vec![(String::new(), Engine::new().check(&spec)?)]
    } else {
        let config = DeploymentConfig::from_json(json)?;
        let joint = config.synthesize()?;
        vec![(String::new(), verify(&joint, &SpecPaths::config()))]
    };

    let mut out = String::new();
    for (label, report) in &reports {
        if opts.jsonl {
            if !label.is_empty() {
                let line = Value::object()
                    .set("type", "point")
                    .set("label", label.as_str());
                out.push_str(&line.to_compact());
                out.push('\n');
            }
            out.push_str(&report.to_jsonl());
        } else {
            if !label.is_empty() {
                writeln!(out, "== {label} ==").unwrap();
            }
            out.push_str(&report.render_text());
        }
    }
    if reports
        .iter()
        .any(|(_, r)| r.gate_fails(opts.deny_warnings))
    {
        let errors = reports.iter().any(|(_, r)| r.has_errors());
        return Err(CliError::Check {
            report: out,
            errors,
        });
    }
    if !opts.jsonl {
        out.push_str("check: OK\n");
    }
    Ok(out)
}

/// `qvisor check` on a fuzz corpus document: re-verify the stored config,
/// re-run the witness and queue oracles, and require the recorded verdict
/// to reproduce exactly. A drift (or any verifier-vs-simulation
/// disagreement) fails like an error-severity check.
fn cmd_check_corpus(json: &str, opts: &CheckOpts) -> Result<String, CliError> {
    use qvisor_sim::json::Value;
    match qvisor_fuzz::replay_corpus(json) {
        Ok(replay) => {
            let mut out = String::new();
            if opts.jsonl {
                out.push_str(&replay.report.to_jsonl());
                let line = Value::object()
                    .set("type", "fuzz_replay")
                    .set("verdict", replay.outcome.verdict.as_str())
                    .set("cross_inversions", replay.outcome.cross_inversions);
                out.push_str(&line.to_compact());
                out.push('\n');
            } else {
                out.push_str(&replay.report.render_text());
                writeln!(
                    out,
                    "fuzz replay: recorded verdict '{}' reproduced ({} cross-tenant inversions)",
                    replay.outcome.verdict.as_str(),
                    replay.outcome.cross_inversions
                )
                .unwrap();
                out.push_str("check: OK\n");
            }
            Ok(out)
        }
        Err(msg) => Err(CliError::Check {
            report: format!("fuzz replay: {msg}\n"),
            errors: true,
        }),
    }
}

/// The `verify:` banner for a scenario: one line per warning-or-worse
/// verifier finding. Printed to stderr by `cmd_run` so stdout stays pure
/// report JSON.
fn verify_banner(engine: &Engine, spec: &ScenarioSpec) -> Result<String, CliError> {
    let mut banner = String::new();
    for d in engine.check(spec)?.gate_findings() {
        writeln!(banner, "verify: {d}").unwrap();
    }
    Ok(banner)
}

/// `qvisor run`: materialize and execute one declarative scenario, printing
/// the deterministic report JSON to stdout. Verifier findings at warning
/// level or above are surfaced first, one `verify:` line each on stderr
/// (the engine refuses to build on errors, or on warnings under
/// `--deny-warnings`).
pub fn cmd_run(scenario_json: &str, opts: &RunOpts) -> Result<String, CliError> {
    use qvisor_telemetry::{SloMonitor, Telemetry, TraceConfig, Tracer};
    let spec = ScenarioSpec::from_json(scenario_json)?;
    let telemetry = if opts.telemetry.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let tracer = if opts.trace.is_some() {
        Tracer::enabled(TraceConfig::default())
    } else {
        Tracer::disabled()
    };
    let monitor = if opts.monitor.is_some() {
        SloMonitor::enabled(spec.alert_rules())
    } else {
        SloMonitor::disabled()
    };
    let engine = Engine::new()
        .with_telemetry(&telemetry)
        .with_tracer(&tracer)
        .with_monitor(&monitor)
        .with_deny_warnings(opts.deny_warnings);
    eprint!("{}", verify_banner(&engine, &spec)?);
    let create = |path: &Option<String>| path.as_deref().map(OutputFile::create).transpose();
    let telemetry_out = create(&opts.telemetry)?;
    let trace_out = create(&opts.trace)?;
    let monitor_out = create(&opts.monitor)?;
    let mut out = String::new();
    let report = engine.run(&spec)?;
    if let Some(file) = telemetry_out {
        file.write(&telemetry.export_jsonl())?;
    }
    if let Some(file) = trace_out {
        file.stream(|out| tracer.snapshot().write_jsonl(out))?;
    }
    if let Some(file) = monitor_out {
        file.write(&monitor.export_jsonl())?;
    }
    writeln!(
        out,
        "{}",
        qvisor_netsim::scenario::report_json(&report).to_pretty()
    )
    .unwrap();
    Ok(out)
}

/// `qvisor sweep`: run a scenario grid across worker threads and emit the
/// merged results document (byte-identical at any `--jobs` level). A
/// sweep that names a view prints the view's table instead; its rows go
/// to `--out`, and every `wrote` notice to stderr.
pub fn cmd_sweep(sweep_json: &str, opts: &SweepOpts) -> Result<String, CliError> {
    use qvisor_netsim::scenario::{merged_value, run_sweep};
    use qvisor_sim::json::Value;
    let spec = SweepSpec::from_json(sweep_json)?;
    let snapshots = match &opts.telemetry {
        Some(prefix) => (spec.points()?.iter())
            .map(|p| OutputFile::create(&format!("{prefix}.point{}.telemetry.jsonl", p.index)))
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let merged_out = opts.out.as_deref().map(OutputFile::create).transpose()?;
    let results = run_sweep(
        &spec,
        opts.jobs,
        opts.telemetry.is_some(),
        opts.deny_warnings,
    )?;
    // Stdout without a view; with one, stdout is the table alone.
    let mut notices = String::new();
    for (file, r) in snapshots.into_iter().zip(&results) {
        writeln!(notices, "wrote {}", file.path).unwrap();
        file.write(r.telemetry_jsonl.as_deref().unwrap_or(""))?;
    }
    let Some(view) = spec.view else {
        let merged = format!("{}\n", merged_value(&spec, &results).to_pretty());
        match merged_out {
            Some(file) => {
                writeln!(notices, "wrote {}", file.path).unwrap();
                file.write(&merged)?;
            }
            None => notices.push_str(&merged),
        }
        return Ok(notices);
    };
    let rows: Vec<Value> = results.into_iter().map(|r| r.report).collect();
    let table = view.table(&rows);
    if let Some(file) = merged_out {
        writeln!(notices, "wrote {}", file.path).unwrap();
        file.write(&format!("{}\n", Value::from(rows).to_pretty()))?;
    }
    eprint!("{notices}");
    Ok(table)
}

/// `qvisor synth`: synthesize and print the per-tenant chains, then the
/// verifier's report on them.
pub fn cmd_synth(config_json: &str) -> Result<String, CliError> {
    let config = DeploymentConfig::from_json(config_json)?;
    let joint = config.synthesize()?;
    let mut out = String::new();
    writeln!(out, "policy      : {}", joint.policy).unwrap();
    writeln!(out, "rank span   : {}", joint.output_span()).unwrap();
    for spec in &joint.specs {
        if let Some(chain) = joint.chain(spec.id) {
            writeln!(out, "  {:<12} {}", spec.name, chain).unwrap();
        }
    }
    writeln!(out).unwrap();
    out.push_str(&verify(&joint, &SpecPaths::config()).render_text());
    Ok(out)
}

/// `qvisor compile`: fit onto hardware with the concession ladder.
pub fn cmd_compile(config_json: &str, queues: usize, rank_bits: u32) -> Result<String, CliError> {
    let config = DeploymentConfig::from_json(config_json)?;
    let (specs, policy, synth) = config.build()?;
    let hw = HardwareModel {
        queues,
        max_rank: (1u64 << rank_bits) - 1,
    };
    let out = compile(&specs, &policy, synth, &hw)?;
    let mut text = String::new();
    writeln!(text, "target      : {queues} queues, {rank_bits}-bit ranks").unwrap();
    writeln!(text, "deployed    : {}", out.policy).unwrap();
    writeln!(text, "rank span   : {}", out.joint.output_span()).unwrap();
    if out.concessions.is_empty() {
        writeln!(text, "concessions : none (faithful)").unwrap();
    } else {
        writeln!(text, "concessions :").unwrap();
        for c in &out.concessions {
            writeln!(text, "  - {c}").unwrap();
        }
    }
    writeln!(
        text,
        "guarantees  : {}",
        if out.guarantees.guarantees_hold() {
            "all hold"
        } else {
            "violations present"
        }
    )
    .unwrap();
    Ok(text)
}

/// Read a report input: `-` means stdin, anything else is a file path.
fn read_input(path: &str) -> Result<String, CliError> {
    if path == "-" {
        use std::io::Read as _;
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| CliError::Telemetry(format!("cannot read stdin: {e}")))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Telemetry(format!("cannot read {path}: {e}")))
    }
}

/// `qvisor monitor`: per-tenant SLO health. `-` reads an export from
/// stdin, an existing file is rendered offline, and anything else is
/// treated as a daemon address to subscribe to (one health table per
/// telemetry snapshot, until the daemon shuts the stream down).
pub fn cmd_monitor(target: &str) -> Result<String, CliError> {
    if target != "-" && std::fs::metadata(target).is_err() {
        return cmd_monitor_live(target);
    }
    render_monitor_export(&read_input(target)?)
}

/// Offline half of `qvisor monitor`: a telemetry or SLO-monitor JSONL
/// export becomes one health table plus the tail of alert transitions.
pub fn render_monitor_export(jsonl: &str) -> Result<String, CliError> {
    let export = qvisor_telemetry::report::parse(jsonl).map_err(CliError::Telemetry)?;
    let mut out = qvisor_telemetry::monitor::render_health(&export);
    let alerts: Vec<&qvisor_sim::json::Value> = export
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.get("kind").and_then(qvisor_sim::json::Value::as_str),
                Some("alert_fired" | "alert_resolved")
            )
        })
        .collect();
    if !alerts.is_empty() {
        writeln!(out, "\nalerts ({} transition(s)):", alerts.len()).unwrap();
        for e in alerts {
            let t = e.get("t_ns").and_then(qvisor_sim::json::Value::as_u64);
            let kind = e
                .get("kind")
                .and_then(qvisor_sim::json::Value::as_str)
                .unwrap_or("?");
            let fields = e
                .get("fields")
                .map(qvisor_sim::json::Value::to_compact)
                .unwrap_or_default();
            writeln!(out, "  t={}ns {kind} {fields}", t.unwrap_or(0)).unwrap();
        }
    }
    Ok(out)
}

/// Render one line of a daemon telemetry stream. `Ok(None)` means the
/// stream is over; non-snapshot lines render as nothing.
fn render_stream_line(line: &str) -> Result<Option<String>, CliError> {
    use qvisor_sim::json::Value;
    let v = Value::parse(line)
        .map_err(|e| CliError::Telemetry(format!("bad stream line: {}", e.msg)))?;
    match v.get("type").and_then(Value::as_str) {
        Some("stream_end") => Ok(None),
        Some("telemetry_snapshot") => {
            let mut jsonl = String::new();
            for record in v.get("records").and_then(Value::as_array).unwrap_or(&[]) {
                jsonl.push_str(&record.to_compact());
                jsonl.push('\n');
            }
            let version = v.get("version").and_then(Value::as_u64).unwrap_or(0);
            let table = if jsonl.is_empty() {
                "no telemetry records in snapshot\n".to_string()
            } else {
                render_monitor_export(&jsonl)?
            };
            Ok(Some(format!("== snapshot version {version} ==\n{table}")))
        }
        _ => Ok(Some(String::new())),
    }
}

/// Consume a subscribed telemetry stream, writing one health table per
/// snapshot. Split from the TCP plumbing so it is testable on any reader.
fn monitor_stream(
    reader: impl std::io::BufRead,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    for line in reader.lines() {
        let line = line.map_err(|e| CliError::Telemetry(format!("stream read failed: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        match render_stream_line(&line)? {
            Some(text) => {
                out.write_all(text.as_bytes())
                    .map_err(|e| CliError::Telemetry(format!("cannot write output: {e}")))?;
            }
            None => return Ok(()),
        }
    }
    Ok(())
}

/// Live half of `qvisor monitor`: subscribe to a daemon's telemetry
/// stream and render each snapshot as it arrives.
fn cmd_monitor_live(addr: &str) -> Result<String, CliError> {
    use std::io::Write as _;
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::Telemetry(format!("cannot connect to {addr}: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| CliError::Telemetry(format!("cannot clone connection: {e}")))?;
    writeln!(writer, r#"{{"op":"subscribe-telemetry"}}"#)
        .map_err(|e| CliError::Telemetry(format!("cannot subscribe: {e}")))?;
    let reader = std::io::BufReader::new(stream);
    let stdout = std::io::stdout();
    monitor_stream(reader, &mut stdout.lock())?;
    Ok("monitor: stream ended\n".to_string())
}

/// `qvisor telemetry report`: render a JSONL telemetry export (as written
/// by `Telemetry::export_jsonl` or the bench binaries' `--telemetry` flag)
/// as per-tenant and per-queue summary tables.
pub fn cmd_telemetry_report(jsonl: &str) -> Result<String, CliError> {
    qvisor_telemetry::report::render(jsonl).map_err(CliError::Telemetry)
}

/// `qvisor trace report`: render a trace snapshot (as written by
/// `TraceData::to_jsonl` or the bench binaries' `--trace` flag) as a
/// latency breakdown with an inversion timeline.
pub fn cmd_trace_report(jsonl: &str) -> Result<String, CliError> {
    let data = qvisor_telemetry::TraceData::parse(jsonl).map_err(CliError::Telemetry)?;
    Ok(qvisor_telemetry::trace::render_report(&data))
}

/// `qvisor trace export`: convert a trace snapshot to Chrome trace-event
/// JSON, loadable in Perfetto (<https://ui.perfetto.dev>) or
/// `chrome://tracing`.
pub fn cmd_trace_export(jsonl: &str) -> Result<String, CliError> {
    let data = qvisor_telemetry::TraceData::parse(jsonl).map_err(CliError::Telemetry)?;
    Ok(qvisor_telemetry::perfetto::export_chrome(&data))
}

/// `qvisor example`: a starter configuration.
pub fn example_config() -> String {
    DeploymentConfig::from_json(
        r#"{
        "tenants": [
            { "id": 1, "name": "T1", "algorithm": "pFabric",
              "rank_min": 0, "rank_max": 100000, "levels": 512 },
            { "id": 2, "name": "T2", "algorithm": "EDF",
              "rank_min": 0, "rank_max": 10000, "levels": 64 },
            { "id": 3, "name": "T3", "algorithm": "FQ",
              "rank_min": 0, "rank_max": 1000, "levels": 32 }
        ],
        "policy": "T1 >> T2 + T3"
    }"#,
    )
    .expect("example config is valid")
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_json() -> String {
        example_config()
    }

    #[test]
    fn example_is_valid_and_synthesizes() {
        let out = cmd_synth(&example_json()).unwrap();
        assert!(out.contains("policy      : T1 >> T2 + T3"));
        assert!(out.contains("normalize"));
        assert!(out.contains("QVISOR policy verification"));
        assert!(out.contains("result: 0 error(s), 0 warning(s)"));
    }

    #[test]
    fn analyze_reports_ok() {
        // `analyze` is `check` under another name: same report, same gate.
        let path = std::env::temp_dir().join("qvisor_cli_test_analyze.json");
        std::fs::write(&path, example_json()).unwrap();
        let args = |cmd: &str| vec![cmd.to_string(), path.to_str().unwrap().to_string()];
        let out = run(&args("analyze")).unwrap();
        assert!(out.ends_with("check: OK\n"));
        assert_eq!(out, run(&args("check")).unwrap());
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            run(&["analyze".to_string()]),
            Err(CliError::Usage(msg)) if msg.starts_with("analyze needs")
        ));
    }

    #[test]
    fn compile_reports_concessions_on_tiny_hardware() {
        let out = cmd_compile(&example_json(), 8, 8).unwrap();
        assert!(out.contains("concessions :"));
        assert!(out.contains("quantization"));
        assert!(out.contains("all hold"));
    }

    #[test]
    fn compile_faithful_on_big_hardware() {
        let out = cmd_compile(&example_json(), 32, 32).unwrap();
        assert!(out.contains("none (faithful)"));
    }

    #[test]
    fn bad_json_is_a_clean_error() {
        let err = cmd_synth("{nope").unwrap_err();
        assert!(matches!(err, CliError::Qvisor(QvisorError::Parse { .. })));
        assert!(err.to_string().contains("configuration JSON"));
    }

    #[test]
    fn help_lists_every_subcommand() {
        for invocation in ["help", "--help", "-h"] {
            let out = run(&[invocation.to_string()]).unwrap();
            for cmd in [
                "synth",
                "analyze",
                "compile",
                "check",
                "run",
                "sweep",
                "serve",
                "monitor",
                "fuzz",
                "telemetry",
                "trace",
                "example",
                "help",
            ] {
                assert!(
                    out.contains(&format!("qvisor {cmd}")),
                    "{invocation}: {cmd}"
                );
            }
        }
        // `help` succeeds, unlike a bare or unknown invocation.
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate".to_string()]).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let opts = parse_serve_flags(&[]).unwrap();
        assert_eq!(opts.listen, "127.0.0.1:4733");
        assert!(!opts.deny_warnings);
        let opts = parse_serve_flags(&[
            "--listen".to_string(),
            "127.0.0.1:0".to_string(),
            "--deny-warnings".to_string(),
        ])
        .unwrap();
        assert_eq!(opts.listen, "127.0.0.1:0");
        assert!(opts.deny_warnings);
        assert!(parse_serve_flags(&["--port".to_string()]).is_err());
        assert!(parse_serve_flags(&["--listen".to_string()]).is_err());
    }

    #[test]
    fn run_dispatch_and_usage() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(run(&args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["synth"])), Err(CliError::Usage(_))));
        let example = run(&args(&["example"])).unwrap();
        assert!(example.contains("\"policy\""));
        // File-based path: write a temp config and run synth on it.
        let path = std::env::temp_dir().join("qvisor_cli_test_config.json");
        std::fs::write(&path, example).unwrap();
        let out = run(&args(&["synth", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("result: 0 error(s)"));
        let out = run(&args(&[
            "compile",
            path.to_str().unwrap(),
            "--queues",
            "4",
            "--rank-bits",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("target      : 4 queues, 10-bit ranks"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn telemetry_report_round_trips() {
        let t = qvisor_telemetry::Telemetry::enabled();
        t.counter("net_sent_pkts", &[("tenant", "T1")]).add(42);
        t.counter(
            "sched_dropped_pkts",
            &[("queue", "n0.p0"), ("kind", "pifo")],
        )
        .add(3);
        let out = cmd_telemetry_report(&t.export_jsonl()).unwrap();
        assert!(out.contains("per-tenant"));
        assert!(out.contains("T1"));
        assert!(out.contains("per-queue"));
        assert!(out.contains("n0.p0"));
        // Dispatch through run() with a temp file.
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let path = std::env::temp_dir().join("qvisor_cli_test_telemetry.jsonl");
        std::fs::write(&path, t.export_jsonl()).unwrap();
        let out = run(&args(&["telemetry", "report", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("telemetry report"));
        std::fs::remove_file(&path).ok();
        // Usage and parse errors are clean.
        assert!(matches!(
            run(&args(&["telemetry"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_telemetry_report("{not json"),
            Err(CliError::Telemetry(_))
        ));
    }

    #[test]
    fn trace_report_and_export_round_trip() {
        use qvisor_telemetry::{TraceConfig, TraceKind, TraceRecord, Tracer};
        let tracer = Tracer::enabled(TraceConfig::default());
        let q = tracer.intern("n0.p0");
        let t = |us: u64| qvisor_sim::Nanos::from_micros(us);
        tracer.record(TraceRecord::new(
            t(1),
            7,
            0,
            1,
            TraceKind::Enqueue { rank: 5 },
        ));
        tracer.record(
            TraceRecord::new(
                t(3),
                7,
                0,
                1,
                TraceKind::Dequeue {
                    rank: 5,
                    wait_ns: 2_000,
                },
            )
            .at_label(q),
        );
        tracer.record(TraceRecord::new(
            t(9),
            7,
            0,
            1,
            TraceKind::Deliver { latency_ns: 8_000 },
        ));
        let jsonl = tracer.snapshot().to_jsonl();
        let report = cmd_trace_report(&jsonl).unwrap();
        assert!(report.contains("trace report"));
        assert!(report.contains("queueing delay"));
        let chrome = cmd_trace_export(&jsonl).unwrap();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"dequeue\""));
        // Dispatch through run() with a temp file.
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let path = std::env::temp_dir().join("qvisor_cli_test_trace.jsonl");
        std::fs::write(&path, &jsonl).unwrap();
        let out = run(&args(&["trace", "report", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("trace report"));
        let out = run(&args(&["trace", "export", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("\"traceEvents\""));
        std::fs::remove_file(&path).ok();
        // Usage and parse errors are clean.
        assert!(matches!(run(&args(&["trace"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["trace", "bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_trace_report("{not json"),
            Err(CliError::Telemetry(_))
        ));
    }

    const SCENARIO: &str = r#"{
        "name": "cli-test",
        "seed": 1,
        "topology": { "dumbbell": { "pairs": 1, "edge_bps": 1000000000,
                                    "bottleneck_bps": 1000000000, "delay_ns": 1000 } },
        "sim": { "horizon": { "at_ns": 10000000 } },
        "workloads": [ { "flows": { "list": [
            { "tenant": 1, "src_host": 0, "dst_host": 1, "size": 100000, "start_ns": 0 }
        ] } } ]
    }"#;

    #[test]
    fn run_executes_a_scenario() {
        let out = cmd_run(SCENARIO, &RunOpts::default()).unwrap();
        assert!(out.contains("\"end_time_ns\""));
        assert!(out.contains("\"fct\""));
        // Bad field paths come back as named-field errors, not panics.
        let err = cmd_run(
            r#"{"topology": {"dumbbell": {"pairs": 0}}}"#,
            &RunOpts::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Scenario(_)));
        assert!(err.to_string().contains("dumbbell"));
    }

    #[test]
    fn run_writes_telemetry_and_trace_files() {
        let dir = std::env::temp_dir();
        let tpath = dir.join("qvisor_cli_test_run.telemetry.jsonl");
        let rpath = dir.join("qvisor_cli_test_run.trace.jsonl");
        let opts = RunOpts {
            telemetry: Some(tpath.to_str().unwrap().to_string()),
            trace: Some(rpath.to_str().unwrap().to_string()),
            ..RunOpts::default()
        };
        cmd_run(SCENARIO, &opts).unwrap();
        let telemetry = std::fs::read_to_string(&tpath).unwrap();
        assert!(telemetry.contains("net_sent_pkts"));
        let trace = std::fs::read_to_string(&rpath).unwrap();
        assert!(trace.contains("\"deliver\"") || trace.contains("\"enqueue\""));
        std::fs::remove_file(&tpath).ok();
        std::fs::remove_file(&rpath).ok();
        // A bad output path reports the path instead of panicking.
        let opts = RunOpts {
            telemetry: Some("/nonexistent_dir_qvisor/deep/t.jsonl".into()),
            ..RunOpts::default()
        };
        let err = cmd_run(SCENARIO, &opts).unwrap_err();
        assert!(err
            .to_string()
            .contains("/nonexistent_dir_qvisor/deep/t.jsonl"));
    }

    #[test]
    fn sweep_is_deterministic_across_jobs() {
        let sweep = format!(
            r#"{{ "base": {SCENARIO}, "axes": [ {{ "path": "seed", "values": [1, 2, 3] }} ] }}"#
        );
        let one = cmd_sweep(&sweep, &SweepOpts::default()).unwrap();
        let four = cmd_sweep(
            &sweep,
            &SweepOpts {
                jobs: 4,
                ..SweepOpts::default()
            },
        )
        .unwrap();
        assert_eq!(one, four);
        assert!(one.contains("\"label\": \"seed=1\""));
        assert!(one.contains("\"label\": \"seed=3\""));
        // Unknown axis paths are named in the error.
        let bad = format!(
            r#"{{ "base": {SCENARIO}, "axes": [ {{ "path": "nope.deep", "values": [1] }} ] }}"#
        );
        let err = cmd_sweep(&bad, &SweepOpts::default()).unwrap_err();
        assert!(matches!(err, CliError::Scenario(_)));
    }

    #[test]
    fn run_and_sweep_dispatch_through_cli() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let dir = std::env::temp_dir();
        let spath = dir.join("qvisor_cli_test_scenario.json");
        std::fs::write(&spath, SCENARIO).unwrap();
        let out = run(&args(&["run", spath.to_str().unwrap()])).unwrap();
        assert!(out.contains("\"end_time_ns\""));
        let wpath = dir.join("qvisor_cli_test_sweep.json");
        std::fs::write(
            &wpath,
            format!(
                r#"{{ "base": {SCENARIO}, "axes": [ {{ "path": "seed", "values": [1, 2] }} ] }}"#
            ),
        )
        .unwrap();
        let out = run(&args(&["sweep", wpath.to_str().unwrap(), "--jobs", "2"])).unwrap();
        assert!(out.contains("\"points\""));
        std::fs::remove_file(&spath).ok();
        std::fs::remove_file(&wpath).ok();
        assert!(matches!(run(&args(&["run"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["sweep", "x.json", "--jobs", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_run_flags(&args(&["--wat"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn a_view_sweep_prints_the_table_alone_and_writes_the_rows() {
        let sweep = format!(
            r#"{{ "view": "jain", "base": {SCENARIO},
                  "axes": [ {{ "path": "seed", "values": [1, 2] }} ] }}"#
        );
        let path =
            std::env::temp_dir().join(format!("qvisor_cli_view_{}.json", std::process::id()));
        let opts = SweepOpts {
            out: Some(path.to_str().unwrap().to_string()),
            ..SweepOpts::default()
        };
        let table = cmd_sweep(&sweep, &opts).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "a header and a line per point: {table}");
        assert!(lines[0].starts_with("scenario"), "{table}");
        assert!(
            lines[1..].iter().all(|l| l.starts_with("cli-test")),
            "{table}"
        );
        let rows = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let rows = qvisor_sim::json::Value::parse(&rows).unwrap();
        let rows = rows.as_array().expect("the --out file is the rows alone");
        assert_eq!(rows.len(), 2);
        for row in rows {
            let keys: Vec<&str> = (row.as_object().unwrap().iter())
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["name", "jain", "goodput_gbps"]);
        }
    }

    /// A scenario carrying a QVISOR deployment (two tenants, strict policy).
    const QSCENARIO: &str = r#"{
        "name": "cli-check-test",
        "seed": 1,
        "topology": { "dumbbell": { "pairs": 1, "edge_bps": 1000000000,
                                    "bottleneck_bps": 1000000000, "delay_ns": 1000 } },
        "sim": { "horizon": { "at_ns": 10000000 } },
        "qvisor": {
            "tenants": [
                { "id": 1, "name": "pFabric", "algorithm": "pFabric",
                  "rank_min": 0, "rank_max": 2000, "levels": 512 },
                { "id": 2, "name": "EDF", "algorithm": "EDF",
                  "rank_min": 0, "rank_max": 2, "levels": 64 }
            ],
            "policy": "EDF >> pFabric"
        },
        "workloads": [ { "flows": { "list": [
            { "tenant": 1, "src_host": 0, "dst_host": 1, "size": 100000, "start_ns": 0 }
        ] } } ]
    }"#;

    #[test]
    fn check_passes_the_example_config() {
        let out = cmd_check(&example_json(), &CheckOpts::default()).unwrap();
        assert!(out.contains("QVISOR policy verification"));
        assert!(out.contains("check: OK"));
        // Quantization findings are info-level: deny-warnings still passes.
        let strict = CheckOpts {
            deny_warnings: true,
            jsonl: false,
        };
        assert!(cmd_check(&example_json(), &strict).is_ok());
    }

    #[test]
    fn check_refutes_a_saturating_config_with_witness() {
        // first_rank = u64::MAX - 5 pins every band at the rank ceiling.
        let bad = r#"{
            "tenants": [
                { "id": 1, "name": "T1", "algorithm": "x",
                  "rank_min": 0, "rank_max": 1000 },
                { "id": 2, "name": "T2", "algorithm": "y",
                  "rank_min": 0, "rank_max": 1000 }
            ],
            "policy": "T1 >> T2",
            "synth": { "first_rank": 18446744073709551610 }
        }"#;
        let err = cmd_check(bad, &CheckOpts::default()).unwrap_err();
        assert!(matches!(err, CliError::Check { errors: true, .. }));
        assert_eq!(err.exit_code(), 2);
        let text = err.to_string();
        assert!(text.contains("QV-OVERFLOW"));
        assert!(text.contains("witness"));
        assert!(text.contains("verification FAILED"));
    }

    #[test]
    fn check_handles_scenario_and_sweep_documents() {
        // No qvisor block: trivially clean.
        let out = cmd_check(SCENARIO, &CheckOpts::default()).unwrap();
        assert!(out.contains("check: OK"));
        // A scenario with a deployment verifies every tenant.
        let out = cmd_check(QSCENARIO, &CheckOpts::default()).unwrap();
        assert!(out.contains("qvisor.tenants.0"));
        assert!(out.contains("check: OK"));
        // A sweep checks every grid point, labeled.
        let sweep = format!(
            r#"{{ "base": {QSCENARIO}, "axes": [ {{ "path": "seed", "values": [1, 2] }} ] }}"#
        );
        let out = cmd_check(&sweep, &CheckOpts::default()).unwrap();
        assert!(out.contains("== seed=1 =="));
        assert!(out.contains("== seed=2 =="));
        assert!(out.contains("check: OK"));
    }

    #[test]
    fn check_jsonl_roots_sweep_paths_under_base() {
        let sweep = format!(r#"{{ "base": {QSCENARIO}, "axes": [] }}"#);
        let opts = CheckOpts {
            deny_warnings: false,
            jsonl: true,
        };
        let out = cmd_check(&sweep, &opts).unwrap();
        for line in out.lines() {
            qvisor_sim::json::Value::parse(line).expect("every line is JSON");
        }
        assert!(out.contains("base.qvisor.tenants.0"));
        assert!(out.contains("\"type\":\"verify_summary\""));
        assert!(out.contains("\"label\":\"point 0\""));
    }

    #[test]
    fn check_dispatches_through_cli_with_flags() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(run(&args(&["check"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["check", "x.json", "--wat"])),
            Err(CliError::Usage(_))
        ));
        let path = std::env::temp_dir().join("qvisor_cli_test_check.json");
        std::fs::write(&path, example_json()).unwrap();
        let out = run(&args(&["check", path.to_str().unwrap(), "--deny-warnings"])).unwrap();
        assert!(out.contains("check: OK"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_refuses_a_refuted_scenario() {
        // An unscheduled tenant is warning-level: fine by default, fatal
        // under --deny-warnings.
        let warned = QSCENARIO.replace("\"policy\": \"EDF >> pFabric\"", "\"policy\": \"EDF\"");
        let spec = ScenarioSpec::from_json(&warned).unwrap();
        let banner = verify_banner(&Engine::new(), &spec).unwrap();
        assert!(banner.contains("verify: warning QV-UNSCHEDULED"));
        // The warning goes to stderr; stdout stays pure report JSON.
        let out = cmd_run(&warned, &RunOpts::default()).unwrap();
        assert!(out.starts_with('{') && out.contains("\"end_time_ns\""));
        let strict = RunOpts {
            deny_warnings: true,
            ..RunOpts::default()
        };
        let err = cmd_run(&warned, &strict).unwrap_err();
        assert!(err.to_string().contains("QV-UNSCHEDULED"));
    }

    #[test]
    fn flag_validation() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(
            parse_compile_flags(&args(&["--queues"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_compile_flags(&args(&["--rank-bits", "64"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_compile_flags(&args(&["--wat"])),
            Err(CliError::Usage(_))
        ));
        let (q, b) = parse_compile_flags(&args(&[])).unwrap();
        assert_eq!((q, b), (8, 16));
    }

    #[test]
    fn fuzz_flags_parse_and_validate() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let opts = parse_fuzz_flags(&args(&[])).unwrap();
        assert_eq!(opts.seed, qvisor_fuzz::DEFAULT_SEED);
        assert_eq!(opts.cases, 1000);
        assert_eq!(opts.jobs, 1);
        assert!(opts.out.is_none());
        let opts = parse_fuzz_flags(&args(&[
            "--seed", "7", "--cases", "12", "--jobs", "3", "--out", "/tmp/x",
        ]))
        .unwrap();
        assert_eq!((opts.seed, opts.cases, opts.jobs), (7, 12, 3));
        assert_eq!(opts.out.as_deref(), Some("/tmp/x"));
        assert!(matches!(
            parse_fuzz_flags(&args(&["--cases", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_fuzz_flags(&args(&["--jobs", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_fuzz_flags(&args(&["--wat"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fuzz_runs_a_small_conformant_campaign_through_the_cli() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let out = run(&args(&["fuzz", "--cases", "8", "--jobs", "2"])).unwrap();
        assert!(out.contains("qvisor fuzz campaign"), "{out}");
        assert!(out.contains("cases : 8"), "{out}");
        assert!(out.contains("result: AGREE"), "{out}");
    }

    /// A congested scenario with a declared drop-rate alert: two 900 Mb/s
    /// tenants share a 1 Gb/s bottleneck with a tiny buffer.
    const MONITOR_SCENARIO: &str = r#"{
        "name": "cli-monitor-test",
        "seed": 7,
        "topology": { "dumbbell": { "pairs": 2, "edge_bps": 10000000000,
                                    "bottleneck_bps": 1000000000, "delay_ns": 1000 } },
        "sim": { "buffer_bytes": 9000, "horizon": { "at_ns": 20000000 } },
        "scheduler": { "fifo": {} },
        "workloads": [ { "cbr": { "list": [
            { "tenant": 1, "src_host": 0, "dst_host": 2, "rate_bps": 900000000,
              "pkt_size": 1500, "start_ns": 0, "stop": { "at_ns": 15000000 },
              "deadline_offset_ns": 1000000 },
            { "tenant": 2, "src_host": 1, "dst_host": 3, "rate_bps": 900000000,
              "pkt_size": 1500, "start_ns": 0, "stop": { "at_ns": 15000000 },
              "deadline_offset_ns": 1000000 }
        ] } } ],
        "alerts": [ { "metric": "drop_rate", "tenant": 2,
                      "window_ns": 2000000, "threshold": 0.05 } ]
    }"#;

    #[test]
    fn run_monitor_export_renders_offline_health_table() {
        let dir = std::env::temp_dir();
        let mpath = dir.join("qvisor_cli_test_run.monitor.jsonl");
        let opts = RunOpts {
            monitor: Some(mpath.to_str().unwrap().to_string()),
            ..RunOpts::default()
        };
        cmd_run(MONITOR_SCENARIO, &opts).unwrap();
        let export = std::fs::read_to_string(&mpath).unwrap();
        assert!(export.contains("slo_drop_rate_ppm"), "{export}");
        assert!(export.contains("\"kind\":\"alert_fired\""), "{export}");
        // Offline render via the subcommand dispatch.
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let out = run(&args(&["monitor", mpath.to_str().unwrap()])).unwrap();
        assert!(out.contains("T1"), "{out}");
        assert!(out.contains("T2"), "{out}");
        assert!(out.contains("slo_drop_rate_ppm"), "{out}");
        assert!(out.contains("alert_fired"), "{out}");
        std::fs::remove_file(&mpath).ok();
        assert!(matches!(run(&args(&["monitor"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn monitor_stream_renders_snapshots_until_stream_end() {
        let lines = concat!(
            r#"{"type":"telemetry_snapshot","version":3,"records":[{"type":"counter","name":"net_sent_pkts","labels":{"tenant":"T1"},"value":5}]}"#,
            "\n",
            r#"{"type":"stream_end"}"#,
            "\n",
            r#"{"type":"telemetry_snapshot","version":4,"records":[]}"#,
            "\n",
        );
        let mut out = Vec::new();
        monitor_stream(std::io::Cursor::new(lines), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("== snapshot version 3 =="), "{text}");
        assert!(text.contains("net_sent_pkts"), "{text}");
        // Nothing after stream_end is rendered.
        assert!(!text.contains("version 4"), "{text}");
        // Empty snapshots render a note instead of failing.
        let mut out = Vec::new();
        monitor_stream(
            std::io::Cursor::new(r#"{"type":"telemetry_snapshot","version":9,"records":[]}"#),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("no telemetry records"), "{text}");
        // Garbage is a clean error.
        let mut out = Vec::new();
        let err = monitor_stream(std::io::Cursor::new("{nope"), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Telemetry(_)));
    }

    /// Run `f` on a thread of its own and give it 30 s: a daemon or monitor
    /// that parks forever fails the test with a message instead of hanging it.
    fn within_30s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{what}: not done after 30 s"))
    }

    #[test]
    fn monitor_live_connects_to_a_daemon() {
        use qvisor_sim::json::Value;
        use std::io::{BufRead as _, BufReader, Write as _};
        let config = DeploymentConfig::from_json(&example_json()).unwrap();
        let daemon = qvisor_serve::Daemon::start(
            config,
            qvisor_serve::ServeOptions {
                listen: "127.0.0.1:0".to_string(),
                deny_warnings: false,
            },
        )
        .unwrap();
        let addr = daemon.local_addr().to_string();
        let handle = std::thread::spawn(move || cmd_monitor(&addr));
        let stream = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
        let timeout = Some(std::time::Duration::from_secs(30));
        stream.set_read_timeout(timeout).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut request = |line: &str| {
            writeln!(writer, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).expect("daemon response");
            Value::parse(&response).expect("response is JSON")
        };
        // Wait until the daemon has read the monitor's `subscribe-telemetry`
        // line: shutting down with it still unread in the socket makes the
        // kernel answer the monitor with RST, not the end of the stream.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while request(r#"{"op":"status"}"#)
            .get("telemetry_subscribers")
            .and_then(Value::as_u64)
            != Some(1)
        {
            assert!(
                std::time::Instant::now() < deadline,
                "the monitor never subscribed"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Trigger one snapshot publish, then stop the daemon (which
        // publishes the stream-end marker the monitor exits on).
        request(
            r#"{"op":"submit-policy","tenant":{"id":1,"name":"T1","algorithm":"pFabric","rank_min":0,"rank_max":100000,"levels":512}}"#,
        );
        request(r#"{"op":"shutdown"}"#);
        let out = within_30s("daemon shutdown and monitor exit", move || {
            daemon.wait();
            handle.join().unwrap().unwrap()
        });
        assert!(out.contains("monitor: stream ended"), "{out}");
    }

    #[test]
    fn check_replays_a_corpus_document() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/overflow.json");
        let out = run(&args(&["check", path])).unwrap();
        assert!(
            out.contains("fuzz replay: recorded verdict 'errors'"),
            "{out}"
        );
        assert!(out.contains("check: OK"), "{out}");
        // JSONL rendering carries a structured replay line after the diags.
        let out = run(&args(&["check", path, "--jsonl"])).unwrap();
        assert!(out.contains("\"type\":\"fuzz_replay\""), "{out}");
        // A drifted expectation is an error-severity gate failure.
        let text = std::fs::read_to_string(path).unwrap();
        let drifted = text.replace("\"verdict\": \"errors\"", "\"verdict\": \"clean\"");
        assert_ne!(drifted, text);
        let tmp = std::env::temp_dir().join("qvisor_cli_test_drifted_corpus.json");
        std::fs::write(&tmp, drifted).unwrap();
        let err = run(&args(&["check", tmp.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, CliError::Check { errors: true, .. }), "{err}");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("verdict drifted"), "{err}");
        std::fs::remove_file(&tmp).ok();
    }
}
