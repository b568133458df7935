//! The CLI front end as a *compiler*: flags in, [`CampaignSpec`] out.
//!
//! The `hmpt-fleet` binary is a thin shell — everything between `argv`
//! and the typed [`crate::api`] facade lives here, so tests can assert
//! that any flag invocation and the spec it denotes execute
//! bit-identically (`--spec-out` emits that spec; `hmpt-fleet run
//! spec.toml` starts from one directly).
//!
//! Flag validation is uniform: every conflicting, dangling, or
//! wrong-mode flag is a hard [`UsageError`] (exit 2), never a warning
//! and never silently ignored. The spec layer enforces the same rules
//! on documents ([`crate::spec::SpecError`]), so a flag set and the
//! spec it compiles to are rejected or accepted together.

use crate::spec::{parse_shard, CacheSection, CampaignSection, CampaignSpec, ExecutionSection};

/// A misuse of the command line (print the message and the usage text,
/// exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

fn usage_err(msg: impl std::fmt::Display) -> UsageError {
    UsageError(msg.to_string())
}

/// What the command line asks for.
// A spec is a page of `Option`s; one transient Action exists per
// process, so boxing it buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Execute a campaign spec (compiled from flags, or loaded by the
    /// `run` subcommand).
    Execute {
        spec: CampaignSpec,
        /// `--spec-out P`: write the spec and exit without executing.
        spec_out: Option<String>,
        /// `--check` (run mode): resolve, print the fingerprint, exit.
        check: bool,
        /// Where the JSON report goes (`--json` / `--matrix-out` /
        /// `--shard-out` / `--out`; `None` = stdout).
        out: Option<String>,
    },
    /// Reassemble shard reports (`hmpt-fleet merge`).
    Merge {
        files: Vec<String>,
        /// `--spec P`: validate every shard against this spec file.
        spec: Option<String>,
        matrix_out: Option<String>,
        cache_in: Vec<String>,
        cache_out: Option<String>,
    },
    /// Bound a cache snapshot (`hmpt-fleet cache compact`).
    CacheCompact {
        file: String,
        max_records: u64,
    },
    /// Render a trace file (`hmpt-fleet trace summarize FILE`).
    TraceSummarize {
        file: String,
        /// `--json`: machine-readable summary instead of the human
        /// rendering.
        json: bool,
    },
    /// A campaign-warehouse operation (`hmpt-fleet report …`).
    Report(ReportCmd),
    /// Run the campaign-service daemon (`hmpt-fleet serve`).
    Serve {
        listen: String,
        state_dir: String,
        /// `--workers N`: campaign groups a served job runs at once,
        /// each group's cells serially (0 = one per CPU).
        workers: Option<usize>,
        /// `--quota N`: max live jobs per tenant.
        quota: Option<usize>,
        /// `--cache-max N`: LRU bound on the shared cross-job cache.
        cache_max: Option<u64>,
        trace_out: Option<String>,
        metrics: bool,
        quiet: bool,
    },
    /// A client verb against a running service (`hmpt-fleet
    /// {submit,status,cancel,drain} --connect ADDR`).
    Client {
        connect: String,
        cmd: ClientCmd,
    },
    Help,
}

/// The service-client verbs. Pure parse data — the binary implements
/// them with `hmpt_served`, so this crate stays free of that
/// dependency (the `ReportCmd` pattern).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientCmd {
    /// `submit SPEC [--tenant T] [--priority N] [--follow [--out P]]`.
    Submit {
        /// Path of the spec document to submit.
        spec: String,
        tenant: Option<String>,
        priority: Option<i64>,
        /// Wait for the job and fetch its merged report.
        follow: bool,
        /// Where the fetched report goes (`--follow` only).
        out: Option<String>,
    },
    /// `status [JOB] [--json]`.
    Status { job: Option<u64>, json: bool },
    /// `cancel JOB`.
    Cancel { job: u64 },
    /// `drain`.
    Drain,
}

/// The warehouse verbs. Pure parse data — the binary implements them
/// with `hmpt_report`, so this crate stays free of that dependency.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportCmd {
    /// `report ingest --warehouse DIR --label L [sources…]`.
    Ingest {
        warehouse: String,
        label: String,
        /// `--rev N`: pin the revision instead of auto-stamping.
        rev: Option<u64>,
        /// `--fingerprint F`: override the spec fingerprint when the
        /// sources carry none.
        fingerprint: Option<String>,
        matrix: Option<String>,
        batch: Option<String>,
        bench: Vec<String>,
        trace: Option<String>,
    },
    /// `report diff BASE HEAD` — each side a warehouse selector
    /// (`label` / `label@rev`, with `--warehouse`) or an artifact file.
    Diff { warehouse: Option<String>, base: String, head: String, json: bool },
    /// `report gate BASE HEAD [thresholds…]` — diff, then pass/fail
    /// (exit 1 on fail).
    Gate {
        warehouse: Option<String>,
        base: String,
        head: String,
        json: bool,
        max_regression: Option<f64>,
        max_bench_regression: Option<f64>,
        max_throughput_drop: Option<f64>,
        allow_flips: Vec<String>,
    },
    /// `report trend --warehouse DIR [--label L]`.
    Trend { warehouse: String, label: Option<String>, json: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sub {
    Batch,
    Scenarios,
    Run,
    Merge,
    Cache,
    Trace,
    Report,
    Serve,
    Submit,
    Status,
    Cancel,
    Drain,
}

#[derive(Debug, Default)]
struct Flags {
    workers: Option<usize>,
    reps: Option<usize>,
    ci_target: Option<f64>,
    max_reps: Option<usize>,
    seed: Option<u64>,
    no_cache: bool,
    no_compare: bool,
    no_online: bool,
    json: Option<String>,
    zoo: Option<String>,
    budgets: Option<String>,
    noise: Option<String>,
    policies: Option<String>,
    machine: Option<String>,
    matrix_out: Option<String>,
    job_workers: Option<usize>,
    no_verify: bool,
    no_fast_path: bool,
    cache_file: Option<String>,
    cache_max: Option<u64>,
    shard: Option<String>,
    shard_out: Option<String>,
    cache_in: Option<String>,
    cache_out: Option<String>,
    spec_out: Option<String>,
    spec: Option<String>,
    out: Option<String>,
    max_records: Option<u64>,
    check: bool,
    trace_out: Option<String>,
    metrics: bool,
    quiet: bool,
    bench_out: Option<String>,
    listen: Option<String>,
    state_dir: Option<String>,
    connect: Option<String>,
    tenant: Option<String>,
    priority: Option<i64>,
    follow: bool,
    quota: Option<usize>,
    warehouse: Option<String>,
    label: Option<String>,
    rev: Option<u64>,
    fingerprint: Option<String>,
    matrix_in: Option<String>,
    batch_in: Option<String>,
    bench_in: Vec<String>,
    trace_in: Option<String>,
    max_regression: Option<f64>,
    max_bench_regression: Option<f64>,
    max_throughput_drop: Option<f64>,
    allow_flips: Vec<String>,
    /// The valueless `--json` of the trace/report modes (in batch mode
    /// `--json` takes the output path and lands in `json`).
    json_flag: bool,
    positionals: Vec<String>,
}

/// Parse `argv[1..]` into an [`Action`]. The `run` subcommand reads its
/// spec file here (a missing or malformed file is a usage-level
/// failure).
pub fn parse(args: Vec<String>) -> Result<Action, UsageError> {
    let mut flags = Flags::default();
    let mut sub = Sub::Batch;
    let mut it = args.into_iter();

    fn value<T: std::str::FromStr>(
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<T, UsageError> {
        let raw = it.next().ok_or_else(|| usage_err(format!("{flag} needs a value")))?;
        raw.parse().map_err(|_| usage_err(format!("{flag}: `{raw}` is not a valid value")))
    }

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => flags.workers = Some(value("--workers", &mut it)?),
            "--runs" | "--reps" => flags.reps = Some(value(&arg, &mut it)?),
            "--ci-target" => flags.ci_target = Some(value("--ci-target", &mut it)?),
            "--max-reps" => flags.max_reps = Some(value("--max-reps", &mut it)?),
            "--seed" => flags.seed = Some(value("--seed", &mut it)?),
            "--no-cache" => flags.no_cache = true,
            "--no-compare" => flags.no_compare = true,
            "--no-online" => flags.no_online = true,
            // `--json` is context-sensitive: in trace/report mode it is
            // a valueless "machine-readable output" switch; in batch
            // mode it takes the report's output path. The subcommand
            // word always precedes its flags (anything earlier would be
            // swallowed as a workload positional), so `sub` is settled
            // by the time the flag shows up.
            "--json" if matches!(sub, Sub::Trace | Sub::Report | Sub::Status) => {
                flags.json_flag = true
            }
            "--json" => flags.json = Some(value("--json", &mut it)?),
            "--warehouse" => flags.warehouse = Some(value("--warehouse", &mut it)?),
            "--label" => flags.label = Some(value("--label", &mut it)?),
            "--rev" => flags.rev = Some(value("--rev", &mut it)?),
            "--fingerprint" => flags.fingerprint = Some(value("--fingerprint", &mut it)?),
            "--matrix" => flags.matrix_in = Some(value("--matrix", &mut it)?),
            "--batch" => flags.batch_in = Some(value("--batch", &mut it)?),
            "--bench" => flags.bench_in.push(value("--bench", &mut it)?),
            "--trace" => flags.trace_in = Some(value("--trace", &mut it)?),
            "--max-regression" => flags.max_regression = Some(value("--max-regression", &mut it)?),
            "--max-bench-regression" => {
                flags.max_bench_regression = Some(value("--max-bench-regression", &mut it)?)
            }
            "--max-throughput-drop" => {
                flags.max_throughput_drop = Some(value("--max-throughput-drop", &mut it)?)
            }
            "--allow-flip" => flags.allow_flips.push(value("--allow-flip", &mut it)?),
            "--zoo" => flags.zoo = Some(value("--zoo", &mut it)?),
            "--budgets" => flags.budgets = Some(value("--budgets", &mut it)?),
            "--noise" => flags.noise = Some(value("--noise", &mut it)?),
            "--policies" => flags.policies = Some(value("--policies", &mut it)?),
            "--machine" => flags.machine = Some(value("--machine", &mut it)?),
            "--matrix-out" => flags.matrix_out = Some(value("--matrix-out", &mut it)?),
            "--job-workers" => flags.job_workers = Some(value("--job-workers", &mut it)?),
            "--no-verify" => flags.no_verify = true,
            "--no-fast-path" => flags.no_fast_path = true,
            "--cache-file" => flags.cache_file = Some(value("--cache-file", &mut it)?),
            "--cache-max" => flags.cache_max = Some(value("--cache-max", &mut it)?),
            "--shard" => flags.shard = Some(value("--shard", &mut it)?),
            "--shard-out" => flags.shard_out = Some(value("--shard-out", &mut it)?),
            "--cache-in" => flags.cache_in = Some(value("--cache-in", &mut it)?),
            "--cache-out" => flags.cache_out = Some(value("--cache-out", &mut it)?),
            "--spec-out" => flags.spec_out = Some(value("--spec-out", &mut it)?),
            "--spec" => flags.spec = Some(value("--spec", &mut it)?),
            "--out" => flags.out = Some(value("--out", &mut it)?),
            "--max-records" => flags.max_records = Some(value("--max-records", &mut it)?),
            "--check" => flags.check = true,
            "--trace-out" => flags.trace_out = Some(value("--trace-out", &mut it)?),
            "--metrics" => flags.metrics = true,
            "--quiet" | "-q" => flags.quiet = true,
            "--bench-out" => flags.bench_out = Some(value("--bench-out", &mut it)?),
            "--listen" => flags.listen = Some(value("--listen", &mut it)?),
            "--state-dir" => flags.state_dir = Some(value("--state-dir", &mut it)?),
            "--connect" => flags.connect = Some(value("--connect", &mut it)?),
            "--tenant" => flags.tenant = Some(value("--tenant", &mut it)?),
            "--priority" => flags.priority = Some(value("--priority", &mut it)?),
            "--follow" => flags.follow = true,
            "--quota" => flags.quota = Some(value("--quota", &mut it)?),
            "--help" | "-h" => return Ok(Action::Help),
            other if other.starts_with('-') => {
                return Err(usage_err(format!("unknown flag `{other}`")))
            }
            sub_name @ ("scenarios" | "merge" | "run" | "cache" | "trace" | "report" | "serve"
            | "submit" | "status" | "cancel" | "drain")
                if sub == Sub::Batch && flags.positionals.is_empty() =>
            {
                sub = match sub_name {
                    "scenarios" => Sub::Scenarios,
                    "merge" => Sub::Merge,
                    "run" => Sub::Run,
                    "cache" => Sub::Cache,
                    "trace" => Sub::Trace,
                    "serve" => Sub::Serve,
                    "submit" => Sub::Submit,
                    "status" => Sub::Status,
                    "cancel" => Sub::Cancel,
                    "drain" => Sub::Drain,
                    _ => Sub::Report,
                };
            }
            name => flags.positionals.push(name.to_string()),
        }
    }

    match sub {
        Sub::Batch => batch_action(flags),
        Sub::Scenarios => scenarios_action(flags),
        Sub::Run => run_action(flags),
        Sub::Merge => merge_action(flags),
        Sub::Cache => cache_action(flags),
        Sub::Trace => trace_action(flags),
        Sub::Report => report_action(flags),
        Sub::Serve => serve_action(flags),
        Sub::Submit => submit_action(flags),
        Sub::Status => status_action(flags),
        Sub::Cancel => cancel_action(flags),
        Sub::Drain => drain_action(flags),
    }
}

impl Sub {
    fn name(self) -> &'static str {
        match self {
            Sub::Batch => "the batch mode",
            Sub::Scenarios => "the scenarios mode (hmpt-fleet scenarios …)",
            Sub::Run => "the run mode (hmpt-fleet run spec.toml — the spec carries the settings)",
            Sub::Merge => "the merge mode (hmpt-fleet merge <shard-report.json…>)",
            Sub::Cache => "the cache mode (hmpt-fleet cache compact FILE)",
            Sub::Trace => "the trace mode (hmpt-fleet trace summarize FILE)",
            Sub::Report => "the report mode (hmpt-fleet report {ingest,diff,gate,trend} …)",
            Sub::Serve => "the serve mode (hmpt-fleet serve --listen ADDR --state-dir DIR)",
            Sub::Submit => "the submit mode (hmpt-fleet submit spec.toml --connect ADDR)",
            Sub::Status => "the status mode (hmpt-fleet status [JOB] --connect ADDR)",
            Sub::Cancel => "the cancel mode (hmpt-fleet cancel JOB --connect ADDR)",
            Sub::Drain => "the drain mode (hmpt-fleet drain --connect ADDR)",
        }
    }

    fn short(self) -> &'static str {
        match self {
            Sub::Batch => "batch",
            Sub::Scenarios => "scenarios",
            Sub::Run => "run",
            Sub::Merge => "merge",
            Sub::Cache => "cache",
            Sub::Trace => "trace",
            Sub::Report => "report",
            Sub::Serve => "serve",
            Sub::Submit => "submit",
            Sub::Status => "status",
            Sub::Cancel => "cancel",
            Sub::Drain => "drain",
        }
    }
}

impl Flags {
    /// Every flag, whether this invocation gave it, and the modes it
    /// applies to — the single classification every per-mode rejection
    /// derives from. A new flag gets exactly one row here; there is no
    /// per-mode list to forget it in, so it can never be silently
    /// ignored in some mode.
    fn classified(&self) -> [(&'static str, bool, &'static [Sub]); 52] {
        use Sub::{
            Batch, Cache, Cancel, Drain, Merge, Report, Run, Scenarios, Serve, Status, Submit,
            Trace,
        };
        [
            ("--workers", self.workers.is_some(), &[Batch, Scenarios, Serve]),
            ("--reps", self.reps.is_some(), &[Batch, Scenarios]),
            ("--ci-target", self.ci_target.is_some(), &[Batch, Scenarios]),
            ("--max-reps", self.max_reps.is_some(), &[Batch, Scenarios]),
            ("--seed", self.seed.is_some(), &[Batch, Scenarios]),
            ("--no-cache", self.no_cache, &[Batch, Scenarios]),
            ("--no-compare", self.no_compare, &[Batch]),
            ("--no-online", self.no_online, &[Batch]),
            ("--json", self.json.is_some() || self.json_flag, &[Batch, Trace, Report, Status]),
            ("--zoo", self.zoo.is_some(), &[Scenarios]),
            ("--budgets", self.budgets.is_some(), &[Scenarios]),
            ("--noise", self.noise.is_some(), &[Scenarios]),
            ("--policies", self.policies.is_some(), &[Scenarios]),
            ("--machine", self.machine.is_some(), &[Batch]),
            ("--matrix-out", self.matrix_out.is_some(), &[Scenarios, Merge]),
            ("--job-workers", self.job_workers.is_some(), &[Batch, Scenarios]),
            ("--no-verify", self.no_verify, &[Scenarios]),
            ("--no-fast-path", self.no_fast_path, &[Batch, Scenarios]),
            ("--cache-file", self.cache_file.is_some(), &[Batch, Scenarios, Run]),
            ("--cache-max", self.cache_max.is_some(), &[Batch, Scenarios, Serve]),
            ("--shard", self.shard.is_some(), &[Scenarios, Run]),
            ("--shard-out", self.shard_out.is_some(), &[Scenarios]),
            ("--cache-in", self.cache_in.is_some(), &[Merge]),
            ("--cache-out", self.cache_out.is_some(), &[Merge]),
            ("--spec-out", self.spec_out.is_some(), &[Batch, Scenarios, Run]),
            ("--spec", self.spec.is_some(), &[Merge]),
            ("--out", self.out.is_some(), &[Run, Submit]),
            ("--max-records", self.max_records.is_some(), &[Cache]),
            ("--check", self.check, &[Run]),
            ("--trace-out", self.trace_out.is_some(), &[Batch, Scenarios, Run, Serve]),
            ("--metrics", self.metrics, &[Batch, Scenarios, Run, Serve]),
            ("--quiet", self.quiet, &[Batch, Scenarios, Run, Serve]),
            ("--bench-out", self.bench_out.is_some(), &[Batch, Scenarios, Run]),
            ("--listen", self.listen.is_some(), &[Serve]),
            ("--state-dir", self.state_dir.is_some(), &[Serve]),
            ("--quota", self.quota.is_some(), &[Serve]),
            ("--connect", self.connect.is_some(), &[Submit, Status, Cancel, Drain]),
            ("--tenant", self.tenant.is_some(), &[Submit]),
            ("--priority", self.priority.is_some(), &[Submit]),
            ("--follow", self.follow, &[Submit]),
            ("--warehouse", self.warehouse.is_some(), &[Report]),
            ("--label", self.label.is_some(), &[Report]),
            ("--rev", self.rev.is_some(), &[Report]),
            ("--fingerprint", self.fingerprint.is_some(), &[Report]),
            ("--matrix", self.matrix_in.is_some(), &[Report]),
            ("--batch", self.batch_in.is_some(), &[Report]),
            ("--bench", !self.bench_in.is_empty(), &[Report]),
            ("--trace", self.trace_in.is_some(), &[Report]),
            ("--max-regression", self.max_regression.is_some(), &[Report]),
            ("--max-bench-regression", self.max_bench_regression.is_some(), &[Report]),
            ("--max-throughput-drop", self.max_throughput_drop.is_some(), &[Report]),
            ("--allow-flip", !self.allow_flips.is_empty(), &[Report]),
        ]
    }

    /// Reject every given flag whose row does not allow `sub` —
    /// uniformly, as hard errors naming the modes where it belongs.
    fn reject_out_of_mode(&self, sub: Sub) -> Result<(), UsageError> {
        for (name, present, modes) in self.classified() {
            if present && !modes.contains(&sub) {
                let valid: Vec<&str> = modes.iter().map(|m| m.short()).collect();
                return Err(usage_err(format!(
                    "{name} does not apply to {} (it applies to: {})",
                    sub.name(),
                    valid.join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// The shared `[campaign]`/`[cache]`/policy compilation of the batch
/// and scenarios modes.
fn common_sections(flags: &Flags, spec: &mut CampaignSpec) -> Result<(), UsageError> {
    if flags.max_reps.is_some() && flags.ci_target.is_none() {
        return Err(usage_err("--max-reps only applies with --ci-target"));
    }
    if flags.ci_target.is_some() && flags.policies.is_some() {
        return Err(usage_err("--ci-target conflicts with --policies (spell it ci:T[:M])"));
    }
    if flags.no_cache {
        if flags.cache_file.is_some() {
            return Err(usage_err("--cache-file needs the cache enabled (drop --no-cache)"));
        }
        if flags.cache_max.is_some() {
            return Err(usage_err("--cache-max needs the cache enabled (drop --no-cache)"));
        }
    }
    if flags.reps.is_some() || flags.seed.is_some() {
        spec.campaign = Some(CampaignSection { reps: flags.reps, seed: flags.seed });
    }
    if let Some(target) = flags.ci_target {
        let max = flags.max_reps.or(flags.reps).unwrap_or(3);
        spec.policies = Some(vec![format!("ci:{target}:{max}")]);
    } else if let Some(csv) = &flags.policies {
        spec.policies = Some(split_csv(csv));
    }
    if flags.no_cache || flags.cache_file.is_some() || flags.cache_max.is_some() {
        spec.cache = Some(CacheSection {
            enabled: flags.no_cache.then_some(false),
            file: flags.cache_file.clone(),
            max_records: flags.cache_max,
        });
    }
    if !flags.positionals.is_empty() {
        spec.workloads = Some(flags.positionals.clone());
    }
    Ok(())
}

fn split_csv(csv: &str) -> Vec<String> {
    csv.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
}

/// Fold the telemetry flags into the spec's `[telemetry]` section.
/// Flags beat the section field-by-field (tracing a run is a decision
/// of *this invocation*), and an untouched section passes through — so
/// `run spec.toml` honors a spec-borne `[telemetry]` unless overridden.
fn apply_telemetry(flags: &Flags, spec: &mut CampaignSpec) {
    if flags.trace_out.is_none() && !flags.metrics && !flags.quiet && flags.bench_out.is_none() {
        return;
    }
    let mut section = spec.telemetry.clone().unwrap_or_default();
    if flags.trace_out.is_some() {
        section.trace = flags.trace_out.clone();
    }
    if flags.metrics {
        section.metrics = Some(true);
    }
    if flags.quiet {
        section.quiet = Some(true);
    }
    if flags.bench_out.is_some() {
        section.bench = flags.bench_out.clone();
    }
    spec.telemetry = Some(section);
}

fn batch_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Batch)?;
    let mut spec = CampaignSpec { mode: Some("batch".into()), ..CampaignSpec::default() };
    common_sections(&flags, &mut spec)?;
    spec.machine = flags.machine.clone();
    let exec = ExecutionSection {
        workers: flags.workers,
        job_workers: flags.job_workers,
        compare: flags.no_compare.then_some(false),
        online: flags.no_online.then_some(false),
        fast_path: flags.no_fast_path.then_some(false),
        ..ExecutionSection::default()
    };
    if exec != ExecutionSection::default() {
        spec.execution = Some(exec);
    }
    apply_telemetry(&flags, &mut spec);
    Ok(Action::Execute { spec, spec_out: flags.spec_out, check: false, out: flags.json })
}

fn scenarios_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Scenarios)?;
    if flags.shard.is_none() && flags.shard_out.is_some() {
        return Err(usage_err("--shard-out only applies with --shard"));
    }
    if flags.shard.is_some() && flags.matrix_out.is_some() {
        return Err(usage_err(
            "--matrix-out does not apply with --shard (use --shard-out; \
             `hmpt-fleet merge` produces the matrix report)",
        ));
    }
    if let Some(shard) = &flags.shard {
        parse_shard(shard).map_err(|e| usage_err(format!("--{e}")))?;
    }
    let mut spec = CampaignSpec { mode: Some("matrix".into()), ..CampaignSpec::default() };
    common_sections(&flags, &mut spec)?;
    spec.zoo = flags.zoo.as_deref().map(split_csv);
    spec.budgets = flags.budgets.as_deref().map(split_csv);
    spec.noise = flags
        .noise
        .as_deref()
        .map(|csv| {
            split_csv(csv)
                .iter()
                .map(|s| {
                    s.parse::<f64>()
                        .map_err(|_| usage_err(format!("--noise: `{s}` is not a number")))
                })
                .collect::<Result<Vec<f64>, _>>()
        })
        .transpose()?;
    spec.shard = flags.shard.clone();
    let exec = ExecutionSection {
        workers: flags.workers,
        job_workers: flags.job_workers,
        verify: flags.no_verify.then_some(false),
        fast_path: flags.no_fast_path.then_some(false),
        ..ExecutionSection::default()
    };
    if exec != ExecutionSection::default() {
        spec.execution = Some(exec);
    }
    apply_telemetry(&flags, &mut spec);
    let out = flags.shard_out.or(flags.matrix_out);
    Ok(Action::Execute { spec, spec_out: flags.spec_out, check: false, out })
}

fn run_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Run)?;
    let [path] = &flags.positionals[..] else {
        return Err(usage_err("run takes exactly one spec file (hmpt-fleet run spec.toml)"));
    };
    let mut spec = CampaignSpec::load(path).map_err(usage_err)?;
    // Per-invocation overrides: the shard a CI job executes and the
    // snapshot it owns are job identity, not campaign identity.
    if let Some(shard) = &flags.shard {
        parse_shard(shard).map_err(|e| usage_err(format!("--{e}")))?;
        spec.shard = Some(shard.clone());
    }
    if let Some(file) = &flags.cache_file {
        let mut cache = spec.cache.clone().unwrap_or_default();
        cache.file = Some(file.clone());
        spec.cache = Some(cache);
    }
    apply_telemetry(&flags, &mut spec);
    Ok(Action::Execute { spec, spec_out: flags.spec_out, check: flags.check, out: flags.out })
}

fn merge_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Merge)?;
    if flags.positionals.is_empty() {
        return Err(usage_err("merge needs shard report files"));
    }
    if flags.cache_in.is_some() != flags.cache_out.is_some() {
        return Err(usage_err("--cache-in and --cache-out go together"));
    }
    let cache_in = flags.cache_in.as_deref().map(split_csv).unwrap_or_default();
    if flags.cache_in.is_some() && cache_in.is_empty() {
        return Err(usage_err("--cache-in names no snapshot files"));
    }
    Ok(Action::Merge {
        files: flags.positionals,
        spec: flags.spec,
        matrix_out: flags.matrix_out,
        cache_in,
        cache_out: flags.cache_out,
    })
}

fn cache_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Cache)?;
    match &flags.positionals[..] {
        [verb, file] if verb == "compact" => {
            let max_records = flags
                .max_records
                .ok_or_else(|| usage_err("cache compact needs --max-records N"))?;
            Ok(Action::CacheCompact { file: file.clone(), max_records })
        }
        [verb, ..] if verb != "compact" => {
            Err(usage_err(format!("unknown cache verb `{verb}` (verbs: compact)")))
        }
        _ => Err(usage_err("cache compact takes exactly one snapshot file")),
    }
}

fn trace_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Trace)?;
    match &flags.positionals[..] {
        [verb, file] if verb == "summarize" => {
            Ok(Action::TraceSummarize { file: file.clone(), json: flags.json_flag })
        }
        [verb, ..] if verb != "summarize" => {
            Err(usage_err(format!("unknown trace verb `{verb}` (verbs: summarize)")))
        }
        _ => Err(usage_err("trace summarize takes exactly one trace file")),
    }
}

/// Reject flags that belong to a different report verb — the per-verb
/// analogue of [`Flags::reject_out_of_mode`].
fn reject_out_of_verb(
    verb: &str,
    given: &[(&'static str, bool, &'static str)],
) -> Result<(), UsageError> {
    for (name, present, owner) in given {
        if *present && *owner != verb {
            return Err(usage_err(format!(
                "{name} does not apply to `report {verb}` (it applies to: report {owner})"
            )));
        }
    }
    Ok(())
}

fn report_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Report)?;
    let Some((verb, rest)) = flags.positionals.split_first() else {
        return Err(usage_err("report needs a verb (verbs: ingest, diff, gate, trend)"));
    };
    // Which verb each report flag belongs to (shared ones are checked
    // structurally below).
    // (`--label` is shared: ingest's series name, trend's filter.)
    let owned = [
        ("--label", flags.label.is_some(), if verb == "trend" { "trend" } else { "ingest" }),
        ("--rev", flags.rev.is_some(), "ingest"),
        ("--fingerprint", flags.fingerprint.is_some(), "ingest"),
        ("--matrix", flags.matrix_in.is_some(), "ingest"),
        ("--batch", flags.batch_in.is_some(), "ingest"),
        ("--bench", !flags.bench_in.is_empty(), "ingest"),
        ("--trace", flags.trace_in.is_some(), "ingest"),
        ("--max-regression", flags.max_regression.is_some(), "gate"),
        ("--max-bench-regression", flags.max_bench_regression.is_some(), "gate"),
        ("--max-throughput-drop", flags.max_throughput_drop.is_some(), "gate"),
        ("--allow-flip", !flags.allow_flips.is_empty(), "gate"),
    ];
    match verb.as_str() {
        "ingest" => {
            reject_out_of_verb("ingest", &owned)?;
            if flags.json_flag {
                return Err(usage_err("--json does not apply to `report ingest`"));
            }
            if !rest.is_empty() {
                return Err(usage_err(format!(
                    "report ingest takes no positional arguments (got `{}`)",
                    rest.join(" ")
                )));
            }
            let warehouse =
                flags.warehouse.ok_or_else(|| usage_err("report ingest needs --warehouse DIR"))?;
            let label = flags.label.ok_or_else(|| usage_err("report ingest needs --label NAME"))?;
            if flags.matrix_in.is_none()
                && flags.batch_in.is_none()
                && flags.bench_in.is_empty()
                && flags.trace_in.is_none()
            {
                return Err(usage_err(
                    "report ingest needs at least one source \
                     (--matrix, --batch, --bench, or --trace)",
                ));
            }
            Ok(Action::Report(ReportCmd::Ingest {
                warehouse,
                label,
                rev: flags.rev,
                fingerprint: flags.fingerprint,
                matrix: flags.matrix_in,
                batch: flags.batch_in,
                bench: flags.bench_in,
                trace: flags.trace_in,
            }))
        }
        "diff" | "gate" => {
            let is_gate = verb == "gate";
            reject_out_of_verb(if is_gate { "gate" } else { "diff" }, &owned)?;
            let [base, head] = rest else {
                return Err(usage_err(format!(
                    "report {verb} takes exactly two inputs \
                     (warehouse selectors or artifact files): report {verb} BASE HEAD"
                )));
            };
            if is_gate {
                Ok(Action::Report(ReportCmd::Gate {
                    warehouse: flags.warehouse,
                    base: base.clone(),
                    head: head.clone(),
                    json: flags.json_flag,
                    max_regression: flags.max_regression,
                    max_bench_regression: flags.max_bench_regression,
                    max_throughput_drop: flags.max_throughput_drop,
                    allow_flips: flags.allow_flips,
                }))
            } else {
                Ok(Action::Report(ReportCmd::Diff {
                    warehouse: flags.warehouse,
                    base: base.clone(),
                    head: head.clone(),
                    json: flags.json_flag,
                }))
            }
        }
        "trend" => {
            reject_out_of_verb("trend", &owned)?;
            if !rest.is_empty() {
                return Err(usage_err(format!(
                    "report trend takes no positional arguments (got `{}`); \
                     filter with --label NAME",
                    rest.join(" ")
                )));
            }
            let warehouse =
                flags.warehouse.ok_or_else(|| usage_err("report trend needs --warehouse DIR"))?;
            Ok(Action::Report(ReportCmd::Trend {
                warehouse,
                label: flags.label,
                json: flags.json_flag,
            }))
        }
        other => Err(usage_err(format!(
            "unknown report verb `{other}` (verbs: ingest, diff, gate, trend)"
        ))),
    }
}

fn serve_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Serve)?;
    if !flags.positionals.is_empty() {
        return Err(usage_err(format!(
            "serve takes no positional arguments (got `{}`)",
            flags.positionals.join(" ")
        )));
    }
    let listen = flags.listen.ok_or_else(|| usage_err("serve needs --listen ADDR"))?;
    let state_dir = flags.state_dir.ok_or_else(|| usage_err("serve needs --state-dir DIR"))?;
    Ok(Action::Serve {
        listen,
        state_dir,
        workers: flags.workers,
        quota: flags.quota,
        cache_max: flags.cache_max,
        trace_out: flags.trace_out,
        metrics: flags.metrics,
        quiet: flags.quiet,
    })
}

/// The `--connect ADDR` every client verb requires.
fn connect_of(flags: &Flags, verb: &str) -> Result<String, UsageError> {
    flags.connect.clone().ok_or_else(|| usage_err(format!("{verb} needs --connect ADDR")))
}

/// A positional job id (`status 3`, `cancel 3`).
fn job_id(verb: &str, raw: &str) -> Result<u64, UsageError> {
    raw.parse().map_err(|_| usage_err(format!("{verb}: `{raw}` is not a job id")))
}

fn submit_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Submit)?;
    if flags.out.is_some() && !flags.follow {
        return Err(usage_err("--out only applies with --follow (it stores the fetched report)"));
    }
    let connect = connect_of(&flags, "submit")?;
    let [spec] = &flags.positionals[..] else {
        return Err(usage_err(
            "submit takes exactly one spec file (hmpt-fleet submit spec.toml --connect ADDR)",
        ));
    };
    Ok(Action::Client {
        connect,
        cmd: ClientCmd::Submit {
            spec: spec.clone(),
            tenant: flags.tenant,
            priority: flags.priority,
            follow: flags.follow,
            out: flags.out,
        },
    })
}

fn status_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Status)?;
    let connect = connect_of(&flags, "status")?;
    let job = match &flags.positionals[..] {
        [] => None,
        [raw] => Some(job_id("status", raw)?),
        _ => return Err(usage_err("status takes at most one job id")),
    };
    Ok(Action::Client { connect, cmd: ClientCmd::Status { job, json: flags.json_flag } })
}

fn cancel_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Cancel)?;
    let connect = connect_of(&flags, "cancel")?;
    let [raw] = &flags.positionals[..] else {
        return Err(usage_err("cancel takes exactly one job id (hmpt-fleet cancel JOB)"));
    };
    Ok(Action::Client { connect, cmd: ClientCmd::Cancel { job: job_id("cancel", raw)? } })
}

fn drain_action(flags: Flags) -> Result<Action, UsageError> {
    flags.reject_out_of_mode(Sub::Drain)?;
    let connect = connect_of(&flags, "drain")?;
    if !flags.positionals.is_empty() {
        return Err(usage_err(format!(
            "drain takes no positional arguments (got `{}`)",
            flags.positionals.join(" ")
        )));
    }
    Ok(Action::Client { connect, cmd: ClientCmd::Drain })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TelemetrySection;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn spec_of(cmdline: &str) -> CampaignSpec {
        match parse(args(cmdline)).unwrap() {
            Action::Execute { spec, .. } => spec,
            other => panic!("{cmdline:?} → {other:?}"),
        }
    }

    #[test]
    fn the_default_invocation_compiles_to_the_default_batch_spec() {
        let spec = spec_of("");
        assert_eq!(spec, CampaignSpec { mode: Some("batch".into()), ..CampaignSpec::default() });
    }

    #[test]
    fn batch_flags_land_in_the_right_spec_fields() {
        let spec =
            spec_of("--no-compare --reps 5 --seed 9 --cache-file c.bin --cache-max 100 mg is");
        assert_eq!(spec.workloads, Some(vec!["mg".to_string(), "is".to_string()]));
        assert_eq!(spec.campaign, Some(CampaignSection { reps: Some(5), seed: Some(9) }));
        assert_eq!(
            spec.execution,
            Some(ExecutionSection { compare: Some(false), ..ExecutionSection::default() })
        );
        assert_eq!(
            spec.cache,
            Some(CacheSection {
                enabled: None,
                file: Some("c.bin".into()),
                max_records: Some(100)
            })
        );
    }

    #[test]
    fn ci_target_compiles_to_a_canonical_policy_spelling() {
        assert_eq!(spec_of("--ci-target 0.02").policies, Some(vec!["ci:0.02:3".to_string()]));
        assert_eq!(
            spec_of("--ci-target 0.02 --max-reps 5").policies,
            Some(vec!["ci:0.02:5".to_string()])
        );
        assert_eq!(
            spec_of("--ci-target 0.02 --reps 4").policies,
            Some(vec!["ci:0.02:4".to_string()])
        );
    }

    #[test]
    fn scenarios_flags_compile_to_a_matrix_spec() {
        let spec = spec_of(
            "scenarios mg --zoo xeon-max,hbm-flat --budgets none,8 --noise 0.008,0 \
             --policies fixed,ci:0.02:5 --job-workers 0 --no-verify",
        );
        assert_eq!(spec.mode.as_deref(), Some("matrix"));
        assert_eq!(spec.zoo, Some(vec!["xeon-max".to_string(), "hbm-flat".to_string()]));
        assert_eq!(spec.budgets, Some(vec!["none".to_string(), "8".to_string()]));
        assert_eq!(spec.noise, Some(vec![0.008, 0.0]));
        assert_eq!(spec.policies, Some(vec!["fixed".to_string(), "ci:0.02:5".to_string()]));
        assert_eq!(
            spec.execution,
            Some(ExecutionSection {
                job_workers: Some(0),
                verify: Some(false),
                ..ExecutionSection::default()
            })
        );
    }

    #[test]
    fn shard_flags_set_the_spec_range_and_route_output() {
        match parse(args("scenarios --shard 2/3 --shard-out s.json")).unwrap() {
            Action::Execute { spec, out, .. } => {
                assert_eq!(spec.shard.as_deref(), Some("2/3"));
                assert_eq!(out.as_deref(), Some("s.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn telemetry_flags_compile_to_the_telemetry_section() {
        let spec = spec_of("--trace-out t.jsonl --metrics --quiet --bench-out b.jsonl");
        assert_eq!(
            spec.telemetry,
            Some(TelemetrySection {
                trace: Some("t.jsonl".into()),
                metrics: Some(true),
                quiet: Some(true),
                bench: Some("b.jsonl".into()),
            })
        );
        assert_eq!(spec_of("scenarios --trace-out t.jsonl").telemetry.unwrap().trace.as_deref(), {
            Some("t.jsonl")
        });
        assert_eq!(spec_of("").telemetry, None, "no flags, no section");
    }

    #[test]
    fn kernel_flags_compile_to_the_execution_section() {
        assert_eq!(spec_of("--no-fast-path").execution.unwrap().fast_path, Some(false));
        assert_eq!(spec_of("scenarios --no-fast-path").execution.unwrap().fast_path, Some(false));
        assert_eq!(spec_of("").execution, None, "the default stays implicit");
    }

    #[test]
    fn trace_summarize_parses_to_its_action() {
        assert_eq!(
            parse(args("trace summarize t.jsonl")).unwrap(),
            Action::TraceSummarize { file: "t.jsonl".into(), json: false }
        );
        assert_eq!(
            parse(args("trace summarize t.jsonl --json")).unwrap(),
            Action::TraceSummarize { file: "t.jsonl".into(), json: true }
        );
    }

    #[test]
    fn report_verbs_parse_to_their_actions() {
        assert_eq!(
            parse(args(
                "report ingest --warehouse w --label zoo --matrix m.json \
                 --bench a.json --bench b.json --trace t.jsonl --rev 4 --fingerprint ff"
            ))
            .unwrap(),
            Action::Report(ReportCmd::Ingest {
                warehouse: "w".into(),
                label: "zoo".into(),
                rev: Some(4),
                fingerprint: Some("ff".into()),
                matrix: Some("m.json".into()),
                batch: None,
                bench: vec!["a.json".into(), "b.json".into()],
                trace: Some("t.jsonl".into()),
            })
        );
        assert_eq!(
            parse(args("report diff base.json head.json --json")).unwrap(),
            Action::Report(ReportCmd::Diff {
                warehouse: None,
                base: "base.json".into(),
                head: "head.json".into(),
                json: true,
            })
        );
        assert_eq!(
            parse(args(
                "report gate --warehouse w zoo@1 zoo --max-regression 0.02 \
                 --max-bench-regression 0.1 --allow-flip a --allow-flip b"
            ))
            .unwrap(),
            Action::Report(ReportCmd::Gate {
                warehouse: Some("w".into()),
                base: "zoo@1".into(),
                head: "zoo".into(),
                json: false,
                max_regression: Some(0.02),
                max_bench_regression: Some(0.1),
                max_throughput_drop: None,
                allow_flips: vec!["a".into(), "b".into()],
            })
        );
        assert_eq!(
            parse(args("report trend --warehouse w --label zoo --json")).unwrap(),
            Action::Report(ReportCmd::Trend {
                warehouse: "w".into(),
                label: Some("zoo".into()),
                json: true,
            })
        );
    }

    #[test]
    fn service_verbs_parse_to_their_actions() {
        assert_eq!(
            parse(args(
                "serve --listen 127.0.0.1:7070 --state-dir st --workers 4 --quota 2 \
                 --cache-max 500 --trace-out d.jsonl --quiet"
            ))
            .unwrap(),
            Action::Serve {
                listen: "127.0.0.1:7070".into(),
                state_dir: "st".into(),
                workers: Some(4),
                quota: Some(2),
                cache_max: Some(500),
                trace_out: Some("d.jsonl".into()),
                metrics: false,
                quiet: true,
            }
        );
        assert_eq!(
            parse(args(
                "submit zoo.toml --connect 127.0.0.1:7070 --tenant ci --priority -2 \
                 --follow --out r.json"
            ))
            .unwrap(),
            Action::Client {
                connect: "127.0.0.1:7070".into(),
                cmd: ClientCmd::Submit {
                    spec: "zoo.toml".into(),
                    tenant: Some("ci".into()),
                    priority: Some(-2),
                    follow: true,
                    out: Some("r.json".into()),
                },
            }
        );
        assert_eq!(
            parse(args("status --connect h:1 3 --json")).unwrap(),
            Action::Client {
                connect: "h:1".into(),
                cmd: ClientCmd::Status { job: Some(3), json: true },
            }
        );
        assert_eq!(
            parse(args("status --connect h:1")).unwrap(),
            Action::Client {
                connect: "h:1".into(),
                cmd: ClientCmd::Status { job: None, json: false }
            }
        );
        assert_eq!(
            parse(args("cancel 7 --connect h:1")).unwrap(),
            Action::Client { connect: "h:1".into(), cmd: ClientCmd::Cancel { job: 7 } }
        );
        assert_eq!(
            parse(args("drain --connect h:1")).unwrap(),
            Action::Client { connect: "h:1".into(), cmd: ClientCmd::Drain }
        );
    }

    #[test]
    fn conflicting_and_dangling_flags_are_uniform_hard_errors() {
        for cmdline in [
            "--max-reps 5",                                // dangling: needs --ci-target
            "--zoo xeon-max",                              // scenarios-only in batch mode
            "--shard 1/2",                                 // scenarios-only in batch mode
            "scenarios --json x.json",                     // batch-only in scenarios mode
            "scenarios --no-online",                       // batch-only in scenarios mode
            "scenarios --ci-target 0.1 --policies fixed",  // conflict
            "scenarios --shard-out s.json",                // dangling: needs --shard
            "scenarios --shard 1/2 --matrix-out m.json",   // conflict
            "scenarios --shard 0/2",                       // malformed shard
            "--no-cache --cache-file c.bin",               // conflict
            "--no-cache --cache-max 10",                   // conflict
            "--serial",                                    // not a flag: serial is the default
            "scenarios --fast-path",                       // not a flag: the kernel is the default
            "merge a.json --no-fast-path",                 // run flag in merge mode
            "merge a.json --reps 3",                       // run flag in merge mode
            "merge a.json --cache-in a.bin",               // dangling: needs --cache-out
            "merge",                                       // no shard files
            "cache compact c.bin",                         // missing --max-records
            "cache shrink c.bin --max-records 3",          // unknown verb
            "run",                                         // missing spec file
            "run a.toml b.toml",                           // too many spec files
            "run a.toml --reps 3",                         // spec-borne setting as flag
            "--frobnicate",                                // unknown flag
            "merge a.json --trace-out t.jsonl",            // telemetry flag outside run modes
            "trace",                                       // missing verb + file
            "trace summarize",                             // missing trace file
            "trace summarize a.jsonl b.jsonl",             // too many trace files
            "trace render t.jsonl",                        // unknown trace verb
            "trace summarize t.jsonl --metrics",           // no run flags in trace mode
            "report",                                      // missing verb
            "report prune",                                // unknown report verb
            "report ingest --warehouse w --label l",       // no sources
            "report ingest --label l --matrix m.json",     // missing --warehouse
            "report ingest --warehouse w --matrix m.json", // missing --label
            "report ingest --warehouse w --label l --matrix m.json x", // stray positional
            "report ingest --warehouse w --label l --matrix m.json --json", // ingest has no --json
            "report diff a.json",                          // one input
            "report diff a b c",                           // three inputs
            "report diff a b --max-regression 0.1",        // gate flag on diff
            "report diff a b --label l",                   // ingest flag on diff
            "report gate a b --matrix m.json",             // ingest flag on gate
            "report trend",                                // missing --warehouse
            "report trend --warehouse w x",                // stray positional
            "report trend --warehouse w --rev 3",          // ingest flag on trend
            "report diff a b --metrics",                   // run flag in report mode
            "scenarios --warehouse w",                     // report flag in run modes
            "serve",                                       // missing --listen + --state-dir
            "serve --listen h:1",                          // missing --state-dir
            "serve --listen h:1 --state-dir st x",         // stray positional
            "serve --listen h:1 --state-dir st --follow",  // submit flag in serve mode
            "--listen h:1",                                // serve flag in batch mode
            "submit --connect h:1",                        // missing spec file
            "submit a.toml",                               // missing --connect
            "submit a.toml b.toml --connect h:1",          // too many spec files
            "submit a.toml --connect h:1 --out r.json",    // dangling: needs --follow
            "submit a.toml --connect h:1 --json x",        // status flag in submit mode
            "status --connect h:1 1 2",                    // too many job ids
            "status --connect h:1 nope",                   // non-numeric job id
            "status 3",                                    // missing --connect
            "cancel --connect h:1",                        // missing job id
            "cancel 3 --connect h:1 --tenant t",           // submit flag in cancel mode
            "drain",                                       // missing --connect
            "drain --connect h:1 x",                       // stray positional
            "drain --connect h:1 --quiet",                 // serve flag in drain mode
        ] {
            let err = parse(args(cmdline)).expect_err(cmdline);
            assert!(!err.0.is_empty(), "{cmdline:?}");
        }
    }

    #[test]
    fn compiled_specs_resolve() {
        for cmdline in [
            "",
            "mg is --reps 2 --seed 5 --no-compare --no-online",
            "--ci-target 0.02 --max-reps 4",
            "--no-fast-path",
            "scenarios",
            "scenarios --no-fast-path",
            "scenarios mg --zoo xeon-max --budgets none --policies fixed:2,ci:0.05 --noise 0.01",
            "scenarios --shard 1/3",
        ] {
            let spec = spec_of(cmdline);
            spec.resolve().unwrap_or_else(|e| panic!("{cmdline:?} → {e}"));
            // And the compiled spec round-trips through its TOML form.
            assert_eq!(CampaignSpec::parse(&spec.to_toml()).unwrap(), spec, "{cmdline:?}");
        }
    }
}
