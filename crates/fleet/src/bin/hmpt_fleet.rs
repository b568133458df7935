//! `hmpt-fleet` — declarative campaign execution.
//!
//! Every invocation compiles to a [`CampaignSpec`] and executes through
//! the typed `Request → Response` facade (`hmpt_fleet::api`); this
//! binary is a thin shell that parses flags (`hmpt_fleet::cli`), prints
//! progress, and renders the response as JSON.
//!
//! ```text
//! hmpt-fleet                       # full Table II batch: compare + cached run + JSON
//! hmpt-fleet mg sp --reps 5        # a subset of workloads, campaign overrides
//! hmpt-fleet --ci-target 0.02      # adaptive repetitions
//! hmpt-fleet --machine cxl-far     # the batch on another zoo machine
//! hmpt-fleet --cache-file c.bin --cache-max 100000   # bounded persistent cache
//! ```
//!
//! ## Scenario matrices (`hmpt-fleet scenarios`)
//!
//! ```text
//! hmpt-fleet scenarios             # standard zoo × Table II workloads × budgets
//! hmpt-fleet scenarios mg is \
//!   --zoo xeon-max,hbm-flat,cxl-far,xeon-max*hbm-bw:0.5 \
//!   --budgets none,16,8 --noise 0.008,0 \
//!   --policies fixed,fixed:5,ci:0.02:5    # repetition-policy axis
//! hmpt-fleet scenarios --shard 1/3 --shard-out s1.json --cache-file c1.bin
//! hmpt-fleet merge s1.json s2.json s3.json --matrix-out matrix.json \
//!   --cache-in c1.bin,c2.bin,c3.bin --cache-out merged.bin
//! ```
//!
//! ## Campaign specs (`hmpt-fleet run`)
//!
//! Campaigns are data: any flag invocation emits the spec it denotes
//! (`--spec-out spec.toml`), and a spec file executes identically to
//! the flags it came from —
//!
//! ```text
//! hmpt-fleet scenarios --budgets none,8 --spec-out spec.toml   # compile, don't run
//! hmpt-fleet run spec.toml                                     # same campaign
//! hmpt-fleet run spec.toml --check                             # parse + fingerprint only
//! hmpt-fleet run examples/zoo.toml --shard 2/3 --cache-file c2.bin --out s2.json
//! hmpt-fleet merge s*.json --spec examples/zoo.toml            # validate against the spec
//! ```
//!
//! The spec's content fingerprint covers everything that determines
//! result bits and nothing that doesn't, so shard jobs driven by one
//! checked-in spec file refuse to merge with anything else.
//!
//! ## Cache maintenance (`hmpt-fleet cache compact`)
//!
//! ```text
//! hmpt-fleet cache compact cells.bin --max-records 50000
//! ```

use hmpt_core::exec::available_workers;
use hmpt_fleet::api::{self, BatchOutcome, Comparison, MergeRequest, Request, Response};
use hmpt_fleet::cli::{self, Action, ClientCmd, ReportCmd};
use hmpt_fleet::spec::{CampaignSpec, Resolved, ResolvedBatch, TelemetrySection};
use hmpt_fleet::telemetry::{bench_jsonl, summarize_trace, summarize_trace_json, BenchLine};
use hmpt_fleet::{store, MatrixReport, ScenarioRow, ShardReport};
use hmpt_obs::{Collector, Fanout, JsonlCollector, MemoryCollector, StderrCollector};
use hmpt_report::{CampaignRecord, Thresholds, Warehouse};
use hmpt_served::state::{JobState, JobStatus};
use hmpt_served::wire::StatusView;
use hmpt_served::{Client, Coordinator, CoordinatorConfig, Server};
use hmpt_sim::units::as_gib;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: hmpt-fleet [options] [workload...]\n\
         \x20      hmpt-fleet scenarios [options] [workload...]\n\
         \x20      hmpt-fleet run <spec.toml|spec.json> [run options]\n\
         \x20      hmpt-fleet merge <shard-report.json...> [--matrix-out P]\n\
         \x20                       [--cache-in LIST --cache-out P] [--spec P]\n\
         \x20      hmpt-fleet cache compact <snapshot> --max-records N\n\
         \x20      hmpt-fleet trace summarize <trace.jsonl> [--json]\n\
         \x20      hmpt-fleet report ingest --warehouse DIR --label L [sources]\n\
         \x20      hmpt-fleet report diff <base> <head> [--warehouse DIR] [--json]\n\
         \x20      hmpt-fleet report gate <base> <head> [gate options]\n\
         \x20      hmpt-fleet report trend --warehouse DIR [--label L] [--json]\n\
         \x20      hmpt-fleet serve --listen ADDR --state-dir DIR [serve options]\n\
         \x20      hmpt-fleet submit <spec.toml> --connect ADDR [submit options]\n\
         \x20      hmpt-fleet status [JOB] --connect ADDR [--json]\n\
         \x20      hmpt-fleet cancel JOB --connect ADDR\n\
         \x20      hmpt-fleet drain --connect ADDR\n\
         options:\n\
         \x20 --job-workers N jobs/campaign groups run at once, each one's cells\n\
         \x20                 serially (default 0 = one per CPU)\n\
         \x20 --serial        run a lone job's cells serially (the default)\n\
         \x20 --workers N     run a lone job's cells on a pool of N (0 = one per\n\
         \x20                 CPU); a lone job is a one-job run or --job-workers 1\n\
         \x20 --reps N        runs per configuration (default 3; --runs is an alias)\n\
         \x20 --ci-target X   adaptive repetitions: retire a configuration once its\n\
         \x20                 95% CI half-width falls to X of the mean (e.g. 0.02)\n\
         \x20 --max-reps M    repetition ceiling under --ci-target (default: --reps)\n\
         \x20 --seed S        campaign base seed (default: paper default)\n\
         \x20 --machine M     batch platform as a zoo entry (default: xeon-max)\n\
         \x20 --no-cache      bypass the content-addressed measurement cache\n\
         \x20 --fast-path     evaluate cells with the batched cold-path kernel\n\
         \x20                 (the default; bit-identical to the naive pipeline)\n\
         \x20 --no-fast-path  force the naive per-cell pipeline (timing baselines)\n\
         \x20 --no-compare    skip the serial-vs-parallel comparison pass\n\
         \x20 --no-online     skip the online-tuner verification pass\n\
         \x20 --json PATH     write the JSON report to PATH (default: stdout)\n\
         \x20 --cache-file P  persistent measurement cache: load the snapshot on\n\
         \x20                 start (if present), save it back on finish unless\n\
         \x20                 the run left the snapshot's content unchanged\n\
         \x20 --cache-max N   LRU-sweep the cache to N records at save time\n\
         \x20 --spec-out P    write the campaign spec this invocation denotes\n\
         \x20                 (TOML, or JSON for .json) and exit without running\n\
         telemetry options (batch, scenarios, run):\n\
         \x20 --trace-out P   write a span/counter/event trace (JSONL) to P\n\
         \x20 --metrics       print the aggregated metrics table on finish\n\
         \x20 --quiet, -q     suppress info-level status lines (warnings remain)\n\
         \x20 --bench-out P   write criterion-style {{\"bench\":…}} JSONL timings to P\n\
         scenarios options:\n\
         \x20 --zoo LIST      comma-separated machines: presets (xeon-max,\n\
         \x20                 xeon-max-quad, hbm-flat, cxl-far, small-hbm) with\n\
         \x20                 optional axes, e.g. xeon-max*hbm-bw:0.5*lat-gap:2\n\
         \x20                 (default: every preset plus an hbm-bw sweep)\n\
         \x20 --budgets LIST  HBM budgets in GiB; `none` = unbudgeted\n\
         \x20                 (default: none,16,8)\n\
         \x20 --policies LIST repetition-policy axis: fixed[:N] and ci:T[:M]\n\
         \x20                 entries (default: fixed)\n\
         \x20 --noise LIST    noise-level axis as cv values (default: campaign cv)\n\
         \x20 --matrix-out P  write the JSON matrix report to P (default: stdout)\n\
         \x20 --no-verify     skip the serial-uncached bit-identity re-run\n\
         \x20 --shard K/N     run only the K-th of N index-range shards (1-based)\n\
         \x20                 and emit a shard report for `hmpt-fleet merge`\n\
         \x20 --shard-out P   write the shard report JSON to P (default: stdout)\n\
         run options:\n\
         \x20 --shard K/N     override the spec's shard range (CI job identity)\n\
         \x20 --cache-file P  override the spec's cache snapshot path\n\
         \x20 --out P         write the JSON report to P (default: stdout)\n\
         \x20 --check         parse + resolve + print the fingerprint; don't run\n\
         merge options:\n\
         \x20 --matrix-out P  write the merged matrix report to P (default: stdout)\n\
         \x20 --cache-in L    comma-separated cache snapshots to merge (LWW)\n\
         \x20 --cache-out P   write the merged cache snapshot to P\n\
         \x20 --spec P        require every shard to match this spec's fingerprint\n\
         report ingest sources (at least one; all repeat-friendly where noted):\n\
         \x20 --matrix P      a matrix report (scenarios / run / merge output)\n\
         \x20 --batch P       a batch report (plain `hmpt-fleet` output)\n\
         \x20 --bench P       criterion-style BENCH JSONL (repeatable)\n\
         \x20 --trace P       a span/counter trace (JSONL)\n\
         \x20 --rev N         pin the revision (default: last in series + 1)\n\
         \x20 --fingerprint F override the spec fingerprint key\n\
         report diff/gate sides: an artifact file path, or a warehouse\n\
         \x20 selector `label` (latest) / `label@rev` with --warehouse DIR\n\
         gate options:\n\
         \x20 --max-regression X        tolerated speedup drop (default 0)\n\
         \x20 --max-bench-regression X  gate bench mean-time growth (opt-in)\n\
         \x20 --max-throughput-drop X   gate cells/sec drop (opt-in)\n\
         \x20 --allow-flip KEY          allowlist a placement flip (repeatable)\n\
         \x20 --json                    machine-readable output (diff/gate/trend)\n\
         serve options (the campaign-service daemon):\n\
         \x20 --workers N     campaign groups a served job runs at once, each\n\
         \x20                 group's cells serially (default: one per CPU but\n\
         \x20                 one, at least one);\n\
         \x20                 a spec's serial, workers and job_workers are ignored\n\
         \x20 --quota N       max live jobs per tenant (default 4)\n\
         \x20 --cache-max N   LRU bound on the shared cross-job cache\n\
         \x20 --trace-out P   write the daemon's span/counter trace (JSONL) to P\n\
         \x20 --metrics       print the metrics table when the daemon exits\n\
         \x20 --quiet, -q     suppress info-level status lines (warnings remain)\n\
         \x20 (SIGTERM or `hmpt-fleet drain` stops it gracefully: the running\n\
         \x20  job finishes, queued jobs persist and are adopted on restart)\n\
         submit options:\n\
         \x20 --tenant T      tenant the job counts against (default: default)\n\
         \x20 --priority N    queue priority; higher runs earlier (default 0)\n\
         \x20 --follow        wait for the job and fetch its merged report\n\
         \x20 --out P         write the fetched report to P (with --follow)\n\
         (workloads: built-in names like mg, sp, kwave; default: all seven)"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("hmpt-fleet: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(args) {
        Err(e) => {
            eprintln!("hmpt-fleet: {e}");
            usage();
        }
        Ok(Action::Help) => usage(),
        Ok(Action::Execute { spec, spec_out, check, out }) => {
            if let Some(path) = spec_out {
                let fingerprint = spec.fingerprint().unwrap_or_else(|e| fail(e));
                spec.save(&path).unwrap_or_else(|e| fail(e));
                hmpt_obs::info(
                    "fleet.status",
                    format!("campaign spec written to {path} (fingerprint {fingerprint})"),
                );
                return;
            }
            if check {
                let resolved = spec.resolve().unwrap_or_else(|e| fail(e));
                describe(&resolved);
                println!("{}", resolved.fingerprint());
                return;
            }
            execute(spec, out);
        }
        Ok(Action::Merge { files, spec, matrix_out, cache_in, cache_out }) => {
            merge(files, spec, matrix_out, cache_in, cache_out)
        }
        Ok(Action::CacheCompact { file, max_records }) => {
            let report = store::compact(&file, max_records as usize)
                .unwrap_or_else(|e| fail(format!("cannot compact {file}: {e}")));
            hmpt_obs::info(
                "fleet.cache",
                format!(
                    "cache snapshot {file}: {} records read{} → {} evicted, {} kept",
                    report.loaded,
                    if report.unreadable > 0 {
                        format!(" ({} unreadable dropped)", report.unreadable)
                    } else {
                        String::new()
                    },
                    report.evicted,
                    report.kept,
                ),
            );
        }
        Ok(Action::TraceSummarize { file, json }) => {
            let text = std::fs::read_to_string(&file)
                .unwrap_or_else(|e| fail(format!("cannot read {file}: {e}")));
            let render = if json { summarize_trace_json } else { summarize_trace };
            let summary = render(&text).unwrap_or_else(|e| fail(format!("{file}: {e}")));
            if json {
                println!("{summary}");
            } else {
                print!("{summary}");
            }
        }
        Ok(Action::Report(cmd)) => report(cmd),
        Ok(Action::Serve {
            listen,
            state_dir,
            workers,
            quota,
            cache_max,
            trace_out,
            metrics,
            quiet,
        }) => serve(listen, state_dir, workers, quota, cache_max, trace_out, metrics, quiet),
        Ok(Action::Client { connect, cmd }) => client(connect, cmd),
    }
}

/// The daemon: open the state dir, bind the listener, run jobs until
/// drained (by SIGTERM or a `drain` frame), then flush and exit.
#[allow(clippy::too_many_arguments)]
fn serve(
    listen: String,
    state_dir: String,
    workers: Option<usize>,
    quota: Option<usize>,
    cache_max: Option<u64>,
    trace_out: Option<String>,
    metrics: bool,
    quiet: bool,
) {
    let telemetry = TelemetrySection {
        trace: trace_out,
        metrics: metrics.then_some(true),
        quiet: quiet.then_some(true),
        bench: None,
    };
    let memory = install_telemetry(&telemetry);
    let mut cfg = CoordinatorConfig::new(&state_dir);
    if let Some(w) = workers {
        cfg.workers = w;
    }
    if let Some(q) = quota {
        cfg.tenant_quota = q;
    }
    cfg.cache_max_records = cache_max;
    let coordinator = Arc::new(Coordinator::open(cfg).unwrap_or_else(|e| fail(e)));
    let server = Server::start(coordinator.clone(), &listen)
        .unwrap_or_else(|e| fail(format!("cannot listen on {listen}: {e}")));
    hmpt_obs::info(
        "serve.status",
        format!(
            "listening on {} (state dir {state_dir}, {} cached cell(s))",
            server.addr(),
            coordinator.cache_len()
        ),
    );
    #[cfg(unix)]
    watch_sigterm(coordinator.clone());
    coordinator.run();
    hmpt_obs::flush();
    if let Some(memory) = &memory {
        print_metrics(memory);
    }
}

/// Turn SIGTERM into a graceful drain. The handler itself only flips an
/// atomic (the async-signal-safe subset); a watcher thread notices and
/// calls the coordinator verb.
#[cfg(unix)]
fn watch_sigterm(coordinator: Arc<Coordinator>) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigterm(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
    std::thread::spawn(move || loop {
        if REQUESTED.load(Ordering::SeqCst) {
            let (queued, running) = coordinator.drain();
            hmpt_obs::info(
                "serve.status",
                format!("SIGTERM: draining ({queued} queued, {running} running)"),
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    });
}

/// The service-client verbs (`submit`, `status`, `cancel`, `drain`).
fn client(connect: String, cmd: ClientCmd) {
    let mut client = Client::connect(connect.as_str())
        .unwrap_or_else(|e| fail(format!("cannot connect to {connect}: {e}")));
    match cmd {
        ClientCmd::Submit { spec, tenant, priority, follow, out } => {
            let text = std::fs::read_to_string(&spec)
                .unwrap_or_else(|e| fail(format!("cannot read {spec}: {e}")));
            let tenant = tenant.unwrap_or_else(|| "default".to_string());
            let (job, fingerprint) =
                client.submit(&tenant, priority.unwrap_or(0), &text).unwrap_or_else(|e| fail(e));
            hmpt_obs::info(
                "serve.client",
                format!("job {job} admitted for tenant {tenant} (spec {fingerprint})"),
            );
            if !follow {
                return;
            }
            let status = client.wait(job, Duration::from_millis(200)).unwrap_or_else(|e| fail(e));
            match status.state {
                JobState::Completed => {
                    if let Some(s) = &status.stats {
                        hmpt_obs::info(
                            "serve.client",
                            format!(
                                "job {job} completed: {} scenarios, {} simulated / {} skipped \
                                 cell(s), {:.3}s wall ({:.3}s merge)",
                                s.scenarios,
                                s.simulated_cells,
                                s.cells_skipped,
                                s.wall_s,
                                s.merge_s
                            ),
                        );
                    }
                    let report = client.report(job).unwrap_or_else(|e| fail(e));
                    write_json(&report, out.as_deref(), "matrix report");
                }
                JobState::Failed => fail(format!(
                    "job {job} failed: {}",
                    status.error.as_deref().unwrap_or("(no error recorded)")
                )),
                state => fail(format!("job {job} ended {state}")),
            }
        }
        ClientCmd::Status { job, json } => {
            let view = client.status(job).unwrap_or_else(|e| fail(e));
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&view)
                        .unwrap_or_else(|e| fail(format!("status serialization: {e}")))
                );
            } else {
                print_status(&view);
            }
        }
        ClientCmd::Cancel { job } => {
            client.cancel(job).unwrap_or_else(|e| fail(e));
            hmpt_obs::info("serve.client", format!("job {job} cancelled"));
        }
        ClientCmd::Drain => {
            let (queued, running) = client.drain().unwrap_or_else(|e| fail(e));
            hmpt_obs::info(
                "serve.client",
                format!(
                    "service draining: {running} running job(s) will finish, \
                     {queued} queued job(s) persist for the next start"
                ),
            );
        }
    }
}

/// The human `status` table.
fn print_status(view: &StatusView) {
    println!("queue depth {}{}", view.queue_depth, if view.draining { " (draining)" } else { "" });
    if view.jobs.is_empty() {
        return;
    }
    println!(
        "{:>5} {:<12} {:>4} {:<10} {:>9} {:>9} {:>9}  detail",
        "job", "tenant", "prio", "state", "simulated", "skipped", "wall"
    );
    for row in &view.jobs {
        println!("{}", status_line(row));
    }
}

fn status_line(row: &JobStatus) -> String {
    let (simulated, skipped, wall) = match &row.stats {
        Some(s) => (
            s.simulated_cells.to_string(),
            s.cells_skipped.to_string(),
            format!("{:.2}s", s.wall_s),
        ),
        None => ("-".into(), "-".into(), "-".into()),
    };
    format!(
        "{:>5} {:<12} {:>4} {:<10} {:>9} {:>9} {:>9}  {}",
        row.job,
        row.tenant,
        row.priority,
        row.state,
        simulated,
        skipped,
        wall,
        row.error.as_deref().unwrap_or(&row.fingerprint),
    )
}

/// Read one side of a diff/gate: an artifact file if the argument names
/// one, else a warehouse selector (`label` / `label@rev`).
fn load_side(warehouse: Option<&Warehouse>, arg: &str) -> CampaignRecord {
    let path = std::path::Path::new(arg);
    if path.is_file() {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {arg}: {e}")));
        let label = path.file_stem().and_then(|s| s.to_str()).unwrap_or(arg);
        CampaignRecord::from_artifact_text(&text, label)
            .unwrap_or_else(|e| fail(format!("{arg}: {e}")))
    } else if let Some(w) = warehouse {
        let entry = w.resolve(arg).unwrap_or_else(|e| fail(e));
        w.load(&entry).unwrap_or_else(|e| fail(e))
    } else {
        fail(format!(
            "`{arg}` is not a readable file; to use it as a warehouse selector, pass --warehouse DIR"
        ))
    }
}

/// The warehouse verbs (`hmpt-fleet report …`).
fn report(cmd: ReportCmd) {
    match cmd {
        ReportCmd::Ingest { warehouse, label, rev, fingerprint, matrix, batch, bench, trace } => {
            let w = Warehouse::open(&warehouse).unwrap_or_else(|e| fail(e));
            let read = |path: &str| {
                std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
            };
            let mut record = CampaignRecord::new(&label);
            if let Some(path) = &matrix {
                let report: MatrixReport = serde_json::from_str(&read(path))
                    .unwrap_or_else(|e| fail(format!("{path} is not a matrix report: {e}")));
                record.absorb_matrix(&report);
            }
            if let Some(path) = &batch {
                let v = serde_json::parse(&read(path))
                    .unwrap_or_else(|e| fail(format!("{path} is not JSON: {e}")));
                record.absorb_batch(&v).unwrap_or_else(|e| fail(format!("{path}: {e}")));
            }
            for path in &bench {
                record
                    .absorb_bench_jsonl(&read(path))
                    .unwrap_or_else(|e| fail(format!("{path}: {e}")));
            }
            if let Some(path) = &trace {
                record.absorb_trace(&read(path)).unwrap_or_else(|e| fail(format!("{path}: {e}")));
            }
            if let Some(fp) = fingerprint {
                record.spec_fingerprint = fp;
            }
            if let Some(rev) = rev {
                record.revision = rev;
            }
            let (scenarios, benches) = (record.scenarios.len(), record.benches.len());
            let entry = w.ingest(record).unwrap_or_else(|e| fail(e));
            hmpt_obs::info(
                "fleet.report",
                format!(
                    "ingested {} into {} ({scenarios} scenario(s), {benches} bench(es)) as {}",
                    entry.selector(),
                    warehouse,
                    entry.file,
                ),
            );
        }
        ReportCmd::Diff { warehouse, base, head, json } => {
            let w = warehouse.map(|d| Warehouse::open(d).unwrap_or_else(|e| fail(e)));
            let diff =
                hmpt_report::diff(&load_side(w.as_ref(), &base), &load_side(w.as_ref(), &head));
            if json {
                println!("{}", diff.to_json_string());
            } else {
                print!("{}", diff.render_human());
            }
        }
        ReportCmd::Gate {
            warehouse,
            base,
            head,
            json,
            max_regression,
            max_bench_regression,
            max_throughput_drop,
            allow_flips,
        } => {
            let w = warehouse.map(|d| Warehouse::open(d).unwrap_or_else(|e| fail(e)));
            let diff =
                hmpt_report::diff(&load_side(w.as_ref(), &base), &load_side(w.as_ref(), &head));
            let thresholds = Thresholds {
                max_regression: max_regression.unwrap_or(0.0),
                max_bench_regression,
                max_throughput_drop,
                allowed_flips: allow_flips,
            };
            let gate = hmpt_report::gate(&diff, &thresholds);
            if json {
                println!("{}", gate.to_json_string());
            } else {
                print!("{}", gate.render_human());
            }
            if !gate.passed {
                std::process::exit(1);
            }
        }
        ReportCmd::Trend { warehouse, label, json } => {
            let w = Warehouse::open(&warehouse).unwrap_or_else(|e| fail(e));
            let entries = w.series(label.as_deref()).unwrap_or_else(|e| fail(e));
            let records: Vec<CampaignRecord> =
                entries.iter().map(|e| w.load(e).unwrap_or_else(|e| fail(e))).collect();
            let view = hmpt_report::trend(&records);
            if json {
                println!("{}", view.to_json_string());
            } else {
                print!("{}", view.render_human());
            }
        }
    }
}

/// One stderr line summarizing what a spec denotes (the `--check` view
/// and the pre-run banner share it).
fn describe(resolved: &Resolved) {
    match resolved {
        Resolved::Batch(b) => {
            let (pool, cells) = b.fleet.pool(b.jobs.len());
            hmpt_obs::info(
                "fleet.spec",
                format!(
                    "hmpt-fleet: batch of {} job(s) ({} job workers, {} cells; reps {}, \
                     seed {}, cache {})",
                    b.jobs.len(),
                    pool.workers(),
                    cells.label(),
                    b.fleet.rep_policy.label(b.campaign.runs_per_config),
                    b.campaign.base_seed,
                    if b.fleet.cache_enabled { "on" } else { "off" },
                ),
            );
        }
        Resolved::Matrix(m) => {
            hmpt_obs::info(
                "fleet.spec",
                format!(
                    "hmpt-fleet: {} machines × {} workloads × {} budgets × {} policies × \
                     {} noise levels = {} scenarios ({}, {} job workers, cache {}{})",
                    m.matrix.machines().len(),
                    m.matrix.workloads().len(),
                    m.matrix.budgets().len(),
                    m.matrix.rep_policies().len(),
                    m.matrix.noise_cvs().len(),
                    m.matrix.len(),
                    m.config.executor.label(),
                    if m.config.job_workers == 0 {
                        available_workers()
                    } else {
                        m.config.job_workers
                    },
                    if m.config.cache_enabled { "on" } else { "off" },
                    match &m.shard {
                        Some(s) => format!(
                            "; shard {}/{}: scenarios {}..{}",
                            s.shard + 1,
                            s.total,
                            s.start,
                            s.end
                        ),
                        None => String::new(),
                    },
                ),
            );
        }
    }
}

/// Build timing lines in the benchmark schema from one run's totals.
fn bench_of(mode: &str, wall_s: f64, executed_cells: u64) -> Vec<BenchLine> {
    let wall_ns = (wall_s * 1e9) as u64;
    let mut lines = vec![BenchLine { bench: format!("{mode}.wall"), mean_ns: wall_ns, samples: 1 }];
    if let Some(per_cell) = wall_ns.checked_div(executed_cells) {
        lines.push(BenchLine {
            bench: format!("{mode}.cell"),
            mean_ns: per_cell,
            samples: executed_cells,
        });
    }
    lines
}

/// Install the collector stack a spec's `[telemetry]` section asks for.
/// Returns the memory collector when `--metrics` wants a table rendered
/// at the end. Recording turns on only when some sink will consume
/// spans — otherwise the run stays on the no-op path.
fn install_telemetry(
    telemetry: &hmpt_fleet::spec::TelemetrySection,
) -> Option<Arc<MemoryCollector>> {
    let quiet = telemetry.quiet.unwrap_or(false);
    let want_metrics = telemetry.metrics.unwrap_or(false);
    let memory = want_metrics.then(|| Arc::new(MemoryCollector::new()));
    let mut sinks: Vec<Arc<dyn Collector>> = vec![Arc::new(StderrCollector { quiet })];
    if let Some(path) = &telemetry.trace {
        let jsonl = JsonlCollector::create(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(format!("cannot create trace file {path}: {e}")));
        sinks.push(Arc::new(jsonl));
    }
    if let Some(memory) = &memory {
        sinks.push(memory.clone() as Arc<dyn Collector>);
    }
    let record = telemetry.trace.is_some() || want_metrics;
    hmpt_obs::install(Arc::new(Fanout::new(sinks)), record);
    memory
}

/// The `--metrics` table: span aggregates plus every non-zero counter
/// and gauge. Printed directly (not as an event) — an explicit
/// `--metrics` outranks `--quiet`.
fn print_metrics(memory: &MemoryCollector) {
    eprintln!("metrics:");
    let aggregates = memory.span_aggregates();
    if !aggregates.is_empty() {
        let percentiles: std::collections::BTreeMap<String, hmpt_obs::SpanPercentiles> =
            memory.span_percentiles().into_iter().collect();
        eprintln!(
            "  {:<20} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
            "span", "count", "total_ns", "mean_ns", "p50_ns", "p95_ns", "p99_ns"
        );
        for (name, agg) in aggregates {
            let p = percentiles.get(&name);
            let pct = |f: fn(&hmpt_obs::SpanPercentiles) -> u64| {
                p.map(|p| f(p).to_string()).unwrap_or_else(|| "-".to_string())
            };
            eprintln!(
                "  {:<20} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
                name,
                agg.count,
                agg.total_ns,
                agg.mean_ns(),
                pct(|p| p.p50_ns),
                pct(|p| p.p95_ns),
                pct(|p| p.p99_ns)
            );
        }
    }
    for (name, value) in hmpt_obs::counters() {
        eprintln!("  {name} = {value}");
    }
    for (name, value) in hmpt_obs::gauges() {
        eprintln!("  {name} = {value} (gauge)");
    }
}

/// Execute a spec through the API facade and render the response. The
/// spec is resolved once; the banner, the run and the report share it.
fn execute(spec: CampaignSpec, out: Option<String>) {
    let telemetry = spec.telemetry.clone().unwrap_or_default();
    let memory = install_telemetry(&telemetry);
    let resolved = spec.resolve().unwrap_or_else(|e| fail(e));
    describe(&resolved);
    let t0 = Instant::now();
    let response = api::execute_resolved(&resolved).unwrap_or_else(|e| fail(e));
    let total_wall_s = t0.elapsed().as_secs_f64();

    let bench = match response {
        Response::Batch(outcome) => {
            let Resolved::Batch(batch) = &resolved else {
                unreachable!("a batch outcome implies a batch spec");
            };
            let executed = outcome.report.stats.executed_cells;
            render_batch(&spec, batch, outcome, total_wall_s, out);
            bench_of("batch", total_wall_s, executed)
        }
        Response::Matrix(outcome) => {
            print_rows(&outcome.report.scenarios);
            let stats = &outcome.report.stats;
            hmpt_obs::info(
                "fleet.stats",
                format!(
                    "matrix: {} scenarios, {}/{} cells executed, {} hits / {} misses \
                     (hit-rate {:.1}%), {:.2} scenarios/s, {:.3}s (spec {})",
                    stats.scenarios,
                    stats.executed_cells,
                    stats.planned_cells,
                    stats.cache.hits,
                    stats.cache.misses,
                    stats.cache.hit_rate() * 100.0,
                    stats.scenarios_per_s,
                    stats.wall_s,
                    outcome.fingerprint,
                ),
            );
            if outcome.preloaded > 0 {
                hmpt_obs::info(
                    "fleet.cache",
                    format!("cache snapshot: {} cells preloaded", outcome.preloaded),
                );
            }
            let bench = bench_of("matrix", stats.wall_s, stats.executed_cells);
            // Report before surfacing a failed snapshot save: persistence
            // degrades the next run, not this one's results.
            write_json(&outcome.report, out.as_deref(), "matrix report");
            if let Some(e) = outcome.save_error {
                fail(format!("cannot save cache snapshot {e}"));
            }
            bench
        }
        Response::Shard(outcome) => {
            print_rows(&outcome.report.rows);
            let stats = &outcome.report.stats;
            hmpt_obs::info(
                "fleet.stats",
                format!(
                    "shard: {} scenarios, {}/{} cells executed, {} hits / {} misses \
                     (hit-rate {:.1}%), {:.3}s (spec {})",
                    stats.scenarios,
                    stats.executed_cells,
                    stats.planned_cells,
                    stats.cache.hits,
                    stats.cache.misses,
                    stats.cache.hit_rate() * 100.0,
                    stats.wall_s,
                    outcome.fingerprint,
                ),
            );
            let bench = bench_of("shard", stats.wall_s, stats.executed_cells);
            write_json(&outcome.report, out.as_deref(), "shard report");
            if let Some(e) = outcome.save_error {
                fail(format!("cannot save cache snapshot {e}"));
            }
            bench
        }
        Response::Merge(_) => unreachable!("specs never denote merges"),
    };

    // Deliver counter/gauge totals to the trace and flush it before the
    // process exits — a trace missing its counters reads as a cache
    // that never hit.
    hmpt_obs::flush();
    if let Some(memory) = &memory {
        print_metrics(memory);
    }
    if let Some(path) = &telemetry.bench {
        std::fs::write(path, bench_jsonl(&bench))
            .unwrap_or_else(|e| fail(format!("cannot write bench file {path}: {e}")));
        hmpt_obs::info("fleet.status", format!("bench timings written to {path}"));
    }
}

#[derive(Debug, Clone, Serialize)]
struct JobRow {
    workload: String,
    groups: usize,
    max_speedup: f64,
    hbm_only_speedup: f64,
    usage_90_pct: f64,
    campaign_measurements: usize,
    planned_cells: usize,
    executed_cells: usize,
    cells_skipped: usize,
    online_speedup: Option<f64>,
    online_measurements: Option<usize>,
    cache_hits: u64,
    cache_misses: u64,
    wall_s: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    machine: String,
    /// Width of the job pool the batch ran on.
    workers: usize,
    /// The executor each job's cells ran on.
    executor: String,
    runs_per_config: usize,
    rep_policy: String,
    cache_enabled: bool,
    base_seed: u64,
    /// Content fingerprint of the executed campaign spec.
    spec_fingerprint: String,
    comparison: Option<Comparison>,
    jobs: Vec<JobRow>,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    planned_cells: u64,
    executed_cells: u64,
    cells_skipped: u64,
    /// Cells that actually cost a simulated run this invocation (cache
    /// misses; every executed cell when the cache is off). `0` means the
    /// whole batch was served from a warm cache.
    simulated_cells: u64,
    /// Cells preloaded from the cache snapshot at startup.
    cache_preloaded: u64,
    cells_per_s: f64,
    total_wall_s: f64,
}

fn render_batch(
    spec: &CampaignSpec,
    resolved: &ResolvedBatch,
    outcome: BatchOutcome,
    total_wall_s: f64,
    out: Option<String>,
) {
    hmpt_obs::info(
        "fleet.table",
        "workload     max   HBM-only   90% usage   online   cells (hit/miss)   wall".into(),
    );
    for r in &outcome.report.reports {
        let t2 = &r.analysis.table2;
        hmpt_obs::info(
            "fleet.table",
            format!(
                "{:<10} {:>5.2}x {:>7.2}x {:>9.1}%  {:>6}  {:>7}/{:<7} {:>7.3}s",
                r.analysis.workload,
                t2.max_speedup,
                t2.hbm_only_speedup,
                t2.usage_90_pct,
                r.online
                    .as_ref()
                    .map(|o| format!("{:.2}x", o.speedup))
                    .unwrap_or_else(|| "-".to_string()),
                r.cache.hits,
                r.cache.misses,
                r.wall_s
            ),
        );
    }
    if let Some(c) = &outcome.comparison {
        hmpt_obs::info(
            "fleet.stats",
            format!(
                "campaign executor comparison: serial {:.3}s vs parallel {:.3}s \
                 ({:.2}x, bit-identical)",
                c.serial_s, c.parallel_s, c.speedup,
            ),
        );
    }
    if outcome.preloaded > 0 {
        hmpt_obs::info(
            "fleet.cache",
            format!("cache snapshot: {} cells preloaded", outcome.preloaded),
        );
    }
    let stats = outcome.report.stats;
    hmpt_obs::info(
        "fleet.stats",
        format!(
            "batch: {} jobs, {}/{} cells executed ({} skipped by early stop), \
             {} hits / {} misses (hit-rate {:.1}%), {:.0} cells/s, {:.3}s (spec {})",
            stats.jobs,
            stats.executed_cells,
            stats.planned_cells,
            stats.cells_skipped,
            stats.cache.hits,
            stats.cache.misses,
            stats.cache.hit_rate() * 100.0,
            stats.cells_per_s,
            stats.wall_s,
            outcome.fingerprint,
        ),
    );

    let (pool, cells) = resolved.fleet.pool(resolved.jobs.len());
    let report = Report {
        machine: spec.machine.clone().unwrap_or_else(|| "xeon_max_9468".to_string()),
        workers: pool.workers(),
        executor: cells.label(),
        runs_per_config: resolved.campaign.runs_per_config,
        rep_policy: resolved.fleet.rep_policy.label(resolved.campaign.runs_per_config),
        cache_enabled: resolved.fleet.cache_enabled,
        base_seed: resolved.campaign.base_seed,
        spec_fingerprint: outcome.fingerprint,
        comparison: outcome.comparison,
        jobs: outcome
            .report
            .reports
            .iter()
            .map(|r| JobRow {
                workload: r.analysis.workload.clone(),
                groups: r.analysis.groups.len(),
                max_speedup: r.analysis.table2.max_speedup,
                hbm_only_speedup: r.analysis.table2.hbm_only_speedup,
                usage_90_pct: r.analysis.table2.usage_90_pct,
                campaign_measurements: r.analysis.campaign.measurements.len(),
                planned_cells: r.analysis.campaign.planned_runs,
                executed_cells: r.analysis.campaign.executed_runs,
                cells_skipped: r.cells_skipped(),
                online_speedup: r.online.as_ref().map(|o| o.speedup),
                online_measurements: r.online.as_ref().map(|o| o.measurements),
                cache_hits: r.cache.hits,
                cache_misses: r.cache.misses,
                wall_s: r.wall_s,
            })
            .collect(),
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
        cache_hit_rate: stats.cache.hit_rate(),
        planned_cells: stats.planned_cells,
        executed_cells: stats.executed_cells,
        cells_skipped: stats.cells_skipped,
        simulated_cells: if resolved.fleet.cache_enabled {
            stats.cache.misses
        } else {
            stats.executed_cells
        },
        cache_preloaded: outcome.preloaded,
        cells_per_s: stats.cells_per_s,
        total_wall_s,
    };
    write_json(&report, out.as_deref(), "report");
}

/// The per-scenario result table (shared by full, shard, and merged
/// runs).
fn print_rows(rows: &[ScenarioRow]) {
    hmpt_obs::info(
        "fleet.table",
        "workload     machine                     budget     max  budgeted  slowdown  90% usage"
            .into(),
    );
    for row in rows {
        hmpt_obs::info(
            "fleet.table",
            format!(
                "{:<12} {:<26} {:>8} {:>6.2}x {:>7.2}x {:>8.2}x {:>9.1}%",
                row.workload,
                row.machine,
                row.budget_bytes
                    .map(|b| format!("{:.0}GiB", as_gib(b)))
                    .unwrap_or_else(|| "-".into()),
                row.max_speedup,
                row.budgeted.speedup,
                row.budgeted.slowdown_vs_best,
                row.usage_90_pct,
            ),
        );
    }
}

fn merge(
    files: Vec<String>,
    spec: Option<String>,
    matrix_out: Option<String>,
    cache_in: Vec<String>,
    cache_out: Option<String>,
) {
    let shards: Vec<ShardReport> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            serde_json::from_str(&text)
                .unwrap_or_else(|e| fail(format!("{path} is not a shard report: {e}")))
        })
        .collect();
    let spec = spec.map(|path| CampaignSpec::load(&path).unwrap_or_else(|e| fail(e)));
    let request = Request::Merge(MergeRequest {
        shards,
        spec,
        cache_in: cache_in.iter().map(std::path::PathBuf::from).collect(),
        cache_out: cache_out.as_ref().map(std::path::PathBuf::from),
    });
    let Response::Merge(outcome) = api::execute(&request).unwrap_or_else(|e| fail(e)) else {
        unreachable!("merge requests produce merge responses");
    };

    print_rows(&outcome.report.scenarios);
    let stats = &outcome.report.stats;
    hmpt_obs::info(
        "fleet.stats",
        format!(
            "merged: {} shards, {} scenarios, {}/{} cells executed, {} hits / {} misses, \
             {:.3}s total shard compute",
            files.len(),
            stats.scenarios,
            stats.executed_cells,
            stats.planned_cells,
            stats.cache.hits,
            stats.cache.misses,
            stats.wall_s
        ),
    );
    write_json(&outcome.report, matrix_out.as_deref(), "matrix report");
    if let (Some((loaded, saved)), Some(out)) = (&outcome.cache, &cache_out) {
        hmpt_obs::info(
            "fleet.cache",
            format!(
                "cache snapshots merged: {} records read{} → {} unique cells in {out}",
                loaded.loaded,
                if loaded.skipped > 0 || loaded.truncated {
                    format!(
                        " ({} skipped{})",
                        loaded.skipped,
                        if loaded.truncated { ", truncated" } else { "" }
                    )
                } else {
                    String::new()
                },
                saved.saved,
            ),
        );
    }
}

fn write_json<T: Serialize>(value: &T, path: Option<&str>, what: &str) {
    let json = serde_json::to_string_pretty(value)
        .unwrap_or_else(|e| fail(format!("{what} serialization: {e}")));
    match path {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
            hmpt_obs::info("fleet.status", format!("{what} written to {path}"));
        }
        None => println!("{json}"),
    }
}
