//! End-to-end tests for the campaign service: a spec submitted over a
//! real TCP connection produces a `MatrixReport` bit-identical to
//! direct `api::execute`; a warm re-submission simulates nothing; the
//! coordinator's shared cache stops overlapping jobs double-simulating
//! their common cells across the job boundary; a served report's cache
//! counts are the job's own traffic; a job runs each campaign group
//! once at any worker count; tenant quotas reject typed while
//! other tenants proceed; and a state dir that died mid-flight is
//! adopted and completed on restart, unless its spec no longer matches
//! its admission fingerprint. The shared cache's file (`cache.bin`)
//! takes exactly each job's new cells as an append, reloads them after
//! a crash, is rewritten whole by a job that evicts or that follows a
//! torn append, and is not written by a warm job; the queue's log
//! (`queue.log`) takes exactly each job's state changes; an older state
//! dir's `queue.json` and `cache.log` are adopted, or moved aside when
//! unreadable. A second job on the same machine × workloads reads its
//! profiles from the shared cache's memo, and a verify re-run never
//! consults it.

use std::path::PathBuf;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Duration;

use hmpt_core::scenario::MatrixReport;
use hmpt_core::store;
use hmpt_fleet::api::{self, Request, Response};
use hmpt_fleet::spec::CampaignSpec;
use hmpt_served::queue::{JobQueue, QueueConfig};
use hmpt_served::state::{JobRecord, JobState, JobStats};
use hmpt_served::{Client, ClientError, Coordinator, CoordinatorConfig, ErrorKind, Server};

/// The small two-budget matrix every test submits (same family as
/// `examples/zoo.toml`, shrunk to one machine × one workload).
const SPEC_MG: &str = "\
mode = \"matrix\"
zoo = [\"xeon-max\"]
workloads = [\"mg\"]
budgets = [\"none\", \"16\"]
policies = [\"fixed\"]
";

/// A strict superset of [`SPEC_MG`]'s campaign cells: same machine and
/// budgets, one extra workload.
const SPEC_MG_IS: &str = "\
mode = \"matrix\"
zoo = [\"xeon-max\"]
workloads = [\"mg\", \"is\"]
budgets = [\"none\", \"16\"]
policies = [\"fixed\"]
";

/// Telemetry counters are process-global. The test that reads them
/// holds this lock for writing and every other test holds it for
/// reading, so no other test's jobs land in its counts.
static TELEMETRY: RwLock<()> = RwLock::new(());

fn shared_telemetry() -> RwLockReadGuard<'static, ()> {
    TELEMETRY.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hmpt-served-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the spec in-process through the public API — the reference the
/// served report must match bit-for-bit.
fn direct(spec_text: &str) -> (MatrixReport, String) {
    let spec = CampaignSpec::parse(spec_text).expect("spec parses");
    let request = Request::from_spec(spec).expect("matrix request");
    let Response::Matrix(out) = api::execute(&request).expect("direct run") else {
        panic!("matrix spec produced a non-matrix response");
    };
    (out.report, out.fingerprint)
}

/// Fetch a completed job's report and parse it back into the typed
/// form, exactly as a client consuming the wire would.
fn served_report(client: &mut Client, job: u64) -> MatrixReport {
    let value = client.report(job).expect("completed job serves its report");
    serde_json::from_value(&value).expect("wire report parses as a MatrixReport")
}

fn stats_of(coordinator: &Coordinator, job: u64) -> JobStats {
    let view = coordinator.status(Some(job)).expect("status");
    view.jobs[0].stats.expect("completed job carries stats")
}

#[test]
fn tcp_submission_matches_direct_execution_and_resubmission_is_free() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("loopback");
    let coordinator =
        Arc::new(Coordinator::open(CoordinatorConfig::new(&dir)).expect("open state dir"));
    let server = Server::start(Arc::clone(&coordinator), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Cold: the TCP-submitted campaign is bit-identical to api::execute.
    let (job, wire_fp) = client.submit("ci", 0, SPEC_MG).expect("admitted");
    coordinator.run_until_idle();
    let status = client.wait(job, Duration::from_millis(10)).expect("terminal state");
    assert_eq!(status.state, JobState::Completed, "error: {:?}", status.error);

    let (reference, direct_fp) = direct(SPEC_MG);
    assert_eq!(wire_fp, direct_fp, "admission and direct runs must fingerprint alike");
    let served = served_report(&mut client, job);
    assert!(reference.bit_identical(&served), "served report diverged from direct execution");
    assert_eq!(served.spec_fingerprint.as_deref(), Some(direct_fp.as_str()));
    let cold = status.stats.expect("stats");
    assert!(cold.simulated_cells > 0, "a cold campaign simulates its cells");

    // Warm: the same spec again touches the simulator zero times.
    let (rerun, _) = client.submit("ci", 0, SPEC_MG).expect("admitted again");
    coordinator.run_until_idle();
    let warm = client.wait(rerun, Duration::from_millis(10)).expect("terminal state");
    assert_eq!(warm.state, JobState::Completed);
    let warm = warm.stats.expect("stats");
    assert_eq!(warm.simulated_cells, 0, "warm re-submission must not simulate");
    assert!(warm.cells_skipped > 0);
    assert!(reference.bit_identical(&served_report(&mut client, rerun)));

    // Durability: drain, drop the daemon, reopen the state dir — the
    // cache and the job history both survive, so a third submission is
    // still free.
    client.drain().expect("drain");
    drop(client);
    drop(coordinator);

    let reopened = Coordinator::open(CoordinatorConfig::new(&dir)).expect("reopen state dir");
    assert!(reopened.cache_len() > 0, "the shared cache must survive a restart");
    let history = reopened.status(None).expect("status");
    assert!(
        history.jobs.iter().filter(|j| j.state == JobState::Completed).count() >= 2,
        "completed history must survive a restart"
    );
    let (third, _) = reopened.submit("ci", 0, SPEC_MG).expect("admitted after restart");
    reopened.run_until_idle();
    assert_eq!(stats_of(&reopened, third).simulated_cells, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The PR 4 regression: two jobs whose campaigns overlap share the
/// coordinator's persistent cache, so the second simulates exactly its
/// novel cells — never the overlap — and still reports identical bits.
#[test]
fn overlapping_jobs_share_the_cache_instead_of_resimulating() {
    let _telemetry = shared_telemetry();
    // Reference: the superset spec in a fresh service, fully cold.
    let cold_dir = temp_dir("overlap-cold");
    let cold = Coordinator::open(CoordinatorConfig::new(&cold_dir)).expect("open");
    let (cold_job, _) = cold.submit("ci", 0, SPEC_MG_IS).expect("admitted");
    cold.run_until_idle();
    let cold_stats = stats_of(&cold, cold_job);
    let cold_report: MatrixReport =
        serde_json::from_value(&cold.report(cold_job).expect("report")).expect("parses");

    // Shared service: the mg-only job first, then the superset.
    let dir = temp_dir("overlap-shared");
    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("open");
    let (first, _) = coordinator.submit("ci", 0, SPEC_MG).expect("admitted");
    coordinator.run_until_idle();
    let first_stats = stats_of(&coordinator, first);
    assert!(first_stats.simulated_cells > 0);

    let (second, _) = coordinator.submit("ci", 0, SPEC_MG_IS).expect("admitted");
    coordinator.run_until_idle();
    let second_stats = stats_of(&coordinator, second);

    // The overlap (every mg cell) is answered by the shared cache, so
    // the second job simulates exactly the cells the first one did not.
    assert_eq!(
        second_stats.simulated_cells,
        cold_stats.simulated_cells - first_stats.simulated_cells,
        "overlapping cells were re-simulated across jobs"
    );
    assert!(second_stats.simulated_cells > 0, "the is workload's cells are genuinely new");
    assert!(
        second_stats.cells_skipped > cold_stats.cells_skipped,
        "the shared cache must add skips beyond within-job reuse"
    );

    // Cache reuse never changes results: the shared-service superset
    // report is bit-identical to the cold one.
    let second_report: MatrixReport =
        serde_json::from_value(&coordinator.report(second).expect("report")).expect("parses");
    assert!(cold_report.bit_identical(&second_report));
    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served report's `stats.cache` is the job's own cache traffic —
/// the same counts `JobStats` reports — even when two workers run
/// campaign groups concurrently over the shared cache.
#[test]
fn served_report_cache_stats_are_the_jobs_own_traffic() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("report-traffic");
    let mut config = CoordinatorConfig::new(&dir);
    config.workers = 2;
    let coordinator = Coordinator::open(config).expect("open");
    for spec in [SPEC_MG, SPEC_MG_IS] {
        let (job, _) = coordinator.submit("ci", 0, spec).expect("admitted");
        coordinator.run_until_idle();
        let stats = stats_of(&coordinator, job);
        let report: MatrixReport =
            serde_json::from_value(&coordinator.report(job).expect("report")).expect("parses");
        let cache = report.stats.cache;
        assert_eq!(cache.entries, stats.simulated_cells, "job {job}: {cache:?} vs {stats:?}");
        assert_eq!(
            cache.hits + cache.misses,
            stats.simulated_cells + stats.cells_skipped,
            "job {job}: {cache:?} vs {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served job runs each campaign group once, at any worker count: a
/// cold job looks each of its cells up once, so the cache saves it
/// nothing and counts one miss per simulated cell, and its report is
/// one run's, with no per-shard rollups.
#[test]
fn a_served_job_runs_each_campaign_group_once() {
    let _telemetry = shared_telemetry();
    for workers in [1, 2, 3] {
        let dir = temp_dir(&format!("groups-once-{workers}"));
        let mut config = CoordinatorConfig::new(&dir);
        config.workers = workers;
        let coordinator = Coordinator::open(config).expect("open");
        let (job, _) = coordinator.submit("ci", 0, SPEC_MG).expect("admitted");
        coordinator.run_until_idle();
        let stats = stats_of(&coordinator, job);
        let report: MatrixReport =
            serde_json::from_value(&coordinator.report(job).expect("report")).expect("parses");
        let cache = report.stats.cache;
        assert!(stats.simulated_cells > 0, "workers {workers}: {stats:?}");
        assert_eq!(stats.cells_skipped, 0, "workers {workers}: {stats:?}");
        assert_eq!(cache.hits, 0, "workers {workers}: {cache:?}");
        assert_eq!(cache.misses, stats.simulated_cells, "workers {workers}: {cache:?}");
        assert!(report.shards.is_none(), "workers {workers}: the report carries shard rollups");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn tenant_quota_rejects_typed_while_other_tenants_proceed() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("quota");
    let mut config = CoordinatorConfig::new(&dir);
    config.tenant_quota = 1;
    let coordinator = Arc::new(Coordinator::open(config).expect("open"));
    let server = Server::start(Arc::clone(&coordinator), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // alice fills her quota with a queued (not yet run) job.
    let (held, _) = client.submit("alice", 0, SPEC_MG).expect("first job admitted");
    match client.submit("alice", 5, SPEC_MG) {
        Err(ClientError::Server { kind: ErrorKind::QuotaExceeded, .. }) => {}
        other => panic!("over-quota submit answered {other:?}, not a typed QuotaExceeded"),
    }

    // Another tenant is unaffected, and cancelling frees the slot.
    let (bobs, _) = client.submit("bob", 0, SPEC_MG).expect("other tenants proceed");
    client.cancel(held).expect("queued jobs cancel");
    let (retry, _) = client.submit("alice", 0, SPEC_MG).expect("cancel frees the quota slot");

    coordinator.run_until_idle();
    let view = client.status(None).expect("status");
    let state = |id: u64| view.jobs.iter().find(|j| j.job == id).expect("known job").state;
    assert_eq!(state(held), JobState::Cancelled);
    assert_eq!(state(bobs), JobState::Completed);
    assert_eq!(state(retry), JobState::Completed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash recovery: a state dir whose daemon died with one job queued
/// and one mid-flight reopens with both adopted, runs them to
/// completion, and serves reports identical to direct execution.
#[test]
fn restart_adopts_queued_and_mid_flight_jobs() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("restart");
    std::fs::create_dir_all(&dir).expect("state dir");

    // Craft the queue a crashed daemon would leave behind: the real
    // snapshot schema, written through the real types.
    let fingerprint = CampaignSpec::parse(SPEC_MG)
        .and_then(|s| s.fingerprint())
        .expect("fingerprint")
        .to_string();
    let mut queue = JobQueue::new(QueueConfig::default());
    let interrupted =
        queue.submit("ci", 1, SPEC_MG.to_string(), fingerprint.clone()).expect("admit");
    let queued = queue.submit("ci", 0, SPEC_MG.to_string(), fingerprint).expect("admit");
    queue.get_mut(interrupted).unwrap().transition(JobState::Running).expect("claim");
    let snapshot = serde_json::to_string(&queue.snapshot()).expect("serialize");
    std::fs::write(dir.join("queue.json"), snapshot).expect("write queue.json");

    // Reopen: the mid-flight job is adopted back to Queued, and both
    // run to completion.
    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("adopting open");
    let view = coordinator.status(None).expect("status");
    for job in &view.jobs {
        assert_eq!(job.state, JobState::Queued, "job {} must reopen as queued", job.job);
    }
    coordinator.run_until_idle();

    let (reference, _) = direct(SPEC_MG);
    for job in [interrupted, queued] {
        let status = &coordinator.status(Some(job)).expect("status").jobs[0];
        assert_eq!(status.state, JobState::Completed, "error: {:?}", status.error);
        let report: MatrixReport =
            serde_json::from_value(&coordinator.report(job).expect("report")).expect("parses");
        assert!(reference.bit_identical(&report), "adopted job {job} diverged");
    }
    // The adopted (first-run) job simulated; its twin warm-hit the
    // shared cache.
    assert!(stats_of(&coordinator, interrupted).simulated_cells > 0);
    assert_eq!(stats_of(&coordinator, queued).simulated_cells, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job whose spec no longer resolves to the fingerprint stamped at
/// admission (say, a hand-edited `queue.json`) fails, naming the
/// mismatch, before it simulates anything or serves a report under the
/// wrong fingerprint.
#[test]
fn a_job_that_no_longer_matches_its_admission_fingerprint_fails() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("fingerprint");
    std::fs::create_dir_all(&dir).expect("state dir");
    let mut queue = JobQueue::new(QueueConfig::default());
    let job = queue.submit("ci", 0, SPEC_MG.to_string(), "0".repeat(16)).expect("admit");
    let snapshot = serde_json::to_string(&queue.snapshot()).expect("serialize");
    std::fs::write(dir.join("queue.json"), snapshot).expect("write queue.json");

    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("open");
    coordinator.run_until_idle();
    let view = coordinator.status(Some(job)).expect("status");
    let status = &view.jobs[0];
    assert_eq!(status.state, JobState::Failed);
    let error = status.error.as_deref().unwrap_or_default();
    assert!(error.contains("does not match the spec fingerprint"), "{error}");
    assert_eq!(coordinator.cache_len(), 0, "a mismatched job must not simulate");
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`SPEC_MG`] at another campaign seed: the same campaign shape, so
/// the same number of cells, none of them shared with [`SPEC_MG`]'s.
fn spec_mg_at_seed(seed: u64) -> String {
    format!("{SPEC_MG}\n[campaign]\nseed = {seed}\n")
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Run one job to completion and return its stats.
fn run_to_completion(coordinator: &Coordinator, spec: &str) -> JobStats {
    let (job, _) = coordinator.submit("ci", 0, spec).expect("admitted");
    coordinator.run_until_idle();
    let status = &coordinator.status(Some(job)).expect("status").jobs[0];
    assert_eq!(status.state, JobState::Completed, "error: {:?}", status.error);
    stats_of(coordinator, job)
}

/// A profile is a function of machine, workload and profiling seed, not
/// of the campaign seed: a second job on the same machine × workloads,
/// at another campaign seed, simulates its own cells but reads every
/// campaign group's profile from the shared cache's memo. A job's
/// verify re-run runs uncached, so it re-profiles without consulting
/// the memo: a verified cold job counts one miss per campaign group.
#[test]
fn a_second_job_on_the_same_machine_and_workload_profiles_nothing() {
    let _telemetry = TELEMETRY.write().unwrap_or_else(|poisoned| poisoned.into_inner());
    let dir = temp_dir("profile-memo");
    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("open");
    let consults = || {
        let count = |name| hmpt_obs::counter(name).get();
        (count("profile.memo.hit"), count("profile.memo.miss"))
    };
    hmpt_obs::install(Arc::new(hmpt_obs::NoopCollector), true);
    let cold = run_to_completion(&coordinator, SPEC_MG_IS);
    let after_cold = consults();
    let other_seed = format!("{SPEC_MG_IS}\n[campaign]\nseed = 29\n");
    let second = run_to_completion(&coordinator, &other_seed);
    let after_second = consults();
    hmpt_obs::reset();

    // One machine × two workloads: two campaign groups.
    assert_eq!(after_cold, (0, 2), "the cold job profiles each group once, its verify none");
    assert_eq!(after_second, (2, 2), "the second job reads both profiles from the memo");
    assert!(cold.simulated_cells > 0 && second.simulated_cells > 0, "{cold:?} {second:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The names in a state dir, sorted.
fn state_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("state dir")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The record count `cache.bin`'s header declares: the records its last
/// rewrite wrote.
fn declared_records(bin: &std::path::Path) -> u64 {
    let bytes = std::fs::read(bin).expect("cache.bin");
    u64::from_le_bytes(bytes[16..24].try_into().expect("a 32-byte header"))
}

/// A job that adds fewer cells than `cache.bin`'s last rewrite holds
/// appends exactly those cells to it and leaves the file's first bytes
/// be; a daemon that dies without draining reopens with the whole cache,
/// writes nothing at the open, and answers both jobs again without
/// simulating.
#[test]
fn a_crashed_daemon_replays_its_cache_journal() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("journal-crash");
    let bin = dir.join("cache.bin");
    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("open");
    let cold = run_to_completion(&coordinator, SPEC_MG_IS);
    let snapshot = std::fs::read(&bin).expect("with no cache.bin yet, the first job rewrites");
    assert_eq!(snapshot.len() as u64, 32 + 64 * cold.simulated_cells);

    let other_seed = spec_mg_at_seed(17);
    let added = run_to_completion(&coordinator, &other_seed).simulated_cells;
    assert!(0 < added && added < cold.simulated_cells, "{added} vs {}", cold.simulated_cells);
    let appended = std::fs::read(&bin).expect("cache.bin");
    assert_eq!(appended.len() as u64, 32 + 64 * (cold.simulated_cells + added));
    assert!(appended.starts_with(&snapshot), "an append leaves the file's first bytes be");

    let len = coordinator.cache_len();
    drop(coordinator); // no drain: the process dies here
    let reopened = Coordinator::open(CoordinatorConfig::new(&dir)).expect("reopen");
    assert_eq!(reopened.cache_len(), len, "the snapshot and its appends load the whole cache");
    assert_eq!(std::fs::read(&bin).expect("cache.bin"), appended, "open writes nothing");
    for spec in [SPEC_MG_IS, other_seed.as_str()] {
        assert_eq!(run_to_completion(&reopened, spec).simulated_cells, 0, "{spec}");
    }
    assert_eq!(state_files(&dir), ["cache.bin", "queue.log", "reports"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job the LRU bound makes evict rewrites `cache.bin` instead of
/// appending, so an appended cell the bound evicted never comes back: a
/// reopened cache holds at most the bound. The evicting job re-reads
/// every cell of the first job, so the bound evicts the appended job's
/// cells — exactly the ones the file's appended records hold.
#[test]
fn an_evicting_job_folds_so_the_journal_never_restores_evicted_cells() {
    let _telemetry = shared_telemetry();
    let other_seed = spec_mg_at_seed(23);
    let superset = SPEC_MG_IS.replace("[\"mg\", \"is\"]", "[\"mg\", \"is\", \"sp\"]");

    // The first two jobs' cells, from an unbounded service.
    let probe_dir = temp_dir("evict-probe");
    let probe = Coordinator::open(CoordinatorConfig::new(&probe_dir)).expect("open");
    run_to_completion(&probe, SPEC_MG_IS);
    run_to_completion(&probe, &other_seed);
    let bound = probe.cache_len() as u64;
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    let dir = temp_dir("evict");
    let bin = dir.join("cache.bin");
    let mut config = CoordinatorConfig::new(&dir);
    config.cache_max_records = Some(bound);
    let coordinator = Coordinator::open(config.clone()).expect("open");
    let first = run_to_completion(&coordinator, SPEC_MG_IS).simulated_cells;
    run_to_completion(&coordinator, &other_seed);
    assert_eq!(coordinator.cache_len() as u64, bound);
    assert_eq!(
        (file_len(&bin), declared_records(&bin)),
        (32 + 64 * bound, first),
        "the second job fits the bound and is appended"
    );

    let added = run_to_completion(&coordinator, &superset).simulated_cells;
    assert!(added > 0, "the superset's third workload is new");
    assert_eq!(
        (file_len(&bin), declared_records(&bin)),
        (32 + 64 * bound, bound),
        "a job that evicts rewrites cache.bin to the bound"
    );
    drop(coordinator);

    for max in [None, Some(bound)] {
        let reopened =
            Coordinator::open(CoordinatorConfig { cache_max_records: max, ..config.clone() })
                .expect("reopen");
        assert_eq!(reopened.cache_len() as u64, bound, "evicted cells came back (bound {max:?})");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `cache.bin` cut inside its last appended record — a crash in the
/// middle of an append — reopens with every other cell. The next job
/// appends nothing after the torn record: it re-simulates the lost cell
/// and rewrites the file whole.
#[test]
fn a_cache_file_cut_inside_an_append_is_rewritten_by_the_next_job() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("cut-append");
    let bin = dir.join("cache.bin");
    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("open");
    let first = run_to_completion(&coordinator, SPEC_MG_IS).simulated_cells;
    let other_seed = spec_mg_at_seed(19);
    run_to_completion(&coordinator, &other_seed);
    let cells = coordinator.cache_len() as u64;
    assert_eq!((file_len(&bin), declared_records(&bin)), (32 + 64 * cells, first));
    drop(coordinator);
    let bytes = std::fs::read(&bin).expect("cache.bin");
    std::fs::write(&bin, &bytes[..bytes.len() - 17]).expect("cut cache.bin");

    let reopened = Coordinator::open(CoordinatorConfig::new(&dir)).expect("reopen");
    assert_eq!(reopened.cache_len() as u64, cells - 1, "the cut costs the torn record alone");
    let rerun = run_to_completion(&reopened, &other_seed);
    assert_eq!(rerun.simulated_cells, 1, "the torn record's cell is simulated again");
    assert_eq!(
        (file_len(&bin), declared_records(&bin)),
        (32 + 64 * cells, cells),
        "the job rewrote cache.bin whole"
    );
    drop(reopened);
    let again = Coordinator::open(CoordinatorConfig::new(&dir)).expect("reopen");
    assert_eq!(again.cache_len() as u64, cells);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job that adds no cell does no cache I/O: `cache.bin` keeps its
/// bytes and its inode.
#[test]
fn a_warm_job_writes_nothing() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("warm-nothing");
    let bin = dir.join("cache.bin");
    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("open");
    run_to_completion(&coordinator, SPEC_MG);
    let before = std::fs::read(&bin).expect("the cold job wrote cache.bin");
    #[cfg(unix)]
    let inode = || std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(&bin).expect("stat"));
    #[cfg(unix)]
    let first_inode = inode();

    assert_eq!(run_to_completion(&coordinator, SPEC_MG).simulated_cells, 0);
    assert_eq!(std::fs::read(&bin).expect("cache.bin"), before);
    #[cfg(unix)]
    assert_eq!(inode(), first_inode, "cache.bin was rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unreadable `queue.json` of an older state dir is renamed aside,
/// never overwritten or removed, and a second one never overwrites the
/// first. No `queue.json` is written: the jobs live in `queue.log`.
#[test]
fn an_unreadable_queue_snapshot_is_quarantined_not_overwritten() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("quarantine");
    std::fs::create_dir_all(&dir).expect("state dir");
    let queue = dir.join("queue.json");
    let garbage: &[u8] = b"{\"jobs\": [ truncated";
    std::fs::write(&queue, garbage).expect("write queue.json");

    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("cold start");
    run_to_completion(&coordinator, SPEC_MG);
    drop(coordinator);
    let first = dir.join("queue.json.corrupt.1");
    assert_eq!(std::fs::read(&first).expect("quarantined file"), garbage);
    assert!(!queue.exists(), "queue.json was written");

    let not_utf8: &[u8] = b"\xff\xfe not text";
    std::fs::write(&queue, not_utf8).expect("write queue.json");
    let reopened = Coordinator::open(CoordinatorConfig::new(&dir)).expect("cold start");
    assert_eq!(std::fs::read(&first).expect("first quarantine"), garbage);
    assert_eq!(
        std::fs::read(dir.join("queue.json.corrupt.2")).expect("second quarantine"),
        not_utf8
    );
    assert!(!queue.exists(), "queue.json was written");
    let states: Vec<JobState> =
        reopened.status(None).expect("status").jobs.iter().map(|j| j.state).collect();
    assert_eq!(states, [JobState::Completed], "queue.log's job survives the quarantine");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served job appends exactly its own four state changes to
/// `queue.log` and leaves the log's earlier bytes be, after a restart
/// too; a drain writes nothing.
#[test]
fn a_served_job_appends_its_state_changes_to_the_queue_journal() {
    let _telemetry = shared_telemetry();
    let dir = temp_dir("queue-journal");
    let log = dir.join("queue.log");
    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("open");
    // The fifth job's last change rewrites the log with its five jobs,
    // which leaves room for five appends.
    for _ in 0..5 {
        run_to_completion(&coordinator, SPEC_MG);
    }
    drop(coordinator);

    let coordinator = Coordinator::open(CoordinatorConfig::new(&dir)).expect("reopen");
    let before = std::fs::read(&log).expect("queue.log");
    #[cfg(unix)]
    let inode = || std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(&log).expect("stat"));
    #[cfg(unix)]
    let first_inode = inode();
    let (earlier, _) = store::read_lines::<JobRecord>(&log).expect("queue.log");
    let (job, _) = coordinator.submit("ci", 0, SPEC_MG).expect("admitted");
    coordinator.run_until_idle();
    let after = std::fs::read(&log).expect("queue.log");
    assert!(after.starts_with(&before), "queue.log was rewritten");
    #[cfg(unix)]
    assert_eq!(inode(), first_inode, "queue.log was rewritten");
    let (records, skipped) = store::read_lines::<JobRecord>(&log).expect("queue.log");
    assert_eq!(skipped, 0);
    let changes: Vec<(u64, JobState)> =
        records[earlier.len()..].iter().map(|r| (r.id, r.state)).collect();
    let expected = [JobState::Queued, JobState::Running, JobState::Merging, JobState::Completed];
    assert_eq!(changes, expected.map(|state| (job, state)));
    assert_eq!(records.last().and_then(|r| r.stats), Some(stats_of(&coordinator, job)));

    coordinator.drain();
    coordinator.run();
    assert_eq!(std::fs::read(&log).expect("queue.log"), after, "the drain wrote queue.log");
    assert_eq!(state_files(&dir), ["cache.bin", "queue.log", "reports"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An older state dir — `queue.json` with a `queue.log` journal that
/// holds one record a fold already covered, and `cache.bin` with a
/// `cache.log` journal — reopens with every job and every cell, and
/// then holds only the current files, which alone reopen the same.
#[test]
fn an_older_state_dir_is_adopted_with_every_job_and_every_cell() {
    let _telemetry = shared_telemetry();
    // Two completed jobs and their cells, from a current daemon.
    let probe_dir = temp_dir("old-layout-probe");
    let probe = Coordinator::open(CoordinatorConfig::new(&probe_dir)).expect("open");
    let other_seed = spec_mg_at_seed(31);
    for spec in [SPEC_MG, other_seed.as_str()] {
        run_to_completion(&probe, spec);
    }
    let cells = probe.cache_len();
    drop(probe);
    let (cache, _) = store::load(probe_dir.join("cache.bin")).expect("cache.bin");
    let (records, _) =
        store::read_lines::<JobRecord>(&probe_dir.join("queue.log")).expect("queue.log");
    let _ = std::fs::remove_dir_all(&probe_dir);

    // The same state in the older layout.
    let dir = temp_dir("old-layout");
    std::fs::create_dir_all(&dir).expect("state dir");
    let mut queue = JobQueue::new(QueueConfig::default());
    records.into_iter().for_each(|record| queue.replay(record));
    let snapshot = serde_json::to_string(&queue.snapshot()).expect("serialize");
    std::fs::write(dir.join("queue.json"), snapshot).expect("write queue.json");
    let mut covered = queue.get(1).expect("job 1").clone();
    (covered.state, covered.stats) = (JobState::Running, None);
    store::append_line(&dir.join("queue.log"), &covered).expect("write queue.log");
    let mut entries = cache.entries();
    entries.sort_by_key(|(key, _)| *key);
    let (snapshotted, journaled) = entries.split_at(entries.len() / 2);
    let old_bin = hmpt_core::MeasurementCache::new();
    snapshotted.iter().for_each(|(key, value)| old_bin.insert(*key, value.clone()));
    store::save(&old_bin, dir.join("cache.bin")).expect("write cache.bin");
    store::append(dir.join("cache.log"), journaled).expect("write cache.log");

    for open in ["adopting", "current"] {
        let reopened = Coordinator::open(CoordinatorConfig::new(&dir)).expect(open);
        assert_eq!(reopened.cache_len(), cells, "{open} open");
        let states: Vec<JobState> =
            reopened.status(None).expect("status").jobs.iter().map(|j| j.state).collect();
        assert_eq!(states, [JobState::Completed, JobState::Completed], "{open} open");
        assert_eq!(state_files(&dir), ["cache.bin", "queue.log", "reports"], "{open} open");
    }
    let reopened = Coordinator::open(CoordinatorConfig::new(&dir)).expect("reopen");
    for spec in [SPEC_MG, other_seed.as_str()] {
        assert_eq!(run_to_completion(&reopened, spec).simulated_cells, 0, "{spec}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
