//! End-to-end tests for the campaign service: a spec submitted over a
//! real TCP connection produces a `MatrixReport` bit-identical to
//! direct `api::execute`; a warm re-submission simulates nothing; the
//! coordinator's shared cache stops overlapping jobs double-simulating
//! their common cells across the job boundary; a served report's cache
//! counts are the job's own traffic; tenant quotas reject typed while
//! other tenants proceed; and a state dir that died mid-flight is
//! adopted and completed on restart.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use hmpt_core::scenario::MatrixReport;
use hmpt_fleet::api::{self, Request, Response};
use hmpt_fleet::spec::CampaignSpec;
use hmpt_served::queue::{JobQueue, QueueConfig};
use hmpt_served::state::{JobState, JobStats};
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
/// the same counts `JobStats` reports — even when two shard workers
/// run concurrently over the shared cache (the mg-only job's two
/// budget rows land in different shards and race on one campaign).
#[test]
fn served_report_cache_stats_are_the_jobs_own_traffic() {
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

#[test]
fn tenant_quota_rejects_typed_while_other_tenants_proceed() {
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
