//! The job queue: priorities, per-tenant admission quotas,
//! cancellation, and crash recovery from a log of job records.
//!
//! Ordering is priority-first (higher runs earlier), submission-order
//! within a priority — so a tenant cannot starve the queue by
//! resubmitting, and a `--priority 10` smoke job overtakes a bulk
//! sweep. Admission is quota-gated per tenant: a tenant may hold at
//! most `tenant_quota` live (queued or mid-flight) jobs; the quota
//! counts admissions, not completed history, so a tenant's slot frees
//! the moment a job reaches a terminal state.
//!
//! The queue is durable as one store line log. Each mutation's changed
//! [`JobRecord`] is appended to the coordinator's `queue.log`, and from
//! time to time the coordinator rewrites the log with one record per
//! job. Crash recovery replays the log over an empty queue
//! ([`JobQueue::replay`]) and re-queues whatever was mid-flight
//! ([`JobQueue::adopt_all`]). An older state dir also holds the queue as
//! one JSON document ([`QueueSnapshot`], `queue.json`) with the log as
//! its journal; [`JobQueue::restore`] reads it before the replay.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::state::{JobRecord, JobState, JobStatus};

/// Admission policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Max live (queued + running + merging) jobs per tenant.
    pub tenant_quota: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { tenant_quota: 4 }
    }
}

/// Why the queue refused a verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// The tenant is at its live-job quota.
    QuotaExceeded { tenant: String, quota: usize },
    /// No job with that id was ever admitted.
    UnknownJob(u64),
    /// The job exists but the verb does not apply in its state.
    WrongState { job: u64, state: JobState },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant `{tenant}` is at its quota of {quota} live jobs")
            }
            QueueError::UnknownJob(job) => write!(f, "no job {job}"),
            QueueError::WrongState { job, state } => {
                write!(f, "job {job} is {state}; the verb applies only to queued jobs")
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// The queue as one JSON document, as an older state dir's `queue.json`
/// holds it: every record ever admitted (terminal ones included — they
/// are the status history) plus the id counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueSnapshot {
    /// Snapshot schema version, for forward-compatible state dirs.
    pub version: u64,
    pub next_id: u64,
    pub jobs: Vec<JobRecord>,
}

/// Current snapshot schema version.
pub const SNAPSHOT_VERSION: u64 = 1;

/// The in-memory queue. Purely a data structure — the coordinator owns
/// locking and persistence.
#[derive(Debug)]
pub struct JobQueue {
    next_id: u64,
    jobs: BTreeMap<u64, JobRecord>,
    config: QueueConfig,
}

impl JobQueue {
    pub fn new(config: QueueConfig) -> Self {
        JobQueue { next_id: 1, jobs: BTreeMap::new(), config }
    }

    /// Live (non-terminal) jobs a tenant holds right now.
    pub fn tenant_load(&self, tenant: &str) -> usize {
        self.jobs.values().filter(|j| j.tenant == tenant && !j.state.is_terminal()).count()
    }

    /// Admit a job, or refuse it at the tenant's quota. Ids are
    /// monotonically increasing and never reused.
    pub fn submit(
        &mut self,
        tenant: &str,
        priority: i64,
        spec: String,
        fingerprint: String,
    ) -> Result<u64, QueueError> {
        if self.tenant_load(tenant) >= self.config.tenant_quota {
            return Err(QueueError::QuotaExceeded {
                tenant: tenant.to_string(),
                quota: self.config.tenant_quota,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(id, JobRecord::new(id, tenant.to_string(), priority, spec, fingerprint));
        Ok(id)
    }

    /// The job the runner should claim next: highest priority, then
    /// earliest submission. `None` when nothing is queued.
    pub fn next_runnable(&self) -> Option<u64> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .max_by_key(|j| (j.priority, std::cmp::Reverse(j.id)))
            .map(|j| j.id)
    }

    /// Cancel a queued job. Running work is not interrupted — the verb
    /// answers [`QueueError::WrongState`] for anything mid-flight or
    /// terminal, so a cancel is always an honest no-work-lost promise.
    pub fn cancel(&mut self, id: u64) -> Result<(), QueueError> {
        let job = self.jobs.get_mut(&id).ok_or(QueueError::UnknownJob(id))?;
        job.transition(JobState::Cancelled)
            .map_err(|_| QueueError::WrongState { job: id, state: job.state })
    }

    pub fn get(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut JobRecord> {
        self.jobs.get_mut(&id)
    }

    /// Queued-job count (the `queue.depth` gauge).
    pub fn depth(&self) -> usize {
        self.jobs.values().filter(|j| j.state == JobState::Queued).count()
    }

    /// Jobs currently mid-flight (0 or 1 under the single runner).
    pub fn running(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Running | JobState::Merging))
            .count()
    }

    /// Status rows: one job, or the whole history in id order.
    pub fn statuses(&self, job: Option<u64>) -> Vec<JobStatus> {
        match job {
            Some(id) => self.jobs.get(&id).map(JobRecord::status).into_iter().collect(),
            None => self.jobs.values().map(JobRecord::status).collect(),
        }
    }

    /// Re-queue every mid-flight job (crash recovery); returns how many
    /// were adopted.
    pub fn adopt_all(&mut self) -> u64 {
        self.jobs.values_mut().map(|j| u64::from(j.adopt())).sum()
    }

    /// This queue as one JSON document.
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            version: SNAPSHOT_VERSION,
            next_id: self.next_id,
            jobs: self.jobs.values().cloned().collect(),
        }
    }

    /// Rebuild a queue from its snapshot (the restart path).
    pub fn restore(snapshot: QueueSnapshot, config: QueueConfig) -> Self {
        let jobs = snapshot.jobs.into_iter().map(|j| (j.id, j)).collect::<BTreeMap<_, _>>();
        let floor = jobs.keys().next_back().map(|id| id + 1).unwrap_or(1);
        JobQueue { next_id: snapshot.next_id.max(floor), jobs, config }
    }

    /// Apply one logged record (the restart path, in log order): the
    /// record replaces its job's, so the last one wins. A record behind
    /// its job on the state graph is ignored. An older state dir's log
    /// is a journal over its `queue.json`, which the old daemon's fold
    /// rewrote before it deleted the journal, so a crash between the two
    /// left records the snapshot already covers, and they must not move
    /// a finished job back. The one backward edge, adoption, is never
    /// logged, and a reopen adopts `Running` and `Merging` alike, so
    /// ignoring a re-claimed job's `Running` behind its adopted
    /// `Merging` changes nothing.
    pub fn replay(&mut self, record: JobRecord) {
        if self.jobs.get(&record.id).is_some_and(|held| stage(record.state) < stage(held.state)) {
            return;
        }
        self.next_id = self.next_id.max(record.id.saturating_add(1));
        self.jobs.insert(record.id, record);
    }
}

/// How far along the state graph a state lies.
fn stage(state: JobState) -> u8 {
    match state {
        JobState::Queued => 0,
        JobState::Running => 1,
        JobState::Merging => 2,
        JobState::Completed | JobState::Failed | JobState::Cancelled => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(quota: usize) -> JobQueue {
        JobQueue::new(QueueConfig { tenant_quota: quota })
    }

    fn submit(q: &mut JobQueue, tenant: &str, priority: i64) -> u64 {
        q.submit(tenant, priority, format!("spec-{tenant}"), "fp".into()).unwrap()
    }

    #[test]
    fn priority_runs_first_fifo_within_priority() {
        let mut q = queue(10);
        let low1 = submit(&mut q, "a", 0);
        let low2 = submit(&mut q, "a", 0);
        let high = submit(&mut q, "b", 5);
        assert_eq!(q.next_runnable(), Some(high));
        q.get_mut(high).unwrap().transition(JobState::Running).unwrap();
        assert_eq!(q.next_runnable(), Some(low1), "FIFO within a priority");
        q.cancel(low1).unwrap();
        assert_eq!(q.next_runnable(), Some(low2));
        assert_eq!((q.depth(), q.running()), (1, 1));
    }

    #[test]
    fn quota_gates_admission_and_frees_on_terminal_states() {
        let mut q = queue(2);
        let a1 = submit(&mut q, "a", 0);
        let _a2 = submit(&mut q, "a", 0);
        let err = q.submit("a", 9, "spec".into(), "fp".into()).unwrap_err();
        assert_eq!(err, QueueError::QuotaExceeded { tenant: "a".into(), quota: 2 });
        // Another tenant is unaffected.
        submit(&mut q, "b", 0);
        // Running still counts against the quota; terminal does not.
        q.get_mut(a1).unwrap().transition(JobState::Running).unwrap();
        assert!(q.submit("a", 0, "s".into(), "fp".into()).is_err());
        q.get_mut(a1).unwrap().transition(JobState::Failed).unwrap();
        assert!(q.submit("a", 0, "s".into(), "fp".into()).is_ok());
    }

    #[test]
    fn cancel_is_queued_only_and_typed() {
        let mut q = queue(10);
        let id = submit(&mut q, "a", 0);
        assert_eq!(q.cancel(99), Err(QueueError::UnknownJob(99)));
        q.get_mut(id).unwrap().transition(JobState::Running).unwrap();
        assert_eq!(q.cancel(id), Err(QueueError::WrongState { job: id, state: JobState::Running }));
        let id2 = submit(&mut q, "a", 0);
        q.cancel(id2).unwrap();
        assert_eq!(q.get(id2).unwrap().state, JobState::Cancelled);
        assert_eq!(
            q.cancel(id2),
            Err(QueueError::WrongState { job: id2, state: JobState::Cancelled })
        );
    }

    #[test]
    fn snapshot_round_trips_and_adoption_requeues() {
        let mut q = queue(10);
        let running = submit(&mut q, "a", 1);
        let queued = submit(&mut q, "b", 0);
        let done = submit(&mut q, "c", 0);
        q.get_mut(running).unwrap().transition(JobState::Running).unwrap();
        for s in [JobState::Running, JobState::Merging, JobState::Completed] {
            let _ = q.get_mut(done).unwrap().transition(s);
        }
        let json = serde_json::to_string(&q.snapshot()).unwrap();

        let snap: QueueSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        let mut restored = JobQueue::restore(snap, QueueConfig::default());
        assert_eq!(restored.adopt_all(), 1, "only the mid-flight job is adopted");
        assert_eq!(restored.get(running).unwrap().state, JobState::Queued);
        assert_eq!(restored.get(queued).unwrap().state, JobState::Queued);
        assert_eq!(restored.get(done).unwrap().state, JobState::Completed);
        // Ids never restart: the next admission is strictly newer.
        let next = restored.submit("d", 0, "s".into(), "fp".into()).unwrap();
        assert!(next > done);
        // Adopted jobs keep their priority order.
        assert_eq!(restored.next_runnable(), Some(running));
    }

    #[test]
    fn replay_applies_the_last_record_and_never_moves_a_job_back() {
        let mut q = queue(10);
        let done = submit(&mut q, "a", 0);
        let mut journal = vec![q.get(done).unwrap().clone()];
        for s in [JobState::Running, JobState::Merging, JobState::Completed] {
            q.get_mut(done).unwrap().transition(s).unwrap();
            journal.push(q.get(done).unwrap().clone());
        }
        let fresh = JobRecord::new(7, "b".into(), 0, "spec".into(), "fp".into());
        journal.push(fresh.clone());

        // Over an empty snapshot, the journal alone rebuilds the queue.
        let mut replayed = queue(10);
        for record in journal.clone() {
            replayed.replay(record);
        }
        assert_eq!(replayed.snapshot().jobs, vec![q.get(done).unwrap().clone(), fresh]);
        assert_eq!(replayed.submit("c", 0, "s".into(), "fp".into()).unwrap(), 8);

        // A journal left behind by a fold it predates changes nothing,
        // even cut short of its job's last record.
        let mut folded = JobQueue::restore(replayed.snapshot(), QueueConfig::default());
        for record in journal.into_iter().take(2) {
            folded.replay(record);
        }
        assert_eq!(folded.snapshot(), replayed.snapshot());
    }
}
