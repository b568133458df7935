//! The job state machine.
//!
//! Every job the service accepts moves through an explicit, validated
//! state graph:
//!
//! ```text
//!             submit            claim          campaigns done
//!   (wire) ──────────▶ Queued ────────▶ Running ────────────▶ Merging
//!                        │                 │                     │
//!                 cancel │            fail │                fail │ saved
//!                        ▼                 ▼                     ▼
//!                    Cancelled          Failed       Failed / Completed
//! ```
//!
//! plus one off-graph edge for crash recovery: a job found `Running` or
//! `Merging` in a freshly opened state dir was interrupted mid-flight,
//! and [`JobRecord::adopt`] re-queues it (its work is re-done against
//! the shared cache, so the retry mostly hits). Transitions go through
//! [`JobRecord::transition`], which rejects anything not on the graph —
//! a coordinator bug turns into a typed [`StateError`], not silent
//! state corruption.

use serde::{Deserialize, Serialize};

/// Where a job is in its life. Serialized by name into the queue
/// snapshot and the wire status view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted and waiting for the runner.
    Queued,
    /// Its scenario matrix is running on the fleet's job pool.
    Running,
    /// Campaigns done; the shared cache and the report are being saved.
    Merging,
    /// Report on disk; `Report` will serve it.
    Completed,
    /// Execution or saving failed; the error rides the status view.
    Failed,
    /// Cancelled while queued.
    Cancelled,
}

impl JobState {
    /// Is this edge on the state graph?
    pub fn can_transition(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Running)
                | (Queued, Cancelled)
                | (Running, Merging)
                | (Running, Failed)
                | (Merging, Completed)
                | (Merging, Failed)
        )
    }

    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed | JobState::Cancelled)
    }

    /// Stable lowercase name, for status tables and log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Merging => "merging",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An edge that is not on the state graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateError {
    pub job: u64,
    pub from: JobState,
    pub to: JobState,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {}: illegal state transition {} → {}", self.job, self.from, self.to)
    }
}

impl std::error::Error for StateError {}

/// Execution accounting carried on a finished job's status.
/// `simulated_cells` is the number the warm-cache acceptance criteria
/// watch: a re-submission of an already-measured spec must report 0,
/// and `cells_skipped` counts what the shared cache saved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobStats {
    pub scenarios: u64,
    pub planned_cells: u64,
    pub executed_cells: u64,
    /// Cells the job simulated: the entries it added to the shared
    /// cache (a cell two concurrent campaign groups raced on counts once).
    pub simulated_cells: u64,
    /// Cache lookups the job's cells made, less `simulated_cells`: the
    /// lookups the shared cache answered.
    pub cells_skipped: u64,
    /// End-to-end job wall time, seconds (claim → report on disk).
    pub wall_s: f64,
    /// Of which: persisting the shared cache, seconds.
    pub merge_s: f64,
}

/// Everything the service persists about one job. The spec document
/// rides along verbatim so a restart can re-resolve and re-run it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    pub id: u64,
    pub tenant: String,
    pub priority: i64,
    /// The submitted campaign-spec document text (TOML or JSON).
    pub spec: String,
    /// `CampaignSpec::fingerprint()` of the spec, stamped at admission.
    pub fingerprint: String,
    pub state: JobState,
    /// Failure message, set exactly when `state == Failed`.
    pub error: Option<String>,
    /// Execution accounting, set once the job completes.
    pub stats: Option<JobStats>,
}

impl JobRecord {
    /// A freshly admitted job.
    pub fn new(id: u64, tenant: String, priority: i64, spec: String, fingerprint: String) -> Self {
        JobRecord {
            id,
            tenant,
            priority,
            spec,
            fingerprint,
            state: JobState::Queued,
            error: None,
            stats: None,
        }
    }

    /// Move along one validated edge of the state graph.
    pub fn transition(&mut self, to: JobState) -> Result<(), StateError> {
        if !self.state.can_transition(to) {
            return Err(StateError { job: self.id, from: self.state, to });
        }
        self.state = to;
        Ok(())
    }

    /// Crash-recovery edge: a job found mid-flight in a reopened state
    /// dir goes back to `Queued`. Returns whether anything changed.
    pub fn adopt(&mut self) -> bool {
        if matches!(self.state, JobState::Running | JobState::Merging) {
            self.state = JobState::Queued;
            self.error = None;
            self.stats = None;
            true
        } else {
            false
        }
    }

    /// The wire-facing view of this record.
    pub fn status(&self) -> JobStatus {
        JobStatus {
            job: self.id,
            tenant: self.tenant.clone(),
            priority: self.priority,
            state: self.state,
            fingerprint: self.fingerprint.clone(),
            error: self.error.clone(),
            stats: self.stats,
        }
    }
}

/// One row of `Status` output: the record minus the spec text (which
/// can be many kilobytes and is the submitter's to keep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    pub job: u64,
    pub tenant: String,
    pub priority: i64,
    pub state: JobState,
    pub fingerprint: String,
    pub error: Option<String>,
    pub stats: Option<JobStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> JobRecord {
        JobRecord::new(1, "t".into(), 0, "spec".into(), "fp".into())
    }

    #[test]
    fn the_happy_path_walks_the_graph() {
        let mut r = record();
        for to in [JobState::Running, JobState::Merging, JobState::Completed] {
            r.transition(to).unwrap();
        }
        assert!(r.state.is_terminal());
    }

    #[test]
    fn off_graph_edges_are_typed_errors() {
        let mut r = record();
        // Queued cannot complete or merge directly.
        for to in [JobState::Completed, JobState::Merging, JobState::Queued] {
            let e = r.transition(to).unwrap_err();
            assert_eq!((e.from, e.to), (JobState::Queued, to));
            assert_eq!(r.state, JobState::Queued, "failed transition must not move the state");
        }
        // Terminal states accept nothing.
        r.transition(JobState::Cancelled).unwrap();
        assert!(r.transition(JobState::Running).is_err());
    }

    #[test]
    fn every_state_pair_matches_the_graph_table() {
        use JobState::*;
        let all = [Queued, Running, Merging, Completed, Failed, Cancelled];
        let legal = [
            (Queued, Running),
            (Queued, Cancelled),
            (Running, Merging),
            (Running, Failed),
            (Merging, Completed),
            (Merging, Failed),
        ];
        for from in all {
            for to in all {
                assert_eq!(from.can_transition(to), legal.contains(&(from, to)), "{from} → {to}");
                if from.is_terminal() {
                    assert!(!from.can_transition(to), "terminal {from} must be final");
                }
            }
        }
    }

    #[test]
    fn adoption_requeues_only_mid_flight_jobs() {
        let mut r = record();
        assert!(!r.adopt(), "queued jobs are already adoptable as-is");
        r.transition(JobState::Running).unwrap();
        assert!(r.adopt());
        assert_eq!(r.state, JobState::Queued);
        r.transition(JobState::Running).unwrap();
        r.transition(JobState::Merging).unwrap();
        r.transition(JobState::Completed).unwrap();
        assert!(!r.adopt(), "finished work is never re-run");
    }

    #[test]
    fn records_round_trip_through_json() {
        let mut r = record();
        r.transition(JobState::Running).unwrap();
        r.transition(JobState::Failed).unwrap();
        r.error = Some("boom".into());
        let json = serde_json::to_string(&r).unwrap();
        let back: JobRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
