//! `hmpt_served` — the long-running campaign service.
//!
//! Everything below the CLI ran one campaign and exited; this crate is
//! the daemon that keeps the fleet warm between campaigns. It has three
//! layers, one module each way down:
//!
//! * [`wire`] — the protocol: line-delimited JSON frames over TCP, a
//!   versioned envelope with request ids, typed [`wire::WireRequest`] /
//!   [`wire::WireResponse`] bodies mirroring `hmpt_fleet::api`, and a
//!   typed error taxonomy. Malformed input yields a typed error frame,
//!   never a disconnect.
//! * [`state`] + [`queue`] — the job model: an explicit state machine
//!   (`Queued → Running → Merging → Completed | Failed`, `Cancelled`
//!   from the queue) and a priority queue with per-tenant admission
//!   quotas and cancellation.
//! * [`coordinator`] — execution: the coordinator owns a shared
//!   persistent [`hmpt_core::cache::MeasurementCache`] and runs each
//!   job's scenario matrix as one `hmpt_fleet::api::run_checked` call
//!   over it — the matrix path `hmpt-fleet run` takes — `workers`
//!   campaign groups at a time on the fleet's job pool, cells serially,
//!   after checking the spec against its admission fingerprint — so a second
//!   job never re-simulates cells a previous job measured. ([`worker`]'s
//!   shard pool is off the service's path.)
//!
//! [`server`] is the accept loop binding [`wire`] to a
//! [`coordinator::Coordinator`]; [`client`] is the blocking client the
//! CLI verbs (`submit`, `status`, `cancel`, `drain`) are built on.
//!
//! The whole service is instrumented with `hmpt_obs` (`serve.accept`,
//! `serve.job`, `serve.merge`, `serve.queue_wait` spans; `queue.depth`
//! gauge; `job.*` and per-tenant counters), so `hmpt-fleet trace
//! summarize` answers where service time goes.

pub mod client;
pub mod coordinator;
pub mod queue;
pub mod server;
pub mod state;
pub mod wire;
pub mod worker;

pub use client::{Client, ClientError};
pub use coordinator::{Coordinator, CoordinatorConfig, ServeError};
pub use queue::{JobQueue, QueueConfig};
pub use server::Server;
pub use state::{JobRecord, JobState, JobStats, JobStatus};
pub use wire::{ErrorKind, RequestFrame, ResponseFrame, WireError, WireRequest, WireResponse};

#[cfg(test)]
mod send_sync_audit {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_cross_threads() {
        assert_send_sync::<Coordinator>();
        assert_send_sync::<Server>();
        assert_send_sync::<WireRequest>();
        assert_send_sync::<WireResponse>();
    }
}
