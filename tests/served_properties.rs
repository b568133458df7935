//! Property tests for the campaign-service protocol: arbitrary
//! requests and responses round-trip through the line-framed wire
//! codec bit-for-bit; truncated, garbage, or mis-versioned lines decode
//! to typed [`Malformed`] errors (never a panic); a live TCP accept
//! loop answers malformed lines with typed error frames while keeping
//! the connection — and the daemon — alive; and a coordinator that dies
//! without a drain, its queue log cut inside an append or flipped,
//! reopens with every persisted job state but the damaged one.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hmpt_core::store;
use hmpt_served::state::{JobRecord, JobStats, JobStatus};
use hmpt_served::wire::{
    self, ErrorKind, Malformed, RawFrame, StatusView, WireError, WireRequest, WireResponse,
    PROTOCOL_VERSION,
};
use hmpt_served::{Coordinator, CoordinatorConfig, JobState, Server};
use proptest::prelude::*;
use serde::Value;

/// Characters a strategy-built string draws from: identifier chars,
/// JSON structural chars, everything that needs escaping (quotes,
/// backslashes, control chars), and multi-byte UTF-8.
const CHAR_POOL: &[char] = &[
    'a', 'Z', '0', '9', '_', '-', '.', ' ', '/', ':', ',', '{', '}', '[', ']', '"', '\\', '\n',
    '\t', '\r', '\u{0}', '\u{1b}', '\u{7f}', 'é', 'Ω', '☃', '𝕊',
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..CHAR_POOL.len(), 0..24)
        .prop_map(|idx| idx.into_iter().map(|i| CHAR_POOL[i]).collect())
}

/// Any finite f64 (the wire serializes non-finite floats as `null`, so
/// they are out of the round-trip contract by design).
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            f
        } else {
            // Clear the top exponent bit: the result is always finite.
            f64::from_bits(bits & !(1 << 62))
        }
    })
}

fn arb_request() -> impl Strategy<Value = WireRequest> {
    prop_oneof![
        Just(WireRequest::Ping),
        Just(WireRequest::Drain),
        (arb_string(), -100i64..100, arb_string()).prop_map(|(tenant, priority, spec)| {
            WireRequest::Submit { tenant, priority, spec }
        }),
        prop::option::of(0u64..1 << 40).prop_map(|job| WireRequest::Status { job }),
        (0u64..1 << 40).prop_map(|job| WireRequest::Report { job }),
        (0u64..1 << 40).prop_map(|job| WireRequest::Cancel { job }),
    ]
}

fn arb_state() -> impl Strategy<Value = JobState> {
    prop_oneof![
        Just(JobState::Queued),
        Just(JobState::Running),
        Just(JobState::Merging),
        Just(JobState::Completed),
        Just(JobState::Failed),
        Just(JobState::Cancelled),
    ]
}

fn arb_stats() -> impl Strategy<Value = JobStats> {
    (
        (0u64..1000, 0u64..100_000, 0u64..100_000),
        (0u64..100_000, 0u64..100_000),
        arb_finite_f64(),
        arb_finite_f64(),
    )
        .prop_map(|((scenarios, planned, executed), (simulated, skipped), wall_s, merge_s)| {
            JobStats {
                scenarios,
                planned_cells: planned,
                executed_cells: executed,
                simulated_cells: simulated,
                cells_skipped: skipped,
                wall_s,
                merge_s,
            }
        })
}

fn arb_status() -> impl Strategy<Value = JobStatus> {
    (
        (1u64..1 << 40, arb_string(), -100i64..100, arb_state()),
        arb_string(),
        prop::option::of(arb_string()),
        prop::option::of(arb_stats()),
    )
        .prop_map(|((job, tenant, priority, state), fingerprint, error, stats)| JobStatus {
            job,
            tenant,
            priority,
            state,
            fingerprint,
            error,
            stats,
        })
}

/// A small JSON document for `Report` payloads. Floats are kept
/// strictly fractional: the reader parses `3` as `Value::U64`, so an
/// integer-valued `Value::F64` cannot round-trip *as a `Value`* (typed
/// struct fields are unaffected — `f64::deserialize` accepts either).
fn arb_leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop_oneof![Just(true), Just(false)].prop_map(Value::Bool),
        (0u64..1 << 50).prop_map(Value::U64),
        (-(1i64 << 50)..0).prop_map(Value::I64),
        (1u32..1_000_000).prop_map(|n| Value::F64(n as f64 + 0.5)),
        arb_string().prop_map(Value::Str),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        prop::collection::vec(arb_leaf_value(), 0..5).prop_map(Value::Array),
        prop::collection::vec((arb_string(), arb_leaf_value()), 0..5)
            .prop_map(|kv| Value::Object(kv.into_iter().collect())),
    ]
}

fn arb_response() -> impl Strategy<Value = WireResponse> {
    prop_oneof![
        Just(WireResponse::Pong),
        (1u64..1 << 40, arb_string())
            .prop_map(|(job, fingerprint)| WireResponse::Submitted { job, fingerprint }),
        (
            prop::collection::vec(arb_status(), 0..4),
            0u64..100,
            prop_oneof![Just(true), Just(false)]
        )
            .prop_map(|(jobs, queue_depth, draining)| {
                WireResponse::Status(StatusView { jobs, queue_depth, draining })
            }),
        (1u64..1 << 40, arb_value()).prop_map(|(job, report)| WireResponse::Report { job, report }),
        (1u64..1 << 40).prop_map(|job| WireResponse::Cancelled { job }),
        (0u64..100, 0u64..2)
            .prop_map(|(queued, running)| WireResponse::Draining { queued, running }),
        (
            prop_oneof![
                Just(ErrorKind::Protocol),
                Just(ErrorKind::BadSpec),
                Just(ErrorKind::QuotaExceeded),
                Just(ErrorKind::UnknownJob),
                Just(ErrorKind::WrongState),
                Just(ErrorKind::Draining),
                Just(ErrorKind::Internal),
            ],
            arb_string()
        )
            .prop_map(|(kind, message)| WireResponse::Error { kind, message }),
    ]
}

/// Pull the single frame line back out through the real reader, as the
/// server would off a socket.
fn reread(line: &str) -> Vec<u8> {
    let mut r = BufReader::new(line.as_bytes());
    match wire::read_frame(&mut r).expect("in-memory read") {
        Some(RawFrame::Line(raw)) => raw,
        other => panic!("expected one line frame, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request — arbitrary tenants, specs with quotes/newlines/
    /// unicode, negative priorities — survives encode → socket framing →
    /// decode with its id and body intact.
    #[test]
    fn requests_round_trip_through_the_framed_wire(id in 0u64..1 << 40, req in arb_request()) {
        let line = wire::encode_request(id, &req);
        prop_assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
        let frame = wire::decode_request(&reread(&line)).unwrap();
        prop_assert_eq!(frame.v, PROTOCOL_VERSION);
        prop_assert_eq!(frame.id, id);
        prop_assert_eq!(frame.req, req);
    }

    /// Any response — status views with arbitrary stats floats, nested
    /// report JSON, every error kind — round-trips the same way.
    #[test]
    fn responses_round_trip_through_the_framed_wire(id in 0u64..1 << 40, resp in arb_response()) {
        let line = wire::encode_response(id, &resp);
        let frame = wire::decode_response(&reread(&line)).unwrap();
        prop_assert_eq!(frame.id, id);
        prop_assert_eq!(frame.resp, resp);
    }

    /// Arbitrary bytes never panic the decoder; anything that is not a
    /// valid current-version frame is a typed [`Malformed`].
    #[test]
    fn garbage_bytes_decode_to_typed_errors(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        if let Err(Malformed { error, .. }) = wire::decode_request(&bytes) {
            // The taxonomy is closed: every failure is one of these.
            prop_assert!(matches!(
                error,
                WireError::Json(_) | WireError::Schema(_) | WireError::Version { .. }
            ));
        }
    }

    /// Every strict prefix of a valid frame is malformed — truncation
    /// (a peer dying mid-write) can never be mistaken for a frame, and
    /// the error is `Json`, the kind the server answers and survives.
    #[test]
    fn truncated_frames_are_typed_json_errors(req in arb_request(), cut in 0usize..1000) {
        let line = wire::encode_request(7, &req);
        let body = line.trim_end().as_bytes();
        let cut = cut % body.len().max(1);
        let err = wire::decode_request(&body[..cut]).unwrap_err();
        prop_assert!(matches!(err.error, WireError::Json(_)), "prefix decoded as {:?}", err);
    }

    /// A well-formed envelope of a foreign version is rejected before
    /// its body is interpreted, and the request id still comes back so
    /// the error frame can be correlated.
    #[test]
    fn foreign_versions_are_rejected_with_the_id_recovered(
        id in 0u64..1 << 40,
        v in 2u64..1 << 40,
    ) {
        let raw = format!("{{\"v\":{v},\"id\":{id},\"req\":\"Ping\"}}");
        let err = wire::decode_request(raw.as_bytes()).unwrap_err();
        prop_assert_eq!(err.id, Some(id));
        prop_assert_eq!(err.error, WireError::Version { found: v });
    }
}

/// The live-daemon half of the robustness contract: a real accept loop
/// fed garbage answers with typed `Protocol` error frames and keeps
/// serving valid frames on the very same connection.
#[test]
fn live_server_survives_malformed_lines_on_one_connection() {
    let dir = std::env::temp_dir().join(format!("hmpt-served-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coordinator =
        Arc::new(Coordinator::open(CoordinatorConfig::new(&dir)).expect("open state dir"));
    let server = Server::start(Arc::clone(&coordinator), "127.0.0.1:0").expect("bind loopback");

    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &[u8]| -> WireResponse {
        writer.write_all(line).expect("write frame");
        writer.write_all(b"\n").expect("write newline");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response line");
        wire::decode_response(resp.trim_end().as_bytes()).expect("typed response frame").resp
    };

    let abuse: &[&[u8]] = &[
        b"",                                         // empty line
        b"\xff\xfe\x00 garbage",                     // not UTF-8
        b"{\"v\":1,\"id\":3,\"req\":",               // truncated JSON
        b"[1,2,3]",                                  // JSON, wrong shape
        b"{\"v\":99,\"id\":4,\"req\":\"Ping\"}",     // wrong version
        b"{\"v\":1,\"id\":5,\"req\":{\"Nope\":{}}}", // unknown request
    ];
    for line in abuse {
        match roundtrip(line) {
            WireResponse::Error { kind: ErrorKind::Protocol, .. } => {}
            other => panic!("malformed line answered with {other:?}, not a Protocol error"),
        }
    }

    // The same connection still speaks the protocol afterwards.
    let ping = wire::encode_request(42, &WireRequest::Ping);
    assert_eq!(roundtrip(ping.trim_end().as_bytes()), WireResponse::Pong);

    // And so does a fresh one — the accept loop itself never died.
    let mut fresh = hmpt_served::Client::connect(server.addr()).expect("second connection");
    fresh.ping().expect("fresh connection still answers");

    drop(reader);
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cheap matrix job: one campaign group, no verify re-run.
const CRASH_SPEC: &str = "\
mode = \"matrix\"
zoo = [\"xeon-max\"]
workloads = [\"mg\"]
budgets = [\"none\"]
policies = [\"fixed\"]

[execution]
verify = false
";

/// One verb of a crash-test run.
#[derive(Debug, Clone)]
enum Step {
    /// Submit a job at this priority.
    Submit(i64),
    /// Cancel the submitted job at this index (modulo their count).
    Cancel(usize),
    /// Claim and run the next queued job, if any.
    Run,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (-2i64..3).prop_map(Step::Submit),
        1 => (0usize..16).prop_map(Step::Cancel),
        1 => Just(Step::Run),
    ]
}

/// What the crash does to `queue.log`.
#[derive(Debug, Clone)]
enum Damage {
    None,
    /// Cut the log at this byte of the records appended since its last
    /// rewrite (modulo their length + 1): a crash tears only an append,
    /// since a rewrite is renamed into place whole.
    Cut(usize),
    /// XOR the mask into the log's byte at this index (modulo the count
    /// of bytes that are not line breaks, counting only those).
    Flip(usize, u8),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        (0usize..1 << 20).prop_map(Damage::Cut),
        (0usize..1 << 20, 1u8..=255).prop_map(|(at, mask)| Damage::Flip(at, mask)),
    ]
}

/// Each job's last state in `changes`.
fn last_states(changes: &[(u64, JobState)]) -> BTreeMap<u64, JobState> {
    changes.iter().copied().collect()
}

/// The job states a reopen derives: mid-flight jobs re-queued.
fn adopted(mut states: BTreeMap<u64, JobState>) -> BTreeMap<u64, JobState> {
    for state in states.values_mut() {
        if matches!(state, JobState::Running | JobState::Merging) {
            *state = JobState::Queued;
        }
    }
    states
}

fn states_of(coordinator: &Coordinator) -> BTreeMap<u64, JobState> {
    coordinator.status(None).expect("status").jobs.iter().map(|j| (j.job, j.state)).collect()
}

/// The byte range of each line of `bytes`, without its line break.
fn line_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (at, _) in bytes.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        spans.push((start, at));
        start = at + 1;
    }
    if start < bytes.len() {
        spans.push((start, bytes.len()));
    }
    spans
}

fn crash_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hmpt-served-crash-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random submit/run/cancel sequences, then a crash: the coordinator
    /// is dropped without a drain, and its queue log is maybe cut inside
    /// the records appended since its last rewrite, or has one byte
    /// flipped anywhere. The log holds a rewrite — one record per job,
    /// as of some acknowledged state change — and then every change
    /// since, never more of them than the rewrite's jobs. The reopened
    /// queue holds each job in the state of its last record that
    /// survived, mid-flight jobs adopted to `Queued`: damage loses
    /// exactly the records it hits. Neither the open nor a drain writes
    /// the log, and a job submitted after the damage reopens too.
    #[test]
    fn a_crashed_queue_reopens_with_every_persisted_job_state(
        steps in prop::collection::vec(arb_step(), 4..16),
        damage in arb_damage(),
    ) {
        let dir = crash_dir();
        let log = dir.join("queue.log");
        let config = CoordinatorConfig { tenant_quota: 64, ..CoordinatorConfig::new(&dir) };
        let coordinator = Coordinator::open(config.clone()).expect("open");
        // Every acknowledged state change, in order.
        let mut changes: Vec<(u64, JobState)> = Vec::new();
        let mut submitted: Vec<u64> = Vec::new();
        for step in &steps {
            match *step {
                Step::Submit(priority) => {
                    let (id, _) = coordinator.submit("t", priority, CRASH_SPEC).expect("admitted");
                    submitted.push(id);
                    changes.push((id, JobState::Queued));
                }
                Step::Cancel(at) => {
                    if let Some(&id) = submitted.get(at % submitted.len().max(1)) {
                        if coordinator.cancel(id).is_ok() {
                            changes.push((id, JobState::Cancelled));
                        }
                    }
                }
                Step::Run => {
                    let before = states_of(&coordinator);
                    if coordinator.run_one() {
                        let after = states_of(&coordinator);
                        let id = *after.keys().find(|id| before[id] != after[id]).expect("a job ran");
                        prop_assert_eq!(after[&id], JobState::Completed);
                        let run = [JobState::Running, JobState::Merging, JobState::Completed];
                        changes.extend(run.map(|state| (id, state)));
                    }
                }
            }
        }

        let (records, skipped) = store::read_lines::<JobRecord>(&log).expect("queue.log");
        prop_assert_eq!(skipped, 0);
        let logged: Vec<(u64, JobState)> = records.iter().map(|r| (r.id, r.state)).collect();
        // The latest change k whose rewrite, followed by the changes
        // after k, spells the log.
        let rewritten = (0..=changes.len()).rev().find_map(|k| {
            let rewrite: Vec<(u64, JobState)> = last_states(&changes[..k]).into_iter().collect();
            let (head, tail) = logged.split_at(rewrite.len().min(logged.len()));
            (head == &rewrite[..] && tail == &changes[k..]).then_some(rewrite.len())
        });
        prop_assert!(rewritten.is_some(), "{:?} is no rewrite plus appends of {:?}", logged, changes);
        let rewritten = rewritten.expect("checked");
        prop_assert!(logged.len() - rewritten <= rewritten, "more appends than jobs: {:?}", logged);
        drop(coordinator);

        let mut bytes = std::fs::read(&log).unwrap_or_default();
        let spans = line_spans(&bytes);
        prop_assert_eq!(spans.len(), records.len());
        let appended_from = spans.get(rewritten).map_or(bytes.len(), |span| span.0);
        let survivors: Vec<usize> = match damage {
            Damage::Cut(at) if !bytes.is_empty() => {
                let cut = appended_from + at % (bytes.len() - appended_from + 1);
                bytes.truncate(cut);
                (0..spans.len()).filter(|&i| spans[i].1 <= cut).collect()
            }
            Damage::Flip(at, mask) if !bytes.is_empty() => {
                let inside: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != b'\n').collect();
                let at = inside[at % inside.len()];
                bytes[at] ^= mask;
                (0..spans.len()).filter(|&i| !(spans[i].0..spans[i].1).contains(&at)).collect()
            }
            _ => (0..spans.len()).collect(),
        };
        if log.exists() {
            std::fs::write(&log, &bytes).expect("damage the log");
        }
        let persisted: Vec<(u64, JobState)> = survivors.iter().map(|&i| logged[i]).collect();

        let reopened = Coordinator::open(config.clone()).expect("reopen");
        prop_assert_eq!(states_of(&reopened), adopted(last_states(&persisted)));
        prop_assert!(std::fs::read(&log).unwrap_or_default() == bytes, "the open wrote the log");

        reopened.submit("t", 0, CRASH_SPEC).expect("admitted");
        let statuses = reopened.status(None).expect("status").jobs;
        let submitted_log = std::fs::read(&log).expect("queue.log");
        reopened.drain();
        reopened.run();
        let drained = std::fs::read(&log).expect("queue.log");
        prop_assert!(drained == submitted_log, "the drain wrote the log");
        drop(reopened);
        let again = Coordinator::open(config).expect("reopen");
        prop_assert_eq!(again.status(None).expect("status").jobs, statuses);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
