//! The traced run's span recorder and per-layer ledger.
//!
//! Every call the replay makes into a layer's public function gets a
//! span: name, start, end, parent span and campaign id. Calls made once
//! per cell (key derivation, cache lookups and inserts, simulation) are
//! timed into per-scenario accumulators and *folded*: one span per
//! (parent, name) carrying the summed duration and the call count, so a
//! 274,077-cell campaign leaves a few thousand records, not a million.
//!
//! Spans stay in memory and are written out when the run ends, in the
//! `hmpt_obs` JSONL schema (`hmpt-fleet trace summarize` reads it).
//! In-program `hmpt_obs` recording stays off: the benchmark keeps its
//! own clock.
//!
//! The recorder is one process-wide stack. The replay is a single
//! logical flow — the client thread blocks while the benchmark's
//! loopback server answers it — so spans opened on the server thread
//! nest under the client call that is waiting for them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hmpt_obs::{Collector, JsonlCollector, SpanRecord};

/// Name of the root span of one traced campaign; its self time is the
/// campaign's unattributed time.
pub const CAMPAIGN: &str = "campaign";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Rec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub detail: Option<String>,
    pub campaign: u64,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into this record (1 for an ordinary span).
    pub calls: u64,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: Option<String>,
    start: Instant,
    folded: BTreeMap<&'static str, (Duration, u64)>,
}

struct State {
    epoch: Instant,
    next_id: u64,
    campaign: u64,
    stack: Vec<Open>,
    spans: Vec<Rec>,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

fn with<R>(f: impl FnOnce(&mut State) -> R) -> R {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let state = guard.get_or_insert_with(|| State {
        epoch: Instant::now(),
        next_id: 1,
        campaign: 0,
        stack: Vec::new(),
        spans: Vec::new(),
    });
    f(state)
}

/// Set the campaign id stamped on spans opened from now on.
pub fn set_campaign(id: u64) {
    with(|s| s.campaign = id);
}

fn open(name: &'static str, detail: Option<String>) {
    with(|s| {
        let id = s.next_id;
        s.next_id += 1;
        let parent = s.stack.last().map(|o| o.id);
        s.stack.push(Open {
            id,
            parent,
            name,
            detail,
            start: Instant::now(),
            folded: BTreeMap::new(),
        });
    });
}

fn close() -> Duration {
    let end = Instant::now();
    with(|s| {
        let o = s.stack.pop().expect("span stack underflow");
        let start_ns = o.start.duration_since(s.epoch).as_nanos() as u64;
        let dur = end.duration_since(o.start);
        for (name, (total, calls)) in o.folded {
            let id = s.next_id;
            s.next_id += 1;
            s.spans.push(Rec {
                id,
                parent: Some(o.id),
                name,
                detail: Some(format!("calls={calls}")),
                campaign: s.campaign,
                start_ns,
                dur_ns: total.as_nanos() as u64,
                calls,
            });
        }
        s.spans.push(Rec {
            id: o.id,
            parent: o.parent,
            name: o.name,
            detail: o.detail,
            campaign: s.campaign,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            calls: 1,
        });
        dur
    })
}

/// Run `f` inside a span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_with(name, None, f)
}

/// [`span`] with a detail label.
pub fn span_with<R>(name: &'static str, detail: Option<String>, f: impl FnOnce() -> R) -> R {
    open(name, detail);
    let out = f();
    close();
    out
}

/// Fold `calls` calls totalling `total` into the innermost open span.
pub fn fold(name: &'static str, total: Duration, calls: u64) {
    if calls == 0 {
        return;
    }
    with(|s| {
        let top = s.stack.last_mut().expect("fold outside any span");
        let slot = top.folded.entry(name).or_default();
        slot.0 += total;
        slot.1 += calls;
    });
}

/// Take every closed span recorded so far.
pub fn drain() -> Vec<Rec> {
    with(|s| {
        assert!(s.stack.is_empty(), "drain with open spans");
        std::mem::take(&mut s.spans)
    })
}

/// Write spans as `hmpt_obs` JSONL span records.
pub fn write_jsonl(spans: &[Rec], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let out = JsonlCollector::create(path)?;
    for r in spans {
        let detail = match &r.detail {
            Some(d) => format!("campaign {} {d}", r.campaign),
            None => format!("campaign {}", r.campaign),
        };
        out.span(&SpanRecord {
            name: r.name,
            detail: Some(detail),
            id: r.id,
            parent: r.parent,
            thread: 0,
            start_us: r.start_ns / 1000,
            dur_ns: r.dur_ns,
        });
    }
    out.flush();
    Ok(())
}

/// Per-name self time (duration minus direct children) and call count
/// over every span under a `campaign` root, plus the roots' total.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub self_ns: BTreeMap<&'static str, f64>,
    pub calls: BTreeMap<&'static str, u64>,
    pub campaigns: u64,
    /// Summed duration of the campaign roots.
    pub campaign_ns: f64,
    /// Each campaign root's duration, in seconds.
    pub campaign_s: Vec<f64>,
}

impl Ledger {
    pub fn of(spans: &[Rec]) -> Ledger {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for r in spans {
            if let Some(p) = r.parent {
                *child_ns.entry(p).or_default() += r.dur_ns;
            }
        }
        let parent_of: BTreeMap<u64, Option<u64>> =
            spans.iter().map(|r| (r.id, r.parent)).collect();
        let name_of: BTreeMap<u64, &'static str> = spans.iter().map(|r| (r.id, r.name)).collect();
        let under_campaign = |mut id: u64| loop {
            if name_of.get(&id) == Some(&CAMPAIGN) {
                return true;
            }
            match parent_of.get(&id).copied().flatten() {
                Some(p) => id = p,
                None => return false,
            }
        };
        let mut ledger = Ledger::default();
        for r in spans.iter().filter(|r| under_campaign(r.id)) {
            let own = r.dur_ns as f64 - child_ns.get(&r.id).copied().unwrap_or(0) as f64;
            *ledger.self_ns.entry(r.name).or_default() += own;
            *ledger.calls.entry(r.name).or_default() += r.calls;
            if r.name == CAMPAIGN {
                ledger.campaigns += 1;
                ledger.campaign_ns += r.dur_ns as f64;
                ledger.campaign_s.push(r.dur_ns as f64 / 1e9);
            }
        }
        ledger
    }

    /// Self seconds of `name` per campaign.
    pub fn per_campaign_s(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0.0);
        ns / 1e9 / self.campaigns.max(1) as f64
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, dur_ns: u64) -> Rec {
        Rec { id, parent, name, detail: None, campaign: 1, start_ns: 0, dur_ns, calls: 1 }
    }

    #[test]
    fn self_times_partition_each_campaign() {
        let spans = vec![
            rec(1, None, CAMPAIGN, 1000),
            rec(2, Some(1), "a", 600),
            rec(3, Some(2), "b", 250),
            rec(4, Some(1), "b", 100),
            rec(5, None, "side", 400),
        ];
        let l = Ledger::of(&spans);
        assert_eq!(l.self_ns["a"], 350.0);
        assert_eq!(l.self_ns["b"], 350.0);
        assert_eq!(l.self_ns[CAMPAIGN], 300.0);
        assert!(!l.self_ns.contains_key("side"), "spans outside a campaign root are not in it");
        let sum: f64 = l.self_ns.values().sum();
        assert_eq!(sum, l.campaign_ns);
    }
}
