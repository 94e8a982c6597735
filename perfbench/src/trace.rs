//! Spans for the traced run.
//!
//! Spans are opened only by the benchmark's own wrappers and loop drivers,
//! around calls into the workspace's public API. Each span has a name, a
//! start, an end, a parent (the enclosing span on the same thread) and the
//! instance key it belongs to. Every span, stored or not, adds to its name's
//! totals — count, total time and self time (duration minus the time of its
//! children) — so the per-layer figures cover every call. Storing every
//! per-event span would cost gigabytes, so span records are kept for every
//! *coarse* span (instances, submits, waits) and for one in [`SAMPLE_EVERY`]
//! subtrees of *fine* spans (simulator events, protocol steps, register
//! operations). Records stay in memory until [`take`] hands them to the
//! writer at the end of the run.
//!
//! State is per thread: a thread's spans and totals move to the global sink
//! when the thread exits (worker pools the benchmark shuts down) or when it
//! calls [`flush`].

use crate::report::{json_str, object, RunResult};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One in this many fine-span subtrees is stored as records.
pub const SAMPLE_EVERY: u64 = 64;

/// A stored span. Times are nanoseconds since the process's trace epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    fn add(&mut self, other: &Totals) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }

    /// Mean duration in nanoseconds (0 when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct Sink {
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(Mutex::default)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

struct Open {
    name: &'static str,
    fine: bool,
    start_ns: u64,
    child_ns: u64,
    /// Index into `Local::spans` when this span is stored.
    record: Option<usize>,
}

struct Local {
    thread: u64,
    next: u64,
    fine_roots: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Local {
    fn new() -> Self {
        Local {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            next: 0,
            fine_roots: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn open(&mut self, name: &'static str, key: u64, fine: bool) {
        let store = match self.stack.last() {
            None => !fine || self.sample_fine_root(),
            Some(parent) if parent.record.is_none() => false,
            Some(parent) if fine && !parent.fine => self.sample_fine_root(),
            Some(_) => true,
        };
        let start_ns = now_ns();
        let record = store.then(|| {
            self.next += 1;
            let parent = self
                .stack
                .last()
                .and_then(|open| open.record)
                .map_or(0, |index| self.spans[index].id);
            self.spans.push(Span {
                id: (self.thread << 40) | self.next,
                parent,
                name,
                key,
                start_ns,
                end_ns: start_ns,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            name,
            fine,
            start_ns,
            child_ns: 0,
            record,
        });
    }

    fn sample_fine_root(&mut self) -> bool {
        self.fine_roots += 1;
        self.fine_roots % SAMPLE_EVERY == 1
    }

    fn close(&mut self) {
        let open = self
            .stack
            .pop()
            .expect("every guard closes a span it opened");
        let end_ns = now_ns();
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(index) = open.record {
            self.spans[index].end_ns = end_ns;
        }
        let totals = self.totals.entry(open.name).or_default();
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.child_ns);
    }

    fn drain_into(&mut self, sink: &mut Sink) {
        // Open spans still point into `spans` by index; records move only
        // once the thread is outside every span.
        if self.stack.is_empty() {
            sink.spans.append(&mut self.spans);
        }
        for (name, totals) in std::mem::take(&mut self.totals) {
            sink.totals.entry(name).or_default().add(&totals);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Never panic in a thread-local destructor: a poisoned sink only
        // loses this thread's spans.
        if let Ok(mut sink) = sink().lock() {
            self.drain_into(&mut sink);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard is dropped"]
pub struct Guard(());

impl Drop for Guard {
    fn drop(&mut self) {
        LOCAL.with(|local| local.borrow_mut().close());
    }
}

/// Open a coarse span (an instance, a submit, a wait): stored whenever its
/// parent is.
pub fn coarse(name: &'static str, key: u64) -> Guard {
    LOCAL.with(|local| local.borrow_mut().open(name, key, false));
    Guard(())
}

/// Open a fine span (an event, a protocol step, a register operation):
/// counted always, stored for one in [`SAMPLE_EVERY`] fine subtrees.
pub fn fine(name: &'static str, key: u64) -> Guard {
    LOCAL.with(|local| local.borrow_mut().open(name, key, true));
    Guard(())
}

/// Move the calling thread's spans and totals to the global sink.
pub fn flush() {
    LOCAL.with(|local| {
        let mut sink = sink()
            .lock()
            .expect("no thread panics while flushing spans");
        local.borrow_mut().drain_into(&mut sink);
    });
}

/// Flush the calling thread and take everything recorded so far, spans in
/// start order.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, Totals>) {
    flush();
    let mut sink = sink()
        .lock()
        .expect("no thread panics while flushing spans");
    let mut spans = std::mem::take(&mut sink.spans);
    spans.sort_by_key(|span| (span.start_ns, span.id));
    (spans, std::mem::take(&mut sink.totals))
}

/// Span totals as JSON: per span name, count, total and self time in ns.
pub fn totals_json(totals: &BTreeMap<&'static str, Totals>) -> String {
    let fields: Vec<(String, String)> = totals
        .iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                format!(
                    "{{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                ),
            )
        })
        .collect();
    object(&fields)
}

/// The layers spans are attributed to, most specific first; a span belongs
/// to the first layer its name starts with. Spans of the benchmark's own
/// loops (`svc.instance`, `exec.instance`, `shm.instance`) belong to
/// `client`.
const LAYERS: &[&str] = &[
    "sim.adversary",
    "sim.partition",
    "sim",
    "core",
    "runtime.exec",
    "runtime.shm",
    "service",
];

/// Self time per layer, in ns: the sum of its spans' self times (a span's
/// duration minus its children's on the same thread).
pub fn layer_self_json(totals: &BTreeMap<&'static str, Totals>) -> String {
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in totals {
        let layer = LAYERS
            .iter()
            .find(|layer| {
                name.strip_prefix(**layer)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .copied()
            .unwrap_or("client");
        *layers.entry(layer).or_default() += t.self_ns;
    }
    let fields: Vec<(String, String)> = layers
        .iter()
        .map(|(layer, ns)| (layer.to_string(), ns.to_string()))
        .collect();
    object(&fields)
}

/// Write the stored spans of a traced run, one per line:
/// `id parent name key start_ns end_ns`, tab-separated.
pub fn write_spans(result: &mut RunResult, workload: &str, seed: u64, spans: &[Span]) {
    let dir = crate::report::out_dir();
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    let mut text = String::from("id\tparent\tname\tkey\tstart_ns\tend_ns\n");
    for span in spans {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            span.id, span.parent, span.name, span.key, span.start_ns, span.end_ns
        ));
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => {
            let shown = path
                .strip_prefix(crate::report::checkout_root())
                .unwrap_or(&path)
                .display()
                .to_string();
            result.info("spans_file", json_str(&shown));
            result.info("spans_stored", spans.len().to_string());
        }
        Err(error) => eprintln!("perfbench: could not write {}: {error}", path.display()),
    }
}
