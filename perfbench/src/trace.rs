//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span records a name, start, end, the span that caused it (its
//! parent on the same thread) and the request it served. Spans are
//! aggregated per name as they close — count, total time and self time
//! (duration minus the part covered by child spans) — and the first
//! [`KEEP`] per thread are kept verbatim and written out when the run
//! ends. With tracing off, [`span`] is one relaxed load and a call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Raw spans kept per thread for the written trace.
const KEEP: usize = 50_000;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static FINISHED: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());
/// Everything [`collect`] has returned so far, for [`write`] and
/// [`aggregates`].
static ARCHIVE: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static ARCHIVE_AGG: Mutex<BTreeMap<&'static str, Agg>> = Mutex::new(BTreeMap::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub thread: u32,
    pub id: u32,
    /// `u32::MAX` for a root span.
    pub parent: u32,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name aggregate.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    name: &'static str,
    id: u32,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct ThreadTrace {
    thread: u32,
    stack: Vec<Open>,
    agg: BTreeMap<&'static str, Agg>,
    kept: Vec<SpanRec>,
    next_id: u32,
}

thread_local! {
    static LOCAL: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

/// Turns tracing on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

/// Runs `f` inside a span named `name` serving request `req`.
#[inline]
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    enter(name);
    let r = f();
    exit(req);
    r
}

fn enter(name: &'static str) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let t = l.get_or_insert_with(|| ThreadTrace {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            ..ThreadTrace::default()
        });
        let id = t.next_id;
        t.next_id = t.next_id.wrapping_add(1);
        t.stack.push(Open {
            name,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    });
}

fn exit(req: u64) {
    let end = Instant::now();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let t = l.as_mut().expect("span exit without enter");
        let open = t.stack.pop().expect("span exit without enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let a = t.agg.entry(open.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => u32::MAX,
        };
        if t.kept.len() < KEEP {
            let start_ns = open.start.duration_since(epoch()).as_nanos() as u64;
            t.kept.push(SpanRec {
                name: open.name,
                thread: t.thread,
                id: open.id,
                parent,
                req,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    });
}

/// Hands this thread's spans to the collector; call before a traced
/// thread ends (and on the main thread before [`collect`]).
pub fn flush_thread() {
    if let Some(t) = LOCAL.with(|l| l.borrow_mut().take()) {
        FINISHED.lock().expect("trace collector poisoned").push(t);
    }
}

/// Everything the flushed threads recorded.
#[derive(Debug, Default)]
pub struct Summary {
    pub agg: BTreeMap<&'static str, Agg>,
    pub spans: Vec<SpanRec>,
}

impl Summary {
    pub fn get(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }
}

/// Drains every flushed thread's data.
pub fn collect() -> Summary {
    let mut s = Summary::default();
    for t in FINISHED.lock().expect("trace collector poisoned").drain(..) {
        merge(&mut s.agg, &t.agg);
        s.spans.extend(t.kept);
    }
    merge(
        &mut ARCHIVE_AGG.lock().expect("trace archive poisoned"),
        &s.agg,
    );
    ARCHIVE
        .lock()
        .expect("trace archive poisoned")
        .extend_from_slice(&s.spans);
    s
}

fn merge(into: &mut BTreeMap<&'static str, Agg>, from: &BTreeMap<&'static str, Agg>) {
    for (name, a) in from {
        let e = into.entry(name).or_default();
        e.count += a.count;
        e.total_ns += a.total_ns;
        e.self_ns += a.self_ns;
    }
}

/// Per-name aggregates of everything [`collect`] has returned.
pub fn aggregates() -> BTreeMap<&'static str, Agg> {
    ARCHIVE_AGG.lock().expect("trace archive poisoned").clone()
}

/// Writes every span [`collect`] has returned as tab-separated lines.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let spans = std::mem::take(&mut *ARCHIVE.lock().expect("trace archive poisoned"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# thread\tid\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in &spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.thread, s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        span("outer", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        set_enabled(false);
        flush_thread();
        let s = collect();
        let (outer, inner) = (s.get("outer"), s.get("inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.total_ns - outer.self_ns, inner.total_ns);
        assert!(outer.self_ns >= 2_000_000 && inner.self_ns >= 4_000_000);
        let inner_rec = s.spans.iter().find(|r| r.name == "inner").unwrap();
        let outer_rec = s.spans.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner_rec.parent, outer_rec.id);
        assert_eq!(outer_rec.parent, u32::MAX);
    }
}
