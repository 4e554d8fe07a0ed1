//! Host-time spans for the traced run.
//!
//! Every future the benchmark spawns, and every layer call it awaits, can be
//! wrapped in a [`Timed`] future that measures the host time spent inside its
//! `poll`. Layer work in this simulator runs inline in the poll of whoever
//! calls it (a verbs post runs the CoRD driver and rings the doorbell before
//! it returns), so a span's busy time is the host cost of the layer below the
//! call, and its self time — busy minus its children's busy — is the
//! caller's own code. Spans stay in memory and are written once at exit.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use cord_sim::Sim;

const NO_SPAN: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created
/// (host) and picoseconds of simulated time (virtual).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub req: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Host time spent inside this span's polls, children included.
    pub busy_ns: u64,
    pub virt_start_ps: u64,
    pub virt_end_ps: u64,
    pub done: bool,
}

/// The span store of one traced pass.
pub struct Tracer {
    origin: Instant,
    /// The simulation whose clock stamps new spans; a pass that runs several
    /// fabrics attaches each in turn.
    sim: RefCell<Option<Sim>>,
    spans: RefCell<Vec<Span>>,
    current: Cell<u32>,
}

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            origin: Instant::now(),
            sim: RefCell::new(None),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(NO_SPAN),
        })
    }

    /// Stamp virtual times from `sim` from now on.
    pub fn attach(&self, sim: &Sim) {
        *self.sim.borrow_mut() = Some(sim.clone());
    }

    fn host_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn virt_ps(&self) -> u64 {
        self.sim.borrow().as_ref().map_or(0, |s| s.now().as_ps())
    }

    /// Wrap `fut` in a span named `name` for request `req`. The span opens
    /// at the first poll, whose running span becomes its parent.
    pub fn wrap<F: Future>(self: &Rc<Self>, name: &'static str, req: u64, fut: F) -> Timed<F> {
        Timed {
            fut: Box::pin(fut),
            tracer: Rc::clone(self),
            name,
            req,
            id: NO_SPAN,
        }
    }

    fn open(&self, name: &'static str, req: u64) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            name,
            parent: self.current.get(),
            req,
            host_start_ns: self.host_ns(),
            host_end_ns: 0,
            busy_ns: 0,
            virt_start_ps: self.virt_ps(),
            virt_end_ps: 0,
            done: false,
        });
        id
    }

    /// Take the recorded spans.
    pub fn finish(&self) -> Vec<Span> {
        self.spans.take()
    }
}

/// A future whose polls are timed into a [`Tracer`] span.
pub struct Timed<F: Future> {
    fut: Pin<Box<F>>,
    tracer: Rc<Tracer>,
    name: &'static str,
    req: u64,
    id: u32,
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = &mut *self;
        if this.id == NO_SPAN {
            this.id = this.tracer.open(this.name, this.req);
        }
        let parent = this.tracer.current.replace(this.id);
        let start = Instant::now();
        let out = this.fut.as_mut().poll(cx);
        let busy = start.elapsed().as_nanos() as u64;
        this.tracer.current.set(parent);
        let mut spans = this.tracer.spans.borrow_mut();
        let span = &mut spans[this.id as usize];
        span.busy_ns += busy;
        if out.is_ready() {
            span.done = true;
            span.host_end_ns = this.tracer.host_ns();
            span.virt_end_ps = this.tracer.virt_ps();
        }
        out
    }
}

/// Await `fut`, inside a span when a tracer is armed.
pub async fn call<F: Future>(
    tracer: Option<&Rc<Tracer>>,
    name: &'static str,
    req: u64,
    fut: F,
) -> F::Output {
    match tracer {
        Some(t) => t.wrap(name, req, fut).await,
        None => fut.await,
    }
}

/// Spawn `fut` on `sim`, inside a span when a tracer is armed.
pub fn spawn<F>(
    sim: &Sim,
    tracer: Option<&Rc<Tracer>>,
    name: &'static str,
    req: u64,
    fut: F,
) -> cord_sim::JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    match tracer {
        Some(t) => sim.spawn(t.wrap(name, req, fut)),
        None => sim.spawn(fut),
    }
}

/// Host seconds spent inside spans named in `names`, counting each span
/// once even when an ancestor is also named (nested time is not doubled).
pub fn busy_s(spans: &[Span], names: &[&str]) -> f64 {
    let named = |s: &Span| names.contains(&s.name);
    let mut total = 0u64;
    for s in spans {
        if !named(s) {
            continue;
        }
        let mut p = s.parent;
        let mut covered = false;
        while p != NO_SPAN {
            let ps = &spans[p as usize];
            if named(ps) {
                covered = true;
                break;
            }
            p = ps.parent;
        }
        if !covered {
            total += s.busy_ns;
        }
    }
    total as f64 / 1e9
}

/// Host seconds spent inside root spans: everything the benchmark's own
/// tasks ran, with the layer calls they made inline.
pub fn root_busy_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_SPAN)
        .map(|s| s.busy_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Render spans as tab-separated lines, one per span, with self time
/// (busy minus the children's busy) next to busy time.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut child_busy = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_busy[s.parent as usize] += s.busy_ns;
        }
    }
    let mut out = String::with_capacity(spans.len() * 80);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_SPAN {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            s.req,
            s.host_start_ns,
            s.host_end_ns,
            s.busy_ns,
            s.busy_ns.saturating_sub(child_busy[i]),
            s.virt_start_ps,
            if s.done { s.virt_end_ps as i64 } else { -1 },
        );
    }
    out
}

/// Header line for [`to_tsv`].
pub const TSV_HEADER: &str = "span\tparent\tname\treq\thost_start_ns\thost_end_ns\tbusy_ns\tself_ns\tvirt_start_ps\tvirt_end_ps\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_both_clocks() {
        let sim = Sim::new();
        let tr = Tracer::new();
        tr.attach(&sim);
        let (s, t) = (sim.clone(), Rc::clone(&tr));
        sim.block_on(t.clone().wrap("task", 7, async move {
            call(
                Some(&t),
                "child",
                8,
                s.sleep(cord_sim::SimDuration::from_ns(5)),
            )
            .await;
        }));
        let spans = tr.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("task", NO_SPAN));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].req),
            ("child", 0, 8)
        );
        assert!(spans.iter().all(|s| s.done));
        assert_eq!(spans[1].virt_end_ps - spans[1].virt_start_ps, 5_000);
        assert!(spans[0].busy_ns >= spans[1].busy_ns);
        assert_eq!(
            busy_s(&spans, &["task", "child"]),
            spans[0].busy_ns as f64 / 1e9
        );
        assert_eq!(root_busy_s(&spans), spans[0].busy_ns as f64 / 1e9);
        assert_eq!(to_tsv(&spans).lines().count(), 2);
    }
}
