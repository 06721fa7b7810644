//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files (the engine has no
//! span counters yet), kept in memory for the whole run, and aggregated —
//! or written out with `--spans FILE` — when it ends.

use std::io::Write;
use std::time::Instant;

/// The layer a span's time is charged to: the crate the call goes into.
/// `session` is the root crate's facade (`session.rs`, `engine.rs`,
/// `report.rs`) — in the shadow lane, the glue the benchmark re-creates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Query,
    Opt,
    State,
    Exec,
    Session,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Query,
        Layer::Opt,
        Layer::State,
        Layer::Exec,
        Layer::Session,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Query => "qsys-query",
            Layer::Opt => "qsys-opt",
            Layer::State => "qsys-state",
            Layer::Exec => "qsys-exec",
            Layer::Session => "session",
        }
    }
}

pub type SpanId = u32;
/// Parent of a root span; also what a disabled tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Which suite visit and which batch of it the call belongs to: the
    /// identifier the spans of one request share.
    pub visit: u32,
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    pub visit: u32,
    pub batch: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
            visit: 0,
            batch: 0,
        }
    }

    /// A tracer that records nothing and reads no clock (untimed primes).
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn enter(&mut self, name: &'static str, layer: Layer) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            layer,
            visit: self.visit,
            batch: self.batch,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
        });
        self.open.push(id);
        // Read the clock last on entry and first on exit, so the span
        // covers the call and not the bookkeeping.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    pub fn exit(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part its child spans cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_SPAN {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(Span::duration_ns).sum()
    }

    /// Durations of `name` summed per (visit, batch), in recording order.
    pub fn per_batch_ns(&self, name: &str) -> Vec<u64> {
        let mut out: Vec<((u32, u32), u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match out.last_mut() {
                Some((key, total)) if *key == (s.visit, s.batch) => *total += s.duration_ns(),
                _ => out.push(((s.visit, s.batch), s.duration_ns())),
            }
        }
        out.into_iter().map(|(_, total)| total).collect()
    }

    /// Host cost of recording one empty span, measured: what tracing adds
    /// to a traced run is this times the spans recorded.
    pub fn calibrate_ns_per_span() -> f64 {
        const N: u32 = 200_000;
        let mut t = Tracer::new();
        t.spans.reserve(N as usize);
        let started = Instant::now();
        for _ in 0..N {
            let id = t.enter("calibrate", Layer::Session);
            t.exit(id);
        }
        std::hint::black_box(&t.spans);
        started.elapsed().as_nanos() as f64 / f64::from(N)
    }

    /// `name,layer,visit,batch,start_ns,end_ns,parent` per span.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id,name,layer,visit,batch,start_ns,end_ns,parent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id},{},{},{},{},{},{},{parent}",
                s.name,
                s.layer.name(),
                s.visit,
                s.batch,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.enter("visit", Layer::Session);
        let a = t.enter("opt.optimize", Layer::Opt);
        t.exit(a);
        t.batch = 1;
        let b = t.enter("exec.run", Layer::Exec);
        let r = t.enter("exec.round", Layer::Exec);
        t.exit(r);
        t.exit(b);
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans[a as usize].parent, root);
        assert_eq!(spans[r as usize].parent, b);
        assert_eq!(spans[root as usize].parent, NO_SPAN);
        assert_eq!((spans[a as usize].batch, spans[b as usize].batch), (0, 1));
        let own = t.self_times_ns();
        let dur = |id: SpanId| spans[id as usize].duration_ns();
        assert_eq!(own[root as usize], dur(root) - dur(a) - dur(b));
        assert_eq!(own[b as usize], dur(b) - dur(r));
        assert_eq!(own[r as usize], dur(r));
        // Self times partition the root's duration.
        assert_eq!(own.iter().sum::<u64>(), dur(root));
        assert_eq!(t.per_batch_ns("exec.round"), [dur(r)]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.enter("visit", Layer::Session);
        assert_eq!(id, NO_SPAN);
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn csv_has_one_line_per_span() {
        let mut t = Tracer::new();
        let root = t.enter("visit", Layer::Session);
        let a = t.enter("state.graft", Layer::State);
        t.exit(a);
        t.exit(root);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,visit,session,0,0,"));
        assert!(lines[1].ends_with(','), "root has no parent");
        assert!(lines[2].starts_with("1,state.graft,qsys-state,0,0,"));
        assert!(lines[2].ends_with(",0"));
    }
}
