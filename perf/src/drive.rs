//! The measured client: one thread posing a suite instance's script to an
//! [`Engine`] through its public facade, timing each call.
//!
//! Load is a closed loop — the client submits a batch, steps the engine,
//! reads the tickets and only then submits the next — because the engine is
//! a synchronous library: nothing is paced in host time.
//!
//! Each facade call sits inside a span; an untraced (end-to-end) run passes
//! a disabled tracer, which reads no clock.

use crate::digest::{digest, Digest};
use crate::suite::Instance;
use crate::trace::{Layer, Tracer};
use qsys::{Engine, QueryTicket, RunReport, TicketStatus};
use std::time::{Duration, Instant};

/// What one query returned and what the engine reported about it.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Index of the query in the generated script (its golden's key).
    pub script_idx: usize,
    pub digest: Digest,
    /// `UqReport::response_us`: virtual µs from graft to top-k complete.
    pub response_us: u64,
    /// Resolved with `QueryOutcome::Complete` and a result payload.
    pub complete: bool,
    pub cqs_generated: usize,
    pub cqs_executed: usize,
}

/// One script posed once.
pub struct Pose {
    /// First submit to last report read.
    pub wall: Duration,
    /// Per completed query: start of its `Session::submit` (burst: start of
    /// the burst) to the return of the `step()` that completed its ticket.
    pub latency: Vec<Duration>,
    /// Per admitted query, in arrival order.
    pub answers: Vec<Answer>,
    /// Queries the engine refused at submit.
    pub submit_errors: usize,
    /// `Engine::report()` after the pose: everything the engine has
    /// executed so far, primes included.
    pub report: RunReport,
}

fn spanned<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let span = tracer.enter(name, Layer::Session);
    let r = f();
    tracer.exit(span);
    r
}

fn submit(
    engine: &mut Engine,
    instance: &Instance,
    pos: usize,
    arrival_offset_us: u64,
    tracer: &mut Tracer,
) -> (Instant, Option<QueryTicket>) {
    let q = &instance.workload.queries[pos];
    // The session takes the user's learned costs by value; the copy is the
    // client's, made before the clock of the submit starts.
    let costs = q.edge_costs.clone();
    let started = Instant::now();
    let ticket = spanned(tracer, "session.submit", || {
        let mut session = engine.session(q.user);
        if let Some(costs) = costs {
            session = session.with_edge_costs(costs);
        }
        session.submit(&q.keywords, arrival_offset_us + q.arrival_us)
    });
    (started, ticket.ok())
}

/// Read a ticket the way a client would: the ranked answers, then the
/// report line.
fn read(ticket: &QueryTicket, script_idx: usize, tracer: &mut Tracer) -> Answer {
    let results = spanned(tracer, "session.take_results", || ticket.take_results());
    let report = spanned(tracer, "session.report", || ticket.report());
    let scores = results.iter().flatten().map(|(score, _)| score.get());
    Answer {
        script_idx,
        digest: digest(scores),
        response_us: report.as_ref().map_or(0, |r| r.response_us),
        complete: results.is_some() && report.as_ref().is_some_and(|r| r.outcome.is_complete()),
        cqs_generated: report.as_ref().map_or(0, |r| r.cqs_generated),
        cqs_executed: report.as_ref().map_or(0, |r| r.cqs_executed),
    }
}

/// Submit `batch_size` queries, `step()`, read the tickets, repeat.
pub fn pose_closed_loop(
    engine: &mut Engine,
    instance: &Instance,
    arrival_offset_us: u64,
    tracer: &mut Tracer,
) -> Pose {
    let batch_size = engine.config().batch_size.max(1);
    let n = instance.workload.queries.len();
    let mut latency = Vec::with_capacity(n);
    let mut answers = Vec::with_capacity(n);
    let mut submit_errors = 0;
    let started = Instant::now();
    let root = tracer.enter("drive", Layer::Session);
    for first in (0..n).step_by(batch_size) {
        let last = (first + batch_size).min(n);
        let mut open = Vec::with_capacity(batch_size);
        for pos in first..last {
            match submit(engine, instance, pos, arrival_offset_us, tracer) {
                (at, Some(ticket)) => open.push((pos, at, ticket)),
                (_, None) => submit_errors += 1,
            }
        }
        if last - first < batch_size {
            // A short last window never seals by count.
            spanned(tracer, "session.flush", || engine.flush());
        }
        spanned(tracer, "session.step", || engine.step());
        let done = Instant::now();
        for (pos, at, ticket) in open {
            if ticket.poll() == TicketStatus::Completed {
                latency.push(done - at);
            }
            answers.push(read(&ticket, instance.order[pos], tracer));
        }
    }
    let report = spanned(tracer, "session.report", || engine.report());
    tracer.exit(root);
    Pose {
        wall: started.elapsed(),
        latency,
        answers,
        submit_errors,
        report,
    }
}

/// Submit the whole script, `flush()`, then `step()` until the engine is
/// idle, polling the tickets after each step.
pub fn pose_burst(engine: &mut Engine, instance: &Instance, tracer: &mut Tracer) -> Pose {
    let n = instance.workload.queries.len();
    let mut latency = Vec::with_capacity(n);
    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let mut submit_errors = 0;
    let started = Instant::now();
    let root = tracer.enter("drive", Layer::Session);
    let mut open = Vec::with_capacity(n);
    for pos in 0..n {
        match submit(engine, instance, pos, 0, tracer) {
            (_, Some(ticket)) => open.push((pos, ticket)),
            (_, None) => submit_errors += 1,
        }
    }
    spanned(tracer, "session.flush", || engine.flush());
    loop {
        let ran = spanned(tracer, "session.step", || engine.step());
        let done = Instant::now();
        open.retain(|(pos, ticket)| {
            let completed = ticket.poll() == TicketStatus::Completed;
            if completed {
                latency.push(done - started);
                answers[*pos] = Some(read(ticket, instance.order[*pos], tracer));
            }
            !completed
        });
        if ran == 0 {
            break;
        }
    }
    // Anything still open was admitted and never completed: read it anyway,
    // so it is counted (as incomplete) rather than lost.
    for (pos, ticket) in open {
        answers[pos] = Some(read(&ticket, instance.order[pos], tracer));
    }
    let report = spanned(tracer, "session.report", || engine.report());
    tracer.exit(root);
    Pose {
        wall: started.elapsed(),
        latency,
        answers: answers.into_iter().flatten().collect(),
        submit_errors,
        report,
    }
}
