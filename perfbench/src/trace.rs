//! Benchmark-side spans: name, start, end and parent, recorded around
//! the calls the benchmark makes into each layer. Spans stay in memory
//! and are written as JSONL when the benchmark ends.

use serde_json::{Map, Value};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use ww_scenario::{EngineReport, Event, EventError, Observer};

/// Index of a span in its [`Spans`] log.
pub type SpanId = usize;

/// One closed span. Times are offsets from the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted layer name (`scenario.round`, `core.webfold`, ...).
    pub name: String,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty log whose offsets count from now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span between two instants.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span; the closure receives the span's id so it
    /// can record children under it.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Spans, SpanId) -> T,
    ) -> (T, Duration) {
        let id = self.record(name, Instant::now(), Instant::now(), parent);
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        self.spans[id].start = start.saturating_duration_since(self.epoch);
        self.spans[id].end = end.saturating_duration_since(self.epoch);
        (out, end - start)
    }

    /// Every span, in the order opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children cover (children never overlap each other here).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, for spans under `root`
    /// (inclusive).
    pub fn self_time_by_name(&self, root: SpanId) -> BTreeMap<String, Duration> {
        let self_times = self.self_times();
        let mut out = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            if self.descends_from(id, root) {
                *out.entry(s.name.clone()).or_insert(Duration::ZERO) += self_times[id];
            }
        }
        out
    }

    fn descends_from(&self, mut id: SpanId, root: SpanId) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent`, `self_ns`.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let self_times = self.self_times();
        for (id, s) in self.spans.iter().enumerate() {
            let mut map = Map::new();
            map.insert("id", Value::Number(id as f64));
            map.insert("name", Value::from(s.name.as_str()));
            map.insert("start_ns", Value::Number(s.start.as_nanos() as f64));
            map.insert("end_ns", Value::Number(s.end.as_nanos() as f64));
            map.insert(
                "parent",
                s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
            );
            map.insert("self_ns", Value::Number(self_times[id].as_nanos() as f64));
            writeln!(out, "{}", serde_json::to_string(&Value::Object(map)))?;
        }
        Ok(())
    }
}

/// What the runner's callbacks delimit inside `Runner::run_with`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Resolution done, the drive loop starts (`wants_convergence`).
    DriveStart,
    /// One engine round finished (`on_round`).
    Round,
    /// One dynamics event was applied (`on_event`).
    Event,
}

/// An observer that only timestamps the runner's callbacks. It asks
/// for no convergence samples, exactly like the runner's default
/// observer, so the traced run does the same work as an untimed one.
#[derive(Debug, Default)]
pub struct Stamps {
    drive_start: Cell<Option<Instant>>,
    marks: Vec<(Mark, Instant)>,
}

impl Stamps {
    /// When the drive loop started, if it did.
    pub fn drive_start(&self) -> Option<Instant> {
        self.drive_start.get()
    }

    /// The callback timestamps in order, starting with the drive start.
    pub fn marks(&self) -> Vec<(Mark, Instant)> {
        let mut out: Vec<(Mark, Instant)> = self
            .drive_start
            .get()
            .map(|t| (Mark::DriveStart, t))
            .into_iter()
            .collect();
        out.extend(self.marks.iter().copied());
        out
    }
}

impl Observer for Stamps {
    fn wants_convergence(&self) -> bool {
        // The drive loops ask this once, after the engine is resolved
        // and before the first round.
        if self.drive_start.get().is_none() {
            self.drive_start.set(Some(Instant::now()));
        }
        false
    }

    fn on_round(&mut self, _round: usize, _convergence: Option<f64>) {
        self.marks.push((Mark::Round, Instant::now()));
    }

    fn on_event(&mut self, _: usize, _: usize, _: &Event, _: Option<&EventError>) {
        self.marks.push((Mark::Event, Instant::now()));
    }

    fn on_done(&mut self, _report: &EngineReport) {}
}
