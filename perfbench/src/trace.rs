//! Spans, summary statistics and the metric table the benchmark prints.
//!
//! Every per-layer number comes from a [`Span`] the benchmark records
//! around one call into a layer's public function. Spans carry the phase
//! they ran in; the phases' wall intervals go into the span file with
//! them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: the layer function's name, the phase it ran in, and
/// its interval in nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub phase: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span buffer; merged into the run's [`Trace`] when the
/// thread is done.
pub struct Spans {
    epoch: Instant,
    thread: u32,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Spans {
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` in `phase`.
    pub fn time<T>(&mut self, phase: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            phase,
            thread: self.thread,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records an interval measured by the caller.
    pub fn record(&mut self, phase: &'static str, name: &str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            phase,
            thread: self.thread,
            start_ns: at(start),
            end_ns: at(end),
        });
    }
}

/// All spans of a run plus the phases' wall intervals.
pub struct Trace {
    pub epoch: Instant,
    spans: Vec<Span>,
    /// `(phase, start_ns, end_ns)`.
    phases: Vec<(&'static str, u64, u64)>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            phases: Vec::new(),
        }
    }

    pub fn spans(&self, thread: u32) -> Spans {
        Spans::new(self.epoch, thread)
    }

    pub fn merge(&mut self, spans: Spans) {
        self.spans.extend(spans.spans);
    }

    /// Runs one phase: `f` gets a fresh span buffer (thread 0) and the
    /// phase's span buffers are merged afterwards.
    pub fn phase<T>(&mut self, phase: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let start = self.begin();
        let mut spans = self.spans(0);
        let out = f(&mut spans);
        self.end(phase, start, spans);
        out
    }

    /// The start of a phase run without [`phase`](Self::phase)'s closure.
    pub fn begin(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Ends a phase begun at `start`, merging its spans.
    pub fn end(&mut self, phase: &'static str, start: u64, spans: Spans) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.merge(spans);
        self.phases.push((phase, start, end));
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Durations (ms) of the spans named `family` or `family.<anything>`.
    pub fn family(&self, family: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| {
                s.name
                    .strip_prefix(family)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(Span::ms)
            .collect()
    }

    /// Median duration (ms) of the spans named `name`; 0 when none ran.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// Mean duration (ms) of the spans named `name`; 0 when none ran.
    pub fn mean_ms(&self, name: &str) -> f64 {
        mean(&self.durations(name))
    }

    /// The spans as JSON lines, for offline inspection.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (phase, start, end) in &self.phases {
            let _ = writeln!(
                out,
                "{{\"phase\": \"{phase}\", \"start_ns\": {start}, \"end_ns\": {end}}}"
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"phase\": \"{}\", \"thread\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                s.name, s.phase, s.thread, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Linear-interpolated quantile of `values` (unsorted); 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // A non-finite value cannot be printed as JSON; it only arises from
        // an empty sample, which the sample counts in the header expose.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (value, unit));
    }

    /// The value of metric `name`; 0 when it is not set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}
