//! Host-time measurement: the `Kernel::run` timer that every run keeps,
//! and the in-memory span recorder of the traced run.
//!
//! Spans are recorded only around calls into the simulator's public
//! functions, from this benchmark's own code. A span's self time is its
//! duration minus the part its child spans cover.

use sim_kernel::{Kernel, RunExit};
use std::time::Instant;

/// Cell id of spans recorded during set-up rather than inside a cell.
pub const SETUP_CELL: u32 = u32::MAX;

/// One recorded span. Times are seconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: u32,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
    /// Guest cycles simulated inside the span (kernel-run spans only).
    pub cycles: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-process measurement state, threaded through every cell runner.
pub struct Meter {
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u32,
    /// Host seconds spent inside `Kernel::run` since the last reset.
    pub run_s: f64,
    /// Guest cycles simulated inside `Kernel::run` since the last reset.
    pub run_cycles: u64,
}

impl Meter {
    pub fn new() -> Meter {
        Meter {
            tracing: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: SETUP_CELL,
            run_s: 0.0,
            run_cycles: 0,
        }
    }

    /// Turns span recording on or off for what follows.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Tags later spans with `cell` and clears the kernel-run totals.
    pub fn begin_cell(&mut self, cell: u32) {
        self.cell = cell;
        self.run_s = 0.0;
        self.run_cycles = 0;
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open_span(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            cell: self.cell,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0.0,
            cycles: 0,
        });
        self.open.push(idx);
        idx
    }

    fn close_span(&mut self, idx: usize, cycles: u64) {
        let end = self.now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        let s = &mut self.spans[idx];
        s.end = end;
        s.cycles = cycles;
    }

    /// Runs `f` inside a span named `name` when tracing; otherwise just
    /// runs it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Meter) -> T) -> T {
        if !self.tracing {
            return f(self);
        }
        let idx = self.open_span(name);
        let out = f(self);
        self.close_span(idx, 0);
        out
    }

    /// `Kernel::run`, timed always and recorded as span `name` when
    /// tracing. The span carries the guest cycles the call simulated.
    pub fn run(&mut self, name: &'static str, k: &mut Kernel, budget: u64) -> RunExit {
        let idx = self.tracing.then(|| self.open_span(name));
        let c0 = k.clock;
        let t0 = Instant::now();
        let exit = k.run(budget);
        let secs = t0.elapsed().as_secs_f64();
        let cycles = k.clock - c0;
        self.run_s += secs;
        self.run_cycles += cycles;
        if let Some(idx) = idx {
            self.close_span(idx, cycles);
        }
        exit
    }

    /// Closes every span a panic left open.
    pub fn unwind(&mut self) {
        while let Some(&idx) = self.open.last() {
            self.close_span(idx, 0);
        }
    }

    /// Drains the recorded spans.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of each span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur();
        }
    }
    own
}

/// Writes labelled chunks of spans as a JSON array, one span per line.
/// `id` and `parent` index spans within their chunk.
pub fn write_spans(path: &std::path::Path, chunks: &[(&str, &[Span])]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut lines = Vec::new();
    for (label, spans) in chunks {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = if s.cell == SETUP_CELL {
                "null".to_string()
            } else {
                s.cell.to_string()
            };
            lines.push(format!(
                "{{\"chunk\": \"{label}\", \"id\": {i}, \"name\": \"{}\", \"cell\": {cell}, \
                 \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \"cycles\": {}}}",
                s.name, s.start, s.end, s.cycles
            ));
        }
    }
    writeln!(out, "[\n{}\n]", lines.join(",\n"))?;
    out.flush()
}
