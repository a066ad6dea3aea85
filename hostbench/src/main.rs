//! hostbench — host-time benchmark of the simulator over the paper's real
//! workloads (Table 6 rows, sqlite, connection scale, instrumented runs).
//!
//! ```text
//! hostbench --workload <table6|sqlite|connscale|instrumented>
//!           [--seed N] [--seconds S] [--trace 0|1] [--outcomes]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. `--outcomes` instead
//! prints the workload's stored-outcome lines for every ASLR class, to
//! regenerate `outcomes.tsv`. See README.md for metrics and workloads.

mod meter;
mod work;

use meter::{Meter, Span, SETUP_CELL};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use work::{CellRun, Counts, Outcome, Workload};

/// Default workload seed; 99 is the held-out seed.
const DEFAULT_SEED: u64 = 1;

/// Stored outcome of every cell, as `--outcomes` prints them.
const OUTCOMES: &str = include_str!("../outcomes.tsv");

/// Span name -> per-layer metric it is charged to (self time).
const LAYERS: [(&str, &str); 14] = [
    ("loader.world", "loader.world_s"),
    ("loader.clone", "loader.clone_s"),
    ("k23.offline", "k23.offline_s"),
    ("interpose.install", "interpose.install_s"),
    ("interpose.spawn", "interpose.spawn_s"),
    ("kernel.startup", "kernel.startup_s"),
    ("kernel.connect", "kernel.connect_s"),
    ("kernel.load", "kernel.load_s"),
    ("kernel.teardown", "kernel.teardown_s"),
    ("record.replay", "record.replay_s"),
    ("obs.harvest", "obs.harvest_s"),
    ("bench.post", "bench.post_s"),
    ("bench.cell", "bench.harness_s"),
    ("bench.setup", "bench.harness_s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    outcomes: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut a = Args {
        workload: Workload::Table6,
        seed: DEFAULT_SEED,
        seconds: 50.0,
        trace: false,
        outcomes: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--outcomes" {
            a.outcomes = true;
            i += 1;
            continue;
        }
        let val = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {val:?}");
        match flag {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(bad)?),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if !a.seconds.is_finite() || a.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

/// Stored outcomes of `w` under `seed`'s ASLR class, keyed by cell label.
fn stored_outcomes(w: Workload, seed: u64) -> BTreeMap<&'static str, Outcome> {
    let class = (seed % work::ASLR_CLASSES).to_string();
    let mut out = BTreeMap::new();
    for line in OUTCOMES
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        assert_eq!(f.len(), 6, "outcomes.tsv line {line:?}");
        if f[0] != w.name() || f[1] != class {
            continue;
        }
        let num = |s: &str| s.parse::<i64>().expect("outcomes.tsv number");
        out.insert(
            f[2],
            Outcome {
                cycles: num(f[3]) as u64,
                requests: num(f[4]) as u64,
                exit: num(f[5]),
            },
        );
    }
    out
}

/// Host memory high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The fastest of `v`, 0 when empty. Host speed on a shared machine
/// drifts by tens of percent for minutes at a time, so the fastest
/// repetition in a run is the least disturbed estimate of its cost
/// (README.md, "Statistics").
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The per-layer metric a span's self time is charged to.
fn layer_of(span: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|(n, _)| *n == span)
        .unwrap_or_else(|| panic!("span {span} has no layer"))
        .1
}

/// One cell's run (or one set-up repetition) in a traced chunk, reduced
/// to its layers.
#[derive(Default)]
struct LayerRun {
    /// Duration of the root span.
    total: f64,
    /// Self seconds per layer metric.
    self_s: BTreeMap<&'static str, f64>,
    /// Guest cycles per span name.
    cycles: BTreeMap<&'static str, u64>,
}

/// Splits a chunk's spans by cell id.
fn layer_runs(spans: &[Span]) -> BTreeMap<u32, LayerRun> {
    let mut out: BTreeMap<u32, LayerRun> = BTreeMap::new();
    for (s, own) in spans.iter().zip(meter::self_times(spans)) {
        let r = out.entry(s.cell).or_default();
        if s.parent.is_none() {
            r.total += s.dur();
        }
        *r.self_s.entry(layer_of(s.name)).or_insert(0.0) += own;
        *r.cycles.entry(s.name).or_insert(0) += s.cycles;
    }
    out
}

/// Per-cell host times of the untraced passes.
struct Times {
    /// `cell[i]` holds cell i's host seconds, one entry per pass.
    cell: Vec<Vec<f64>>,
    /// Host seconds inside `Kernel::run`, likewise.
    run: Vec<Vec<f64>>,
    /// Guest cycles of each cell (identical every pass).
    cycles: Vec<u64>,
}

impl Times {
    fn new(n: usize) -> Times {
        Times {
            cell: vec![Vec::new(); n],
            run: vec![Vec::new(); n],
            cycles: vec![0; n],
        }
    }

    fn passes(&self) -> usize {
        self.cell.first().map_or(0, Vec::len)
    }

    /// Sum over cells of each cell's fastest pass.
    fn wall_s(&self) -> f64 {
        self.cell.iter().map(|v| fastest(v)).sum()
    }

    fn sim_mcyc_per_s(&self) -> f64 {
        let run_s: f64 = self.run.iter().map(|v| fastest(v)).sum();
        self.cycles.iter().sum::<u64>() as f64 / 1e6 / run_s
    }
}

/// The run's bookkeeping of attempted and failed cells.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("hostbench: FAILED {what}: {why}");
    }
}

/// Runs one cell with its root span, turning a panic into an error.
fn run_one(
    m: &mut Meter,
    w: Workload,
    idx: usize,
    cell: &work::Cell,
    setup: &work::Setup,
    seed: u64,
    count: bool,
) -> Result<CellRun, String> {
    m.begin_cell(idx as u32);
    let res = catch_unwind(AssertUnwindSafe(|| {
        m.span("bench.cell", |m| {
            work::run_cell(m, w, cell, setup, seed, count)
        })
    }));
    let res = res.unwrap_or_else(|p| {
        m.unwind();
        Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string()))
    });
    if res.is_err() {
        // A cell that failed mid-run may leave the recorder armed.
        let _ = sim_obs::disable();
    }
    res
}

/// Checks a cell run against its stored outcome and, when both carry
/// counts, against an earlier run of the same cell.
fn check(
    tally: &mut Tally,
    label: &str,
    res: &Result<CellRun, String>,
    stored: Option<&Outcome>,
    earlier: Option<&Counts>,
) -> bool {
    tally.attempted += 1;
    let run = match res {
        Ok(r) => r,
        Err(e) => {
            tally.fail(label, e);
            return false;
        }
    };
    let Some(stored) = stored else {
        tally.fail(label, "no stored outcome; regenerate outcomes.tsv");
        return false;
    };
    if *stored != run.outcome {
        tally.fail(
            label,
            &format!("outcome {:?} != stored {stored:?}", run.outcome),
        );
        return false;
    }
    if run.outcome.exit != 0 {
        tally.fail(label, &format!("exit status {}", run.outcome.exit));
        return false;
    }
    if let (Some(a), Some(b)) = (earlier, &run.counts) {
        if a != b {
            tally.fail(label, &format!("counts did not repeat:\n  {a:?}\n  {b:?}"));
            return false;
        }
    }
    true
}

fn fmt_metric(name: &str, value: f64, unit: &str) -> String {
    // Only a failed run has nothing to divide by; keep its JSON valid.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Per-layer metrics of the counting pass, from the summed cell counts.
fn count_metrics(counts: &[Counts]) -> Vec<(&'static str, f64, &'static str)> {
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let decodes = sum(|c| c.icache_decodes);
    let reused = sum(|c| c.icache_reused);
    let tlb_hits = sum(|c| c.tlb_hits);
    let events = sum(|c| c.events);
    let dropped = sum(|c| c.dropped);
    vec![
        ("kernel.syscalls", sum(|c| c.syscalls), "count"),
        ("kernel.ctx_switches", sum(|c| c.ctx_switches), "count"),
        ("kernel.sigsys", sum(|c| c.sigsys), "count"),
        ("cpu.icache_decodes", decodes, "count"),
        (
            "cpu.icache_reuse_rate",
            ratio(reused, reused + decodes),
            "ratio",
        ),
        (
            "mem.tlb_hit_rate",
            ratio(tlb_hits, tlb_hits + sum(|c| c.tlb_fills)),
            "ratio",
        ),
        ("cpu.trace_forms", sum(|c| c.trace_forms), "count"),
        ("obs.events", events, "count"),
        ("obs.dropped", dropped, "count"),
        ("obs.drop_ratio", ratio(dropped, events + dropped), "ratio"),
        ("guest.mcycles", sum(|c| c.guest_cycles) / 1e6, "Mcyc"),
        ("record.recs", sum(|c| c.recs), "count"),
        ("prof.samples", sum(|c| c.samples), "count"),
        (
            "audit.coverage_permille",
            (ratio(sum(|c| c.audit_covered), sum(|c| c.audit_total)) * 1000.0).floor(),
            "permille",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the stored-outcome lines of `w` for every ASLR class.
fn print_outcomes(w: Workload) -> Result<(), String> {
    let mut m = Meter::new();
    for class in 0..work::ASLR_CLASSES {
        let setup = work::setup(w, &mut m, class)?;
        for (i, cell) in work::cells(w).iter().enumerate() {
            let o = run_one(&mut m, w, i, cell, &setup, class, false)?.outcome;
            let (name, label) = (w.name(), &cell.label);
            println!(
                "{name}\t{class}\t{label}\t{}\t{}\t{}",
                o.cycles, o.requests, o.exit
            );
        }
    }
    Ok(())
}

/// Spans of one set-up repetition or one traced pass.
struct Chunk {
    label: String,
    spans: Vec<Span>,
}

/// Per-layer metrics from the traced chunks: each layer's self time in
/// the fastest set-up repetition plus its self time in each cell's
/// fastest traced pass, then the guest speed of the start-up and load
/// phases there. Also returns the traced wall time, the sum of those
/// cells' root spans, which the layer times (pass part) add up to.
fn layer_metrics(
    setup: &[Chunk],
    passes: &[Chunk],
) -> (Vec<(&'static str, f64, &'static str)>, f64) {
    let pick = |runs: Vec<LayerRun>| runs.into_iter().min_by(|a, b| a.total.total_cmp(&b.total));
    let setup_runs = setup
        .iter()
        .flat_map(|c| layer_runs(&c.spans).into_values())
        .collect();
    let mut chosen: Vec<LayerRun> = pick(setup_runs).into_iter().collect();
    let mut by_cell: BTreeMap<u32, Vec<LayerRun>> = BTreeMap::new();
    for c in passes {
        for (cell, r) in layer_runs(&c.spans) {
            by_cell.entry(cell).or_default().push(r);
        }
    }
    let mut traced_wall = 0.0;
    for runs in by_cell.into_values() {
        if let Some(r) = pick(runs) {
            traced_wall += r.total;
            chosen.push(r);
        }
    }
    let mut out: Vec<(&'static str, f64, &'static str)> = Vec::new();
    for (_, metric) in LAYERS {
        if !out.iter().any(|(n, _, _)| *n == metric) {
            let v = chosen
                .iter()
                .filter_map(|r| r.self_s.get(metric))
                .fold(0.0, |a, b| a + b);
            out.push((metric, v, "s"));
        }
    }
    for (span, layer, metric) in [
        (
            "kernel.startup",
            "kernel.startup_s",
            "kernel.startup_mcyc_per_s",
        ),
        ("kernel.load", "kernel.load_s", "kernel.load_mcyc_per_s"),
    ] {
        let cycles: u64 = chosen.iter().filter_map(|r| r.cycles.get(span)).sum();
        let secs = chosen
            .iter()
            .filter_map(|r| r.self_s.get(layer))
            .fold(0.0, |a, b| a + b);
        let rate = if secs > 0.0 {
            cycles as f64 / 1e6 / secs
        } else {
            0.0
        };
        out.push((metric, rate, "Mcyc/s"));
    }
    (out, traced_wall)
}

/// One benchmark run's state.
struct Bench<'a> {
    args: &'a Args,
    cells: Vec<work::Cell>,
    stored: BTreeMap<&'static str, Outcome>,
    m: Meter,
    tally: Tally,
    /// Host seconds of each set-up repetition.
    setup_s: Vec<f64>,
    setup_chunks: Vec<Chunk>,
    pass_chunks: Vec<Chunk>,
}

impl Bench<'_> {
    /// One set-up repetition, timed (and traced when tracing).
    fn set_up(&mut self, rep: usize) -> Result<work::Setup, String> {
        let (w, seed) = (self.args.workload, self.args.seed);
        self.m.set_tracing(self.args.trace);
        self.m.begin_cell(SETUP_CELL);
        let t0 = Instant::now();
        let setup = self.m.span("bench.setup", |m| work::setup(w, m, seed));
        self.setup_s.push(t0.elapsed().as_secs_f64());
        let spans = self.m.take_spans();
        self.setup_chunks.push(Chunk {
            label: format!("setup{rep}"),
            spans,
        });
        setup
    }

    /// Runs and checks one cell; `earlier` holds counts it must repeat.
    fn cell(
        &mut self,
        i: usize,
        setup: &work::Setup,
        count: bool,
        earlier: Option<&Counts>,
    ) -> Option<CellRun> {
        let (w, seed) = (self.args.workload, self.args.seed);
        let cell = &self.cells[i];
        let res = run_one(&mut self.m, w, i, cell, setup, seed, count);
        let stored = self.stored.get(cell.label.as_str());
        check(&mut self.tally, &cell.label, &res, stored, earlier)
            .then(|| res.ok())
            .flatten()
    }

    /// Measured passes while `--seconds` are not up: untraced, or
    /// alternating untraced and traced when tracing. Before every pass but
    /// the first, set-up is repeated, so that `setup_s` too is the fastest
    /// of repetitions spread over the run; each repetition must produce
    /// the same offline logs. Returns the untraced passes' times and each
    /// cell's first counts.
    fn measure(&mut self, setup: &work::Setup) -> (Times, Vec<Option<Counts>>) {
        let n = self.cells.len();
        let mut plain = Times::new(n);
        let mut first: Vec<Option<Counts>> = vec![None; n];
        let min_passes = if self.args.trace { 2 } else { 1 };
        let start = Instant::now();
        let mut pass = 0;
        while pass < min_passes || start.elapsed().as_secs_f64() < self.args.seconds {
            if pass > 0 {
                match self.set_up(pass) {
                    Ok(again) if again.logs == setup.logs => {}
                    Ok(_) => self
                        .tally
                        .fail("set-up", "offline logs differ between repetitions"),
                    Err(e) => self.tally.fail("set-up", &e),
                }
            }
            let pass_start = Instant::now();
            let tracing = self.args.trace && pass % 2 == 1;
            self.m.set_tracing(tracing);
            for (i, first) in first.iter_mut().enumerate() {
                let t0 = Instant::now();
                let run = self.cell(i, setup, false, first.as_ref());
                let dt = t0.elapsed().as_secs_f64();
                if let Some(run) = run {
                    if !tracing {
                        plain.cell[i].push(dt);
                        plain.run[i].push(self.m.run_s);
                        plain.cycles[i] = self.m.run_cycles;
                    }
                    *first = first.or(run.counts);
                }
            }
            let kind = if tracing { "traced" } else { "untraced" };
            let secs = pass_start.elapsed().as_secs_f64();
            eprintln!("hostbench: pass {pass} ({kind}) {secs:.3} s");
            if tracing {
                let spans = self.m.take_spans();
                self.pass_chunks.push(Chunk {
                    label: format!("pass{pass}"),
                    spans,
                });
            }
            pass += 1;
        }
        if plain.cell.iter().any(Vec::is_empty) {
            self.tally
                .fail(self.args.workload.name(), "a cell never completed a pass");
        }
        (plain, first)
    }

    /// The counting pass, run twice with sim-obs armed and timings
    /// discarded: every count must repeat exactly, also against the
    /// measured passes' counts where those had sim-obs armed.
    fn count(&mut self, setup: &work::Setup, first: &[Option<Counts>]) -> Vec<Counts> {
        self.m.set_tracing(false);
        let mut counted: Vec<Counts> = Vec::new();
        for (i, earlier) in first.iter().enumerate() {
            let run = self.cell(i, setup, true, earlier.as_ref());
            counted.push(run.and_then(|r| r.counts).unwrap_or_default());
        }
        for (i, c) in counted.iter().enumerate() {
            self.cell(i, setup, true, Some(c));
        }
        counted
    }

    /// Writes every traced chunk's spans and the counting pass's per-cell
    /// counts under `out/`.
    fn write_trace(&self, counted: &[Counts]) -> Result<(), String> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = format!("{}-{}", self.args.workload.name(), self.args.seed);
        let chunks: Vec<(&str, &[Span])> = self
            .setup_chunks
            .iter()
            .chain(&self.pass_chunks)
            .map(|c| (c.label.as_str(), c.spans.as_slice()))
            .collect();
        let spans = dir.join(format!("spans-{stem}.json"));
        meter::write_spans(&spans, &chunks)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        let counts = dir.join(format!("counts-{stem}.txt"));
        let body: String = self
            .cells
            .iter()
            .zip(counted)
            .map(|(cell, c)| format!("{}\t{c:?}\n", cell.label))
            .collect();
        std::fs::write(&counts, body).map_err(|e| format!("writing {}: {e}", counts.display()))?;
        eprintln!("hostbench: spans and counts written to {}", dir.display());
        Ok(())
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    if args.outcomes {
        return print_outcomes(w);
    }
    let mut b = Bench {
        args,
        cells: work::cells(w),
        stored: stored_outcomes(w, args.seed),
        m: Meter::new(),
        tally: Tally::default(),
        setup_s: Vec::new(),
        setup_chunks: Vec::new(),
        pass_chunks: Vec::new(),
    };
    let setup = b.set_up(0)?;
    let (plain, first) = b.measure(&setup);
    let mut report: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        report.push(("wall_s", plain.wall_s(), "s"));
        report.push(("setup_s", fastest(&b.setup_s), "s"));
        report.push(("sim_mcyc_per_s", plain.sim_mcyc_per_s(), "Mcyc/s"));
        report.push(("peak_rss_mb", peak_rss_mb(), "MB"));
    } else {
        let counted = b.count(&setup, &first);
        let (layers, traced_wall) = layer_metrics(&b.setup_chunks, &b.pass_chunks);
        report.extend(layers);
        report.extend(count_metrics(&counted));
        report.push(("tracing.wall_s", traced_wall, "s"));
        report.push(("tracing.overhead_s", traced_wall - plain.wall_s(), "s"));
        b.write_trace(&counted)?;
    }

    let t = &b.tally;
    println!(
        "# workload {} seed {} trace {} passes {}+{} cells {}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        plain.passes(),
        b.pass_chunks.len(),
        b.cells.len()
    );
    for (name, value, unit) in &report {
        println!("# {name:<28} {value:>16.6} {unit}");
    }
    let fail_ratio = t.failed as f64 / t.attempted.max(1) as f64;
    println!(
        "# {:<28} {fail_ratio:>16.6} ratio ({} failed / {} attempted)",
        "fail_ratio", t.failed, t.attempted
    );
    let metrics: Vec<String> = report
        .iter()
        .map(|(n, v, u)| fmt_metric(n, *v, u))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    Ok(())
}
