//! simperf — host wall-clock throughput of the simulator engines.
//!
//! Runs the Table 5 syscall-500 stress guest under three engines — the
//! pre-fast-path baseline (per-step scheduler loop + byte-at-a-time
//! memory, `EngineConfig::stepwise().mem(MemMode::Legacy)`), the
//! block/page-run engine, and the trace engine (hot blocks promoted into
//! linked superblocks with generation revalidation) — reporting simulated
//! instructions per second for each. A three-way trace diff at a smaller
//! count first proves the engines are instruction-for-instruction
//! identical, so the throughput comparison is apples to apples. Results
//! land in `BENCH_simperf.json` (override with `--json PATH`), including
//! a `sim-obs` counter snapshot (TLB hit rate, icache reuse and
//! coalescing, trace formation/link/side-exit counts) so perf changes
//! regress-check hit rates, not just throughput. The snapshot run sizes
//! the event ring to hold the full workload so `dropped_events` is zero
//! and counters are never skewed by ring overflow. Timed runs keep
//! tracing and obs disabled.
//!
//! `--gate FILE` re-measures, renders the run as the baseline JSON and
//! gates it with [`bench::report::simperf_rows`]: the iteration and
//! instruction counts must match (so a run under another
//! `K23_BENCH_SCALE` is rejected), determinism must hold, the snapshot
//! ring must not drop events, and block/trace inst/s must not fall below
//! half the baseline (wall-clock throughput on a shared host is noisy;
//! only slowdowns fail, speedups pass).

use bench::micro::{build_micro_app, MICRO_APP, MICRO_CFG};
use bench::report;
use interpose::{Interposer, Native};
use sim_kernel::{EngineConfig, Kernel, MemMode, Pid, RunExit, TraceEntry, Vfs};
use sim_loader::{boot_kernel, boot_kernel_from};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

/// Which engine a run uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Pre-fast-path baseline: stepwise loop + byte-at-a-time memory.
    Legacy,
    /// Block engine: `run_block` + page runs + TLB.
    Block,
    /// Trace engine: blocks promoted into linked superblocks.
    Trace,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Legacy, Mode::Block, Mode::Trace];

    fn config(self) -> EngineConfig {
        match self {
            Mode::Legacy => EngineConfig::stepwise().mem(MemMode::Legacy),
            Mode::Block => EngineConfig::new(),
            Mode::Trace => EngineConfig::traced(),
        }
    }

    /// Engine label used in the JSON rows and the gate.
    fn label(self) -> &'static str {
        match self {
            Mode::Legacy => "stepwise+byte-at-a-time",
            Mode::Block => "run_block+page-runs+tlb",
            Mode::Trace => "superblocks+generation-revalidation",
        }
    }

    /// Key of this engine's row in the JSON document. `before`/`after`
    /// keep their original meaning (baseline vs headline engine).
    fn json_key(self) -> &'static str {
        match self {
            Mode::Legacy => "before",
            Mode::Block => "block",
            Mode::Trace => "after",
        }
    }
}

/// The world VFS (libc + micro app), assembled exactly once: every
/// engine x repetition run clones this template instead of re-assembling
/// the guest images per boot.
fn world() -> &'static Vfs {
    static WORLD: OnceLock<Vfs> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut k = boot_kernel();
        build_micro_app().install(&mut k.vfs);
        k.vfs
    })
}

fn boot(n: u64) -> (Kernel, Pid) {
    let mut k = boot_kernel_from(world());
    k.vfs.write_file(MICRO_CFG, &n.to_le_bytes()).expect("cfg");
    let ip = Native;
    ip.install(&mut k);
    let pid = ip.spawn(&mut k, MICRO_APP, &[], &[]).expect("spawn");
    (k, pid)
}

/// Runs the stress guest to completion under one engine. `trace` records
/// the instruction-level trace; `ring_cap` overrides the obs event-ring
/// capacity for snapshot runs.
fn run(n: u64, mode: Mode, trace: bool, ring_cap: Option<usize>) -> (f64, u64, Option<Vec<TraceEntry>>) {
    let (mut k, pid) = boot(n);
    let mut cfg = mode.config();
    if let Some(cap) = ring_cap {
        cfg = cfg.obs_ring_capacity(cap);
    }
    k.configure(cfg);
    if trace {
        k.start_exec_trace();
    }
    let t0 = Instant::now();
    let exit = k.run(u64::MAX / 4);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(exit, RunExit::AllExited);
    assert_eq!(k.process(pid).and_then(|p| p.exit_status), Some(0));
    let tr = if trace { Some(k.take_exec_trace()) } else { None };
    (dt, k.clock, tr)
}

fn best_of(runs: u32, n: u64, mode: Mode) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let (dt, _, _) = run(n, mode, false, None);
        best = best.min(dt);
    }
    best
}

/// Measures determinism, throughput and the counter snapshot, rendered in
/// the `BENCH_simperf.json` format.
fn measure() -> String {
    let scale = bench::scale();

    // 1. Determinism proof: full three-way trace diff at a modest count.
    // The stepwise run is the oracle; block and trace must match it
    // entry for entry (pid, tid, rip, clock, event).
    let diff_n = 2_000 / scale.clamp(1, 10);
    let (_, clock_ref, ref_tr) = run(diff_n, Mode::Legacy, true, None);
    let ref_tr = ref_tr.unwrap();
    for mode in [Mode::Block, Mode::Trace] {
        let (_, clock, tr) = run(diff_n, mode, true, None);
        let tr = tr.unwrap();
        assert_eq!(clock, clock_ref, "{}: engine clocks diverge", mode.label());
        assert_eq!(tr.len(), ref_tr.len(), "{}: trace lengths diverge", mode.label());
        for (i, (f, r)) in tr.iter().zip(ref_tr.iter()).enumerate() {
            assert_eq!(f, r, "{}: trace diverges at step {i}", mode.label());
        }
    }
    println!(
        "determinism: {} traced instructions identical across stepwise/block/trace (clock {})",
        ref_tr.len(),
        clock_ref
    );

    // 2. Throughput: same guest, bigger count, timed without tracing.
    let n = (1_000_000 / scale).max(20_000);
    // All engines retire the identical instruction stream (proved above),
    // so one traced run yields the retired-instruction count for all.
    let (_, _, count_tr) = run(n, Mode::Trace, true, None);
    let instructions = count_tr.unwrap().len() as u64;
    println!("guest: {MICRO_APP} (syscall-500 stress), {n} iterations, {instructions} instructions");
    let mut fields = vec![
        ("guest", sjson::Value::Str(MICRO_APP.into())),
        ("iterations", sjson::Value::UInt(n)),
        ("instructions", sjson::Value::UInt(instructions)),
        (
            "determinism",
            sjson::Value::object(vec![
                ("trace_len", sjson::Value::UInt(ref_tr.len() as u64)),
                ("identical", sjson::Value::Bool(true)),
            ]),
        ),
    ];
    // inst/s in `Mode::ALL` order: stepwise, block, trace.
    let mut ips = Vec::new();
    for mode in Mode::ALL {
        let seconds = best_of(3, n, mode);
        let inst_per_sec = instructions as f64 / seconds;
        println!("{:<38} {seconds:.3}s  {inst_per_sec:>12.0} inst/s", mode.label());
        ips.push(inst_per_sec);
        fields.push((
            mode.json_key(),
            sjson::Value::object(vec![
                ("engine", sjson::Value::Str(mode.label().into())),
                ("seconds", sjson::Value::Float(seconds)),
                ("inst_per_sec", sjson::Value::Float(inst_per_sec)),
            ]),
        ));
    }
    let (block, trace) = (ips[1] / ips[0], ips[2] / ips[0]);
    println!("speedup over stepwise baseline: block {block:.2}x, trace {trace:.2}x");
    fields.push(("speedup", sjson::Value::Float(trace)));
    fields.push(("speedup_block", sjson::Value::Float(block)));

    // 3. Counter snapshot from one extra trace-engine run with sim-obs on
    // (tracing and obs stay off during every timed run above). The ring
    // is sized for the workload (~2 events per guest iteration) so the
    // snapshot counters are never skewed by silent event drops; the
    // snapshot caps the iteration count so the ring stays modest.
    let obs_n = n.min(100_000);
    let ring_cap = (4 * obs_n).next_power_of_two().max(1 << 16) as usize;
    sim_obs::enable(sim_obs::ObsConfig::default());
    let _ = run(obs_n, Mode::Trace, false, Some(ring_cap));
    let rec = sim_obs::disable().expect("recorder");
    println!(
        "obs: tlb hit rate {:.2}%, icache reuse {:.2}%, {} traces formed, {} trace entries, {} dropped events (ring {ring_cap})",
        100.0 * rec.counters.tlb_hit_rate(),
        100.0 * rec.counters.icache_reuse_rate(),
        rec.counters.trace_forms,
        rec.counters.trace_entries,
        rec.total_dropped()
    );

    fields.push(("obs_iterations", sjson::Value::UInt(obs_n)));
    fields.push(("obs", rec.counters_json()));
    sjson::Value::object(fields).to_string_pretty()
}

fn main() -> ExitCode {
    let mut json_path = "BENCH_simperf.json".to_string();
    let mut gate_path: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => {
                json_path = argv
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("--json needs a path"))
                    .clone();
                i += 1;
            }
            "--gate" => {
                gate_path = Some(
                    argv.get(i + 1)
                        .unwrap_or_else(|| panic!("--gate needs a baseline path"))
                        .clone(),
                );
                i += 1;
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    let json = measure();
    if let Some(baseline) = &gate_path {
        return report::gate_file("simperf", baseline, &json, report::simperf_rows);
    }
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!("wrote {json_path}");
    ExitCode::SUCCESS
}
