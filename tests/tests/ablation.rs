//! Ablations.
//!
//! 1. zpoline's disassembly strategy (DESIGN.md §4.3's trade-off): the
//!    byte-pattern scan over-approximates (more corruption, no misses);
//!    the linear sweep both misses and fabricates.
//! 2. The engine-mode matrix (DESIGN.md §10): stepwise × block × trace
//!    produce instruction-for-instruction identical streams — plain, under
//!    a fault plan, with the profiler enabled, and with every session
//!    armed at once — while throughput is monotonically non-decreasing
//!    across the three.

use std::time::Instant;

use bench::micro::{build_micro_app, MICRO_APP, MICRO_CFG};
use interpose::{Interposer, Native};
use pitfalls::fault::{plan_for, run_probe, run_probe_on, Scenario};
use sim_fault::{FaultKind, FaultPlan, PermFlip, SignalWindow, SyscallFault};
use sim_kernel::{nr, EngineConfig, RunExit, TraceEntry};
use sim_loader::boot_kernel;
use sim_record::Rec;
use zpoline::{ScanStrategy, Zpoline};

fn zp(scan: ScanStrategy) -> Zpoline {
    let mut z = Zpoline::default_variant();
    z.scan = scan;
    z
}

/// Both strategies interpose a clean stress loop correctly; the byte scan
/// rewrites at least as many sites as the sweep.
#[test]
fn byte_scan_is_superset_on_clean_code() {
    let mut counts = Vec::new();
    for scan in [ScanStrategy::LinearSweep, ScanStrategy::ByteScan] {
        let mut k = boot_kernel();
        apps::install_world(&mut k.vfs);
        let z = zp(scan);
        z.install(&mut k);
        let pid = z.spawn(&mut k, "/usr/bin/pwd-sim", &[], &[]).unwrap();
        k.run(1_000_000_000_000);
        let p = k.process(pid).unwrap();
        assert_eq!(p.exit_status, Some(0), "{scan:?}");
        counts.push(z.stats().rewritten.len());
    }
    assert!(counts[1] >= counts[0], "bytescan {} < sweep {}", counts[1], counts[0]);
}

/// On an image with embedded data, the byte scan corrupts it (it rewrites
/// every 0f 05 match) — the maximal-P3a end of the trade-off.
#[test]
fn byte_scan_corrupts_embedded_data() {
    let mut k = boot_kernel();
    pitfalls::install_pocs(&mut k.vfs);
    let z = zp(ScanStrategy::ByteScan);
    z.install(&mut k);
    let pid = z.spawn(&mut k, "/usr/bin/p3a-poc", &[], &[]).unwrap();
    k.run(1_000_000_000_000);
    let p = k.process(pid).unwrap();
    assert_eq!(p.exit_status, Some(7), "embedded data must be corrupted");
}

// ===== Engine-mode matrix: stepwise × block × trace =====

/// The three engine configurations, oracle first.
fn engines() -> [(&'static str, EngineConfig); 3] {
    [
        ("stepwise", EngineConfig::stepwise()),
        ("block", EngineConfig::new()),
        ("trace", EngineConfig::traced()),
    ]
}

/// Everything one engine's run of the stress guest is compared on.
struct MicroRun {
    /// Instruction-level stream (empty unless recorded).
    stream: Vec<TraceEntry>,
    clock: u64,
    status: Option<i64>,
    /// The kernel's retired-instruction clock at exit.
    retired: u64,
    /// Record-session log (empty unless recording was armed).
    log: Vec<Rec>,
    /// Profiler samples resolved to `(clock, (pid, tid), frame names)`,
    /// so runs compare by content rather than by recorder-local ids
    /// (empty unless observed with the profiler armed).
    samples: Vec<ResolvedSample>,
    /// Host wall-clock seconds of `Kernel::run`.
    secs: f64,
}

/// A profiler sample with its CPU and frames resolved.
type ResolvedSample = (u64, (u64, u64), Vec<String>);

fn resolve_samples(rec: &sim_obs::Recorder) -> Vec<ResolvedSample> {
    rec.samples
        .iter()
        .map(|s| {
            let frames = rec.sample_frames(s).map(str::to_string).collect();
            (s.clock, rec.cpu(s.cpu), frames)
        })
        .collect()
}

/// Boots the syscall-500 stress guest; returns the kernel and its pid.
fn boot_micro(iters: u64) -> (sim_kernel::Kernel, sim_kernel::Pid) {
    let mut k = boot_kernel();
    build_micro_app().install(&mut k.vfs);
    k.vfs
        .write_file(MICRO_CFG, &iters.to_le_bytes())
        .expect("cfg");
    let ip = Native;
    ip.install(&mut k);
    let pid = ip.spawn(&mut k, MICRO_APP, &[], &[]).expect("spawn");
    (k, pid)
}

/// Runs the stress guest under `cfg`, recording the instruction stream
/// when `record` and the sim-obs stream when `observe`.
fn run_micro(cfg: EngineConfig, iters: u64, record: bool, observe: bool) -> MicroRun {
    let (mut k, pid) = boot_micro(iters);
    k.configure(cfg);
    if record {
        k.start_exec_trace();
    }
    if observe {
        sim_obs::enable(sim_obs::ObsConfig::default());
    }
    let t0 = Instant::now();
    let exit = k.run(u64::MAX / 4);
    let secs = t0.elapsed().as_secs_f64();
    let samples = sim_obs::disable()
        .map(|r| resolve_samples(&r))
        .unwrap_or_default();
    assert_eq!(exit, RunExit::AllExited);
    MicroRun {
        stream: k.take_exec_trace(),
        clock: k.clock,
        status: k.process(pid).expect("proc").exit_status,
        retired: k.retired(),
        log: k.take_recording(),
        samples,
        secs,
    }
}

/// Asserts two engines' instruction streams are bit-identical.
fn assert_streams_equal(name: &str, got: &[TraceEntry], oracle: &[TraceEntry]) {
    assert_eq!(
        got.len(),
        oracle.len(),
        "{name}: stream length {} vs oracle {}",
        got.len(),
        oracle.len()
    );
    for (i, (g, o)) in got.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(g, o, "{name}: stream diverges at step {i}");
    }
}

/// Runs the stress guest on every engine with `arm` applied to its
/// configuration and asserts each run matches the stepwise oracle in
/// instruction stream, clock, exit status, retired count, record log,
/// and profiler samples. Returns the oracle's run.
fn assert_engine_matrix(
    iters: u64,
    observe: bool,
    arm: impl Fn(EngineConfig) -> EngineConfig,
) -> MicroRun {
    let mut oracle: Option<MicroRun> = None;
    for (name, cfg) in engines() {
        let run = run_micro(arm(cfg), iters, true, observe);
        let Some(o) = &oracle else {
            oracle = Some(run);
            continue;
        };
        assert_streams_equal(name, &run.stream, &o.stream);
        assert_eq!(run.clock, o.clock, "{name}: clock diverges");
        assert_eq!(run.status, o.status, "{name}: status diverges");
        assert_eq!(run.retired, o.retired, "{name}: retired count diverges");
        assert!(run.log == o.log, "{name}: record log diverges");
        assert_eq!(run.samples, o.samples, "{name}: profiler samples diverge");
    }
    oracle.expect("three engines ran")
}

/// Plain run: every engine's instruction stream, final clock, and exit
/// status match the stepwise oracle bit-for-bit.
#[test]
fn engine_matrix_streams_identical() {
    let o = assert_engine_matrix(5_000, false, |cfg| cfg);
    assert!(o.stream.len() > 20_000, "stream too short");
    assert_eq!(o.retired, o.stream.len() as u64, "retired clock vs stream");
}

/// Same matrix under a syscall fault plan: errno injections land at the
/// identical occurrence under every engine (the plan's occurrence counters
/// advance through the trace engine's direct-path syscall entry too).
#[test]
fn engine_matrix_streams_identical_under_fault_plan() {
    let mut plan = FaultPlan::zero(11);
    plan.syscall_faults = vec![
        SyscallFault {
            nr: nr::SYS_NONEXISTENT,
            occurrence: 7,
            kind: FaultKind::Eintr,
        },
        SyscallFault {
            nr: nr::SYS_NONEXISTENT,
            occurrence: 2_500,
            kind: FaultKind::Eagain,
        },
    ];
    assert_engine_matrix(5_000, false, |cfg| cfg.fault(plan.clone()));
}

/// Every session armed at once — obs, the profiler at period 64, the
/// coverage audit, navigation-grade recording every 4096 instructions,
/// and a fault plan whose signal stride and permission flips (and their
/// restores) sit on multiples of 64 — so several sessions fall due on
/// the same retired instruction. The engines still agree on everything.
#[test]
fn engine_matrix_streams_identical_with_all_sessions() {
    let iters = 5_000;
    let page = |sym: &str| {
        let (k, pid) = boot_micro(iters);
        let p = k.process(pid).expect("proc");
        let (_, addr) = p
            .symbols
            .iter()
            .find(|(name, _)| name.ends_with(sym))
            .expect("micro symbol");
        addr & !(sim_mem::PAGE_SIZE - 1)
    };
    let mut plan = FaultPlan::zero(5);
    plan.signal_window = Some(SignalWindow {
        signo: nr::SIGUSR1,
        start: 640,
        end: 16_384,
        stride: 192,
    });
    // Widening flips (W on code, X on data): never lethal, but each one
    // serializes the running core like an mprotect IPI.
    plan.perm_flips = vec![
        PermFlip {
            at: 4_096,
            page: page(":main"),
            perms: 7,
            duration: 512,
        },
        PermFlip {
            at: 8_192,
            page: page(":count"),
            perms: 7,
            duration: 4_096,
        },
    ];
    let o = assert_engine_matrix(iters, true, |cfg| {
        cfg.profile(64)
            .audit(Native.coverage())
            .record_with_checkpoints(4_096)
            .fault(plan.clone())
    });
    assert!(o.samples.len() > 100, "too few profiler samples");
    // The engine comparison covers resolved stacks, not just ids: the
    // samples must name the guest's own symbols and carry callers.
    let micro = MICRO_APP.rsplit('/').next().expect("basename");
    assert!(
        o.samples
            .iter()
            .any(|(_, _, frames)| frames.len() > 1 && frames[0].starts_with(micro)),
        "no sample resolved a stack inside {micro}"
    );
    let count = |f: fn(&Rec) -> bool| o.log.iter().filter(|r| f(r)).count();
    assert!(
        count(|r| matches!(r, Rec::Signal { .. })) > 10,
        "signal window left too few records"
    );
    assert!(
        count(|r| matches!(r, Rec::Flip { .. })) >= 4,
        "flips and restores not recorded"
    );
}

/// The fault-resilience probe under a combined plan (errno + signals +
/// scheduler perturbation) through zpoline's rewritten trampolines: all
/// three engines agree on the guest-visible outcome and final clock.
#[test]
fn engine_matrix_agrees_on_fault_probe() {
    let baseline = run_probe("native", None);
    let mut plan = plan_for(Scenario::Errno, 7, &baseline);
    plan.signal_window = plan_for(Scenario::Signal, 7, &baseline).signal_window;
    plan.sched = plan_for(Scenario::Sched, 7, &baseline).sched;
    let mut oracle: Option<(Option<i64>, Vec<u8>, u64)> = None;
    for (name, cfg) in engines() {
        let run = run_probe_on("zpoline", Some(&plan), cfg);
        match &oracle {
            None => oracle = Some((run.exit, run.output, run.clock)),
            Some((ref_exit, ref_out, ref_clock)) => {
                assert_eq!(run.exit, *ref_exit, "{name}: exit diverges");
                assert_eq!(&run.output, ref_out, "{name}: output diverges");
                assert_eq!(run.clock, *ref_clock, "{name}: clock diverges");
            }
        }
    }
}

/// Same matrix with the sampling profiler enabled: sample boundaries cap
/// block budgets mid-trace, and the streams still match the oracle.
#[test]
fn engine_matrix_streams_identical_with_profiler() {
    assert_engine_matrix(5_000, false, |cfg| cfg.profile(64));
}

/// Throughput is monotonically non-decreasing across the ablation:
/// stepwise ≤ block ≤ trace in simulated instructions per host second
/// (best-of-3 to damp scheduler noise; the observed gaps are multiples,
/// so the ordering is robust).
#[test]
fn engine_matrix_throughput_ordering_monotonic() {
    let iters = 20_000;
    let mut rates = Vec::new();
    for (name, cfg) in engines() {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let run = run_micro(cfg.clone(), iters, false, false);
            assert_eq!(run.status, Some(0), "{name}: bad exit");
            best = best.min(run.secs);
        }
        rates.push((name, 1.0 / best));
    }
    for pair in rates.windows(2) {
        let ((slow, a), (fast, b)) = (pair[0], pair[1]);
        assert!(
            b >= a,
            "inst/s ordering violated: {fast} ({b:.1}/s rel) < {slow} ({a:.1}/s rel)"
        );
    }
}
