//! simprof — deterministic sampling profiler driver and bench regression
//! gate.
//!
//! Profiles a coreutil, a Table 6 server workload, and the epoll server
//! under production-traffic load (the simscale shape) under every
//! registry interposer with the sim-clock-driven sampler enabled
//! ([`sim_kernel::EngineConfig::profile`]), then writes:
//!
//! * `SIMPROF_folded.txt` — folded guest stacks (flamegraph.pl format),
//! * `SIMPROF_stages.txt` — the per-interposer per-stage critical-path
//!   cycle table fed by the round-trip spans,
//! * `SIMPROF_flame.svg` — a self-contained flamegraph of the first row,
//! * `BENCH_simprof.json` — per-row sample/instruction/syscall counts, the
//!   committed regression baseline `scripts/bench_gate.sh` compares.
//!
//! ```text
//! simprof [--engine block|stepwise|trace] [--period N (default 64)]
//!         [--scale N] [--interposer NAME]... [--json PATH] [--out-prefix P]
//!         [--gate BASELINE] [--smoke]
//! ```
//!
//! Under `--engine trace` the stage table is followed by a per-trace
//! occupancy table (replayed steps per trace and side-exit rate, hottest
//! trace first) drawn from the trace cache's per-entry counters.
//!
//! * `--gate BASELINE` — re-measure, render the rows as the baseline JSON
//!   and gate them with [`bench::report::simprof_rows`]: a run under
//!   another `--period`, `--scale` or `--engine` than the baseline's, a
//!   row whose instruction or sample count drifts beyond ±10%, and a row
//!   whose obs ring dropped events (lossy counters can't gate anything)
//!   each fail with a non-zero exit.
//! * `--smoke` — CI determinism gate: profiles the coreutil under `k23`
//!   and `ptrace` twice per engine and requires the folded stacks and
//!   stage table to be byte-identical across runs *and* across the
//!   block/stepwise engines.
//!
//! Sampling is architectural: the sampler counts retired instructions, so
//! every output here is byte-identical across consecutive runs and across
//! both engines (DESIGN.md §9).

use apps::MacroSpec;
use bench::report;
use bench::scale::{collect_offline_log_scale, world, ScaleParams, Variant};
use k23::OfflineSession;
use sim_kernel::RunExit;
use sim_loader::boot_kernel_from;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Coreutil workload (installed by `apps::install_world`).
const COREUTIL: &str = "/usr/bin/ls-sim";
/// Cycle budget per profiled run.
const BUDGET: u64 = u64::MAX / 4;

struct Args {
    engine: String,
    period: u64,
    scale: u64,
    interposers: Vec<String>,
    json_out: String,
    out_prefix: String,
    gate: Option<String>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        engine: "block".to_string(),
        period: 64,
        scale: 50,
        interposers: Vec::new(),
        json_out: "BENCH_simprof.json".to_string(),
        out_prefix: "SIMPROF".to_string(),
        gate: None,
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--engine" => {
                a.engine = value(&argv, i, "--engine")?;
                i += 1;
            }
            "--period" => {
                let v = value(&argv, i, "--period")?;
                a.period = v.parse().map_err(|_| format!("bad --period {v}"))?;
                i += 1;
            }
            "--scale" => {
                let v = value(&argv, i, "--scale")?;
                a.scale = v.parse().map_err(|_| format!("bad --scale {v}"))?;
                i += 1;
            }
            "--interposer" => {
                a.interposers.push(value(&argv, i, "--interposer")?);
                i += 1;
            }
            "--json" => {
                a.json_out = value(&argv, i, "--json")?;
                i += 1;
            }
            "--out-prefix" => {
                a.out_prefix = value(&argv, i, "--out-prefix")?;
                i += 1;
            }
            "--gate" => {
                a.gate = Some(value(&argv, i, "--gate")?);
                i += 1;
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if a.interposers.is_empty() {
        pitfalls::register_all();
        a.interposers = interpose::names().iter().map(|s| s.to_string()).collect();
    }
    Ok(a)
}

/// One profiled run's outputs and gate metrics.
struct RunOutput {
    folded: String,
    stages: String,
    traces: String,
    flame: String,
    samples: u64,
    instructions: u64,
    syscalls: u64,
    dropped: u64,
}

/// Per-trace occupancy rows (trace engine only; empty elsewhere): replayed
/// steps per trace and the side-exit rate, hottest trace first.
fn trace_table(k: &mut sim_kernel::Kernel) -> String {
    let mut rows = Vec::new();
    for pid in k.pids() {
        let tids: Vec<_> = k
            .process(pid)
            .map(|p| p.threads.iter().map(|t| t.tid).collect())
            .unwrap_or_default();
        for tid in tids {
            let stats = k.cpu_mut(pid, tid).map(|c| c.trace_stats()).unwrap_or_default();
            for st in stats {
                rows.push((pid, tid, st));
            }
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    let mut s = String::new();
    // Formation / side-exit summary first: how many superblocks the
    // workload earned and how often a replay left one early. This is the
    // measurement half of the "fatter traces" open item — server event
    // loops form few, hot traces whose side-exit rate bounds how much
    // fatter they could get.
    let formed = rows.len();
    let enters: u64 = rows.iter().map(|(_, _, st)| st.enters).sum();
    let steps: u64 = rows.iter().map(|(_, _, st)| st.steps).sum();
    let side_exits: u64 = rows.iter().map(|(_, _, st)| st.side_exits).sum();
    let _ = writeln!(
        s,
        "trace formation: {formed} traces formed, {enters} enters, {steps} replayed steps, side-exit rate {:.1}%",
        100.0 * side_exits as f64 / enters.max(1) as f64
    );
    let _ = writeln!(s, "per-trace occupancy (replayed steps per trace, hottest first):");
    let _ = writeln!(
        s,
        "  {:<8} {:<14} {:>5} {:>8} {:>10} {:>11}",
        "pid/tid", "entry", "ops", "enters", "steps", "side-exit%"
    );
    for (pid, tid, st) in rows {
        let _ = writeln!(
            s,
            "  {:<8} {:<14} {:>5} {:>8} {:>10} {:>10.1}%",
            format!("{pid}/{tid}"),
            format!("{:#x}", st.entry),
            st.ops,
            st.enters,
            st.steps,
            100.0 * st.side_exits as f64 / st.enters.max(1) as f64
        );
    }
    s
}

fn finish_run(k: &mut sim_kernel::Kernel, rec: Box<sim_obs::Recorder>) -> RunOutput {
    let syscalls = k
        .pids()
        .iter()
        .filter_map(|p| k.process(*p))
        .map(|p| p.stats.syscalls)
        .sum();
    RunOutput {
        folded: rec.folded_stacks(),
        stages: rec.stage_table(),
        traces: trace_table(k),
        flame: rec.flamegraph_svg(),
        samples: rec.samples.len() as u64,
        instructions: k.retired(),
        syscalls,
        dropped: rec.total_dropped(),
    }
}

/// Profiles `COREUTIL` under one interposer.
fn profile_coreutil(name: &str, engine: &str, period: u64) -> Result<RunOutput, String> {
    let (ip, needs_offline) = bench::make_interposer(name)?;
    let mut k = boot_kernel_from(world());
    let argv = vec![COREUTIL.to_string()];

    if needs_offline {
        // The offline phase runs unprofiled: the profile covers the online
        // run, matching what the paper's tables measure.
        let session = OfflineSession::new(&mut k, COREUTIL);
        let (_pid, exit) = session
            .run_once(&mut k, &argv, &[], BUDGET)
            .map_err(|e| format!("offline phase failed: {e}"))?;
        if exit != RunExit::AllExited {
            return Err(format!("offline phase did not finish: {exit:?}"));
        }
        session.finish(&mut k);
    }

    sim_obs::clear_region_paths();
    sim_obs::clear_span_ranges();
    k.configure(bench::engine_cfg(engine)?.profile(period));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: false,
        ..sim_obs::ObsConfig::default()
    });
    ip.install(&mut k);
    let pid = match ip.spawn(&mut k, COREUTIL, &argv, &[]) {
        Ok(pid) => pid,
        Err(e) => {
            sim_obs::disable();
            return Err(format!("spawn {COREUTIL}: {e}"));
        }
    };
    let exit = k.run(BUDGET);
    let rec = sim_obs::disable().expect("recorder was enabled");
    if exit != RunExit::AllExited {
        return Err(format!("{COREUTIL} did not finish: {exit:?}"));
    }
    let status = k.process(pid).and_then(|p| p.exit_status);
    if status != Some(0) {
        return Err(format!("{COREUTIL} exited with {status:?}"));
    }
    Ok(finish_run(&mut k, rec))
}

/// Transplants a collected offline log into `k`'s sealed log directory.
fn install_offline_log(
    k: &mut sim_kernel::Kernel,
    offline_log: &Option<(String, Vec<u8>)>,
) -> Result<(), String> {
    let (path, bytes) = offline_log.as_ref().ok_or("offline log not collected")?;
    k.vfs
        .mkdir_p(k23::LOG_DIR)
        .map_err(|e| format!("log dir: {e}"))?;
    k.vfs
        .write_file(path, bytes)
        .map_err(|e| format!("log install: {e}"))?;
    k.vfs
        .set_immutable(k23::LOG_DIR, true)
        .map_err(|e| format!("log seal: {e}"))
}

/// Profiles one Table 6 server spec under one interposer. K23 variants
/// reuse `offline_log`, collected once on a scratch kernel and
/// transplanted into the measurement kernel's sealed log directory —
/// the paper collects logs once per application (§5.1).
fn profile_server(
    name: &str,
    engine: &str,
    period: u64,
    spec: &MacroSpec,
    offline_log: &Option<(String, Vec<u8>)>,
) -> Result<RunOutput, String> {
    let (ip, needs_offline) = bench::make_interposer(name)?;
    let mut k = boot_kernel_from(world());
    if needs_offline {
        install_offline_log(&mut k, offline_log)?;
    }

    sim_obs::clear_region_paths();
    sim_obs::clear_span_ranges();
    k.configure(bench::engine_cfg(engine)?.profile(period));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: false,
        ..sim_obs::ObsConfig::default()
    });
    let res = apps::run_macro(&mut k, ip.as_ref(), spec, BUDGET);
    let rec = sim_obs::disable().expect("recorder was enabled");
    res.map_err(|e| format!("{} under {name}: {e:?}", spec.name))?;
    Ok(finish_run(&mut k, rec))
}

/// Connections for the epollsrv profiling row: enough that readiness
/// dispatch (blocked `epoll_wait` wakeups) dominates the profile, few
/// enough that sweeping every interposer stays cheap.
const EPOLLSRV_CONNS: u32 = 128;

/// Scale-load parameters for the epollsrv profiling row.
fn epollsrv_params(scale: u64) -> ScaleParams {
    ScaleParams {
        requests: ((2_000 / scale.max(1)) as u32).max(64),
        active: 16,
        resp64: 2,
        server_work: 2,
        workers: 1,
    }
}

/// Profiles the epoll server under production-traffic load (the simscale
/// workload shape) under one interposer. Same offline-log transplant
/// discipline as [`profile_server`].
fn profile_epoll_server(
    name: &str,
    engine: &str,
    period: u64,
    params: &ScaleParams,
    offline_log: &Option<(String, Vec<u8>)>,
) -> Result<RunOutput, String> {
    let (ip, needs_offline) = bench::make_interposer(name)?;
    let mut k = boot_kernel_from(world());
    if needs_offline {
        install_offline_log(&mut k, offline_log)?;
    }

    sim_obs::clear_region_paths();
    sim_obs::clear_span_ranges();
    k.configure(bench::engine_cfg(engine)?.profile(period));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: false,
        ..sim_obs::ObsConfig::default()
    });
    let spec = apps::scale_spec(
        true,
        params.workers,
        EPOLLSRV_CONNS,
        params.active,
        params.requests,
        params.resp64,
        params.server_work,
        false,
    );
    let res = apps::run_scale(&mut k, ip.as_ref(), &spec, BUDGET);
    let rec = sim_obs::disable().expect("recorder was enabled");
    res.map_err(|e| format!("epollsrv under {name}: {e:?}"))?;
    Ok(finish_run(&mut k, rec))
}

/// CI determinism gate: byte-identical profiles across consecutive runs
/// and across engines, for the coreutil under `k23` and `ptrace`.
fn smoke(period: u64) -> Result<(), String> {
    for name in ["k23", "ptrace"] {
        let mut per_engine: Vec<(String, String)> = Vec::new();
        for engine in ["block", "stepwise"] {
            let a = profile_coreutil(name, engine, period)?;
            let b = profile_coreutil(name, engine, period)?;
            if a.folded != b.folded || a.stages != b.stages {
                return Err(format!(
                    "{name}/{engine}: consecutive runs produced different profiles"
                ));
            }
            if a.samples == 0 {
                return Err(format!("{name}/{engine}: no samples captured"));
            }
            per_engine.push((a.folded, a.stages));
        }
        if per_engine[0] != per_engine[1] {
            return Err(format!("{name}: block and stepwise profiles differ"));
        }
        println!("smoke: {name} ok (deterministic across runs and engines)");
    }
    Ok(())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.smoke {
        smoke(args.period)?;
        return Ok(ExitCode::SUCCESS);
    }

    let spec = apps::table6_specs(args.scale)
        .into_iter()
        .next()
        .ok_or_else(|| "no table6 specs".to_string())?;
    let scale_params = epollsrv_params(args.scale);
    let any_k23 = args.interposers.iter().any(|n| n.starts_with("k23"));
    let server_offline = if any_k23 {
        Some(bench::macros_::collect_offline_log(&spec))
    } else {
        None
    };
    let epollsrv_offline = if any_k23 {
        Some(collect_offline_log_scale(Variant::Epoll, &scale_params))
    } else {
        None
    };

    let mut rows = Vec::new();
    let mut folded_all = String::new();
    let mut stages_all = String::new();
    let mut flame = String::new();
    for name in &args.interposers {
        for workload in ["coreutil", "server", "epollsrv"] {
            let out = match workload {
                "coreutil" => profile_coreutil(name, &args.engine, args.period)?,
                "server" => profile_server(name, &args.engine, args.period, &spec, &server_offline)?,
                _ => profile_epoll_server(
                    name,
                    &args.engine,
                    args.period,
                    &scale_params,
                    &epollsrv_offline,
                )?,
            };
            let _ = writeln!(folded_all, "# {workload} under {name}");
            folded_all.push_str(&out.folded);
            let _ = writeln!(stages_all, "# {workload} under {name}");
            stages_all.push_str(&out.stages);
            if !out.traces.is_empty() {
                stages_all.push_str(&out.traces);
            }
            stages_all.push('\n');
            if flame.is_empty() {
                flame = out.flame.clone();
            }
            println!(
                "{workload:<10} {name:<14} samples {:>7}  instructions {:>12}  syscalls {:>7}",
                out.samples, out.instructions, out.syscalls
            );
            rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"interposer\": \"{name}\", \"samples\": {}, \"instructions\": {}, \"syscalls\": {}, \"dropped_events\": {}}}",
                out.samples, out.instructions, out.syscalls, out.dropped
            ));
        }
    }

    let json = format!(
        "{{\n  \"period\": {},\n  \"scale\": {},\n  \"engine\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        args.period,
        args.scale,
        args.engine,
        rows.join(",\n")
    );
    if let Some(baseline) = &args.gate {
        let extract = report::simprof_rows;
        return Ok(report::gate_file("simprof", baseline, &json, extract));
    }
    std::fs::write(&args.json_out, &json).map_err(|e| format!("write {}: {e}", args.json_out))?;
    let folded_path = format!("{}_folded.txt", args.out_prefix);
    let stages_path = format!("{}_stages.txt", args.out_prefix);
    let flame_path = format!("{}_flame.svg", args.out_prefix);
    std::fs::write(&folded_path, &folded_all).map_err(|e| format!("write {folded_path}: {e}"))?;
    std::fs::write(&stages_path, &stages_all).map_err(|e| format!("write {stages_path}: {e}"))?;
    std::fs::write(&flame_path, &flame).map_err(|e| format!("write {flame_path}: {e}"))?;
    println!("wrote {}, {folded_path}, {stages_path}, {flame_path}", args.json_out);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simprof: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("simprof: {e}");
            ExitCode::FAILURE
        }
    }
}
