//! simtrace — run a guest workload under any interposition mechanism with
//! `sim-obs` tracing enabled, and export the result as Chrome trace-event
//! JSON (loadable in Perfetto / `about:tracing`) plus a plain-text
//! summary with per-interposer syscall-latency attribution.
//!
//! ```text
//! simtrace [--interposer NAME] [--engine block|stepwise|trace]
//!          [--app PATH | --micro N]
//!          [--trace-out PATH] [--summary-out PATH]
//!          [--no-micro-events] [--selfcheck] [--compare]
//! ```
//!
//! * `--interposer` — one of `native`, `ptrace`, `sud`, `sud-armed`,
//!   `zpoline`, `zpoline-ultra`, `lazypoline`, `k23`, `k23-ultra`,
//!   `k23-ultra+` (default `k23`). K23 variants run the offline phase
//!   first, untraced, so the trace covers only the online run.
//! * `--engine` — execution engine for the traced run (default `block`).
//!   The summary's counter block always includes the trace-engine rows
//!   (formation/link/side-exit counts — zero outside `trace`).
//! * `--app` — VFS path of a coreutil installed by `apps::install_world`
//!   (default `/usr/bin/ls-sim`); `--micro N` instead runs the Table 5
//!   syscall-500 stress loop for `N` iterations.
//! * `--selfcheck` — re-parse the written trace with `sjson` and require
//!   at least one syscall span (CI smoke gate); exits non-zero on failure.
//! * `--compare` — additionally measure per-iteration microbenchmark
//!   cycles under the main mechanisms and print the overhead ordering.

use bench::micro::{build_micro_app, per_iteration_cycles_with, MICRO_APP, MICRO_CFG};
use k23::OfflineSession;
use sim_kernel::RunExit;
use sim_loader::boot_kernel;
use std::process::ExitCode;

/// `(interposer, needs_offline_phase)` for a mechanism spec, resolved
/// through the unified [`interpose`] registry.
struct Args {
    interposer: String,
    engine: String,
    app: String,
    micro: Option<u64>,
    trace_out: String,
    summary_out: String,
    micro_events: bool,
    selfcheck: bool,
    compare: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        interposer: "k23".to_string(),
        engine: "block".to_string(),
        app: "/usr/bin/ls-sim".to_string(),
        micro: None,
        trace_out: "SIMTRACE_trace.json".to_string(),
        summary_out: "SIMTRACE_summary.txt".to_string(),
        micro_events: true,
        selfcheck: false,
        compare: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--interposer" => {
                a.interposer = value(&argv, i, "--interposer")?;
                i += 1;
            }
            "--engine" => {
                a.engine = value(&argv, i, "--engine")?;
                i += 1;
            }
            "--app" => {
                a.app = value(&argv, i, "--app")?;
                i += 1;
            }
            "--micro" => {
                let v = value(&argv, i, "--micro")?;
                a.micro = Some(v.parse().map_err(|_| format!("bad --micro count {v}"))?);
                i += 1;
            }
            "--trace-out" => {
                a.trace_out = value(&argv, i, "--trace-out")?;
                i += 1;
            }
            "--summary-out" => {
                a.summary_out = value(&argv, i, "--summary-out")?;
                i += 1;
            }
            "--no-micro-events" => a.micro_events = false,
            "--selfcheck" => a.selfcheck = true,
            "--compare" => a.compare = true,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(a)
}

/// Runs the chosen workload traced; returns the recorder.
fn traced_run(args: &Args) -> Result<Box<sim_obs::Recorder>, String> {
    let (ip, needs_offline) = bench::make_interposer(&args.interposer).map_err(|e| {
        format!(
            "{e} (try native, ptrace, sud, sud-armed, zpoline, zpoline-ultra, lazypoline, k23, k23-ultra, k23-ultra+, or a composed spec like k23+tracer+recorder)"
        )
    })?;

    let mut k = boot_kernel();
    let (app, argv) = match args.micro {
        Some(n) => {
            build_micro_app().install(&mut k.vfs);
            k.vfs
                .write_file(MICRO_CFG, &n.to_le_bytes())
                .map_err(|e| format!("write micro config: {e}"))?;
            (MICRO_APP.to_string(), vec![])
        }
        None => {
            apps::install_world(&mut k.vfs);
            (args.app.clone(), vec![args.app.clone()])
        }
    };

    if needs_offline {
        // Offline phase runs untraced: the trace should cover the online
        // run the paper's tables describe, not log collection.
        let session = OfflineSession::new(&mut k, &app);
        let (_pid, exit) = session
            .run_once(&mut k, &argv, &[], u64::MAX / 4)
            .map_err(|e| format!("offline phase failed: {e}"))?;
        if exit != RunExit::AllExited {
            return Err(format!("offline phase did not finish: {exit:?}"));
        }
        session.finish(&mut k);
    }

    // Audit the traced run against the mechanism's declared coverage so
    // the summary's counter block reports interposed/bypassed/double
    // counts per attribution path alongside the latency table.
    k.configure(bench::engine_cfg(&args.engine)?.audit(ip.coverage()));
    sim_obs::enable(sim_obs::ObsConfig {
        micro_events: args.micro_events,
        ..sim_obs::ObsConfig::default()
    });
    ip.install(&mut k);
    let pid = match ip.spawn(&mut k, &app, &argv, &[]) {
        Ok(pid) => pid,
        Err(e) => {
            sim_obs::disable();
            return Err(format!("spawn {app}: {e}"));
        }
    };
    let exit = k.run(u64::MAX / 4);
    let rec = sim_obs::disable().expect("recorder was enabled");
    if exit != RunExit::AllExited {
        return Err(format!("{app} did not finish: {exit:?}"));
    }
    let status = k.process(pid).and_then(|p| p.exit_status);
    if status != Some(0) {
        return Err(format!("{app} exited with {status:?}"));
    }
    Ok(rec)
}

/// `--compare`: per-iteration stress-loop cycles under each mechanism
/// (differencing cancels startup and offline costs; see `bench::micro`).
fn compare_table(n: u64) -> String {
    let mechanisms: &[&str] = &[
        "native",
        "k23",
        "zpoline",
        "lazypoline",
        "sud",
        "ptrace",
    ];
    let mut rows: Vec<(String, f64)> = Vec::new();
    for name in mechanisms {
        let (ip, needs_offline) = bench::make_interposer(name).expect("known mechanism");
        let cycles = if needs_offline {
            // The only offline-phase mechanism in the list is k23-default;
            // the bench harness collects and seals its log before timing.
            assert_eq!(*name, "k23", "only k23 needs offline here");
            bench::micro::per_iteration_cycles(bench::Config::K23Default, n)
        } else {
            per_iteration_cycles_with(ip.as_ref(), n)
        };
        rows.push((ip.label(), cycles));
    }
    let native = rows[0].1;
    let mut s = String::new();
    s.push_str("per-syscall overhead (microbenchmark, sim-cycles/iteration):\n");
    s.push_str(&format!(
        "  {:<24} {:>12} {:>10}\n",
        "mechanism", "cycles/iter", "vs native"
    ));
    for (label, cycles) in &rows {
        s.push_str(&format!(
            "  {:<24} {:>12.1} {:>9.2}x\n",
            label,
            cycles,
            cycles / native
        ));
    }
    s
}

/// Parses the written trace back and checks it contains ≥ 1 syscall span.
fn selfcheck(trace_path: &str) -> Result<u64, String> {
    let data = std::fs::read(trace_path).map_err(|e| format!("read {trace_path}: {e}"))?;
    let v = sjson::parse(&data).map_err(|e| format!("{trace_path} is not valid JSON: {e:?}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|t| t.as_array())
        .ok_or_else(|| format!("{trace_path} has no traceEvents array"))?;
    let spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("B")
                && e.get("cat").and_then(|c| c.as_str()) == Some("syscall")
        })
        .count() as u64;
    if spans == 0 {
        return Err(format!("{trace_path} contains no syscall spans"));
    }
    Ok(spans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simtrace: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rec = match traced_run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simtrace: {e}");
            return ExitCode::FAILURE;
        }
    };

    let trace = rec.chrome_trace_json();
    if let Err(e) = std::fs::write(&args.trace_out, &trace) {
        eprintln!("simtrace: write {}: {e}", args.trace_out);
        return ExitCode::FAILURE;
    }

    let mut summary = format!(
        "workload: {} under {} ({} engine)\n{}",
        args.micro
            .map_or(args.app.clone(), |n| format!("{MICRO_APP} x{n}")),
        args.interposer,
        args.engine,
        rec.summary()
    );
    if args.compare {
        let n = (2_000 / bench::scale()).max(200);
        summary.push_str(&compare_table(n));
    }
    if let Err(e) = std::fs::write(&args.summary_out, &summary) {
        eprintln!("simtrace: write {}: {e}", args.summary_out);
        return ExitCode::FAILURE;
    }
    print!("{summary}");
    println!("wrote {} and {}", args.trace_out, args.summary_out);

    if args.selfcheck {
        match selfcheck(&args.trace_out) {
            Ok(spans) => println!("selfcheck: ok ({spans} syscall spans)"),
            Err(e) => {
                eprintln!("simtrace: selfcheck failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
