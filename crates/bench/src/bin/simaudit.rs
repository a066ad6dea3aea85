//! `simaudit` — the interposition coverage matrix.
//!
//! Sweeps every registry mechanism plus the composed stacks in
//! [`bench::audit::AUDIT_STACKS`] across the coreutil, client/server,
//! epoll-server (readiness dispatch), and hostile workloads with the
//! kernel-side audit ledger enabled, and prints one
//! byte-deterministic row per cell: coverage, interposed-via-path /
//! via-control / double-interposed counts, and bypasses broken down by
//! pitfall signature (`P2b-preinit`, `P1a-exec`, ...).
//!
//! ```text
//! simaudit                       # full sweep (block engine)
//! simaudit --smoke               # CI mode: same sweep (determinism is
//!                                # checked by diffing two invocations)
//! simaudit --engine stepwise     # sweep under another engine (the
//!                                # output must be byte-identical)
//! simaudit --json PATH           # also write the matrix as JSON
//! simaudit --out PATH            # also write the matrix text (use to
//!                                # refresh MATRIX_simaudit.txt)
//! simaudit --replay <mech> <coreutil|server|epollsrv|hostile>   # one cell, full ledger
//! simaudit --gate MATRIX_simaudit.txt          # coverage floor check
//! ```

use bench::audit::{
    full_audit_matrix, matrix_json, render_audit_matrix, render_cell, run_cell, server_spec,
};
use bench::report;
use sim_kernel::EngineConfig;
use std::process::ExitCode;

fn sweep(engine: &str, json_out: Option<&str>, text_out: Option<&str>) -> Result<String, String> {
    bench::engine_cfg(engine)?;
    let rows = full_audit_matrix(|| bench::engine_cfg(engine).expect("validated above"));
    let server = server_spec().name;
    let text = render_audit_matrix(&rows, &server);
    if let Some(path) = json_out {
        let json = matrix_json(&rows, &server).to_string_pretty();
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = text_out {
        std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(text)
}

fn replay(spec: &str, workload: &str) -> Result<String, String> {
    pitfalls::register_all();
    interpose::registry::parse_spec(spec).map_err(|e| format!("bad spec {spec:?}: {e}"))?;
    if !matches!(workload, "coreutil" | "server" | "epollsrv" | "hostile") {
        return Err(format!(
            "unknown workload {workload:?} (coreutil|server|epollsrv|hostile)"
        ));
    }
    let ledger = run_cell(spec, workload, EngineConfig::new());
    Ok(render_cell(spec, workload, &ledger))
}

fn usage() -> ! {
    eprintln!(
        "usage: simaudit [--smoke | --engine <block|stepwise|trace>] [--json PATH] [--out PATH]\n\
         \x20      simaudit --replay <mechanism> <coreutil|server|epollsrv|hostile>\n\
         \x20      simaudit --gate <MATRIX file>"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut engine = "block".to_string();
    let mut json_out: Option<String> = None;
    let mut text_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {}
            "--engine" => match args.get(i + 1) {
                Some(e) => {
                    engine = e.clone();
                    i += 1;
                }
                None => usage(),
            },
            "--json" => match args.get(i + 1) {
                Some(p) => {
                    json_out = Some(p.clone());
                    i += 1;
                }
                None => usage(),
            },
            "--out" => match args.get(i + 1) {
                Some(p) => {
                    text_out = Some(p.clone());
                    i += 1;
                }
                None => usage(),
            },
            "--replay" => match (args.get(i + 1), args.get(i + 2)) {
                (Some(spec), Some(workload)) => match replay(spec, workload) {
                    Ok(text) => {
                        print!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    Err(e) => {
                        eprintln!("simaudit: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                _ => usage(),
            },
            "--gate" => {
                let Some(path) = args.get(i + 1) else { usage() };
                let fresh = sweep("block", None, None).expect("block is a known engine");
                return report::gate_file("simaudit", path, &fresh, report::simaudit_rows);
            }
            _ => usage(),
        }
        i += 1;
    }
    match sweep(&engine, json_out.as_deref(), text_out.as_deref()) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simaudit: {e}");
            ExitCode::FAILURE
        }
    }
}
