//! `simscale` — the connection-scale matrix (Table 6 at production
//! traffic shapes).
//!
//! Sweeps epollsrv-sim (readiness multiplexing) and pollsrv-sim
//! (busy-poll strawman) over 10^2–10^4 concurrent connections under
//! native + every Table 6 interposer, on parallel host threads. All
//! output is byte-identical for any `--threads` value and across
//! repeated runs — CI compares two invocations at thread counts 1 and 4.
//!
//! ```text
//! simscale                       # full matrix, text table on stdout
//! simscale --smoke               # tiny matrix for CI determinism checks
//! simscale --threads N           # host worker threads (default 4)
//! simscale --json PATH           # also write the matrix as JSON
//! simscale --out PATH            # also write the text table
//! simscale --gate BENCH_scale.json   # criterion + re-measured floor cell
//! ```
//!
//! Refresh the committed baseline with:
//! `cargo run --release -p bench --bin simscale -- --json BENCH_scale.json`

use bench::report;
use bench::scale::{full_matrix_cells, remeasure_floor_cell};
use bench::scale::{full_params, matrix_json, render_matrix, run_matrix, run_matrix_cells};
use std::process::ExitCode;

fn run(
    smoke: bool,
    threads: usize,
    json_out: Option<&str>,
    text_out: Option<&str>,
) -> Result<String, String> {
    let matrix = if smoke {
        let conns = [16u32, 64];
        let mut params = full_params(bench::scale());
        params.requests = 64;
        let cells: Vec<_> = full_matrix_cells(&conns)
            .into_iter()
            .filter(|c| {
                matches!(
                    c.config,
                    bench::Config::Native | bench::Config::K23Default | bench::Config::Sud
                )
            })
            .collect();
        run_matrix_cells(&conns, &cells, &params, threads)
    } else {
        let conns = [100u32, 1000, 10_000];
        run_matrix(&conns, &full_params(bench::scale()), threads)
    };
    let text = render_matrix(&matrix);
    if let Some(path) = json_out {
        let json = matrix_json(&matrix).to_string_pretty();
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = text_out {
        std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(text)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut threads = 4usize;
    let mut json_out: Option<String> = None;
    let mut text_out: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = n,
                None => return usage("--threads needs a number"),
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(p.clone()),
                None => return usage("--json needs a path"),
            },
            "--out" => match it.next() {
                Some(p) => text_out = Some(p.clone()),
                None => return usage("--out needs a path"),
            },
            "--gate" => match it.next() {
                Some(p) => gate_path = Some(p.clone()),
                None => return usage("--gate needs a path"),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let res = match gate_path {
        Some(p) => std::fs::read_to_string(&p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|committed| remeasure_floor_cell(&committed))
            .map(|fresh| report::gate_file("simscale", &p, &fresh, report::scale_rows)),
        None => run(smoke, threads, json_out.as_deref(), text_out.as_deref()).map(|text| {
            print!("{text}");
            ExitCode::SUCCESS
        }),
    };
    res.unwrap_or_else(|e| {
        eprintln!("simscale: {e}");
        ExitCode::FAILURE
    })
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "simscale: {err}\nusage: simscale [--smoke] [--threads N] [--json PATH] [--out PATH] [--gate BENCH_scale.json]"
    );
    ExitCode::FAILURE
}
