//! One report row per gated number, and one gate for every committed
//! bench artifact.
//!
//! Each artifact format has exactly one extractor that turns its text
//! into [`Row`]s: [`simprof_rows`] (`BENCH_simprof.json`),
//! [`simperf_rows`] (`BENCH_simperf.json`), [`simaudit_rows`]
//! (`MATRIX_simaudit.txt`) and [`scale_rows`] (`BENCH_scale.json`). A
//! `--gate` run renders its fresh measurement in the artifact's own format
//! and reads it back through the same extractor, so baseline and fresh
//! rows come from one parser. The extractor assigns each row its
//! [`Check`]; the tolerances are the constants below, not knobs. [`gate`]
//! lists every violation with the row's key and metric, the baseline, the
//! observed value, the signed delta and the bound.

use crate::Config;
use std::process::ExitCode;

/// simprof `instructions` / `samples` drift band.
const PROF_BAND: f64 = 0.10;
/// simperf block/trace `inst_per_sec` floor: wall-clock throughput on a
/// shared host is noisy, so only a fall below half the baseline fails.
const PERF_FLOOR: f64 = 0.5;
/// simscale re-measured floor-cell throughput floor.
const SCALE_FLOOR: f64 = 0.2;
/// The scaling criterion: epoll ≥ 5× poll under K23-default at the top
/// connection count.
const SCALE_CRITERION: f64 = 5.0;

/// How a row is judged.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// `|fresh − baseline| ≤ tol × max(baseline, 1)`.
    Band(f64),
    /// `fresh ≥ baseline × (1 − tol)`; rises always pass.
    Floor(f64),
    /// `fresh == baseline`, compared as rendered text.
    Exact,
    /// `min ≤ value ≤ max`, an absolute bound the committed row itself
    /// must meet (and the fresh row too, where the fresh run has it). A
    /// committed criterion row need not reappear in the fresh run.
    Criterion(f64, f64),
}

impl Check {
    /// The closed interval a fresh value must fall in.
    fn limits(self, baseline: f64) -> (f64, f64) {
        match self {
            Check::Band(tol) => (
                baseline - tol * baseline.max(1.0),
                baseline + tol * baseline.max(1.0),
            ),
            Check::Floor(tol) => (baseline * (1.0 - tol), f64::INFINITY),
            Check::Exact => (baseline, baseline),
            Check::Criterion(min, max) => (min, max),
        }
    }

    fn holds(self, baseline: &str, observed: &str) -> bool {
        let (lo, hi) = self.limits(num(baseline).unwrap_or(f64::NAN));
        match (self, num(observed)) {
            (Check::Exact, _) => baseline == observed,
            (_, Some(o)) => lo <= o && o <= hi,
            _ => false,
        }
    }

    fn bound(self) -> String {
        match self {
            Check::Band(tol) => format!("band ±{:.0}% of baseline", tol * 100.0),
            Check::Floor(tol) => format!("floor {:.0}% below baseline", tol * 100.0),
            Check::Exact => "exact".into(),
            Check::Criterion(min, max) => format!("criterion [{min}, {max}]"),
        }
    }
}

/// One gated number of one artifact.
#[derive(Debug, Clone)]
pub struct Row {
    /// What was measured, e.g. `server/k23` or `determinism`.
    pub key: String,
    /// Which of its numbers, e.g. `instructions`.
    pub metric: &'static str,
    /// The value as the artifact renders it.
    pub value: String,
    pub check: Check,
}

fn row(key: impl Into<String>, metric: &'static str, value: impl ToString, check: Check) -> Row {
    let (key, value) = (key.into(), value.to_string());
    Row {
        key,
        metric,
        value,
        check,
    }
}

fn num(s: &str) -> Option<f64> {
    s.parse().ok()
}

/// Drops the trailing zeros of a fixed-point rendering (`1100.000` → `1100`).
fn trim(s: String) -> String {
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn violation(r: &Row, baseline: Option<&str>, observed: Option<&str>, side: &str) -> String {
    let mut bound = r.check.bound();
    let (mut from, mut to) = (baseline.and_then(num), observed.and_then(num));
    let criterion = matches!(r.check, Check::Criterion(..));
    if let Check::Criterion(min, max) = r.check {
        // A criterion judges one row's own value: its delta is the
        // distance past the limit it broke.
        to = num(&r.value);
        from = to.map(|v| if v < min { min } else { max });
        bound += &format!(" on the {side} row");
    }
    let delta = match (from, to) {
        (Some(b), Some(o)) if b != 0.0 => {
            format!(
                "{} ({:+.1}%)",
                trim(format!("{:+.3}", o - b)),
                100.0 * (o - b) / b
            )
        }
        (Some(b), Some(o)) => trim(format!("{:+.3}", o - b)),
        _ => "n/a".into(),
    };
    format!(
        "{} {}: baseline {}, observed {}, delta {delta}, bound {bound}",
        r.key,
        r.metric,
        baseline.unwrap_or("-"),
        observed.unwrap_or(if criterion { "-" } else { "missing" })
    )
}

/// Judges `fresh` against `committed` and lists every violation (empty =
/// pass). A committed row missing from the fresh run fails; a fresh row
/// the baseline lacks passes unless it breaks its own criterion.
pub fn gate(committed: &[Row], fresh: &[Row]) -> Vec<String> {
    let find = |rows: &[Row], r: &Row| {
        rows.iter()
            .find(|x| x.key == r.key && x.metric == r.metric)
            .map(|x| x.value.clone())
    };
    let mut out = Vec::new();
    for b in committed {
        let now = find(fresh, b);
        let ok = match (b.check, &now) {
            (Check::Criterion(..), _) => b.check.holds(&b.value, &b.value),
            (check, Some(now)) => check.holds(&b.value, now),
            (_, None) => false,
        };
        if !ok {
            out.push(violation(b, Some(&b.value), now.as_deref(), "committed"));
        }
    }
    for f in fresh {
        if matches!(f.check, Check::Criterion(..)) && !f.check.holds(&f.value, &f.value) {
            out.push(violation(
                f,
                find(committed, f).as_deref(),
                Some(&f.value),
                "fresh",
            ));
        }
    }
    out
}

/// An artifact extractor.
pub type Extract = fn(&str) -> Result<Vec<Row>, String>;

/// The committed artifact's row count and the violations of `fresh`.
fn judge(path: &str, fresh: &str, extract: Extract) -> Result<(usize, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let committed = extract(&text).map_err(|e| format!("{path}: {e}"))?;
    if committed.is_empty() {
        return Err(format!("{path} has no gated rows"));
    }
    let fresh = extract(fresh).map_err(|e| format!("fresh run: {e}"))?;
    Ok((committed.len(), gate(&committed, &fresh)))
}

/// Gates `fresh`, a run rendered in the artifact's own format, against
/// the committed artifact at `path`, both read by `extract`. Prints every
/// violation and returns the process exit code.
pub fn gate_file(tool: &str, path: &str, fresh: &str, extract: Extract) -> ExitCode {
    let failures = match judge(path, fresh, extract) {
        Ok((n, v)) if v.is_empty() => {
            println!("{tool} gate: ok ({n} rows of {path} within bounds)");
            return ExitCode::SUCCESS;
        }
        Ok((_, v)) => v.into_iter().map(|x| format!("REGRESSION {x}")).collect(),
        Err(e) => vec![format!("gate error: {e}")],
    };
    for f in failures {
        eprintln!("{tool}: {f}");
    }
    ExitCode::FAILURE
}

fn json(text: &str) -> Result<sjson::Value, String> {
    sjson::parse_str(text).map_err(|e| format!("bad JSON: {e:?}"))
}

fn sub<'a>(v: &'a sjson::Value, name: &str) -> Result<&'a sjson::Value, String> {
    v.get(name).ok_or_else(|| format!("missing {name}"))
}

/// A scalar field as text: strings verbatim, bools as 1/0, numbers as
/// shortest round-trip decimals.
fn field(v: &sjson::Value, name: &str) -> Result<String, String> {
    match sub(v, name)? {
        sjson::Value::Str(s) => Ok(s.clone()),
        sjson::Value::Bool(b) => Ok(u8::from(*b).to_string()),
        x => x
            .as_f64()
            .map(|f| f.to_string())
            .ok_or_else(|| format!("{name} is not a scalar")),
    }
}

/// `BENCH_simprof.json`: the run header (`period`, `scale`, `engine`:
/// exact, so runs under other settings are rejected) and per
/// (workload, interposer) row `instructions` and `samples` in a ±10% band
/// and `dropped_events` = 0.
pub fn simprof_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = json(text)?;
    let mut rows = Vec::new();
    for metric in ["period", "scale", "engine"] {
        rows.push(row("run", metric, field(&doc, metric)?, Check::Exact));
    }
    for r in sub(&doc, "rows")?
        .as_array()
        .ok_or("rows is not an array")?
    {
        let key = format!("{}/{}", field(r, "workload")?, field(r, "interposer")?);
        for (metric, check) in [
            ("instructions", Check::Band(PROF_BAND)),
            ("samples", Check::Band(PROF_BAND)),
            ("dropped_events", Check::Criterion(0.0, 0.0)),
        ] {
            rows.push(row(key.clone(), metric, field(r, metric)?, check));
        }
    }
    Ok(rows)
}

/// `BENCH_simperf.json`: the guest's `iterations` and `instructions`
/// (exact), block and trace `inst_per_sec` (floor 50%), the snapshot's
/// `dropped_events` = 0 and `determinism.identical` = true. The stepwise
/// `before` row is informational: it moves with host load and says
/// nothing about the engines gated here.
pub fn simperf_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = json(text)?;
    let guest = field(&doc, "guest")?;
    let mut rows = Vec::new();
    // (key, whether the metric sits in the key's own object, metric, check)
    for (key, nested, metric, check) in [
        (guest.as_str(), false, "iterations", Check::Exact),
        (&guest, false, "instructions", Check::Exact),
        ("determinism", true, "identical", Check::Criterion(1.0, 1.0)),
        ("obs", true, "dropped_events", Check::Criterion(0.0, 0.0)),
    ] {
        let obj = if nested { sub(&doc, key)? } else { &doc };
        rows.push(row(key, metric, field(obj, metric)?, check));
    }
    for engine in ["block", "after"] {
        let e = sub(&doc, engine)?;
        let (label, ips) = (field(e, "engine")?, field(e, "inst_per_sec")?);
        rows.push(row(label, "inst_per_sec", ips, Check::Floor(PERF_FLOOR)));
    }
    Ok(rows)
}

/// `MATRIX_simaudit.txt`: every (mechanism, workload) cell's
/// `coverage_permille` may not fall (floor 0%).
pub fn simaudit_rows(text: &str) -> Result<Vec<Row>, String> {
    let pct = |s: &str| -> Option<u64> {
        let (whole, tenth) = s.strip_suffix('%')?.split_once('.')?;
        Some(whole.parse::<u64>().ok()? * 10 + tenth.parse::<u64>().ok()?)
    };
    let cell = |line: &str| {
        let f: Vec<&str> = line.split_whitespace().collect();
        let permille = pct(f.get(3)?).filter(|_| f.len() >= 8)?;
        let key = format!("{}/{}", f[0], f[1]);
        Some(row(key, "coverage_permille", permille, Check::Floor(0.0)))
    };
    Ok(text.lines().filter_map(cell).collect())
}

/// `BENCH_scale.json`: the epoll K23-default `throughput_per_gcycle` at
/// the lowest connection count (floor 20%) and, in a sweep (a document
/// with poll cells), the epoll/poll throughput ratio under K23-default at
/// the top connection count (criterion ≥ 5). The gate's one-cell
/// re-measurement carries just the floor row.
pub fn scale_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = json(text)?;
    let cells = sub(&doc, "cells")?
        .as_array()
        .ok_or("cells is not an array")?;
    let conns: Vec<u64> = sub(&doc, "conn_counts")?
        .as_array()
        .ok_or("conn_counts is not an array")?
        .iter()
        .filter_map(|c| c.as_u64())
        .collect();
    let (Some(&min), Some(&max)) = (conns.iter().min(), conns.iter().max()) else {
        return Err("conn_counts is empty".into());
    };
    let k23 = Config::K23Default.label();
    let throughput = |variant: &str, conns: u64| {
        cells
            .iter()
            .find_map(|c| {
                (c.get("variant")?.as_str()? == variant
                    && c.get("config")?.as_str()? == k23
                    && c.get("conns")?.as_u64()? == conns)
                    .then(|| c.get("throughput_per_gcycle")?.as_f64())?
            })
            .ok_or(format!("no {variant} {k23} cell at c={conns}"))
    };
    let (key, floor) = (format!("epoll/{k23} c={min}"), throughput("epoll", min)?);
    let mut rows = vec![row(
        key,
        "throughput_per_gcycle",
        floor,
        Check::Floor(SCALE_FLOOR),
    )];
    let poll = sjson::Value::Str("poll".into());
    if cells.iter().any(|c| c.get("variant") == Some(&poll)) {
        let ratio = throughput("epoll", max)? / throughput("poll", max)?;
        let criterion = Check::Criterion(SCALE_CRITERION, f64::INFINITY);
        rows.push(row(
            format!("{k23} c={max}"),
            "epoll_over_poll",
            ratio,
            criterion,
        ));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{render_audit_matrix, AuditRow};
    use sim_kernel::{ProcAudit, Signature};

    const SIMPROF: &str = include_str!("../../../BENCH_simprof.json");
    const SIMPERF: &str = include_str!("../../../BENCH_simperf.json");
    const SIMAUDIT: &str = include_str!("../../../MATRIX_simaudit.txt");
    const SCALE: &str = include_str!("../../../BENCH_scale.json");

    fn one(value: &str, check: Check) -> Vec<Row> {
        vec![row("k", "m", value, check)]
    }

    fn passes(check: Check, baseline: &str, observed: &str) -> bool {
        gate(&one(baseline, check), &one(observed, check)).is_empty()
    }

    /// `text` with the number after the first `field` at or past `at`
    /// multiplied by `factor`.
    fn bump(text: &str, at: usize, field: &str, factor: f64) -> String {
        let start = at + text[at..].find(field).expect("field") + field.len();
        let len = text[start..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .expect("number end");
        let old: f64 = text[start..start + len].parse().expect("number");
        format!("{}{}{}", &text[..start], old * factor, &text[start + len..])
    }

    /// Gating `text` against itself passes; gating it against `perturbed`
    /// fails on exactly the `key metric` row.
    fn assert_gates(text: &str, extract: Extract, perturbed: &str, key: &str, metric: &str) {
        let committed = extract(text).unwrap();
        assert!(!committed.is_empty());
        assert_eq!(gate(&committed, &committed), Vec::<String>::new());
        let v = gate(&committed, &extract(perturbed).unwrap());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with(&format!("{key} {metric}: baseline ")),
            "{v:?}"
        );
    }

    #[test]
    fn each_check_passes_at_its_bound_and_fails_just_past_it() {
        assert!(passes(Check::Band(0.1), "1000", "1100"));
        assert!(passes(Check::Band(0.1), "1000", "900"));
        assert!(!passes(Check::Band(0.1), "1000", "1101"));
        assert!(!passes(Check::Band(0.1), "1000", "899"));
        assert!(passes(Check::Floor(0.5), "1000", "500"));
        assert!(passes(Check::Floor(0.5), "1000", "1000000"));
        assert!(!passes(Check::Floor(0.5), "1000", "499.9"));
        assert!(passes(Check::Floor(0.0), "970", "970"));
        assert!(!passes(Check::Floor(0.0), "970", "969"));
        assert!(passes(Check::Exact, "block", "block"));
        assert!(!passes(Check::Exact, "block", "trace"));
        assert!(!passes(Check::Exact, "64", "32"));
        // A criterion judges the committed row itself, re-measured or not.
        let five = Check::Criterion(5.0, f64::INFINITY);
        assert!(gate(&one("5", five), &[]).is_empty());
        assert!(!gate(&one("4.999", five), &[]).is_empty());
        assert!(gate(&one("0", Check::Criterion(0.0, 0.0)), &[]).is_empty());
        assert!(!gate(&one("1", Check::Criterion(0.0, 0.0)), &[]).is_empty());
    }

    #[test]
    fn missing_committed_row_fails_and_new_fresh_row_passes() {
        let base = one("10", Check::Exact);
        let v = gate(&base, &[]);
        assert_eq!(
            v,
            ["k m: baseline 10, observed missing, delta n/a, bound exact"]
        );
        let mut fresh = base.clone();
        fresh.push(row("new", "m", "3", Check::Band(0.1)));
        assert!(gate(&base, &fresh).is_empty());
        // ... unless the new row breaks its own criterion.
        fresh.push(row(
            "obs",
            "dropped_events",
            "3",
            Check::Criterion(0.0, 0.0),
        ));
        let v = gate(&base, &fresh);
        assert_eq!(
            v,
            ["obs dropped_events: baseline -, observed 3, delta +3, bound criterion [0, 0] on the fresh row"]
        );
    }

    #[test]
    fn every_violation_is_listed_with_baseline_observed_delta_and_bound() {
        let base = vec![
            row("server/k23", "instructions", "1000", Check::Band(0.1)),
            row("server/k23", "samples", "50", Check::Band(0.1)),
            row("trace", "inst_per_sec", "1000.5", Check::Floor(0.5)),
        ];
        let fresh = vec![
            row("server/k23", "instructions", "1200", Check::Band(0.1)),
            row("server/k23", "samples", "50", Check::Band(0.1)),
            row("trace", "inst_per_sec", "250", Check::Floor(0.5)),
        ];
        assert_eq!(
            gate(&base, &fresh),
            [
                "server/k23 instructions: baseline 1000, observed 1200, delta +200 (+20.0%), bound band ±10% of baseline",
                "trace inst_per_sec: baseline 1000.5, observed 250, delta -750.5 (-75.0%), bound floor 50% below baseline",
            ]
        );
    }

    #[test]
    fn simprof_extractor_gates_the_committed_baseline() {
        let at = SIMPROF
            .find(r#""workload": "server", "interposer": "k23""#)
            .unwrap();
        let drifted = bump(SIMPROF, at, r#""instructions": "#, 1.5);
        assert_gates(
            SIMPROF,
            simprof_rows,
            &drifted,
            "server/k23",
            "instructions",
        );
        let lossy = SIMPROF.replacen(r#""dropped_events": 0}"#, r#""dropped_events": 7}"#, 1);
        assert_gates(
            SIMPROF,
            simprof_rows,
            &lossy,
            "coreutil/native",
            "dropped_events",
        );
    }

    #[test]
    fn simprof_gate_rejects_a_run_under_another_period() {
        let period32 = bump(SIMPROF, 0, r#""period": "#, 0.5);
        assert_gates(SIMPROF, simprof_rows, &period32, "run", "period");
        let v = gate(
            &simprof_rows(SIMPROF).unwrap(),
            &simprof_rows(&period32).unwrap(),
        );
        assert_eq!(
            v,
            ["run period: baseline 64, observed 32, delta -32 (-50.0%), bound exact"]
        );
    }

    #[test]
    fn simperf_extractor_gates_the_committed_baseline() {
        let at = SIMPERF.find(r#""block": {"#).unwrap();
        let slow = bump(SIMPERF, at, r#""inst_per_sec": "#, 0.4);
        assert_gates(
            SIMPERF,
            simperf_rows,
            &slow,
            "run_block+page-runs+tlb",
            "inst_per_sec",
        );
        // The stepwise row is informational.
        let at = SIMPERF.find(r#""before": {"#).unwrap();
        let stepwise_slow = bump(SIMPERF, at, r#""inst_per_sec": "#, 0.1);
        assert!(gate(
            &simperf_rows(SIMPERF).unwrap(),
            &simperf_rows(&stepwise_slow).unwrap()
        )
        .is_empty());
        let nondeterministic = SIMPERF.replacen(r#""identical": true"#, r#""identical": false"#, 1);
        assert_gates(
            SIMPERF,
            simperf_rows,
            &nondeterministic,
            "determinism",
            "identical",
        );
    }

    #[test]
    fn simperf_gate_rejects_a_run_at_another_iteration_count() {
        let half = bump(SIMPERF, 0, r#""iterations": "#, 0.5);
        assert_gates(
            SIMPERF,
            simperf_rows,
            &half,
            "/usr/bin/microbench",
            "iterations",
        );
    }

    #[test]
    fn simaudit_extractor_gates_committed_and_rendered_matrices() {
        let rendered = render_audit_matrix(
            &[
                AuditRow {
                    spec: "zpoline".into(),
                    workload: "coreutil",
                    totals: {
                        let mut t = ProcAudit {
                            interposed_path: 97,
                            ..ProcAudit::default()
                        };
                        t.bypassed.insert(Signature::PreInit, 3);
                        t
                    },
                    procs: 1,
                },
                AuditRow {
                    spec: "native".into(),
                    workload: "server",
                    totals: {
                        let mut t = ProcAudit::default();
                        t.bypassed.insert(Signature::Uncovered, 50);
                        t
                    },
                    procs: 2,
                },
            ],
            "nginx (1 worker, 0 KB)",
        );
        assert!(rendered.contains("P2b-preinit=3"));
        assert!(rendered.contains("uncovered=50"));
        assert!(rendered.contains("signatures:"));
        let cells: Vec<(String, String)> = simaudit_rows(&rendered)
            .unwrap()
            .into_iter()
            .map(|r| (r.key, r.value))
            .collect();
        assert_eq!(
            cells,
            [
                ("zpoline/coreutil".into(), "970".into()),
                ("native/server".into(), "0".into())
            ]
        );
        for (text, cell) in [
            (SIMAUDIT, "sud/coreutil"),
            (rendered.as_str(), "zpoline/coreutil"),
        ] {
            let lowered: Vec<String> = text
                .lines()
                .map(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    match f.len() >= 8 && format!("{}/{}", f[0], f[1]) == cell {
                        true => l.replacen(f[3], "0.0%", 1),
                        false => l.to_string(),
                    }
                })
                .collect();
            assert_gates(
                text,
                simaudit_rows,
                &lowered.join("\n"),
                cell,
                "coverage_permille",
            );
        }
    }

    #[test]
    fn scale_extractor_gates_the_committed_baseline() {
        let at = SCALE.find(r#""config": "K23-default""#).unwrap();
        let slow = bump(SCALE, at, r#""throughput_per_gcycle": "#, 0.5);
        assert_gates(
            SCALE,
            scale_rows,
            &slow,
            "epoll/K23-default c=100",
            "throughput_per_gcycle",
        );
        // The committed criterion: the last K23-default cell is poll at the
        // top connection count; lifting it breaks epoll ≥ 5× poll.
        let at = SCALE.rfind(r#""config": "K23-default""#).unwrap();
        let flat = scale_rows(&bump(SCALE, at, r#""throughput_per_gcycle": "#, 1000.0)).unwrap();
        let v = gate(&flat, &scale_rows(SCALE).unwrap());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with("K23-default c=10000 epoll_over_poll: baseline "),
            "{v:?}"
        );
        assert!(
            v[0].ends_with("bound criterion [5, inf] on the committed row"),
            "{v:?}"
        );
    }
}
