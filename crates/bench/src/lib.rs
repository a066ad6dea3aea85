//! # bench — regenerating every table and figure of the paper
//!
//! Binaries (`cargo run -p bench --release --bin <name>`):
//!
//! | bin | reproduces |
//! |---|---|
//! | `table2` | unique offline-logged syscall sites per application |
//! | `table3` | the pitfall matrix |
//! | `table5` | microbenchmark overheads vs native |
//! | `table6` | macrobenchmark relative throughput |
//! | `fig1`   | instruction misidentification demo |
//! | `fig2`   | offline-phase walkthrough |
//! | `fig3`   | the `ls` offline log |
//! | `fig4`   | online-phase walkthrough |
//! | `all`    | everything above, in order |
//!
//! Diagnostics binaries (`simtrace`, `simperf`, `simprof`, `simfault`,
//! `simstack`, `simrecord`, `simaudit`) live alongside; `simaudit`
//! regenerates the committed `MATRIX_simaudit.txt` coverage ledger.
//!
//! Scale with `K23_BENCH_SCALE` (default 10; 1 = full size, larger =
//! faster). The committed baselines are gated by [`report::gate`].

pub mod audit;
pub mod config;
pub mod figures;
pub mod macros_;
pub mod micro;
pub mod report;
pub mod scale;
pub mod table2;

pub use config::Config;

/// Parses a `K23_BENCH_SCALE` value: unset means 10, and anything but a
/// positive integer is rejected.
pub fn parse_scale(raw: Option<&str>) -> Result<u64, String> {
    let Some(v) = raw else { return Ok(10) };
    let bad = || format!("K23_BENCH_SCALE={v:?} is not a positive integer");
    v.parse().ok().filter(|s| *s > 0).ok_or_else(bad)
}

/// Reads the scale divisor from `K23_BENCH_SCALE` (default 10). Exits
/// with an error naming the variable and its value when it is not a
/// positive integer.
pub fn scale() -> u64 {
    let raw = std::env::var_os("K23_BENCH_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(raw.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The engine configuration named by a bench binary's `--engine` flag.
pub fn engine_cfg(engine: &str) -> Result<sim_kernel::EngineConfig, String> {
    use sim_kernel::EngineConfig;
    match engine {
        "block" => Ok(EngineConfig::new()),
        "stepwise" => Ok(EngineConfig::stepwise()),
        "trace" => Ok(EngineConfig::traced()),
        other => Err(format!("unknown engine {other:?} (block|stepwise|trace)")),
    }
}

/// Resolves a registry spec to its interposer and whether it needs the
/// K23 offline phase.
pub fn make_interposer(name: &str) -> Result<(Box<dyn interpose::Interposer>, bool), String> {
    pitfalls::register_all();
    let ip = interpose::by_name_spec(name).map_err(|e| e.to_string())?;
    Ok((ip, name.starts_with("k23")))
}

/// Formats a ratio like the paper's Table 5 ("1.2788x").
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.4}x")
}

/// Formats a relative-throughput percentage like Table 6 ("98.62").
pub fn fmt_rel(r: f64) -> String {
    format!("{:.2}", r * 100.0)
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn bench_scale_rejects_values_it_cannot_honour() {
        assert_eq!(parse_scale(None), Ok(10));
        assert_eq!(parse_scale(Some("1")), Ok(1));
        assert_eq!(parse_scale(Some("20")), Ok(20));
        for bad in ["0", "", "ten", "-3", "2.5"] {
            let e = parse_scale(Some(bad)).unwrap_err();
            assert!(e.contains("K23_BENCH_SCALE"), "{e}");
            assert!(e.contains(&format!("{bad:?}")), "{e}");
        }
    }
}
