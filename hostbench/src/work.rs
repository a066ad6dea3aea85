//! The four workloads and their cell runners.
//!
//! Every runner calls the simulator's public functions in the same order
//! as the repository's own harness (`bench::macros_` for Table 6 and
//! sqlite, `bench::scale::run_cell` for connection scale), so the guest
//! does exactly what it does there. The runners are written out here,
//! not called whole, so that each layer boundary can carry a span.

use bench::scale::full_params;
use bench::Config;
use interpose::Interposer;
use k23::OfflineSession;
use sim_fault::FaultPlan;
use sim_kernel::{EngineConfig, Kernel, RunExit, Vfs};
use sim_loader::{boot_kernel, boot_kernel_from};
use sim_obs::ObsConfig;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::meter::Meter;

/// Cycle budget of one kernel run (the value `bench::macros_` uses).
const BUDGET: u64 = 40_000_000_000_000;
/// Chunk length of the connection-scale run loop (as `apps::run_scale`).
const SCALE_CHUNK: u64 = 2_000_000;
/// Event-ring capacity of connection-scale cells (as `bench::scale`).
const SCALE_RING_CAP: usize = 1 << 18;
/// Event-ring capacity everywhere else sim-obs is armed.
const RING_CAP: usize = 1 << 16;
/// The repository's default bench scale divisor, fixed here so the
/// environment cannot change the workload.
const BENCH_SCALE: u64 = 10;
/// Profiler sample period of the instrumented workload.
const PROF_PERIOD: u64 = 64;

/// Number of distinct ASLR streams the workload seed selects among.
pub const ASLR_CLASSES: u64 = 8;

/// Seeds a freshly booted kernel. `Kernel::seed` is a plain field that
/// the kernel's generator never reads back, so the benchmark also
/// advances the generator, which draws every ASLR slide, by
/// `seed % ASLR_CLASSES` steps. K23's hash-set NULL check probes slots
/// hashed from absolute addresses, so the K23-ultra cells' guest cycles
/// depend on the slide; outcomes are stored per class.
fn seed_kernel(k: &mut Kernel, seed: u64) {
    k.seed = seed;
    for _ in 0..seed % ASLR_CLASSES {
        k.next_random();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table6,
    Sqlite,
    Connscale,
    Instrumented,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table6,
        Workload::Sqlite,
        Workload::Connscale,
        Workload::Instrumented,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table6 => "table6",
            Workload::Sqlite => "sqlite",
            Workload::Connscale => "connscale",
            Workload::Instrumented => "instrumented",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// True when every cell runs with sim-obs armed, as the repository's
    /// own harness runs it; the other workloads arm it only in the
    /// counting pass.
    pub fn obs_armed(self) -> bool {
        matches!(self, Workload::Connscale | Workload::Instrumented)
    }
}

/// What a cell runs.
#[derive(Debug, Clone)]
enum Job {
    /// A Table 6 client/server row, driven like `apps::run_macro`.
    Macro(apps::MacroSpec),
    /// The sqlite completion row, driven like `apps::run_sqlite`.
    Sqlite(Vec<u8>),
    /// A connection-scale row, driven like `apps::run_scale`.
    Scale(apps::MacroSpec),
}

/// One (row, configuration) cell of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    job: Job,
    config: Config,
    /// Key of the row's K23 offline log in [`Setup::logs`].
    log_key: String,
}

/// The simulated outcome of a cell, stored with the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Load-phase guest cycles (sqlite: spawn to exit).
    pub cycles: u64,
    /// Requests completed (sqlite: operations of the completed run).
    pub requests: u64,
    /// Exit status of the client (sqlite: of sqlite itself).
    pub exit: i64,
}

/// Exact per-cell counts, read from sim-obs and the kernel sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub guest_cycles: u64,
    pub syscalls: u64,
    pub ctx_switches: u64,
    pub sigsys: u64,
    pub icache_decodes: u64,
    pub icache_reused: u64,
    pub tlb_hits: u64,
    pub tlb_fills: u64,
    pub trace_forms: u64,
    pub events: u64,
    pub dropped: u64,
    pub recs: u64,
    pub samples: u64,
    pub audit_covered: u64,
    pub audit_total: u64,
    /// FNV-1a over every recorded event (connection scale only).
    pub digest: u64,
    /// Client response-latency percentiles (connection scale only).
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
}

/// Where a cell's load phase began: the (first) client and the clock.
struct LoadStart {
    client: sim_kernel::Pid,
    t0: u64,
}

/// Result of one cell run.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub outcome: Outcome,
    /// Present when sim-obs was armed.
    pub counts: Option<Counts>,
}

/// One-time state every cell reads: the world template (connection
/// scale only) and the K23 offline logs.
pub struct Setup {
    template: Option<Vfs>,
    pub logs: BTreeMap<String, (String, Vec<u8>)>,
}

fn configs(w: Workload) -> Vec<Config> {
    match w {
        Workload::Table6 | Workload::Sqlite => {
            let mut v = vec![Config::Native];
            v.extend(Config::TABLE6);
            v
        }
        Workload::Connscale | Workload::Instrumented => {
            vec![Config::Native, Config::K23Default, Config::Sud]
        }
    }
}

fn scale_specs() -> Vec<apps::MacroSpec> {
    let p = full_params(BENCH_SCALE);
    [(true, 10_000), (false, 1_000)]
        .into_iter()
        .map(|(epoll, conns)| {
            apps::scale_spec(
                epoll,
                p.workers,
                conns,
                p.active.min(conns),
                p.requests,
                p.resp64,
                p.server_work,
                false,
            )
        })
        .collect()
}

/// The workload's rows as (log key, job).
fn rows(w: Workload) -> Vec<(String, Job)> {
    let sqlite = (
        "sqlite".to_string(),
        Job::Sqlite(apps::sqlite_cfg(BENCH_SCALE)),
    );
    match w {
        Workload::Table6 => apps::table6_specs(BENCH_SCALE)
            .into_iter()
            .map(|s| (s.name.clone(), Job::Macro(s)))
            .collect(),
        Workload::Sqlite => vec![sqlite],
        Workload::Connscale => scale_specs()
            .into_iter()
            .map(|s| (s.name.clone(), Job::Scale(s)))
            .collect(),
        Workload::Instrumented => {
            let nginx = apps::table6_specs(BENCH_SCALE)
                .into_iter()
                .next()
                .expect("Table 6 has rows");
            vec![sqlite, (nginx.name.clone(), Job::Macro(nginx))]
        }
    }
}

/// Every cell of `w`, rows outer and configurations inner.
pub fn cells(w: Workload) -> Vec<Cell> {
    let mut out = Vec::new();
    for (key, job) in rows(w) {
        for config in configs(w) {
            out.push(Cell {
                label: format!("{key}/{}", config.label()),
                job: job.clone(),
                config,
                log_key: key.clone(),
            });
        }
    }
    out
}

fn fresh_world(m: &mut Meter, seed: u64) -> Kernel {
    m.span("loader.world", |_| {
        let mut k = boot_kernel();
        apps::install_world(&mut k.vfs);
        seed_kernel(&mut k, seed);
        k
    })
}

fn cloned_world(m: &mut Meter, template: &Vfs, seed: u64) -> Kernel {
    m.span("loader.clone", |_| {
        let mut k = boot_kernel_from(template);
        seed_kernel(&mut k, seed);
        k
    })
}

fn read_log(k: &Kernel, app: &str) -> Result<(String, Vec<u8>), String> {
    let path = k23::SiteLog::path_for(app);
    let bytes = k
        .vfs
        .read_file(&path)
        .map_err(|e| format!("offline log {path} not written: {e:?}"))?
        .to_vec();
    Ok((path, bytes))
}

/// K23 offline phase of a Table 6 server row (`collect_offline_log`).
fn offline_macro(m: &mut Meter, k: &mut Kernel, spec: &apps::MacroSpec) -> Result<(), String> {
    apps::install_spec_config(k, spec);
    let session = OfflineSession::new(k, spec.server);
    session
        .spawn(k, &[spec.server.to_string()], &[])
        .map_err(|e| format!("offline server spawn: {e}"))?;
    let exit = m.run("k23.offline", k, BUDGET);
    if exit != RunExit::Deadlock {
        return Err(format!("offline server not parked: {exit:?}"));
    }
    for _ in 0..spec.clients {
        k.spawn(spec.client, &[], &[], None)
            .map_err(|e| format!("offline client spawn: {e}"))?;
    }
    if m.run("k23.offline", k, BUDGET) == RunExit::Budget {
        return Err("offline load out of budget".into());
    }
    session.finish(k);
    Ok(())
}

/// K23 offline phase of the sqlite row (`collect_offline_log_sqlite`).
fn offline_sqlite(m: &mut Meter, k: &mut Kernel, cfg: &[u8]) -> Result<(), String> {
    k.vfs
        .write_file("/etc/sqlite-sim.conf", cfg)
        .map_err(|e| format!("sqlite cfg: {e:?}"))?;
    let session = OfflineSession::new(k, "/usr/bin/sqlite-sim");
    session
        .spawn(k, &[], &[])
        .map_err(|e| format!("offline sqlite spawn: {e}"))?;
    let exit = m.run("k23.offline", k, BUDGET);
    if exit != RunExit::AllExited {
        return Err(format!("offline sqlite ended {exit:?}"));
    }
    session.finish(k);
    Ok(())
}

/// Chunked run until `done` holds or the client exits (the shape of
/// `apps::run_scale`'s loops). Returns whether the client has exited.
fn run_chunks(
    m: &mut Meter,
    name: &'static str,
    k: &mut Kernel,
    client: Option<sim_kernel::Pid>,
    done: impl Fn(&Kernel) -> bool,
) -> Result<bool, String> {
    let mut spent = 0u64;
    loop {
        let exit = m.run(name, k, SCALE_CHUNK);
        let client_done = client.map(|c| k.process(c).is_none_or(|p| p.exit_status.is_some()));
        if client_done == Some(true) {
            return Ok(true);
        }
        if done(k) {
            return Ok(false);
        }
        match exit {
            RunExit::Budget => {}
            other => return Err(format!("{name}: run ended {other:?} before done")),
        }
        spent += SCALE_CHUNK;
        if spent > BUDGET {
            return Err(format!("{name}: out of budget"));
        }
    }
}

fn ready_marker(spec: &apps::MacroSpec) -> &'static str {
    if spec.server.contains("epollsrv") {
        "/data/epollsrv.ready"
    } else {
        "/data/pollsrv.ready"
    }
}

/// K23 offline phase of a connection-scale server
/// (`bench::scale::collect_offline_log_scale`): 32 connections, at most
/// 64 requests.
fn offline_scale(m: &mut Meter, k: &mut Kernel, spec: &apps::MacroSpec) -> Result<(), String> {
    let p = full_params(BENCH_SCALE);
    let small = apps::scale_spec(
        spec.server.contains("epollsrv"),
        p.workers,
        32,
        p.active.min(32),
        p.requests.min(64),
        p.resp64,
        p.server_work,
        false,
    );
    apps::install_spec_config(k, &small);
    let session = OfflineSession::new(k, small.server);
    session
        .spawn(k, &[small.server.to_string()], &[])
        .map_err(|e| format!("offline server spawn: {e}"))?;
    let ready = ready_marker(&small);
    run_chunks(m, "k23.offline", k, None, |k| k.vfs.exists(ready))?;
    let cpid = k
        .spawn(small.client, &[small.client.to_string()], &[], None)
        .map_err(|e| format!("offline client spawn: {e}"))?;
    if !run_chunks(m, "k23.offline", k, Some(cpid), |_| false)? {
        return Err("offline load never finished".into());
    }
    session.finish(k);
    Ok(())
}

/// Builds the one-time state of `w`: the world template and one K23
/// offline log per row, each collected on a kernel of its own.
pub fn setup(w: Workload, m: &mut Meter, seed: u64) -> Result<Setup, String> {
    let template = (w == Workload::Connscale).then(|| {
        m.span("loader.world", |_| {
            let mut k = boot_kernel();
            apps::install_world(&mut k.vfs);
            k.vfs
        })
    });
    let mut logs = BTreeMap::new();
    for (key, job) in rows(w) {
        let mut k = match &template {
            Some(t) => cloned_world(m, t, seed),
            None => fresh_world(m, seed),
        };
        let (res, app) = m.span("k23.offline", |m| match &job {
            Job::Macro(spec) => (offline_macro(m, &mut k, spec), spec.server),
            Job::Sqlite(cfg) => (offline_sqlite(m, &mut k, cfg), "/usr/bin/sqlite-sim"),
            Job::Scale(spec) => (offline_scale(m, &mut k, spec), spec.server),
        });
        res.map_err(|e| format!("{key}: {e}"))?;
        logs.insert(key, read_log(&k, app)?);
        m.span("kernel.teardown", |_| drop(k));
    }
    Ok(Setup { template, logs })
}

/// Runs the cell's guest from install to completion on `k` and returns
/// its outcome and where its load phase began. `startup`/`load` name the
/// kernel-run spans of the two phases.
fn drive(
    m: &mut Meter,
    k: &mut Kernel,
    ip: &dyn Interposer,
    job: &Job,
    startup: &'static str,
    load: &'static str,
) -> Result<(Outcome, LoadStart), String> {
    match job {
        Job::Macro(spec) => {
            let spid = m
                .span("interpose.spawn", |_| {
                    ip.spawn(k, spec.server, &[spec.server.to_string()], &[])
                })
                .map_err(|e| format!("server spawn: {e}"))?;
            match m.run(startup, k, BUDGET) {
                RunExit::Deadlock => {}
                other => {
                    let st = k.process(spid).and_then(|p| p.exit_status);
                    return Err(format!(
                        "server start-up ended {other:?}, server exit {st:?}"
                    ));
                }
            }
            let t0 = k.clock;
            let cpids = m.span("interpose.spawn", |_| {
                (0..spec.clients)
                    .map(|_| k.spawn(spec.client, &[spec.client.to_string()], &[], None))
                    .collect::<Result<Vec<_>, i64>>()
            });
            let cpids = cpids.map_err(|e| format!("client spawn: {e}"))?;
            match m.run(load, k, BUDGET) {
                RunExit::AllExited | RunExit::Deadlock => {}
                other => return Err(format!("load phase ended {other:?}")),
            }
            let cycles = k.clock - t0;
            let mut exit = 0;
            for &c in &cpids {
                match k.process(c).and_then(|p| p.exit_status) {
                    Some(0) => {}
                    Some(st) => exit = st,
                    None => return Err(format!("client {c} unfinished")),
                }
            }
            let outcome = Outcome {
                cycles,
                requests: spec.total_requests,
                exit,
            };
            Ok((
                outcome,
                LoadStart {
                    client: cpids[0],
                    t0,
                },
            ))
        }
        Job::Sqlite(cfg) => {
            let t0 = k.clock;
            let pid = m
                .span("interpose.spawn", |_| {
                    ip.spawn(k, "/usr/bin/sqlite-sim", &[], &[])
                })
                .map_err(|e| format!("sqlite spawn: {e}"))?;
            match m.run(load, k, BUDGET) {
                RunExit::AllExited => {}
                other => return Err(format!("sqlite run ended {other:?}")),
            }
            let exit = k
                .process(pid)
                .and_then(|p| p.exit_status)
                .ok_or("sqlite unfinished")?;
            let outcome = Outcome {
                cycles: k.clock - t0,
                requests: u64::from(cfg[0]) | u64::from(cfg[1]) << 8,
                exit,
            };
            Ok((outcome, LoadStart { client: pid, t0 }))
        }
        Job::Scale(spec) => {
            m.span("interpose.spawn", |_| {
                ip.spawn(k, spec.server, &[spec.server.to_string()], &[])
            })
            .map_err(|e| format!("server spawn: {e}"))?;
            let ready = ready_marker(spec);
            run_chunks(m, startup, k, None, |k| k.vfs.exists(ready))?;
            let cpid = m
                .span("interpose.spawn", |_| {
                    k.spawn(spec.client, &[spec.client.to_string()], &[], None)
                })
                .map_err(|e| format!("client spawn: {e}"))?;
            let connected = |k: &Kernel| k.vfs.exists(apps::CONNECTED_MARKER);
            if !run_chunks(m, "kernel.connect", k, Some(cpid), connected)? {
                run_chunks(m, load, k, Some(cpid), |_| false)?;
            }
            let exit = k
                .process(cpid)
                .and_then(|p| p.exit_status)
                .ok_or("client unfinished")?;
            let stats = k
                .vfs
                .read_file(apps::workloads::STATS_LOG)
                .map_err(|e| format!("load-phase stamps missing: {e:?}"))?;
            let (t0, t1) = parse_stats(stats).ok_or("load-phase stamps truncated")?;
            let outcome = Outcome {
                cycles: t1 - t0,
                requests: spec.total_requests,
                exit,
            };
            Ok((outcome, LoadStart { client: cpid, t0 }))
        }
    }
}

/// The load generator's two load-phase timespecs, as cycles (the inverse
/// of the kernel's 3.2 GHz clock map, as `apps::run_scale` reads them).
fn parse_stats(bytes: &[u8]) -> Option<(u64, u64)> {
    let word = |i: usize| Some(u64::from_le_bytes(bytes.get(i..i + 8)?.try_into().ok()?));
    let cycles = |at: usize| Some(word(at)? * 3_200_000_000 + word(at + 8)? * 32 / 10);
    Some((cycles(0)?, cycles(16)?))
}

fn install_log(k: &mut Kernel, log: &(String, Vec<u8>)) -> Result<(), String> {
    let (path, bytes) = log;
    k.vfs
        .mkdir_p(k23::LOG_DIR)
        .map_err(|e| format!("log dir: {e:?}"))?;
    k.vfs
        .write_file(path, bytes)
        .map_err(|e| format!("log install: {e:?}"))?;
    k.vfs
        .set_immutable(k23::LOG_DIR, true)
        .map_err(|e| format!("log seal: {e:?}"))
}

/// Makes the cell's interposer and installs it, its offline log and the
/// row's configuration files into `k`. `engine` configures the kernel
/// once the interposer exists.
fn install(
    m: &mut Meter,
    k: &mut Kernel,
    cell: &Cell,
    setup: &Setup,
    engine: impl FnOnce(&dyn Interposer) -> Option<EngineConfig>,
) -> Result<Box<dyn Interposer>, String> {
    m.span("interpose.install", |_| {
        let ip = cell.config.make();
        if cell.config.needs_offline() {
            let log = setup.logs.get(&cell.log_key).ok_or("offline log missing")?;
            install_log(k, log)?;
        }
        if let Some(cfg) = engine(ip.as_ref()) {
            k.configure(cfg);
        }
        ip.install(k);
        match &cell.job {
            Job::Macro(spec) | Job::Scale(spec) => apps::install_spec_config(k, spec),
            Job::Sqlite(cfg) => k
                .vfs
                .write_file("/etc/sqlite-sim.conf", cfg)
                .map_err(|e| format!("sqlite cfg: {e:?}"))?,
        }
        Ok(ip)
    })
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Stops sim-obs and copies its counters into `c` (the harvest).
fn harvest(m: &mut Meter, c: &mut Counts) -> Result<Box<sim_obs::Recorder>, String> {
    m.span("obs.harvest", |_| {
        let rec = sim_obs::disable().ok_or("sim-obs recorder missing")?;
        let n = &rec.counters;
        c.syscalls = n.syscalls;
        c.ctx_switches = n.ctx_switches;
        c.sigsys = n.sigsys;
        c.icache_decodes = n.icache_decodes;
        c.icache_reused = n.icache_fresh_hits + n.icache_revalidations;
        c.tlb_hits = n.tlb_hits;
        c.tlb_fills = n.tlb_fills;
        c.trace_forms = n.trace_forms;
        c.events = rec.total_events();
        c.dropped = rec.total_dropped();
        c.samples = rec.samples.len() as u64;
        Ok(rec)
    })
}

/// Event digest and client latency percentiles of a connection-scale
/// cell, computed as `bench::scale::run_cell` computes them.
fn scale_post(m: &mut Meter, rec: &sim_obs::Recorder, start: &LoadStart, c: &mut Counts) {
    m.span("bench.post", |_| {
        let mut lat = Vec::new();
        let mut digest = 0u64;
        for ((pid, _), ring) in &rec.rings {
            for ev in &ring.events {
                let mut h = fnv1a(0, &ev.clock.to_le_bytes());
                h = fnv1a(h, &ev.pid.to_le_bytes());
                h = fnv1a(h, &ev.tid.to_le_bytes());
                h = fnv1a(h, &ev.seq.to_le_bytes());
                h = fnv1a(h, format!("{:?}", ev.kind).as_bytes());
                digest = fnv1a(digest, &h.to_le_bytes());
                // Only the client's load-phase response reads count.
                if *pid == start.client && ev.clock >= start.t0 {
                    if let sim_obs::EventKind::SyscallExit {
                        name: "read",
                        ret,
                        latency,
                        ..
                    } = ev.kind
                    {
                        if (ret as i64) > 0 {
                            lat.push(latency);
                        }
                    }
                }
            }
        }
        lat.sort_unstable();
        c.digest = digest;
        c.p50 = percentile(&lat, 0.50);
        c.p99 = percentile(&lat, 0.99);
        c.p999 = percentile(&lat, 0.999);
    });
}

/// Runs one cell. `count` arms sim-obs for the counting pass; workloads
/// that run with sim-obs armed always have it on.
pub fn run_cell(
    m: &mut Meter,
    w: Workload,
    cell: &Cell,
    setup: &Setup,
    seed: u64,
    count: bool,
) -> Result<CellRun, String> {
    let obs = count || w.obs_armed();
    let mut k = match &setup.template {
        Some(t) => cloned_world(m, t, seed),
        None => fresh_world(m, seed),
    };
    if obs {
        let ring_capacity = if w == Workload::Connscale {
            SCALE_RING_CAP
        } else {
            RING_CAP
        };
        sim_obs::enable(ObsConfig {
            ring_capacity,
            micro_events: false,
            audit_events: false,
        });
    }
    let instrumented = w == Workload::Instrumented;
    let ip = install(m, &mut k, cell, setup, |ip| {
        instrumented.then(|| {
            EngineConfig::new()
                .profile(PROF_PERIOD)
                .audit(ip.coverage())
                .record()
                .fault(FaultPlan::zero(seed))
        })
    })?;
    let (outcome, start) = drive(
        m,
        &mut k,
        ip.as_ref(),
        &cell.job,
        "kernel.startup",
        "kernel.load",
    )?;
    let mut counts = None;
    let mut log = None;
    if obs {
        let mut c = Counts::default();
        let rec = harvest(m, &mut c)?;
        if w == Workload::Connscale {
            scale_post(m, &rec, &start, &mut c);
        }
        if instrumented {
            let recs = m.span("bench.post", |_| {
                let ledger = k.audit_ledger().map(|l| l.totals()).unwrap_or_default();
                c.audit_covered = ledger.covered();
                c.audit_total = ledger.total();
                k.take_recording()
            });
            c.recs = recs.len() as u64;
            log = Some(recs);
        }
        counts = Some(c);
    }
    m.span("kernel.teardown", |_| drop(k));
    if let Some(log) = log {
        replay(m, cell, setup, seed, log, outcome)?;
    }
    if let Some(c) = counts.as_mut() {
        c.guest_cycles = m.run_cycles;
    }
    Ok(CellRun { outcome, counts })
}

/// Re-runs an instrumented cell under `replay_verify` against the log of
/// its recording pass; it must finish with no divergence, consume the
/// whole log and reach the same outcome.
fn replay(
    m: &mut Meter,
    cell: &Cell,
    setup: &Setup,
    seed: u64,
    log: Vec<sim_record::Rec>,
    recorded: Outcome,
) -> Result<(), String> {
    let n = log.len();
    let mut k = fresh_world(m, seed);
    let log = Rc::new(log);
    let ip = install(m, &mut k, cell, setup, |_| {
        Some(
            EngineConfig::new()
                .fault(FaultPlan::zero(seed))
                .replay_verify(log),
        )
    })?;
    let (outcome, _) = drive(
        m,
        &mut k,
        ip.as_ref(),
        &cell.job,
        "record.replay",
        "record.replay",
    )?;
    let verdict = if let Some(d) = k.record_divergence() {
        Err(format!("replay diverged: {d:?}"))
    } else if k.record_cursor() != n {
        Err(format!(
            "replay consumed {} of {n} records",
            k.record_cursor()
        ))
    } else if outcome != recorded {
        Err(format!(
            "replay outcome {outcome:?} != recorded {recorded:?}"
        ))
    } else {
        Ok(())
    };
    m.span("kernel.teardown", |_| drop(k));
    verdict
}
