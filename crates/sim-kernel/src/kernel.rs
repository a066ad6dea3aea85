//! The kernel: scheduler, trap handling, signal delivery, SUD, ptrace stops,
//! and process lifecycle. Syscall implementations live in the private
//! `sys` module.

use crate::config::{Engine, EngineConfig, FaultSession, ProfSession};
use crate::net::Net;
use crate::nr;
use crate::process::{
    FdEntry, Pid, Process, ReadySource, SeccompAction, SigAction, Thread, ThreadState, Tid, Wait,
    PROF_MAX_FRAMES, PROF_SCAN_SLOTS,
};
use crate::ptrace_if::{Stop, TraceOpts, Tracer, TracerAction};
use crate::record::{
    inject_passthrough, BoundaryAction, Checkpoint, PageSnap, RecordModeKind, RecordSession,
};
use crate::signal::{self, SigInfo};
use crate::vfs::Vfs;
use sim_cpu::{BlockExit, CostModel, Cpu, HookAction, IcacheMode, Step, StepEvent};
use sim_fault::{FaultKind, FaultPlan, PermFlip};
use sim_record::{Divergence, Rec};
use sim_isa::Reg;
use sim_mem::{AddressSpace, MemMode, Perms, PAGE_SIZE};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// The mapped-region name containing `site`, resolved through the
/// per-process `(site, mapping generation)` memo: the linear mapping walk
/// and the name allocation happen once per site and mapping generation,
/// not once per syscall.
fn memo_region<'a>(
    region_cache: &'a mut sim_cpu::FastMap<u64, (u64, String)>,
    space: &AddressSpace,
    site: u64,
) -> &'a String {
    let gen = space.generation();
    if !matches!(region_cache.get(&site), Some((g, _)) if *g == gen) {
        let name = space
            .mapping_at(site)
            .map(|m| m.name.clone())
            .unwrap_or_else(|| "?".to_string());
        region_cache.insert(site, (gen, name));
    }
    &region_cache[&site].1
}

/// Counts `count` executions of syscall `nr_` issued from `site` into
/// the process statistics. The one statistics update of every kernel
/// entry path: the full walk and the direct path count one call, the
/// hot loop a batched run (see [`StatsBatch`]).
fn flush_syscall_stats(
    stats: &mut crate::process::ProcStats,
    region_cache: &mut sim_cpu::FastMap<u64, (u64, String)>,
    space: &AddressSpace,
    interposer_live: bool,
    nr_: u64,
    site: u64,
    count: u64,
) {
    stats.syscalls += count;
    *stats.per_syscall.entry(nr_).or_insert(0) += count;
    let region = memo_region(region_cache, space, site);
    match stats.syscalls_via.get_mut(region.as_str()) {
        Some(c) => *c += count,
        None => {
            stats.syscalls_via.insert(region.clone(), count);
        }
    }
    *stats.per_site.entry(site).or_insert(0) += count;
    if !interposer_live {
        stats.syscalls_before_interposer += count;
    }
}

/// The hot loop's pending syscall-statistics run: `count` occurrences of
/// syscall `nr` issued from `site`, not yet folded into `ProcStats`. The
/// stress loops the hot loop serves issue the same syscall from the same
/// site, so the fold is one memoized region lookup and five counter adds
/// per run instead of per call. Flushed before anything else can observe
/// the stats.
struct StatsBatch<'a> {
    stats: &'a mut crate::process::ProcStats,
    region_cache: &'a mut sim_cpu::FastMap<u64, (u64, String)>,
    interposer_live: bool,
    nr: u64,
    site: u64,
    count: u64,
}

impl StatsBatch<'_> {
    /// Adds one `nr_` issued from `site`, folding the pending run first
    /// when it was a different syscall or site.
    fn add(&mut self, space: &AddressSpace, nr_: u64, site: u64) {
        if self.nr != nr_ || self.site != site {
            self.flush(space);
            self.nr = nr_;
            self.site = site;
        }
        self.count += 1;
    }

    /// Folds the pending run into the statistics.
    fn flush(&mut self, space: &AddressSpace) {
        if self.count > 0 {
            let (live, nr_, site, count) = (self.interposer_live, self.nr, self.site, self.count);
            flush_syscall_stats(self.stats, self.region_cache, space, live, nr_, site, count);
            self.count = 0;
        }
    }
}

/// Services a trivial syscall at `site` in place when `cpu`'s `rax`
/// names one: a process-local call whose full-walk dispatch is a pure
/// return value with no kernel state touched beyond the statistics
/// (`SYS_NONEXISTENT` is the Table 5 stress nr). Performs the kernel
/// entry's serialization and the return's register effects; returns the
/// syscall number and the cycles to charge (entry plus service), or
/// `None` with no side effects when the call needs the full walk.
fn serve_trivial_syscall(
    cpu: &mut Cpu,
    space: &mut AddressSpace,
    cost: &CostModel,
    site: u64,
    pid: Pid,
    tid: Tid,
) -> Option<(u64, u64)> {
    let nr_ = cpu.get(Reg::Rax);
    let ret = match nr_ {
        nr::SYS_NONEXISTENT => nr::err(nr::ENOSYS),
        nr::SYS_GETPID => pid,
        nr::SYS_GETTID => tid,
        nr::SYS_GETUID => 1000,
        nr::SYS_SCHED_YIELD => 0,
        _ => return None,
    };
    // Kernel entry serializes the instruction stream (coalesced to a
    // stamp compare while nothing in the space was written).
    cpu.serialize(space);
    cpu.rip = site + 2;
    cpu.set(Reg::Rax, ret);
    cpu.apply_syscall_clobbers(site + 2);
    Some((nr_, cost.kernel_entry + crate::sys::service_cost(nr_, 0)))
}

/// The stepwise engine's execution primitive: exactly one [`Cpu::step`],
/// wrapped as a one-step [`BlockExit`] so the shared slice loop handles
/// it like a block. The CPU-level oracle itself stays untouched; this
/// adds only the per-step observations [`Cpu::run_block`] makes (the
/// `on_step` hook, the post-step obs range-span step, the vDSO count).
fn step_once(
    cpu: &mut Cpu,
    space: &mut AddressSpace,
    clock: u64,
    cost: &CostModel,
    mut on_step: impl FnMut(u64, &Step),
) -> BlockExit {
    let rip = cpu.rip;
    let step = cpu.step(space, clock, cost);
    on_step(rip, &step);
    if sim_obs::enabled() {
        sim_obs::span_step(clock + step.cycles, cpu.rip);
    }
    let vsyscall =
        step.event == StepEvent::Executed && matches!(step.inst, Some(sim_isa::Inst::Vsyscall));
    BlockExit {
        event: step.event,
        cycles: step.cycles,
        steps: 1,
        vdso_calls: u64::from(vsyscall),
        inst: step.inst,
    }
}

/// A host function invocable from guest code via an `int3` hostcall site.
pub type HostcallFn = Rc<RefCell<dyn FnMut(&mut Kernel, Pid, Tid)>>;

/// Options passed to the loader at exec time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOpts {
    /// Map a vDSO whose fast paths are replaced by real syscalls
    /// (set when an attached tracer requested vDSO disabling, §5.2).
    pub disable_vdso: bool,
    /// Seed for address space layout randomization.
    pub aslr_seed: u64,
}

/// A fully-loaded process image produced by an [`ExecLoader`].
#[derive(Debug, Clone)]
pub struct LoadedImage {
    /// The populated address space.
    pub space: AddressSpace,
    /// Initial instruction pointer (the loader's startup stub).
    pub entry: u64,
    /// Initial stack pointer.
    pub rsp: u64,
    /// Hostcall sites: (registered handler name, guest vaddr of `int3`).
    pub hostcall_sites: Vec<(String, u64)>,
    /// Global symbols: `"region:name"` → vaddr.
    pub symbols: BTreeMap<String, u64>,
    /// Base address of each loaded region (region name → base).
    pub lib_bases: BTreeMap<String, u64>,
    /// Base of the mapped vDSO (0 if absent).
    pub vdso_base: u64,
}

/// Loads executables into address spaces. Implemented by `sim-loader`;
/// defined here so the kernel does not depend on the loader crate.
pub trait ExecLoader {
    /// Builds the image for `path` with the given arguments and environment.
    ///
    /// # Errors
    ///
    /// Returns a negative errno (e.g. `-ENOENT`) on failure.
    fn load(
        &self,
        vfs: &mut Vfs,
        path: &str,
        argv: &[String],
        env: &[String],
        opts: &ExecOpts,
    ) -> Result<LoadedImage, i64>;
}

struct TracerSlot {
    tracer: Rc<RefCell<dyn Tracer>>,
    opts: TraceOpts,
}

/// Why [`Kernel::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every process exited.
    AllExited,
    /// Runnable work exists but the cycle budget was exhausted.
    Budget,
    /// No thread can make progress (all blocked with no wake source).
    Deadlock,
    /// The record/replay session halted the run: a [`Kernel::run_to_retired`]
    /// target was reached, a verifying replay found a divergence, or an
    /// injecting replay exhausted its log.
    Stop,
}

/// A pending deferred byte write — models the visibility window of a
/// non-atomic multi-byte code rewrite (pitfall P5).
#[derive(Debug, Clone, Copy)]
struct DeferredWrite {
    due: u64,
    pid: Pid,
    addr: u64,
    byte: u8,
}

/// One record of the instruction-level execution trace (see
/// [`Kernel::start_exec_trace`]): which thread stepped, where, what
/// happened, and the global clock after the step was charged. Used by the
/// determinism regression tests to prove the block-based scheduler fast
/// path is cycle- and event-identical to the stepwise engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Process that executed.
    pub pid: Pid,
    /// Thread that executed.
    pub tid: Tid,
    /// `rip` before the step.
    pub rip: u64,
    /// Global clock after the step's cycles were charged.
    pub clock: u64,
    /// The step's outcome.
    pub event: StepEvent,
}

/// The simulated kernel.
pub struct Kernel {
    /// Cycle cost model.
    pub cost: CostModel,
    /// Global cycle clock.
    pub clock: u64,
    /// The filesystem.
    pub vfs: Vfs,
    /// Loopback networking state.
    pub net: Net,
    procs: BTreeMap<Pid, Process>,
    next_pid: Pid,
    next_tid: Tid,
    tracers: HashMap<Pid, TracerSlot>,
    hostcall_impls: HashMap<String, HostcallFn>,
    hostcall_sites: HashMap<(Pid, u64), String>,
    loader: Option<Rc<dyn ExecLoader>>,
    deferred: Vec<DeferredWrite>,
    /// Optional strace-style log of executed syscalls.
    pub trace_log: Option<Vec<String>>,
    /// Deterministic seed for `getrandom` and ASLR.
    pub seed: u64,
    rng_state: u64,
    /// Cycles consumed attributed per thread (wall-clock estimation for
    /// multi-worker workloads).
    pub thread_cycles: sim_cpu::FastMap<(Pid, Tid), u64>,
    current: Option<(Pid, Tid)>,
    /// Clock deadline of the current [`Kernel::run`] call; the in-slice
    /// direct-path syscall loop checks it so `RunExit::Budget` still
    /// fires at the same granularity as the scheduler loop.
    run_deadline: u64,
    /// Retired guest instructions since the last [`Kernel::configure`]:
    /// the one engine-invariant clock the fault, profiler, and record
    /// sessions key their boundaries by (see [`Kernel::retired`]).
    retired: u64,
    /// Scheduler engine (see [`EngineConfig`]).
    engine: Engine,
    /// Icache policy stamped onto each core at slice entry, derived from
    /// the engine by [`Kernel::configure`].
    icache: IcacheMode,
    /// Trace-cache knobs stamped onto each core under [`Engine::Trace`].
    trace_params: sim_cpu::TraceParams,
    /// Memory access mode stamped onto every address space.
    mem_mode: MemMode,
    /// Live fault-injection session, when configured.
    fault: Option<FaultSession>,
    /// Installed interposer stack (composed interposition), when any.
    stack: Option<crate::stack::StackSession>,
    /// Live sampling-profiler session, when configured.
    prof: Option<ProfSession>,
    /// Live record/replay session, when configured.
    record: Option<RecordSession>,
    /// Live coverage-audit session, when configured.
    audit: Option<crate::audit::AuditSession>,
    /// When `Some`, every step is recorded (both scheduler modes).
    exec_trace: Option<Vec<TraceEntry>>,
}

impl Kernel {
    /// A kernel with an empty filesystem and the default cost model.
    pub fn new() -> Kernel {
        Kernel {
            cost: CostModel::DEFAULT,
            clock: 0,
            vfs: Vfs::new(),
            net: Net::default(),
            procs: BTreeMap::new(),
            next_pid: 1,
            next_tid: 1,
            tracers: HashMap::new(),
            hostcall_impls: HashMap::new(),
            hostcall_sites: HashMap::new(),
            loader: None,
            deferred: Vec::new(),
            trace_log: None,
            seed: 0x5eed,
            rng_state: 0x5eed,
            thread_cycles: sim_cpu::FastMap::default(),
            current: None,
            run_deadline: u64::MAX,
            retired: 0,
            engine: Engine::Block,
            icache: IcacheMode::Revalidate,
            trace_params: sim_cpu::TraceParams::default(),
            mem_mode: MemMode::PageRun,
            fault: None,
            stack: None,
            prof: None,
            record: None,
            audit: None,
            exec_trace: None,
        }
    }

    /// Applies a typed engine configuration. The memory mode propagates
    /// to every existing address space; spaces created by later execs
    /// inherit it too. Configuring resets the retired clock and every
    /// session's state (occurrence counters, sample and checkpoint
    /// cursors), so configuring is the replay point.
    pub fn configure(&mut self, cfg: EngineConfig) {
        self.retired = 0;
        self.engine = cfg.engine;
        self.icache = match cfg.engine {
            Engine::Stepwise => IcacheMode::SeedFlush,
            Engine::Block | Engine::Trace => IcacheMode::Revalidate,
        };
        self.trace_params = cfg.trace;
        self.mem_mode = cfg.mem;
        self.fault = cfg.fault.map(FaultSession::new);
        self.prof = cfg.profile.map(ProfSession::new);
        self.record = cfg.record.map(RecordSession::new);
        self.audit = cfg.audit.map(crate::audit::AuditSession::new);
        if let Some(cap) = cfg.obs_ring_capacity {
            sim_obs::set_ring_capacity(cap);
        }
        // Navigation-grade recording needs written-page tracking for its
        // per-syscall write snapshots and incremental checkpoint deltas.
        let track_dirty = self
            .record
            .as_ref()
            .is_some_and(|rs| rs.mode == RecordModeKind::Record && rs.ckpt_period > 0);
        for p in self.procs.values_mut() {
            p.space.set_mem_mode(cfg.mem);
            if track_dirty {
                p.space.set_dirty_tracking(true);
            }
        }
    }

    /// Guest instructions retired since the last [`Kernel::configure`]
    /// (every step counts, including the one that enters the kernel).
    /// Engine-invariant: profiler samples, fault-plan boundaries, record
    /// logs, and checkpoints are all keyed by it, and simprof gates on it
    /// as the workload size.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The active fault-injection plan, if one was configured (replay
    /// and failure reporting).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Starts recording an instruction-level execution trace.
    pub fn start_exec_trace(&mut self) {
        self.exec_trace = Some(Vec::new());
    }

    /// Stops tracing and returns the records collected so far.
    pub fn take_exec_trace(&mut self) -> Vec<TraceEntry> {
        self.exec_trace.take().unwrap_or_default()
    }

    /// Installs the exec loader (done once at startup by `sim-loader`).
    pub fn set_loader(&mut self, loader: Rc<dyn ExecLoader>) {
        self.loader = Some(loader);
    }

    /// Registers a named hostcall implementation. Guest images declare
    /// `__host_*` symbols; at exec, matching sites are wired to these
    /// handlers.
    pub fn register_hostcall(
        &mut self,
        name: &str,
        f: impl FnMut(&mut Kernel, Pid, Tid) + 'static,
    ) {
        self.hostcall_impls
            .insert(name.to_string(), Rc::new(RefCell::new(f)));
    }

    /// Registers a hostcall site manually (outside of exec wiring).
    pub fn bind_hostcall_site(&mut self, pid: Pid, addr: u64, name: &str) {
        self.hostcall_sites.insert((pid, addr), name.to_string());
    }

    // ---- accessors --------------------------------------------------------

    /// The process with `pid`.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(&pid)
    }

    /// The process with `pid`, mutably.
    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(&pid)
    }

    /// All live pids.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// CPU state of `(pid, tid)`, mutably (hostcall/tracer use).
    pub fn cpu_mut(&mut self, pid: Pid, tid: Tid) -> Option<&mut Cpu> {
        self.procs
            .get_mut(&pid)?
            .thread_mut(tid)
            .map(|t| &mut t.cpu)
    }

    /// Charges cycles to the global clock, attributing them to the thread
    /// currently executing (if any).
    pub fn charge(&mut self, cycles: u64) {
        self.clock += cycles;
        if sim_obs::enabled() {
            sim_obs::set_clock(self.clock);
        }
        if let Some(key) = self.current {
            *self.thread_cycles.entry(key).or_insert(0) += cycles;
        }
    }

    /// Cycles attributed to one thread so far.
    pub fn cycles_of(&self, pid: Pid, tid: Tid) -> u64 {
        self.thread_cycles.get(&(pid, tid)).copied().unwrap_or(0)
    }

    /// Deterministic pseudo-random u64 (xorshift) for getrandom/ASLR.
    pub fn next_random(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    // ---- tracer-side (ptrace) operations ----------------------------------

    /// Attaches a tracer to `pid` (PTRACE_ATTACH / PTRACE_TRACEME).
    pub fn attach_tracer(&mut self, pid: Pid, tracer: Rc<RefCell<dyn Tracer>>, opts: TraceOpts) {
        self.tracers.insert(pid, TracerSlot { tracer, opts });
    }

    /// Detaches the tracer from `pid` (PTRACE_DETACH).
    pub fn detach_tracer(&mut self, pid: Pid) {
        self.tracers.remove(&pid);
    }

    /// True if `pid` is currently traced.
    pub fn is_traced(&self, pid: Pid) -> bool {
        self.tracers.contains_key(&pid)
    }

    /// Tracer memory read (charged as one ptrace round trip).
    ///
    /// # Errors
    ///
    /// `Err(())` on unmapped addresses or dead pid (like ptrace's single
    /// `ESRCH`/`EFAULT`-or-nothing contract).
    #[allow(clippy::result_unit_err)]
    pub fn tr_read(&mut self, pid: Pid, addr: u64, len: usize) -> Result<Vec<u8>, ()> {
        let obs = sim_obs::enabled();
        if obs {
            sim_obs::span_enter(self.clock, "ptrace/peek");
        }
        self.charge(self.cost.ptrace_op);
        let res = (|| {
            let p = self.procs.get_mut(&pid).ok_or(())?;
            let mut buf = vec![0u8; len];
            p.space.read_raw(addr, &mut buf).map_err(|_| ())?;
            Ok(buf)
        })();
        if obs {
            sim_obs::span_exit(self.clock);
        }
        res
    }

    /// Tracer memory write (`process_vm_writev`-style; charged).
    ///
    /// # Errors
    ///
    /// `Err(())` on unmapped addresses or dead pid.
    #[allow(clippy::result_unit_err)]
    pub fn tr_write(&mut self, pid: Pid, addr: u64, data: &[u8]) -> Result<(), ()> {
        let obs = sim_obs::enabled();
        if obs {
            sim_obs::span_enter(self.clock, "ptrace/poke");
        }
        self.charge(self.cost.ptrace_op);
        let res = match self.procs.get_mut(&pid) {
            Some(p) => p.space.write_raw(addr, data).map_err(|_| ()),
            None => Err(()),
        };
        if obs {
            sim_obs::span_exit(self.clock);
        }
        res
    }

    /// Tracer register snapshot (PTRACE_GETREGS; charged).
    pub fn tr_getregs(&mut self, pid: Pid, tid: Tid) -> Option<Cpu> {
        let obs = sim_obs::enabled();
        if obs {
            sim_obs::span_enter(self.clock, "ptrace/regs");
        }
        self.charge(self.cost.ptrace_op);
        let res = self.procs.get(&pid).and_then(|p| p.thread(tid)).map(|t| t.cpu.clone());
        if obs {
            sim_obs::span_exit(self.clock);
        }
        res
    }

    /// Tracer register write-back (PTRACE_SETREGS; charged).
    pub fn tr_setregs(&mut self, pid: Pid, tid: Tid, cpu: Cpu) {
        let obs = sim_obs::enabled();
        if obs {
            sim_obs::span_enter(self.clock, "ptrace/regs");
        }
        self.charge(self.cost.ptrace_op);
        if obs {
            sim_obs::span_exit(self.clock);
        }
        if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
            t.cpu = cpu;
        }
    }

    /// Tracer NUL-terminated string read (charged).
    pub fn tr_read_cstr(&mut self, pid: Pid, addr: u64) -> Option<String> {
        let obs = sim_obs::enabled();
        if obs {
            sim_obs::span_enter(self.clock, "ptrace/peek");
        }
        self.charge(self.cost.ptrace_op);
        let res = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.space.read_cstr(addr).ok());
        if obs {
            sim_obs::span_exit(self.clock);
        }
        res
    }

    // ---- deferred writes (P5 torn-rewrite modeling) ------------------------

    /// Schedules a single guest byte write to land `delay` cycles from now —
    /// the second half of a non-atomic two-byte rewrite. Until it lands, other
    /// cores can observe (and execute) the torn intermediate state.
    pub fn defer_write_u8(&mut self, pid: Pid, addr: u64, byte: u8, delay: u64) {
        self.deferred.push(DeferredWrite {
            due: self.clock + delay,
            pid,
            addr,
            byte,
        });
    }

    fn flush_due_writes(&mut self) {
        let clock = self.clock;
        let mut rest = Vec::new();
        for w in std::mem::take(&mut self.deferred) {
            if w.due <= clock {
                if let Some(p) = self.procs.get_mut(&w.pid) {
                    let _ = p.space.write_raw(w.addr, &[w.byte]);
                }
            } else {
                rest.push(w);
            }
        }
        self.deferred = rest;
    }

    // ---- process lifecycle -------------------------------------------------

    /// Spawns a new process from `path`, optionally under a tracer attached
    /// *before* the first instruction (the only way to interpose startup
    /// syscalls — paper §5.2).
    ///
    /// # Errors
    ///
    /// Returns `-errno` if the image cannot be loaded.
    pub fn spawn(
        &mut self,
        path: &str,
        argv: &[String],
        env: &[String],
        tracer: Option<(Rc<RefCell<dyn Tracer>>, TraceOpts)>,
    ) -> Result<Pid, i64> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let tid = self.next_tid;
        self.next_tid += 1;
        let proc = Process::new(pid, 0, tid);
        self.procs.insert(pid, proc);
        if let Some((t, opts)) = tracer {
            self.attach_tracer(pid, t, opts);
        }
        match self.exec_into(pid, path, argv.to_vec(), env.to_vec()) {
            Ok(()) => Ok(pid),
            Err(e) => {
                self.procs.remove(&pid);
                self.tracers.remove(&pid);
                Err(e)
            }
        }
    }

    /// Replaces the image of `pid` (the tail of `execve`).
    ///
    /// # Errors
    ///
    /// Returns `-errno` from the loader; the old image is untouched on error.
    pub fn exec_into(
        &mut self,
        pid: Pid,
        path: &str,
        argv: Vec<String>,
        env: Vec<String>,
    ) -> Result<(), i64> {
        let loader = self.loader.clone().ok_or(-nr::ENOENT)?;
        let disable_vdso = self
            .tracers
            .get(&pid)
            .map(|t| t.opts.disable_vdso)
            .unwrap_or(false);
        let aslr_seed = self.next_random();
        let opts = ExecOpts {
            disable_vdso,
            aslr_seed,
        };
        let img = loader.load(&mut self.vfs, path, &argv, &env, &opts)?;
        let exec_mask = self.stack.as_ref().map_or(0, |s| s.exec_mask());

        let (tid, was_live) = {
            let p = self.procs.get_mut(&pid).ok_or(-nr::ENOENT)?;
            let tid = p.threads[0].tid;
            let was_live = p.interposer_live;
            p.exe = path.to_string();
            p.space = img.space;
            p.space.set_mem_mode(self.mem_mode);
            p.threads = vec![Thread::new(tid)];
            p.threads[0].cpu.rip = img.entry;
            p.threads[0].cpu.set(Reg::Rsp, img.rsp);
            p.argv = argv;
            p.env = env;
            p.sigactions.clear();
            p.interposer_live = false;
            p.vdso_enabled = !disable_vdso;
            p.vdso_base = img.vdso_base;
            p.symbols = img.symbols;
            p.lib_bases = img.lib_bases;
            p.symcache = None;
            *p.prof_cache = Default::default();
            // Stack layers survive exec only if they opted in, and the
            // chain-site resolution is stale either way (the new image may
            // not even carry the base's handler library — the P1a
            // env-clearing gap then leaves the chain inert).
            p.stack_mask &= exec_mask;
            p.chain_sites = None;
            (tid, was_live)
        };
        if let Some(a) = self.audit.as_mut() {
            // P1a: a covered image exec'd away; bypasses now classify as
            // the post-exec gap until the mechanism re-marks itself live.
            a.note_exec(pid, was_live);
        }

        self.hostcall_sites.retain(|(p, _), _| *p != pid);
        for (name, addr) in img.hostcall_sites {
            self.hostcall_sites.insert((pid, addr), name);
        }

        // PTRACE_EVENT_EXEC
        self.tracer_stop(
            pid,
            tid,
            Stop::Exec {
                path: path.to_string(),
            },
            |o| o.trace_exec,
        );
        Ok(())
    }

    // ---- interposer stacks -----------------------------------------------

    /// Installs a composed interposer stack. At most one stack is live per
    /// kernel (it shares the single underlying mechanism slot); installing
    /// replaces any previous session. Processes opt in via
    /// [`Kernel::bind_stack`]; membership then propagates across
    /// fork/execve per the layers' propagation flags.
    pub fn install_stack(&mut self, session: crate::stack::StackSession) {
        self.stack = Some(session);
    }

    /// Removes the installed stack (existing masks become inert).
    pub fn clear_stack(&mut self) {
        self.stack = None;
    }

    /// The installed stack session, if any.
    pub fn stack(&self) -> Option<&crate::stack::StackSession> {
        self.stack.as_ref()
    }

    /// Activates every layer of the installed stack for `pid` (called by
    /// the stack's spawn path, once the base mechanism spawned the
    /// process).
    pub fn bind_stack(&mut self, pid: Pid) {
        let mask = self.stack.as_ref().map_or(0, |s| s.full_mask());
        if let Some(p) = self.procs.get_mut(&pid) {
            p.stack_mask = mask;
        }
    }

    /// True when the chain must intercept this dispatch: a stack is
    /// installed, `pid` has active layers, and `site` passes the
    /// session's filter (resolving and caching the base's forwarding
    /// sites against the process symbol table on first use per image).
    fn chain_applies(&mut self, pid: Pid, site: u64) -> bool {
        let Some(sess) = self.stack.as_ref() else {
            return false;
        };
        if sess.layers.is_empty() {
            return false;
        }
        let filter = sess.filter.clone();
        let Some(p) = self.procs.get_mut(&pid) else {
            return false;
        };
        if p.stack_mask == 0 {
            return false;
        }
        match filter {
            crate::stack::ChainFilter::All => true,
            crate::stack::ChainFilter::Sites(syms) => {
                let key = p.symbols.len();
                if p.chain_sites.as_ref().map(|(k2, _)| *k2) != Some(key) {
                    let mut v: Vec<u64> =
                        syms.iter().filter_map(|s| p.symbols.get(s).copied()).collect();
                    v.sort_unstable();
                    v.dedup();
                    p.chain_sites = Some((key, v));
                }
                p.chain_sites
                    .as_ref()
                    .is_some_and(|(_, v)| v.binary_search(&site).is_ok())
            }
        }
    }

    /// Routes one syscall through the layer chain (see `stack.rs` for the
    /// dispatch contract) and applies whatever the chain's top produced.
    fn chain_dispatch(&mut self, mut ctx: crate::stack::SyscallCtx, injected: Option<FaultKind>, obs: bool) {
        use crate::stack::{Chain, RealOutcome, SysResult};
        let crate::stack::SyscallCtx { pid, tid, nr: nr_, site, .. } = ctx;
        let (layers, order) = {
            let sess = self.stack.as_ref().expect("chain_applies checked");
            let mask = self.procs.get(&pid).map_or(0, |p| p.stack_mask);
            let order: Vec<usize> = (0..sess.layers.len())
                .filter(|i| mask & (1u64 << i) != 0)
                .collect();
            (sess.layers.clone(), order)
        };
        if let Some(a) = self.audit.as_mut() {
            // Per-layer coverage: layers a fork/exec propagation flag
            // stripped from this process show up as `chained` minus their
            // own hit count.
            let names: Vec<String> =
                order.iter().map(|&i| layers[i].name.clone()).collect();
            a.note_chain(pid, &names);
        }
        let mut chain = Chain::new(layers, order, injected, obs);
        let fin = chain.call_next(self, &mut ctx);
        match (chain.real_outcome(), fin) {
            (Some(RealOutcome::Sigreturn), SysResult::Value(_)) => {
                // The composition hazard (nested sigreturn × chained
                // handlers): a layer marshalled "the return value" of a
                // control transfer, so its epilogue runs on the frame the
                // sigreturn below it already abandoned. On hardware the
                // stale return address faults; modeled as a deterministic
                // SIGSEGV kill.
                self.kill_process(pid, 128 + nr::SIGSEGV as i64);
            }
            (Some(RealOutcome::Ret(v)), SysResult::Value(w)) if w != v => {
                // A layer rewrote the result on the way out.
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.cpu.set(Reg::Rax, w);
                }
            }
            (None, SysResult::Value(w)) => {
                // Short-circuit: no layer dispatched. Skip-syscall
                // semantics, like a tracer's SkipSyscall.
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.cpu.rip = site + 2;
                    t.cpu.set(Reg::Rax, w);
                    t.cpu.apply_syscall_clobbers(site + 2);
                }
                if obs {
                    sim_obs::syscall_exit(self.clock, nr_, w, nr::syscall_name(nr_));
                }
            }
            (None, SysResult::Control) => {
                // Contract violation: no layer dispatched and none
                // produced a value. Fall back to the real dispatch so the
                // guest makes forward progress.
                chain.call_real(self, &mut ctx);
            }
            _ => {}
        }
    }

    /// Marks a process's interposer as live (called by interposer init paths;
    /// feeds the P2b "syscalls before interposition" metric).
    pub fn mark_interposer_live(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.interposer_live = true;
        }
        if let Some(a) = self.audit.as_mut() {
            a.note_live(pid);
        }
    }

    /// The live audit session, if auditing was configured.
    pub fn audit_session(&self) -> Option<&crate::audit::AuditSession> {
        self.audit.as_ref()
    }

    /// The coverage ledger with vDSO shadows folded in (vDSO calls never
    /// reach the dispatch choke point, so they are merged from each
    /// process's architectural `vdso_calls` counter at report time).
    pub fn audit_ledger(&self) -> Option<crate::audit::AuditLedger> {
        let session = self.audit.as_ref()?;
        let mut ledger = session.ledger.clone();
        for (pid, p) in &self.procs {
            crate::audit::AuditSession::fold_vdso(&mut ledger, *pid, p.stats.vdso_calls);
        }
        Some(ledger)
    }

    /// Terminates a whole process with `status`.
    pub fn kill_process(&mut self, pid: Pid, status: i64) {
        let ppid_chans_ports = {
            let Some(p) = self.procs.get_mut(&pid) else {
                return;
            };
            if p.exit_status.is_some() {
                return;
            }
            p.exit_status = Some(status);
            for t in &mut p.threads {
                t.state = ThreadState::Exited;
            }
            let chans: Vec<(usize, crate::net::End)> = p
                .fds
                .values()
                .filter_map(|fd| match fd {
                    FdEntry::ChannelRead { chan, end }
                    | FdEntry::ChannelWrite { chan, end }
                    | FdEntry::Socket { chan, end } => Some((*chan, *end)),
                    _ => None,
                })
                .collect();
            let ports: Vec<u16> = p
                .fds
                .values()
                .filter_map(|fd| match fd {
                    FdEntry::Listener { port } => Some(*port),
                    _ => None,
                })
                .collect();
            p.fds.clear();
            (p.ppid, chans, ports)
        };
        let (ppid, chans, ports) = (ppid_chans_ports.0, ppid_chans_ports.1, ppid_chans_ports.2);
        self.record_emit(Rec::Exit {
            retired: self.retired,
            pid,
            status: status as u64,
        });
        for port in ports {
            if let Some(l) = self.net.listeners.get_mut(&port) {
                l.refs = l.refs.saturating_sub(1);
                if l.refs == 0 {
                    self.net.listeners.remove(&port);
                    // Parked connectors retry and observe ECONNREFUSED.
                    self.wake_backlog(port);
                    self.wake_accept(port);
                }
            }
        }
        for (chan, end) in chans {
            self.net.drop_ref(chan, end);
            self.wake_channel(chan);
        }
        if let Some(parent) = self.procs.get_mut(&ppid) {
            parent.zombies.push((pid, status));
            parent.children.retain(|c| *c != pid);
        }
        self.wake_child_waiters(ppid);
        let tid = self
            .procs
            .get(&pid)
            .map(|p| p.threads[0].tid)
            .unwrap_or(0);
        self.tracer_stop(pid, tid, Stop::Exit { status }, |_| true);
        self.tracers.remove(&pid);
    }

    // ---- wakeups -----------------------------------------------------------

    fn wake_where(&mut self, mut pred: impl FnMut(Pid, &Wait) -> bool) {
        for (pid, p) in self.procs.iter_mut() {
            for t in &mut p.threads {
                if let ThreadState::Blocked(w) = t.state {
                    if pred(*pid, &w) {
                        t.state = ThreadState::Runnable;
                    }
                }
            }
        }
    }

    /// Marks every epoll member whose readiness follows `src` as possibly
    /// ready, in every instance of every process (fork-cloned instances
    /// included). Called wherever that readiness may rise.
    fn poke_epolls(&mut self, src: ReadySource) {
        for p in self.procs.values_mut() {
            for ep in p.epolls.values_mut() {
                ep.poke(src);
            }
        }
    }

    /// Wakes threads blocked on `chan` (readers and bounded-buffer writers),
    /// plus every `epoll_wait` parker: readiness on the channel may satisfy
    /// an interest set, and parked epoll waiters deterministically recompute
    /// and re-block when it doesn't (cheap spurious wakeups instead of
    /// kernel-side waiter bookkeeping). Pokes the channel's epoll members.
    pub fn wake_channel(&mut self, chan: usize) {
        self.poke_epolls(ReadySource::Chan(chan));
        self.wake_where(|_, w| {
            matches!(w,
                Wait::ChannelReadable { chan: c, .. } | Wait::ChannelWritable { chan: c, .. }
                    if *c == chan)
                || matches!(w, Wait::Epoll)
        });
    }

    /// Wakes threads blocked accepting on `port` (and epoll waiters, for
    /// listeners registered in an interest set). Pokes the port's epoll
    /// members.
    pub fn wake_accept(&mut self, port: u16) {
        self.poke_epolls(ReadySource::Port(port));
        self.wake_where(|_, w| {
            matches!(w, Wait::Accept { port: p } if *p == port) || matches!(w, Wait::Epoll)
        });
    }

    /// Wakes connectors parked on a full accept backlog for `port`.
    pub fn wake_backlog(&mut self, port: u16) {
        self.wake_where(|_, w| matches!(w, Wait::Backlog { port: p } if *p == port));
    }

    /// Wakes every thread parked in `epoll_wait` (readiness recompute).
    pub fn wake_epoll_waiters(&mut self) {
        self.wake_where(|_, w| matches!(w, Wait::Epoll));
    }

    /// Wakes readers of eventfd `id` (ids are per-process, but cross-process
    /// collisions only cause a harmless deterministic recompute) and epoll
    /// waiters, and pokes the eventfd's epoll members (collisions only
    /// cost a recompute there too).
    pub fn wake_eventfd(&mut self, id: usize) {
        self.poke_epolls(ReadySource::EventFd(id));
        self.wake_where(|_, w| {
            matches!(w, Wait::EventFd { id: i } if *i == id) || matches!(w, Wait::Epoll)
        });
    }

    /// Wakes `wait4` blockers in process `ppid`.
    pub fn wake_child_waiters(&mut self, ppid: Pid) {
        self.wake_where(|pid, w| pid == ppid && matches!(w, Wait::Child));
    }

    /// Wakes up to `max` futex waiters in `pid` on `addr`; returns the count.
    pub fn wake_futex(&mut self, pid: Pid, addr: u64, max: u64) -> u64 {
        let mut woken = 0;
        if let Some(p) = self.procs.get_mut(&pid) {
            for t in &mut p.threads {
                if woken >= max {
                    break;
                }
                if let ThreadState::Blocked(Wait::Futex { addr: a }) = t.state {
                    if a == addr {
                        t.state = ThreadState::Runnable;
                        woken += 1;
                    }
                }
            }
        }
        woken
    }

    // ---- tracer stop plumbing ----------------------------------------------

    /// Delivers `stop` to the tracer of `pid` if its options match; returns
    /// the action (Continue when untraced). Charges two context switches —
    /// the fundamental ptrace cost (paper §2.1).
    fn tracer_stop(
        &mut self,
        pid: Pid,
        tid: Tid,
        stop: Stop,
        want: impl Fn(&TraceOpts) -> bool,
    ) -> TracerAction {
        let Some(slot) = self.tracers.get(&pid) else {
            return TracerAction::Continue;
        };
        if !want(&slot.opts) {
            return TracerAction::Continue;
        }
        let tracer = slot.tracer.clone();
        let obs = sim_obs::enabled();
        if obs {
            // Whole round-trip span: switch-out, tracer work (nesting its
            // own peek/poke/regs spans), switch back in.
            sim_obs::span_enter(self.clock, &format!("ptrace/stop-{}", stop.kind_name()));
        }
        self.charge(2 * self.cost.context_switch);
        if obs {
            sim_obs::tracer_stop(self.clock, stop.kind_name());
        }
        let action = tracer.borrow_mut().on_stop(self, pid, tid, &stop);
        if obs {
            sim_obs::span_exit(self.clock);
        }
        match action {
            TracerAction::Detach => {
                self.tracers.remove(&pid);
            }
            TracerAction::Kill => {
                self.kill_process(pid, 137);
            }
            _ => {}
        }
        action
    }

    /// Lets host code (interposer frameworks) deliver a synthetic tracer
    /// attach for a child pid (used for TRACEFORK wiring).
    fn maybe_trace_fork(&mut self, parent: Pid, child: Pid, tid: Tid) {
        let Some(slot) = self.tracers.get(&parent) else {
            return;
        };
        if !slot.opts.trace_fork {
            return;
        }
        let (tracer, opts) = (slot.tracer.clone(), slot.opts);
        self.tracers.insert(
            child,
            TracerSlot {
                tracer: tracer.clone(),
                opts,
            },
        );
        self.tracer_stop(parent, tid, Stop::Fork { child }, |o| o.trace_fork);
    }

    // ---- signal delivery ----------------------------------------------------

    /// Delivers `sig` to `(pid, tid)`: pushes a frame and redirects to the
    /// registered handler, or applies the default action (kill).
    pub fn deliver_signal(&mut self, pid: Pid, tid: Tid, info: SigInfo) {
        let cost_sig = self.cost.signal_delivery;
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        // While a handler registered with SIGACT_MASK_ALL runs,
        // asynchronous signals queue until sigreturn. Synchronous faults
        // (SIGSEGV) and SUD's SIGSYS must deliver immediately: deferring
        // them would decouple them from the instruction that caused them.
        if info.signo != nr::SIGSEGV && info.signo != nr::SIGSYS {
            if let Some(t) = p.thread_mut(tid) {
                if t.frame_masked.iter().any(|m| *m) {
                    t.pending_signals.push(info);
                    return;
                }
            }
        }
        p.stats.signals += 1;
        let Some(SigAction { handler, mask_all }) = p.sigactions.get(&info.signo).copied() else {
            // Default action: terminate.
            let status = 128 + info.signo as i64;
            self.tracer_stop(pid, tid, Stop::FatalSignal { sig: info.signo }, |_| true);
            self.kill_process(pid, status);
            return;
        };
        self.charge(cost_sig);
        let p = self.procs.get_mut(&pid).expect("proc vanished");
        let Process { space, threads, .. } = p;
        let Some(t) = threads.iter_mut().find(|t| t.tid == tid) else {
            return;
        };
        // Signal delivery serializes the core (coalesced when nothing was
        // written since the last serialization point).
        t.cpu.serialize(space);
        let rsp = t.cpu.get(Reg::Rsp);
        let base = (rsp - signal::FRAME_SIZE) & !15;
        let mut frame = vec![0u8; signal::FRAME_SIZE as usize];
        frame[0..8].copy_from_slice(&t.cpu.rip.to_le_bytes());
        frame[8..16].copy_from_slice(&t.cpu.packed_flags().to_le_bytes());
        frame[16..24].copy_from_slice(&(t.cpu.pkru.0 as u64).to_le_bytes());
        for (i, v) in t.cpu.regs.iter().enumerate() {
            let at = (signal::UC_REGS as usize) + 8 * i;
            frame[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        frame[signal::SI_SIGNO as usize..signal::SI_SIGNO as usize + 8]
            .copy_from_slice(&info.signo.to_le_bytes());
        frame[signal::SI_SYSCALL as usize..signal::SI_SYSCALL as usize + 8]
            .copy_from_slice(&info.syscall.to_le_bytes());
        frame[signal::SI_CALL_ADDR as usize..signal::SI_CALL_ADDR as usize + 8]
            .copy_from_slice(&info.call_addr.to_le_bytes());
        frame[signal::SI_FAULT_ADDR as usize..signal::SI_FAULT_ADDR as usize + 8]
            .copy_from_slice(&info.fault_addr.to_le_bytes());
        if space.write_raw(base, &frame).is_err() {
            // Unwritable stack: fatal.
            self.kill_process(pid, 128 + nr::SIGSEGV as i64);
            return;
        }
        let t = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.thread_mut(tid))
            .expect("thread vanished");
        t.sig_frames.push(base);
        t.frame_masked.push(mask_all);
        t.cpu.set(Reg::Rsp, base);
        t.cpu.set(Reg::Rdi, info.signo);
        t.cpu.set(Reg::Rsi, base + signal::SI_SIGNO);
        t.cpu.set(Reg::Rdx, base);
        t.cpu.rip = handler;
    }

    // ---- the run loop --------------------------------------------------------

    /// Runs until every process exits, no progress is possible, or
    /// `max_cycles` have elapsed.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let deadline = self.clock.saturating_add(max_cycles);
        self.run_deadline = deadline;
        // The runnable list is rebuilt every scheduler round (i.e. after
        // every slice-ending event, so typically once per syscall); reuse
        // one buffer across rounds to keep the round allocation-free.
        let mut runnable: Vec<(Pid, Tid)> = Vec::new();
        loop {
            if self.record_stopped() {
                return RunExit::Stop;
            }
            self.flush_due_writes();
            runnable.clear();
            for (pid, p) in &self.procs {
                for t in &p.threads {
                    if t.state == ThreadState::Runnable {
                        runnable.push((*pid, t.tid));
                    }
                }
            }
            if runnable.is_empty() {
                // Advance time to the next sleeper or deferred write.
                let next_sleep = self
                    .procs
                    .values()
                    .flat_map(|p| p.threads.iter())
                    .filter_map(|t| match t.state {
                        ThreadState::Blocked(Wait::Sleep { until }) => Some(until),
                        _ => None,
                    })
                    .min();
                let next_write = self.deferred.iter().map(|w| w.due).min();
                match (next_sleep, next_write) {
                    (None, None) => {
                        return if self.procs.values().all(|p| p.exit_status.is_some()) {
                            RunExit::AllExited
                        } else {
                            RunExit::Deadlock
                        };
                    }
                    (a, b) => {
                        let due = a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX));
                        self.clock = self.clock.max(due);
                        self.wake_where(|_, w| matches!(w, Wait::Sleep { until } if *until <= due));
                        continue;
                    }
                }
            }
            // Adversarial scheduler perturbation: rotate the fair runnable
            // order by a seed-derived amount on plan-chosen rounds. The
            // round number is architectural (one per rebuild), so both
            // engines rotate identically.
            let rotated = if let Some(fs) = self.fault.as_mut() {
                fs.round += 1;
                let rot = fs.plan.sched_rotation(fs.round, runnable.len());
                if rot > 0 {
                    runnable.rotate_left(rot);
                    Some((fs.round, rot as u64, runnable.len() as u64))
                } else {
                    None
                }
            } else {
                None
            };
            // A real scheduler perturbation is nondeterminism worth a log
            // record; unperturbed rounds are derived state and recording
            // them would dwarf the log (one round per syscall).
            if let Some((round, rot, n)) = rotated {
                let retired = self.retired;
                if let Some(rs) = self.record.as_mut() {
                    rs.sched_rounds += 1;
                    rs.emit(Rec::Sched {
                        retired,
                        round,
                        rot,
                        n,
                    });
                }
            }
            for &(pid, tid) in &runnable {
                self.run_slice(pid, tid);
                if self.record_stopped() {
                    return RunExit::Stop;
                }
                if self.clock >= deadline {
                    return RunExit::Budget;
                }
            }
        }
    }

    /// Scheduler slice, in instructions.
    const SLICE: u64 = 64;

    /// The slice budget for `tid` this round: [`Self::SLICE`], or the
    /// fault plan's adversarial preemption cap when one is active.
    fn effective_slice(&self, tid: Tid) -> u64 {
        match &self.fault {
            Some(fs) => match fs.plan.slice_cap(fs.round, tid) {
                Some(cap) => cap.min(Self::SLICE),
                None => Self::SLICE,
            },
            None => Self::SLICE,
        }
    }

    /// The earliest retired-instruction coordinate at which an armed
    /// session must act: a fault-plan boundary (signal injection,
    /// permission flip, or scheduled restore), a record-session boundary
    /// (stop target, checkpoint, or inject-mode asynchrony), or the next
    /// profiler sample. The slice loop caps every execution budget at it,
    /// so each engine stops at the identical architectural instruction.
    fn next_boundary(&self) -> Option<u64> {
        let fault = self
            .fault
            .as_ref()
            .and_then(|fs| fs.next_stop(self.retired));
        let record = self.record.as_ref().and_then(RecordSession::next_stop);
        let prof = self.prof.as_ref().map(|ps| ps.next);
        fault.into_iter().chain(record).chain(prof).min()
    }

    /// Applies the session boundaries due at the current retired count —
    /// record before fault: a checkpoint captures the pre-asynchrony
    /// state, so signal/flip records landing at the same retired count
    /// re-apply after a restore. Profiler samples are not applied here;
    /// the slice loop takes them right after the instructions retire.
    /// Returns `true` when the slice must end.
    fn apply_due_boundaries(&mut self, pid: Pid, tid: Tid) -> bool {
        let at = self.retired;
        if !self.record_stopped() && self.next_boundary().is_none_or(|b| b > at) {
            return false;
        }
        if self.apply_record_boundary(pid, tid) {
            return true;
        }
        let fault_due = self
            .fault
            .as_ref()
            .is_some_and(|fs| fs.next_stop(at).is_some_and(|b| b <= at));
        if fault_due {
            self.apply_fault_boundary(pid, tid);
        }
        fault_due
    }

    /// Captures one profiler sample: the post-step RIP plus a
    /// conservative return-address scan of the guest stack, resolved to
    /// frame ids through the process's profiler caches
    /// ([`Process::prof_stack`], [`Process::prof_frame_ids`]). Debug
    /// builds check every sample against the string walk of
    /// [`Kernel::symbolized_stack`].
    fn take_prof_sample(&mut self, pid: Pid, tid: Tid) {
        let clock = self.clock;
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        let Some((rip, rsp)) = p.thread(tid).map(|t| (t.cpu.rip, t.cpu.get(Reg::Rsp))) else {
            return;
        };
        let mut addrs = [0u64; PROF_MAX_FRAMES];
        let n = p.prof_stack(rip, rsp, &mut addrs);
        let mut ids = [0u32; PROF_MAX_FRAMES];
        p.prof_frame_ids(&addrs[..n], &mut ids[..n]);
        #[cfg(debug_assertions)]
        assert_eq!(
            sim_obs::frame_names(&ids[..n]),
            self.symbolized_stack(pid, tid),
            "profiler sample diverged from the symbolized_stack walk"
        );
        sim_obs::profile_stack(clock, &ids[..n]);
    }

    /// The symbolized guest stack of `(pid, tid)`: the current RIP plus a
    /// conservative return-address scan (values in the first
    /// `PROF_SCAN_SLOTS` stack slots that point into executable
    /// mappings), resolved through the process's symbol cache. Used by
    /// the replay divergence reporter, and the reference walk the
    /// sampling profiler's cached one is checked against; reads guest
    /// state but never writes it and charges no cycles. Empty when the
    /// thread is gone.
    pub fn symbolized_stack(&mut self, pid: Pid, tid: Tid) -> Vec<String> {
        let Some(p) = self.procs.get_mut(&pid) else {
            return Vec::new();
        };
        let Some((rip, rsp)) = p.thread(tid).map(|t| (t.cpu.rip, t.cpu.get(Reg::Rsp))) else {
            return Vec::new();
        };
        let mut addrs = vec![rip];
        for i in 0..PROF_SCAN_SLOTS as u64 {
            if addrs.len() >= PROF_MAX_FRAMES {
                break;
            }
            let Some(at) = rsp.checked_add(8 * i) else {
                break;
            };
            let mut b = [0u8; 8];
            if p.space.read_raw(at, &mut b).is_err() {
                break;
            }
            let v = u64::from_le_bytes(b);
            if v != 0 && p.space.mapping_at(v).is_some_and(|m| m.perms.executable()) {
                addrs.push(v);
            }
        }
        p.symbolize_frames(&addrs)
    }

    // ---- record/replay session plumbing ------------------------------------

    /// True when the record session halted the run.
    fn record_stopped(&self) -> bool {
        self.record.as_ref().is_some_and(|rs| rs.stopped)
    }

    /// Records (or verifies) one produced record.
    fn record_emit(&mut self, rec: Rec) {
        if let Some(rs) = self.record.as_mut() {
            rs.emit(rec);
        }
    }

    /// Handles a due record-session boundary. Checkpoints are taken
    /// without ending the slice (a slice end would advance the fault
    /// session's round counter, making a checkpointed recording diverge
    /// from its checkpoint-free replay); stop targets and injected
    /// asynchrony end the slice, mirroring [`Kernel::apply_fault_boundary`].
    /// Returns `true` when the slice must end.
    fn apply_record_boundary(&mut self, pid: Pid, tid: Tid) -> bool {
        let at = self.retired;
        let due_ckpt = self.record.as_ref().is_some_and(|rs| {
            rs.mode == RecordModeKind::Record && rs.next_ckpt.is_some_and(|n| n <= at)
        });
        if due_ckpt {
            self.take_record_checkpoint();
        }
        let mut due_actions: Vec<BoundaryAction> = Vec::new();
        {
            let Some(rs) = self.record.as_mut() else {
                return false;
            };
            if rs.stopped {
                return true;
            }
            if rs.stop_at.is_some_and(|s| s <= at) {
                rs.stopped = true;
                return true;
            }
            while rs.bcursor < rs.boundaries.len() && rs.boundaries[rs.bcursor].0 <= at {
                due_actions.push(rs.boundaries[rs.bcursor].1);
                rs.bcursor += 1;
            }
        }
        for act in &due_actions {
            match *act {
                BoundaryAction::Signal { signo, delivered } => {
                    // `delivered: false` recorded a skipped injection (no
                    // handler); re-skipping reproduces it.
                    if delivered {
                        self.deliver_signal(
                            pid,
                            tid,
                            SigInfo {
                                signo,
                                ..SigInfo::default()
                            },
                        );
                    }
                }
                BoundaryAction::Flip { page, perms } => {
                    let base = page & !(PAGE_SIZE - 1);
                    if let Some(p) = self.procs.get_mut(&pid) {
                        let _ = p.space.protect(base, PAGE_SIZE, Perms::from_bits(perms));
                        let Process { space, threads, .. } = p;
                        if let Some(t) = threads.iter_mut().find(|t| t.tid == tid) {
                            t.cpu.serialize(space);
                        }
                    }
                }
            }
        }
        !due_actions.is_empty()
    }

    /// Record bookkeeping at kernel entry: stamps the clock the recorded
    /// service cycles are measured from (skipped for in-kernel restarts,
    /// which resume the original entry) and, for navigation-grade
    /// recording, drains guest-execution dirty pages into the pending
    /// checkpoint delta so the post-dispatch drain isolates the pages the
    /// syscall itself writes.
    fn record_syscall_entry(&mut self, pid: Pid, tid: Tid, restarting: bool) {
        let clock = self.clock;
        let Some(rs) = self.record.as_mut() else {
            return;
        };
        if !restarting {
            rs.entry_clock.insert((pid, tid), clock);
        }
        if rs.mode == RecordModeKind::Record && rs.ckpt_period > 0 {
            if let Some(p) = self.procs.get_mut(&pid) {
                rs.pending_pages.extend(p.space.take_dirty_pages());
            }
        }
    }

    /// Record bookkeeping at syscall completion (`Disp::Ret` /
    /// `RetThenBlock`): captures (record), verifies (verify), or consumes
    /// (inject passthrough) the completion record. Recorded cycles are
    /// the clock delta from kernel entry — for restarted calls that
    /// includes blocked time, which is exactly what injection must charge
    /// since the blocking never re-occurs. Navigation-grade recording
    /// additionally snapshots the pages the syscall wrote.
    fn record_syscall_ret(&mut self, pid: Pid, tid: Tid, nr_: u64, site: u64, ret: u64) {
        let clock = self.clock;
        let retired = self.retired;
        let Some(rs) = self.record.as_mut() else {
            return;
        };
        match rs.mode {
            RecordModeKind::Inject => {
                // Passthrough completion: consume the matching record so
                // the cursor stays aligned with injected syscalls.
                let _ = rs.take_syscall();
            }
            RecordModeKind::Record | RecordModeKind::Verify => {
                let entry = rs.entry_clock.remove(&(pid, tid)).unwrap_or(clock);
                let cycles = clock.saturating_sub(entry);
                let nav = rs.mode == RecordModeKind::Record && rs.ckpt_period > 0;
                let mut writes: Vec<(u64, Vec<u8>)> = Vec::new();
                if nav {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        for base in p.space.take_dirty_pages() {
                            if !inject_passthrough(nr_) {
                                if let Some((_, _, data)) = p.space.snapshot_page(base) {
                                    writes.push((base, data));
                                }
                            }
                            rs.pending_pages.push(base);
                        }
                    }
                }
                rs.emit(Rec::Syscall {
                    retired,
                    nr: nr_,
                    site,
                    ret,
                    cycles,
                    writes,
                });
            }
        }
    }

    /// Takes one periodic navigation checkpoint: register files, signal
    /// dispositions, seccomp state, and the pages dirtied since the
    /// previous checkpoint. Invariant (DESIGN.md §11): the chain only
    /// reconstructs a *single-process* run whose address space still
    /// carries the dirty tracking enabled at configure time — fork and
    /// exec permanently break the chain, and navigation then replays from
    /// the start instead.
    fn take_record_checkpoint(&mut self) {
        let clock = self.clock;
        let retired = self.retired;
        let single = self.procs.len() == 1;
        let Some(rs) = self.record.as_mut() else {
            return;
        };
        while let Some(n) = rs.next_ckpt {
            if n <= retired {
                rs.next_ckpt = Some(n + rs.ckpt_period);
            } else {
                break;
            }
        }
        if !rs.chain_ok {
            return;
        }
        if !single {
            rs.chain_ok = false;
            return;
        }
        let p = self.procs.values_mut().next().expect("single process");
        if p.exit_status.is_some() {
            return;
        }
        if !p.space.dirty_tracking() {
            // execve replaced the space; the delta baseline is gone.
            rs.chain_ok = false;
            return;
        }
        let mut bases: std::collections::BTreeSet<u64> = rs.pending_pages.drain(..).collect();
        bases.extend(p.space.take_dirty_pages());
        let pages: Vec<PageSnap> = bases
            .into_iter()
            .filter_map(|base| {
                p.space.snapshot_page(base).map(|(perms, pkey, data)| PageSnap {
                    base,
                    perms: perms.bits(),
                    pkey,
                    data,
                })
            })
            .collect();
        rs.checkpoints.push(Checkpoint {
            retired,
            clock,
            cursor: rs.recs.len(),
            pid: p.pid,
            threads: p.threads.clone(),
            sigactions: p.sigactions.clone(),
            seccomp: p.seccomp.clone(),
            interposer_live: p.interposer_live,
            pages,
        });
    }

    /// Restores the process state captured by `chain[..=idx]` onto this
    /// kernel, which must hold the same deterministically re-booted
    /// process the chain was recorded from. Page snapshots of every
    /// checkpoint in the prefix are applied in order (later deltas win),
    /// then the last checkpoint's thread/signal/seccomp state. CPU caches
    /// are reset — clock-invisible, since the cost model charges per
    /// instruction regardless of decode-cache state. The retired clock
    /// moves to the boundary, and the record session's log cursors and
    /// the next profiler sample are aligned to it.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the chain cannot reconstruct the
    /// state (missing process, cross-process chain, or a snapshot page
    /// that no longer maps — e.g. recorded after a runtime `mmap`). The
    /// caller falls back to replaying from the start.
    pub fn restore_to_checkpoint(&mut self, chain: &[Checkpoint], idx: usize) -> Result<(), String> {
        let ckpt = chain.get(idx).ok_or("checkpoint index out of range")?;
        let pid = ckpt.pid;
        {
            let p = self
                .procs
                .get_mut(&pid)
                .ok_or("checkpointed process is not booted")?;
            for c in chain.iter().take(idx + 1) {
                if c.pid != pid {
                    return Err("checkpoint chain crosses processes".to_string());
                }
                for ps in &c.pages {
                    p.space
                        .write_raw(ps.base, &ps.data)
                        .map_err(|_| format!("page {:#x} is not mapped at restore time", ps.base))?;
                    p.space
                        .protect(ps.base, PAGE_SIZE, Perms::from_bits(ps.perms))
                        .map_err(|_| format!("page {:#x} rejects protection restore", ps.base))?;
                    p.space
                        .set_pkey(ps.base, PAGE_SIZE, ps.pkey)
                        .map_err(|_| format!("page {:#x} rejects pkey restore", ps.base))?;
                }
            }
            p.threads = ckpt.threads.clone();
            p.sigactions = ckpt.sigactions.clone();
            p.seccomp = ckpt.seccomp.clone();
            p.interposer_live = ckpt.interposer_live;
            for t in &mut p.threads {
                t.cpu.reset_caches();
            }
        }
        self.clock = ckpt.clock;
        if sim_obs::enabled() {
            sim_obs::set_clock(self.clock);
        }
        self.retired = ckpt.retired;
        if let Some(ps) = self.prof.as_mut() {
            ps.pass(ckpt.retired);
        }
        if let Some(rs) = self.record.as_mut() {
            rs.cursor = ckpt.cursor;
            rs.bcursor = rs
                .boundaries
                .iter()
                .position(|b| b.0 >= ckpt.retired)
                .unwrap_or(rs.boundaries.len());
            rs.stopped = false;
            rs.entry_clock.clear();
        }
        Ok(())
    }

    /// Runs until [`Kernel::retired`] reaches `target` (or the run
    /// otherwise ends) under a record session: the time-travel seek
    /// primitive. Returns [`RunExit::Stop`] when the target was reached.
    pub fn run_to_retired(&mut self, target: u64, max_cycles: u64) -> RunExit {
        let reached = self.retired >= target;
        if let Some(rs) = self.record.as_mut() {
            rs.stop_at = Some(target);
            rs.stopped = reached;
        }
        let exit = self.run(max_cycles);
        let reached = self.retired >= target;
        if let Some(rs) = self.record.as_mut() {
            rs.stop_at = None;
            if rs.divergence.is_none() && reached {
                rs.stopped = false;
            }
        }
        exit
    }

    // ---- record/replay public accessors ------------------------------------

    /// The first mismatch a verifying replay found, if any.
    pub fn record_divergence(&self) -> Option<&Divergence> {
        self.record.as_ref().and_then(|rs| rs.divergence.as_ref())
    }

    /// Number of log records consumed (verify/inject) so far.
    pub fn record_cursor(&self) -> usize {
        self.record.as_ref().map_or(0, |rs| rs.cursor)
    }

    /// Drains the captured log (record mode).
    pub fn take_recording(&mut self) -> Vec<Rec> {
        self.record
            .as_mut()
            .map(|rs| std::mem::take(&mut rs.recs))
            .unwrap_or_default()
    }

    /// Drains the checkpoint chain (navigation-grade record mode). Empty
    /// when the chain was broken by fork/exec — see
    /// [`Kernel::record_chain_ok`].
    pub fn take_checkpoints(&mut self) -> Vec<Checkpoint> {
        self.record
            .as_mut()
            .map(|rs| std::mem::take(&mut rs.checkpoints))
            .unwrap_or_default()
    }

    /// True while the checkpoint chain soundly reconstructs the run.
    pub fn record_chain_ok(&self) -> bool {
        self.record.as_ref().is_some_and(|rs| rs.chain_ok)
    }

    /// Applies every injection due at the current boundary: permission
    /// restorations first, then new flips, then the asynchronous signal.
    /// The slice ends after a boundary fires (both engines agree on
    /// that), and `fired_until` advances so a boundary — which retires no
    /// instructions — cannot re-fire at the same retired count.
    fn apply_fault_boundary(&mut self, pid: Pid, tid: Tid) {
        let clock = self.clock;
        let at = self.retired;
        let obs = sim_obs::enabled();
        let Some(fs) = self.fault.as_mut() else {
            return;
        };
        fs.fired_until = at + 1;
        let mut due_restores = Vec::new();
        fs.restores.retain(|r| {
            if r.0 <= at {
                due_restores.push(*r);
                false
            } else {
                true
            }
        });
        let flips: Vec<PermFlip> = fs.plan.flips_at(at).copied().collect();
        let signo = fs.plan.boundary_signal(at);

        let mut serialized = false;
        for (_, rpid, base, saved) in due_restores {
            if let Some(p) = self.procs.get_mut(&rpid) {
                let _ = p.space.protect(base, PAGE_SIZE, saved);
                serialized = true;
            }
            if obs {
                sim_obs::fault_flip(clock, base, true);
            }
            // A restore is logged as a flip to the restored protection:
            // replay does not need to know the pre-flip history.
            self.record_emit(Rec::Flip {
                retired: at,
                page: base,
                perms: saved.bits(),
                restore: true,
            });
        }
        for f in flips {
            let base = f.page & !(PAGE_SIZE - 1);
            let saved = self.procs.get_mut(&pid).and_then(|p| {
                let saved = p.space.page_perms(base)?;
                p.space
                    .protect(base, PAGE_SIZE, Perms::from_bits(f.perms))
                    .ok()?;
                Some(saved)
            });
            if let Some(saved) = saved {
                serialized = true;
                if obs {
                    sim_obs::fault_flip(clock, base, false);
                }
                self.record_emit(Rec::Flip {
                    retired: at,
                    page: base,
                    perms: Perms::from_bits(f.perms).bits(),
                    restore: false,
                });
                if let Some(fs) = self.fault.as_mut() {
                    fs.restores.push((at + f.duration.max(1), pid, base, saved));
                }
            }
        }
        if serialized {
            // A permission change behaves like an mprotect IPI: the
            // running core serializes its instruction stream. (`protect`
            // bumped the space generation, so this is never coalesced.)
            if let Some(p) = self.procs.get_mut(&pid) {
                let Process { space, threads, .. } = p;
                if let Some(t) = threads.iter_mut().find(|t| t.tid == tid) {
                    t.cpu.serialize(space);
                }
            }
        }
        if let Some(signo) = signo {
            // Only deliverable signals are injected: with no handler the
            // default action would kill the guest, turning every cell of a
            // sweep into a trivial death instead of a stress result. The
            // skip is recorded so the decision stays visible.
            let has_handler = self
                .procs
                .get(&pid)
                .is_some_and(|p| p.sigactions.contains_key(&signo));
            if obs {
                sim_obs::fault_signal(clock, signo, has_handler);
            }
            self.record_emit(Rec::Signal {
                retired: at,
                signo,
                delivered: has_handler,
            });
            if has_handler {
                self.deliver_signal(
                    pid,
                    tid,
                    SigInfo {
                        signo,
                        ..SigInfo::default()
                    },
                );
            }
        }
    }

    /// Runs `(pid, tid)` for up to one scheduler slice.
    ///
    /// One loop serves every engine; only the execution primitive
    /// differs. Block and trace run [`Cpu::run_block`], which executes
    /// straight-line guest code without per-instruction scheduler
    /// overhead and returns at kernel-relevant events; the stepwise
    /// oracle runs [`step_once`], exactly one [`Cpu::step`]. A slice can
    /// span several blocks when hostcalls (`int3`) occur mid-slice, since
    /// hostcalls may mutate any kernel or guest state. Every budget is
    /// capped at [`Kernel::next_boundary`], so all engines produce
    /// identical clocks, stats, and guest-visible behavior — enforced by
    /// the determinism regression tests.
    fn run_slice(&mut self, pid: Pid, tid: Tid) {
        if sim_obs::enabled() {
            if self.current != Some((pid, tid)) {
                sim_obs::context_switch(self.clock, pid, tid);
            } else {
                sim_obs::set_cpu(pid, tid);
            }
        }
        self.current = Some((pid, tid));
        let icache = self.icache;
        let stepwise = self.engine == Engine::Stepwise;
        let tparams = (self.engine == Engine::Trace).then_some(self.trace_params);
        let mut remaining = self.effective_slice(tid);
        while remaining > 0 {
            if self.apply_due_boundaries(pid, tid) {
                return;
            }
            // Single-threaded hot path: alternate block/trace execution
            // and direct-path syscall handling under one process borrow,
            // with clock/cycle/stat accounting batched and flushed at
            // exact retired-instruction boundaries. Falls out with a
            // pending block exit when anything needs the general path;
            // the code below then handles that exit exactly as if it had
            // produced it itself.
            let hot = if self.hot_slice_ok(pid, tid) {
                let Some(block) = self.run_slice_hot(pid, tid, icache, tparams, &mut remaining)
                else {
                    return; // slice (or run deadline) ended inside the hot loop
                };
                Some(block)
            } else {
                None
            };
            let budget = match self.next_boundary() {
                Some(b) => remaining.min(b.saturating_sub(self.retired).max(1)),
                None => remaining,
            };
            let clock = self.clock;
            let cost = self.cost;
            let mut trace = self.exec_trace.take();
            let block = if let Some(block) = hot {
                block
            } else {
                let Some(p) = self.procs.get_mut(&pid) else {
                    self.exec_trace = trace;
                    return;
                };
                if p.exit_status.is_some() {
                    self.exec_trace = trace;
                    return;
                }
                let Process { space, threads, .. } = p;
                let Some(t) = threads.iter_mut().find(|t| t.tid == tid) else {
                    self.exec_trace = trace;
                    return;
                };
                if t.state != ThreadState::Runnable {
                    self.exec_trace = trace;
                    return;
                }
                let mut traced_clock = clock;
                let on_step = |rip, step: &Step| {
                    if let Some(rec) = trace.as_mut() {
                        traced_clock += step.cycles;
                        rec.push(TraceEntry {
                            pid,
                            tid,
                            rip,
                            clock: traced_clock,
                            event: step.event,
                        });
                    }
                };
                t.cpu.set_icache_mode(icache);
                t.cpu.set_trace_mode(tparams);
                if stepwise {
                    step_once(&mut t.cpu, space, clock, &cost, on_step)
                } else {
                    t.cpu.run_block(space, clock, &cost, budget, on_step)
                }
            };
            self.exec_trace = trace;
            self.charge(block.cycles);
            remaining -= block.steps;
            self.retired += block.steps;
            // Sampling reads guest state but never writes it and charges
            // no cycles: the profiled run's clock stream is identical to
            // the unprofiled one.
            let sample = self.prof.as_mut().is_some_and(|ps| ps.pass(self.retired));
            if sample && sim_obs::enabled() {
                self.take_prof_sample(pid, tid);
            }
            if block.vdso_calls > 0 {
                if let Some(p) = self.procs.get_mut(&pid) {
                    p.stats.vdso_calls += block.vdso_calls;
                }
            }
            match block.event {
                StepEvent::Executed => {} // budget exhausted: slice over
                StepEvent::Syscall { site, .. } => {
                    // When the direct path handled the syscall and this
                    // is the only runnable thread in the machine, the
                    // scheduler round that would follow is a no-op
                    // (nothing to wake, nothing to rotate, nothing else
                    // to run): start the thread's next slice immediately
                    // instead of unwinding to `run`. Architecturally
                    // invisible — slice boundaries only matter for
                    // scheduling order, fault rounds, and the run
                    // deadline, all of which `fast_loop_ok` rules out.
                    if self.handle_syscall(pid, tid, site) && self.fast_loop_ok(pid) {
                        remaining = self.effective_slice(tid);
                        continue;
                    }
                    return; // end the slice at kernel entry
                }
                StepEvent::Hlt => {
                    self.kill_process(pid, 0);
                    return;
                }
                StepEvent::Int3 => {
                    self.handle_int3(pid, tid);
                }
                StepEvent::Fault(f) => {
                    if sim_obs::enabled() && f.reason == sim_mem::FaultReason::PkuDenied {
                        sim_obs::pku_fault(self.clock, f.addr);
                    }
                    self.deliver_signal(
                        pid,
                        tid,
                        SigInfo {
                            signo: nr::SIGSEGV,
                            fault_addr: f.addr,
                            ..SigInfo::default()
                        },
                    );
                    return;
                }
            }
        }
    }

    /// True when ending the current slice and re-entering the scheduler
    /// loop would provably change nothing: no deferred writes to flush,
    /// no fault session advancing its round counter, the run deadline
    /// not reached, and exactly one process with exactly one (runnable)
    /// thread — so the rebuilt runnable list would contain only the
    /// current thread.
    fn fast_loop_ok(&self, pid: Pid) -> bool {
        self.deferred.is_empty()
            && self.fault.is_none()
            && self.clock < self.run_deadline
            && self.procs.len() == 1
            && self.procs.get(&pid).is_some_and(|p| {
                p.exit_status.is_none()
                    && p.threads.len() == 1
                    && p.threads[0].state == ThreadState::Runnable
            })
    }

    /// True when [`Kernel::run_slice_hot`] may run: a block engine (not
    /// the stepwise oracle) with no instrumentation (obs, fault session,
    /// interposer stack, profiler, record, audit, syscall log, tracers)
    /// armed, the
    /// machine has exactly one process with exactly one runnable thread
    /// (the current one), no seccomp filter is installed, no deferred
    /// writes are queued, and the run deadline is not reached. Everything
    /// that could invalidate these conditions — arming syscalls,
    /// hostcalls, thread creation — exits the hot loop first.
    fn hot_slice_ok(&self, pid: Pid, tid: Tid) -> bool {
        self.engine != Engine::Stepwise
            && !sim_obs::enabled()
            && self.fault.is_none()
            && self.stack.is_none()
            && self.prof.is_none()
            && self.record.is_none()
            && self.audit.is_none()
            && self.trace_log.is_none()
            && self.tracers.is_empty()
            && self.deferred.is_empty()
            && self.clock < self.run_deadline
            && self.procs.len() == 1
            && self.procs.get(&pid).is_some_and(|p| {
                p.exit_status.is_none()
                    && p.seccomp.is_none()
                    && p.threads.len() == 1
                    && p.threads[0].tid == tid
                    && p.threads[0].state == ThreadState::Runnable
            })
    }

    /// The single-threaded hot loop: alternates block/trace execution and
    /// direct-path handling of trivial syscalls under **one** process
    /// borrow, batching clock, per-thread cycle, and syscall-statistic
    /// accounting in locals that are flushed at exact retired-instruction
    /// boundaries (before any state the general path could observe).
    ///
    /// Guarded by [`Kernel::hot_slice_ok`]; nothing the loop handles can
    /// invalidate those conditions, so they are checked once. Slice
    /// exhaustion and direct-path syscalls restart the slice in place —
    /// architecturally identical to unwinding into the scheduler loop,
    /// which [`Kernel::fast_loop_ok`]'s reasoning shows would be a no-op.
    ///
    /// Returns `Some(block)` when a block ended with an exit the general
    /// loop must handle — that block's accounting has **not** been
    /// applied yet (the caller's normal bookkeeping applies it), though
    /// its exec-trace entries are already recorded. Returns `None` when
    /// the slice ended cleanly (run deadline reached); the caller returns
    /// to the scheduler.
    fn run_slice_hot(
        &mut self,
        pid: Pid,
        tid: Tid,
        icache: IcacheMode,
        tparams: Option<sim_cpu::TraceParams>,
        remaining: &mut u64,
    ) -> Option<BlockExit> {
        let cost = self.cost;
        let deadline = self.run_deadline;
        let mut exec_trace = self.exec_trace.take();
        let mut clock = self.clock;
        let mut retired = self.retired;
        let mut cycles_acc = 0u64;
        let mut vdso_acc = 0u64;
        let result;
        {
            let p = self.procs.get_mut(&pid).expect("hot_slice_ok checked");
            let Process {
                space,
                threads,
                stats,
                region_cache,
                interposer_live,
                ..
            } = p;
            let t = &mut threads[0];
            t.cpu.set_icache_mode(icache);
            t.cpu.set_trace_mode(tparams);
            // Constant for the whole hot slice: only non-trivial syscalls
            // (which exit this loop) can arm SUD, set `restarting`, or
            // make the interposer live.
            let restarting = t.restarting;
            let sud_armed = t.sud.is_some();
            let mut batch = StatsBatch {
                stats,
                region_cache,
                interposer_live: *interposer_live,
                nr: 0,
                site: 0,
                count: 0,
            };
            result = loop {
                let budget = *remaining;
                // Shared between the step hook and the syscall hook (a
                // handled syscall's charge must show up in the clocks of
                // the trace entries that follow it), hence a Cell.
                let traced_clock = std::cell::Cell::new(clock);
                // Direct-path syscall entry inside trace replay: the
                // same trivial-syscall service as the block-exit arm
                // below, with identical register, serialization, clock,
                // and statistics effects — so a self-looping trace
                // handles its syscall without ever leaving `run_block`.
                let mut syscall_fast =
                    |cpu: &mut Cpu, space: &mut AddressSpace, site: u64, abs: u64| {
                        if restarting || sud_armed {
                            return HookAction::Pass;
                        }
                        let Some((nr_, charge)) =
                            serve_trivial_syscall(cpu, space, &cost, site, pid, tid)
                        else {
                            return HookAction::Pass;
                        };
                        batch.add(space, nr_, site);
                        traced_clock.set(traced_clock.get() + charge);
                        HookAction::Handled {
                            charge,
                            stop: abs + charge >= deadline,
                        }
                    };
                // Monomorphize the replay loop on whether an exec trace
                // is being recorded: the no-trace instantiation's step
                // hook is a true no-op instead of a per-op branch.
                let block = if exec_trace.is_none() {
                    t.cpu.run_block_hooked(
                        space,
                        clock,
                        &cost,
                        budget,
                        |_, _: &Step| {},
                        &mut syscall_fast,
                    )
                } else {
                    t.cpu.run_block_hooked(
                        space,
                        clock,
                        &cost,
                        budget,
                        |rip, step: &Step| {
                            if let Some(rec) = exec_trace.as_mut() {
                                traced_clock.set(traced_clock.get() + step.cycles);
                                rec.push(TraceEntry {
                                    pid,
                                    tid,
                                    rip,
                                    clock: traced_clock.get(),
                                    event: step.event,
                                });
                            }
                        },
                        &mut syscall_fast,
                    )
                };
                let charge = match block.event {
                    StepEvent::Syscall { site, .. } if !restarting && !sud_armed => {
                        let Some((nr_, charge)) =
                            serve_trivial_syscall(&mut t.cpu, space, &cost, site, pid, tid)
                        else {
                            break Some(block);
                        };
                        batch.add(space, nr_, site);
                        charge
                    }
                    StepEvent::Executed => 0,
                    // Hlt, Int3, Fault, restarting or SUD-armed syscalls:
                    // hand the exit (accounting unapplied) to the caller.
                    _ => break Some(block),
                };
                clock += block.cycles + charge;
                cycles_acc += block.cycles + charge;
                vdso_acc += block.vdso_calls;
                retired += block.steps;
                if clock >= deadline {
                    *remaining = 0;
                    break None;
                }
                // Budget exhausted or direct-path return: the slice is
                // over, and the scheduler round that follows is a no-op,
                // so start the next slice in place.
                *remaining = Self::SLICE;
            };
            batch.flush(space);
            batch.stats.vdso_calls += vdso_acc;
        }
        self.exec_trace = exec_trace;
        self.clock = clock;
        self.retired = retired;
        if cycles_acc > 0 {
            *self.thread_cycles.entry((pid, tid)).or_insert(0) += cycles_acc;
        }
        result
    }

    fn handle_int3(&mut self, pid: Pid, tid: Tid) {
        // The int3 has retired: the site address is rip - 1.
        let site = match self.cpu_mut(pid, tid) {
            Some(cpu) => cpu.rip.wrapping_sub(1),
            None => return,
        };
        let Some(name) = self.hostcall_sites.get(&(pid, site)).cloned() else {
            // Unregistered breakpoint: fatal SIGTRAP.
            self.kill_process(pid, 128 + nr::SIGTRAP as i64);
            return;
        };
        let Some(f) = self.hostcall_impls.get(&name).cloned() else {
            self.kill_process(pid, 128 + nr::SIGTRAP as i64);
            return;
        };
        self.charge(self.cost.hostcall);
        (f.borrow_mut())(self, pid, tid);
    }

    /// Resolves the mapped-region name containing `site` through the same
    /// per-process memo the stats path uses (one mapping walk per
    /// `(site, mapping generation)`).
    fn site_region(&mut self, pid: Pid, site: u64) -> String {
        match self.procs.get_mut(&pid) {
            Some(p) => memo_region(&mut p.region_cache, &p.space, site).clone(),
            None => "?".to_string(),
        }
    }

    /// Direct-path kernel entry for trivial process-local syscalls.
    ///
    /// When no interposition or instrumentation machinery is armed (no
    /// tracer on the process, no SUD on the thread, no seccomp filter,
    /// no fault session, no syscall log, obs disabled, not an in-kernel
    /// restart) and the syscall's only effects are a return value plus
    /// counter updates, the full [`Kernel::handle_syscall`] walk — five
    /// separate process borrows, two tracer-stop probes, a seccomp
    /// lookup, and a register re-read — collapses to one borrow. Every
    /// architectural effect (clock charges, per-thread cycle
    /// attribution, syscall statistics, register clobbers) is identical
    /// to the slow path; the determinism suite diffs the two.
    ///
    /// Returns `false` (without side effects) when any condition fails;
    /// the caller then takes the slow path.
    fn handle_syscall_fast(&mut self, pid: Pid, tid: Tid, site: u64) -> bool {
        if sim_obs::enabled()
            || self.fault.is_some()
            || self.stack.is_some()
            || self.record.is_some()
            || self.audit.is_some()
            || self.trace_log.is_some()
            || self.tracers.contains_key(&pid)
        {
            return false;
        }
        let cost = self.cost;
        let Some(p) = self.procs.get_mut(&pid) else {
            return false;
        };
        if p.seccomp.is_some() {
            return false;
        }
        let Process {
            space,
            threads,
            stats,
            region_cache,
            interposer_live,
            ..
        } = p;
        let Some(t) = threads.iter_mut().find(|t| t.tid == tid) else {
            return false;
        };
        if t.restarting || t.sud.is_some() {
            return false;
        }
        let Some((nr_, cycles)) = serve_trivial_syscall(&mut t.cpu, space, &cost, site, pid, tid)
        else {
            return false;
        };
        flush_syscall_stats(stats, region_cache, space, *interposer_live, nr_, site, 1);
        // One folded clock charge: entry cost plus the service cost the
        // dispatch layer would add. Obs is off (checked above), so
        // `charge`'s set_clock call would be a no-op anyway.
        self.clock += cycles;
        *self.thread_cycles.entry((pid, tid)).or_insert(0) += cycles;
        true
    }

    /// Kernel entry for a `syscall`/`sysenter` at `site`.
    /// Returns `true` when the direct path handled the syscall — the
    /// block engines use that to skip the no-op scheduler round that
    /// would otherwise follow.
    fn handle_syscall(&mut self, pid: Pid, tid: Tid, site: u64) -> bool {
        if self.handle_syscall_fast(pid, tid, site) {
            return true;
        }
        self.handle_syscall_slow(pid, tid, site);
        false
    }

    /// The full kernel-entry walk: SUD dispatch, ptrace stops, seccomp,
    /// statistics, fault injection, and the syscall table.
    fn handle_syscall_slow(&mut self, pid: Pid, tid: Tid, site: u64) {
        let cost = self.cost;
        // Gather thread state.
        let (nr_, args, sud, selector, restarting) = {
            let Some(p) = self.procs.get_mut(&pid) else {
                return;
            };
            let Process { space, threads, .. } = p;
            let Some(t) = threads.iter_mut().find(|t| t.tid == tid) else {
                return;
            };
            let restarting = std::mem::take(&mut t.restarting);
            // Kernel entry serializes the core's instruction stream
            // (coalesced to a no-op while nothing in the space was
            // written — the common case for a tight syscall loop).
            t.cpu.serialize(space);
            let nr_ = t.cpu.get(Reg::Rax);
            let args = [
                t.cpu.get(Reg::Rdi),
                t.cpu.get(Reg::Rsi),
                t.cpu.get(Reg::Rdx),
                t.cpu.get(Reg::R10),
                t.cpu.get(Reg::R8),
                t.cpu.get(Reg::R9),
            ];
            let sud = t.sud;
            let selector = sud.and_then(|s| {
                let mut b = [0u8; 1];
                space.read_raw(s.selector_addr, &mut b).ok().map(|_| b[0])
            });
            (nr_, args, sud, selector, restarting)
        };

        // Observability: open the syscall span (one per architectural
        // syscall — a restart resumes the span opened at first entry) and
        // observe the SUD selector byte for flip detection.
        let obs = sim_obs::enabled();
        if obs && !restarting {
            let region = self.site_region(pid, site);
            sim_obs::syscall_enter(self.clock, nr_, site, &region, nr::syscall_name(nr_));
            if let Some(sel) = selector {
                sim_obs::sud_selector(self.clock, sel);
            }
        }

        // Kernel entry cost; SUD arming puts every entry on the slow path.
        // A restarted (previously blocked) syscall resumes in-kernel: no
        // second entry, no re-dispatch, no second tracer stop.
        if !restarting {
            self.charge(cost.kernel_entry);
            if sud.is_some() {
                self.charge(cost.sud_slowpath);
            }
        }
        self.record_syscall_entry(pid, tid, restarting);

        // Coverage audit: tag each architectural syscall once, at first
        // entry (a restart resumes in-kernel — the tag stands). The SUD
        // outcome is predicted from the same state the dispatch check
        // below reads, so tagging here also covers the SIGSYS early
        // return.
        if !restarting && self.audit.is_some() {
            let region = self.site_region(pid, site);
            let traced = self
                .tracers
                .get(&pid)
                .is_some_and(|t| t.opts.trace_syscalls);
            let live = self.procs.get(&pid).is_some_and(|p| p.interposer_live);
            let in_allowlist = sud.is_some_and(|s| s.in_allowlist(site));
            let view = crate::audit::SyscallView {
                region: &region,
                traced,
                live,
                sud_armed: sud.is_some(),
                in_allowlist,
                will_sigsys: sud.is_some()
                    && !in_allowlist
                    && selector == Some(nr::SYSCALL_DISPATCH_FILTER_BLOCK),
                selector_allow: selector == Some(nr::SYSCALL_DISPATCH_FILTER_ALLOW),
            };
            let tag = self
                .audit
                .as_mut()
                .expect("checked above")
                .classify(pid, site, &view);
            if obs {
                let mark = match tag {
                    crate::audit::AuditTag::Path => sim_obs::AuditMark::Path,
                    crate::audit::AuditTag::Control => sim_obs::AuditMark::Control,
                    crate::audit::AuditTag::Double => sim_obs::AuditMark::Double,
                    crate::audit::AuditTag::Bypassed(sig) => {
                        sim_obs::AuditMark::Bypass(sig.code())
                    }
                };
                sim_obs::audit_tag(self.clock, nr_, site, &region, mark);
            }
        }

        // SUD dispatch check (before anything else, as in Linux).
        let sud_check = if restarting { None } else { sud };
        if let Some(s) = sud_check {
            if !s.in_allowlist(site) {
                match selector {
                    Some(nr::SYSCALL_DISPATCH_FILTER_BLOCK) => {
                        // Deliver SIGSYS; saved context resumes after the
                        // syscall instruction.
                        if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                            t.cpu.rip = site + 2;
                        }
                        if let Some(p) = self.procs.get_mut(&pid) {
                            p.stats.sigsys_count += 1;
                        }
                        if obs {
                            sim_obs::sigsys(self.clock, nr_, site, nr::syscall_name(nr_));
                            sim_obs::span_enter(self.clock, "sud/sigsys-deliver");
                        }
                        self.deliver_signal(
                            pid,
                            tid,
                            SigInfo {
                                signo: nr::SIGSYS,
                                syscall: nr_,
                                call_addr: site,
                                ..SigInfo::default()
                            },
                        );
                        if obs {
                            sim_obs::span_exit(self.clock);
                        }
                        return;
                    }
                    Some(_) => {}
                    None => {
                        // Unreadable selector: Linux kills the task.
                        self.kill_process(pid, 128 + nr::SIGSYS as i64);
                        return;
                    }
                }
            }
        }

        // ptrace syscall-enter stop (not repeated for in-kernel restarts).
        // The tracer may rewrite the tracee's registers (PTRACE_SETREGS) —
        // the syscall then executes with the *modified* arguments, exactly
        // as on Linux.
        let enter_action = if restarting {
            TracerAction::Continue
        } else {
            self.tracer_stop(
            pid,
            tid,
            Stop::SyscallEnter {
                nr: nr_,
                args,
                site,
            },
            |o| o.trace_syscalls,
            )
        };
        match enter_action {
            TracerAction::Continue | TracerAction::Detach => {}
            TracerAction::Kill => return,
            TracerAction::SkipSyscall { ret } => {
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.cpu.rip = site + 2;
                    t.cpu.set(Reg::Rax, ret);
                    let rip = t.cpu.rip;
                    t.cpu.apply_syscall_clobbers(rip);
                }
                if obs {
                    sim_obs::syscall_exit(self.clock, nr_, ret, nr::syscall_name(nr_));
                }
                return;
            }
        }

        // seccomp filter (installed filters survive execve, as on Linux).
        let seccomp_action = self
            .procs
            .get(&pid)
            .and_then(|p| p.seccomp.as_ref())
            .map(|f| f.action(nr_));
        match seccomp_action {
            Some(SeccompAction::Kill) => {
                self.kill_process(pid, 128 + nr::SIGSYS as i64);
                return;
            }
            Some(SeccompAction::Errno(e)) => {
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.cpu.rip = site + 2;
                    t.cpu.set(Reg::Rax, nr::err(e));
                    t.cpu.apply_syscall_clobbers(site + 2);
                }
                if obs {
                    sim_obs::syscall_exit(self.clock, nr_, nr::err(e), nr::syscall_name(nr_));
                }
                return;
            }
            _ => {}
        }

        // Re-read registers: a tracer may have changed them at the stop.
        let (nr_, args) = {
            let Some(t) = self.procs.get(&pid).and_then(|p| p.thread(tid)) else {
                return;
            };
            (
                t.cpu.get(Reg::Rax),
                [
                    t.cpu.get(Reg::Rdi),
                    t.cpu.get(Reg::Rsi),
                    t.cpu.get(Reg::Rdx),
                    t.cpu.get(Reg::R10),
                    t.cpu.get(Reg::R8),
                    t.cpu.get(Reg::R9),
                ],
            )
        };

        // Count + trace.
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        flush_syscall_stats(
            &mut p.stats,
            &mut p.region_cache,
            &p.space,
            p.interposer_live,
            nr_,
            site,
            1,
        );
        if self.trace_log.is_some() {
            let line = format!(
                "[pid {pid}] {}({:#x}, {:#x}, {:#x}) @ {site:#x}",
                nr::syscall_name(nr_),
                args[0],
                args[1],
                args[2]
            );
            if let Some(log) = self.trace_log.as_mut() {
                log.push(line);
            }
        }

        // sim-fault errno injection: decided purely by (plan, nr,
        // executed-occurrence index). Occurrences count only once the
        // interposer is live and never for in-kernel restarts, so the
        // numbering is architectural — identical under both engines.
        let injected = if self.fault.is_some() && !restarting {
            let live = self.procs.get(&pid).is_some_and(|p| p.interposer_live);
            match self.fault.as_mut() {
                Some(fs) if live => {
                    let occ = fs.occurrences.entry(nr_).or_insert(0);
                    let idx = *occ;
                    *occ += 1;
                    fs.plan.syscall_fault(nr_, idx)
                }
                _ => None,
            }
        } else {
            None
        };
        if let Some(kind) = injected {
            if obs {
                sim_obs::fault_errno(self.clock, nr_, kind.tag());
            }
        }

        // Injecting replay: a non-process-local syscall is not re-executed;
        // its recorded completion (return value, service cycles, page
        // writes) is applied instead, so navigation after a checkpoint
        // restore needs no VFS/net/RNG state.
        if self
            .record
            .as_ref()
            .is_some_and(|rs| rs.mode == RecordModeKind::Inject)
            && !inject_passthrough(nr_)
        {
            let rec = self.record.as_mut().and_then(RecordSession::take_syscall);
            match rec {
                Some(Rec::Syscall {
                    nr: rnr,
                    ret,
                    cycles,
                    writes,
                    ..
                }) if rnr == nr_ => {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        for (base, data) in &writes {
                            let _ = p.space.write_raw(*base, data);
                        }
                        if let Some(t) = p.thread_mut(tid) {
                            t.cpu.rip = site + 2;
                            t.cpu.set(Reg::Rax, ret);
                            t.cpu.apply_syscall_clobbers(site + 2);
                        }
                    }
                    self.charge(cycles);
                    if obs {
                        sim_obs::syscall_exit(self.clock, nr_, ret, nr::syscall_name(nr_));
                    }
                }
                _ => {
                    // Log exhausted or misaligned: halt navigation.
                    if let Some(rs) = self.record.as_mut() {
                        rs.stopped = true;
                    }
                }
            }
            return;
        }

        // Dispatch — through the interposer chain when a composed stack
        // covers this (process, site), otherwise straight to the kernel.
        // In-kernel restarts never re-enter the chain: the layers ran at
        // first entry; the retry completes below them.
        if !restarting && self.chain_applies(pid, site) {
            let ctx = crate::stack::SyscallCtx { pid, tid, nr: nr_, args, site };
            self.chain_dispatch(ctx, injected, obs);
        } else {
            self.chain_real_dispatch(pid, tid, nr_, args, site, injected);
        }
    }

    /// The real kernel dispatch and its architectural effects (registers,
    /// blocking, record/trace/obs exits) — the bottom of the interposer
    /// chain, and the whole dispatch step when no chain applies. Applies
    /// `injected` exactly as the pre-chain dispatch did.
    pub(crate) fn chain_real_dispatch(
        &mut self,
        pid: Pid,
        tid: Tid,
        nr_: u64,
        args: [u64; 6],
        site: u64,
        injected: Option<FaultKind>,
    ) -> crate::stack::RealOutcome {
        let obs = sim_obs::enabled();
        let disp = match injected {
            Some(FaultKind::Eintr) => crate::sys::Disp::Ret(nr::err(nr::EINTR)),
            Some(FaultKind::Eagain) => crate::sys::Disp::Ret(nr::err(nr::EAGAIN)),
            Some(FaultKind::Enomem) => crate::sys::Disp::Ret(nr::err(nr::ENOMEM)),
            Some(FaultKind::Partial) => {
                // Cap the transfer length: the call executes with faithful
                // side effects and itself returns the short count.
                let mut capped = args;
                if capped[2] > 1 {
                    capped[2] /= 2;
                }
                self.sys_dispatch(pid, tid, nr_, capped, site)
            }
            None => self.sys_dispatch(pid, tid, nr_, args, site),
        };
        match disp {
            crate::sys::Disp::Ret(ret) => {
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.cpu.rip = site + 2;
                    t.cpu.set(Reg::Rax, ret);
                    t.cpu.apply_syscall_clobbers(site + 2);
                }
                self.record_syscall_ret(pid, tid, nr_, site, ret);
                self.tracer_stop(pid, tid, Stop::SyscallExit { nr: nr_, ret }, |o| {
                    o.trace_syscalls
                });
                if obs {
                    sim_obs::syscall_exit(self.clock, nr_, ret, nr::syscall_name(nr_));
                }
                crate::stack::RealOutcome::Ret(ret)
            }
            crate::sys::Disp::RetThenBlock(ret, wait) => {
                if let Some(t) = self.procs.get_mut(&pid).and_then(|p| p.thread_mut(tid)) {
                    t.cpu.rip = site + 2;
                    t.cpu.set(Reg::Rax, ret);
                    t.cpu.apply_syscall_clobbers(site + 2);
                    t.state = ThreadState::Blocked(wait);
                }
                self.record_syscall_ret(pid, tid, nr_, site, ret);
                if obs {
                    sim_obs::syscall_exit(self.clock, nr_, ret, nr::syscall_name(nr_));
                }
                crate::stack::RealOutcome::Ret(ret)
            }
            crate::sys::Disp::Block(wait) => {
                // rip stays at the syscall instruction: the thread retries on
                // wake. Undo the "executed" count — it will be recounted.
                if let Some(p) = self.procs.get_mut(&pid) {
                    p.stats.syscalls -= 1;
                    *p.stats.per_syscall.entry(nr_).or_insert(1) -= 1;
                    let region = memo_region(&mut p.region_cache, &p.space, site).clone();
                    *p.stats.syscalls_via.entry(region).or_insert(1) -= 1;
                    *p.stats.per_site.entry(site).or_insert(1) -= 1;
                    if p.stats.per_site.get(&site) == Some(&0) {
                        p.stats.per_site.remove(&site);
                    }
                    if !p.interposer_live {
                        p.stats.syscalls_before_interposer -= 1;
                    }
                    if let Some(t) = p.thread_mut(tid) {
                        t.state = ThreadState::Blocked(wait);
                        // On wake the syscall resumes in-kernel.
                        t.restarting = true;
                    }
                }
                crate::stack::RealOutcome::Opaque
            }
            crate::sys::Disp::NoReturn => {
                if nr_ == nr::SYS_RT_SIGRETURN {
                    crate::stack::RealOutcome::Sigreturn
                } else {
                    crate::stack::RealOutcome::Opaque
                }
            }
        }
    }

    // ---- fork/clone helpers used by sys.rs -----------------------------------

    pub(crate) fn do_fork(&mut self, pid: Pid, tid: Tid, site: u64) -> u64 {
        let child_pid = self.next_pid;
        self.next_pid += 1;
        let child_tid = self.next_tid;
        self.next_tid += 1;

        let Some(parent) = self.procs.get(&pid) else {
            return nr::err(nr::ENOENT);
        };
        let Some(t) = parent.thread(tid) else {
            return nr::err(nr::ENOENT);
        };
        let mut child = Process::new(child_pid, pid, child_tid);
        child.exe = parent.exe.clone();
        child.space = parent.space.clone();
        child.fds = parent.fds.clone();
        child.env = parent.env.clone();
        child.argv = parent.argv.clone();
        child.cwd = parent.cwd.clone();
        child.sigactions = parent.sigactions.clone();
        child.vdso_enabled = parent.vdso_enabled;
        child.vdso_base = parent.vdso_base;
        child.symbols = parent.symbols.clone();
        child.lib_bases = parent.lib_bases.clone();
        child.interposer_live = parent.interposer_live;
        child.seccomp = parent.seccomp.clone();
        // Stack-layer membership: only layers that opted into fork
        // propagation follow the child.
        let fork_mask = self.stack.as_ref().map_or(0, |s| s.fork_mask());
        child.stack_mask = parent.stack_mask & fork_mask;
        child.chain_sites = parent.chain_sites.clone();
        // Readiness state follows the fd table: epoll instances and eventfd
        // counters are duplicated (each side then mutates its own copy, the
        // same as two processes holding independent descriptions), and the
        // per-fd O_NONBLOCK set carries over.
        child.epolls = parent.epolls.clone();
        child.next_epoll = parent.next_epoll;
        child.eventfds = parent.eventfds.clone();
        child.next_eventfd = parent.next_eventfd;
        child.nonblock = parent.nonblock.clone();
        let mut ccpu = t.cpu.clone();
        ccpu.rip = site + 2;
        ccpu.set(Reg::Rax, 0);
        ccpu.apply_syscall_clobbers(site + 2);
        child.threads[0].cpu = ccpu;
        child.threads[0].sud = t.sud;
        // A fork from inside a signal handler inherits the handler context:
        // the child's stack is a copy, so its live signal frames — and any
        // masking state and deferred signals — are too.
        child.threads[0].sig_frames = t.sig_frames.clone();
        child.threads[0].frame_masked = t.frame_masked.clone();
        child.threads[0].pending_signals = t.pending_signals.clone();

        // Channel and listener refcounts for duplicated descriptors.
        let chans: Vec<(usize, crate::net::End)> = child
            .fds
            .values()
            .filter_map(|fd| match fd {
                FdEntry::ChannelRead { chan, end }
                | FdEntry::ChannelWrite { chan, end }
                | FdEntry::Socket { chan, end } => Some((*chan, *end)),
                _ => None,
            })
            .collect();
        let ports: Vec<u16> = child
            .fds
            .values()
            .filter_map(|fd| match fd {
                FdEntry::Listener { port } => Some(*port),
                _ => None,
            })
            .collect();
        for (c, e) in chans {
            self.net.add_ref(c, e);
        }
        for port in ports {
            if let Some(l) = self.net.listeners.get_mut(&port) {
                l.refs += 1;
            }
        }

        self.procs.insert(child_pid, child);
        if let Some(p) = self.procs.get_mut(&pid) {
            p.children.push(child_pid);
        }
        // Duplicate hostcall wiring (same image).
        let copies: Vec<(u64, String)> = self
            .hostcall_sites
            .iter()
            .filter(|((p, _), _)| *p == pid)
            .map(|((_, a), n)| (*a, n.clone()))
            .collect();
        for (a, n) in copies {
            self.hostcall_sites.insert((child_pid, a), n);
        }
        self.maybe_trace_fork(pid, child_pid, tid);
        if let Some(a) = &mut self.audit {
            // Fork-propagation audit: a child born outside the mechanism's
            // reach (no inherited liveness, no tracer follow) while the
            // parent was covered is a fork-gap shadow.
            let parent_covered = self.procs.get(&pid).is_some_and(|p| p.interposer_live)
                || self
                    .tracers
                    .get(&pid)
                    .is_some_and(|t| t.opts.trace_syscalls);
            let child_covered = self
                .procs
                .get(&child_pid)
                .is_some_and(|p| p.interposer_live)
                || self
                    .tracers
                    .get(&child_pid)
                    .is_some_and(|t| t.opts.trace_syscalls);
            a.note_fork(child_pid, parent_covered, child_covered);
        }
        child_pid
    }

    pub(crate) fn do_clone_thread(&mut self, pid: Pid, tid: Tid, site: u64, stack: u64) -> u64 {
        let new_tid = self.next_tid;
        self.next_tid += 1;
        let Some(p) = self.procs.get_mut(&pid) else {
            return nr::err(nr::ENOENT);
        };
        let Some(t) = p.thread(tid) else {
            return nr::err(nr::ENOENT);
        };
        let (cpu_clone, sud, frame) = (t.cpu.clone(), t.sud, t.sig_frames.last().copied());
        let mut nt = Thread::new(new_tid);
        nt.cpu = cpu_clone;
        nt.sud = sud;
        // If the clone was forwarded from inside a signal handler (an
        // SUD-based interposer emulating the app's clone), the child must
        // start from the *saved application context*, not from the middle
        // of the handler — the fixup every real SUD interposer implements
        // for clone. We model that corrected behavior here.
        let (resume_rip, base_regs) = match frame {
            Some(f) => {
                let mut rip = [0u8; 8];
                let _ = p.space.read_raw(f + signal::UC_RIP, &mut rip);
                let mut regs = [0u64; 16];
                for (i, r) in regs.iter_mut().enumerate() {
                    let mut b = [0u8; 8];
                    let _ = p
                        .space
                        .read_raw(f + signal::UC_REGS + 8 * i as u64, &mut b);
                    *r = u64::from_le_bytes(b);
                }
                (u64::from_le_bytes(rip), Some(regs))
            }
            None => (site + 2, None),
        };
        if let Some(regs) = base_regs {
            nt.cpu.regs = regs;
        }
        nt.cpu.rip = resume_rip;
        nt.cpu.set(Reg::Rax, 0);
        nt.cpu.set(Reg::Rsp, stack);
        nt.cpu.apply_syscall_clobbers(resume_rip);
        let Some(p) = self.procs.get_mut(&pid) else {
            return nr::err(nr::ENOENT);
        };
        p.threads.push(nt);
        new_tid
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::nr;
    use sim_isa::{Asm, Reg};

    /// Minimal loader stub for kernel-level tests: maps raw code at a fixed
    /// base with a stack.
    struct RawLoader(Vec<u8>);

    impl ExecLoader for RawLoader {
        fn load(
            &self,
            _vfs: &mut Vfs,
            _path: &str,
            _argv: &[String],
            _env: &[String],
            _opts: &ExecOpts,
        ) -> Result<LoadedImage, i64> {
            let mut space = AddressSpace::new();
            space
                .map(0x1000, 0x10000, sim_mem::Perms::RX, "/bin/raw")
                .map_err(|_| -nr::ENOMEM)?;
            space.write_raw(0x1000, &self.0).map_err(|_| -nr::ENOMEM)?;
            space
                .map(0x8_0000, 0x10000, sim_mem::Perms::RW, "[stack]")
                .map_err(|_| -nr::ENOMEM)?;
            Ok(LoadedImage {
                space,
                entry: 0x1000,
                rsp: 0x9_0000 - 64,
                hostcall_sites: Vec::new(),
                symbols: BTreeMap::new(),
                lib_bases: BTreeMap::new(),
                vdso_base: 0,
            })
        }
    }

    pub(crate) fn kernel_with(code: Vec<u8>) -> (Kernel, Pid) {
        let mut k = Kernel::new();
        k.set_loader(Rc::new(RawLoader(code)));
        let pid = k.spawn("/bin/raw", &[], &[], None).expect("spawn");
        (k, pid)
    }

    /// A blocked syscall resumes in-kernel: exactly one kernel entry is
    /// charged even though the instruction re-executes after the wake.
    #[test]
    fn blocked_syscall_pays_single_kernel_entry() {
        // pipe(fds); read(rfd) [blocks]; parent thread writes after a sleep…
        // simpler: nanosleep-based wake isn't a retry; use a pipe via two
        // threads. Thread A reads (blocks); thread B writes one byte.
        let mut a = Asm::new();
        // pipe(&fds)
        a.mov_imm(Reg::Rdi, 0x8_0100);
        a.mov_imm(Reg::Rax, nr::SYS_PIPE);
        a.syscall();
        // spawn thread B: stack at 0x8_8000, entry seeded on its stack
        a.mov_imm(Reg::Rsi, 0x8_8000);
        a.lea_label(Reg::Rcx, "thread_b");
        a.inst(sim_isa::Inst::Store(Reg::Rsi, 0, Reg::Rcx));
        a.mov_imm(Reg::Rax, nr::SYS_CLONE);
        a.syscall();
        a.test_reg(Reg::Rax, Reg::Rax);
        a.jz("thread_b_entry");
        // thread A: read(rfd, buf, 1) — blocks until B writes.
        a.mov_imm(Reg::R11, 0x8_0100);
        a.inst(sim_isa::Inst::Load(Reg::Rdi, Reg::R11, 0));
        a.shl_imm(Reg::Rdi, 32);
        a.shr_imm(Reg::Rdi, 32);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_READ);
        a.label("read_site");
        a.syscall();
        a.mov_imm(Reg::Rdi, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label("thread_b_entry");
        a.label("thread_b");
        // burn some time, then write one byte
        a.mov_imm(Reg::Rcx, 500);
        a.label("spin");
        a.sub_imm(Reg::Rcx, 1);
        a.jnz("spin");
        a.mov_imm(Reg::R11, 0x8_0100);
        a.inst(sim_isa::Inst::Load(Reg::Rdi, Reg::R11, 0));
        a.shr_imm(Reg::Rdi, 32);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_WRITE);
        a.syscall();
        a.label("halt");
        a.jmp("halt");
        let prog = a.finish_program();
        let read_site = 0x1000 + prog.sym("read_site");
        let (mut k, pid) = kernel_with(prog.bytes);
        let exit = k.run(10_000_000_000);
        assert_eq!(exit, RunExit::AllExited);
        let p = k.process(pid).expect("proc");
        assert_eq!(p.exit_status, Some(0));
        // The read executed exactly once in the stats even though it blocked
        // and retried.
        assert_eq!(p.stats.syscalls_at_site(read_site), 1);
    }

    /// Deferred writes land exactly at their due time.
    #[test]
    fn deferred_write_lands_on_schedule() {
        let mut a = Asm::new();
        a.label("loop");
        a.mov_imm(Reg::R11, 0x8_0300);
        a.inst(sim_isa::Inst::Load(Reg::Rax, Reg::R11, 0));
        a.cmp_imm(Reg::Rax, 0);
        a.jz("loop");
        a.mov_imm(Reg::Rdi, 7);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        k.defer_write_u8(pid, 0x8_0300, 1, 5_000);
        let exit = k.run(10_000_000_000);
        assert_eq!(exit, RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(7));
        assert!(k.clock >= 5_000);
    }

    /// Emits `pipe(&0x8_0100)`, one byte written into it, and an epoll
    /// instance watching the read end with `events`. Leaves rfd in r12,
    /// wfd in r13, epfd in rbp.
    fn emit_watched_pipe(a: &mut Asm, events: u64) {
        a.mov_imm(Reg::Rdi, 0x8_0100);
        a.mov_imm(Reg::Rax, nr::SYS_PIPE);
        a.syscall();
        a.mov_imm(Reg::R11, 0x8_0100);
        a.inst(sim_isa::Inst::Load(Reg::R12, Reg::R11, 0));
        a.mov_reg(Reg::R13, Reg::R12);
        a.shl_imm(Reg::R12, 32);
        a.shr_imm(Reg::R12, 32); // rfd
        a.shr_imm(Reg::R13, 32); // wfd
        a.mov_reg(Reg::Rdi, Reg::R13);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_WRITE);
        a.syscall();
        a.mov_imm(Reg::Rdi, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CREATE1);
        a.syscall();
        a.mov_reg(Reg::Rbp, Reg::Rax);
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_ADD);
        a.mov_reg(Reg::Rdx, Reg::R12);
        a.mov_imm(Reg::R10, events);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
    }

    /// `epoll_wait(rbp, 0x8_0400, 8)`; exits with `bad` unless it
    /// returned exactly one event.
    fn emit_wait_expect_one(a: &mut Asm, bad: u64, ok: &str) {
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, 0x8_0400);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_WAIT);
        a.syscall();
        a.cmp_imm(Reg::Rax, 1);
        a.jz(ok);
        a.mov_imm(Reg::Rdi, bad);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label(ok);
    }

    /// Level-triggered interest re-delivers as long as the fd stays
    /// readable: two consecutive waits without draining both return the
    /// event.
    #[test]
    fn level_triggered_epoll_redelivers_until_drained() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN);
        emit_wait_expect_one(&mut a, 1, "w1");
        emit_wait_expect_one(&mut a, 2, "w2");
        // The delivered record is [fd u64][events u64] with our rfd.
        a.mov_imm(Reg::R11, 0x8_0400);
        a.inst(sim_isa::Inst::Load(Reg::Rcx, Reg::R11, 0));
        a.cmp_reg(Reg::Rcx, Reg::R12);
        a.jz("fd_ok");
        a.mov_imm(Reg::Rdi, 3);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label("fd_ok");
        a.mov_imm(Reg::Rdi, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::AllExited);
        assert_eq!(k.process(pid).unwrap().exit_status, Some(0));
    }

    /// Edge-triggered interest fires once per not-ready -> ready
    /// transition: the second wait on undrained data parks forever, and a
    /// drain + rewrite produces a fresh edge.
    #[test]
    fn edge_triggered_epoll_fires_once_per_edge() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN | nr::EPOLLET);
        emit_wait_expect_one(&mut a, 1, "w1");
        // Drain the byte (readiness drops: the edge re-arms), write a new
        // one, and expect a second delivery.
        a.mov_reg(Reg::Rdi, Reg::R12);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_READ);
        a.syscall();
        a.mov_reg(Reg::Rdi, Reg::R13);
        a.mov_imm(Reg::Rsi, 0x8_0200);
        a.mov_imm(Reg::Rdx, 1);
        a.mov_imm(Reg::Rax, nr::SYS_WRITE);
        a.syscall();
        emit_wait_expect_one(&mut a, 2, "w2");
        // Same edge again, no drain: this wait must park forever.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, 0x8_0400);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_WAIT);
        a.syscall();
        a.mov_imm(Reg::Rdi, 9);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::Deadlock);
        // Parked, not exited: the checks before the final wait passed.
        assert_eq!(k.process(pid).unwrap().exit_status, None);
    }

    /// EPOLLONESHOT disarms after one delivery (the second wait parks on
    /// still-readable data) and EPOLL_CTL_MOD re-arms.
    #[test]
    fn epoll_oneshot_disarms_until_mod_rearms() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN | nr::EPOLLONESHOT);
        emit_wait_expect_one(&mut a, 1, "w1");
        // Re-arm with MOD; level-triggered readiness redelivers.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_MOD);
        a.mov_reg(Reg::Rdx, Reg::R12);
        a.mov_imm(Reg::R10, nr::EPOLLIN | nr::EPOLLONESHOT);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
        emit_wait_expect_one(&mut a, 2, "w2");
        // Disarmed again, still readable: park forever.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, 0x8_0400);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_WAIT);
        a.syscall();
        a.mov_imm(Reg::Rdi, 9);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::Deadlock);
        assert_eq!(k.process(pid).unwrap().exit_status, None);
    }

    /// Closing a watched fd removes it from every interest set: a
    /// subsequent DEL reports ENOENT, ADD on a never-open fd reports
    /// EBADF, and a wait on the emptied instance parks despite the byte
    /// still sitting in the (now closed) pipe.
    #[test]
    fn epoll_on_closed_fd_is_removed_and_rejected() {
        let mut a = Asm::new();
        emit_watched_pipe(&mut a, nr::EPOLLIN);
        a.mov_reg(Reg::Rdi, Reg::R12);
        a.mov_imm(Reg::Rax, nr::SYS_CLOSE);
        a.syscall();
        // DEL on the closed fd: the close already dropped the entry AND
        // the fd, so the fd lookup itself reports EBADF.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_DEL);
        a.mov_reg(Reg::Rdx, Reg::R12);
        a.mov_imm(Reg::R10, 0);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
        a.cmp_imm(Reg::Rax, -(nr::EBADF as i32));
        a.jz("del_ok");
        a.mov_imm(Reg::Rdi, 1);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label("del_ok");
        // ADD on a never-open fd: EBADF.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, nr::EPOLL_CTL_ADD);
        a.mov_imm(Reg::Rdx, 99);
        a.mov_imm(Reg::R10, nr::EPOLLIN);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_CTL);
        a.syscall();
        a.cmp_imm(Reg::Rax, -(nr::EBADF as i32));
        a.jz("add_ok");
        a.mov_imm(Reg::Rdi, 2);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        a.label("add_ok");
        // Empty interest set: the wait parks forever.
        a.mov_reg(Reg::Rdi, Reg::Rbp);
        a.mov_imm(Reg::Rsi, 0x8_0400);
        a.mov_imm(Reg::Rdx, 8);
        a.mov_imm(Reg::Rax, nr::SYS_EPOLL_WAIT);
        a.syscall();
        a.mov_imm(Reg::Rdi, 9);
        a.mov_imm(Reg::Rax, nr::SYS_EXIT_GROUP);
        a.syscall();
        let (mut k, pid) = kernel_with(a.finish());
        assert_eq!(k.run(10_000_000_000), RunExit::Deadlock);
        assert_eq!(k.process(pid).unwrap().exit_status, None);
    }
}
