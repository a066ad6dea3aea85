//! Typed engine configuration and the kernel-side fault-injection session.
//!
//! [`EngineConfig`] replaced the accreted bool setters of earlier
//! revisions with one builder applied through
//! [`crate::Kernel::configure`]; every knob (engine, memory mode, trace
//! parameters, fault plan, profiler period, obs ring size) lives here. The
//! icache policy follows the engine (see [`EngineConfig::stepwise`]).
//! [`FaultSession`] is the kernel's live state for one [`FaultPlan`]:
//! architectural counters (syscall occurrences, scheduling rounds) plus
//! pending permission restorations.
//! It and [`ProfSession`] keep only their next-stop cursors; the retired
//! instructions they are keyed by come from the kernel's one retired
//! clock ([`crate::Kernel::retired`]), which advances identically under
//! every engine.

use crate::process::Pid;
use crate::record::RecordSpec;
use sim_cpu::TraceParams;
use sim_fault::FaultPlan;
use sim_mem::{MemMode, Perms};
use sim_record::Rec;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which scheduler engine executes guest code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The block-based fast path ([`sim_cpu::Cpu::run_block`]).
    #[default]
    Block,
    /// The block engine plus the trace cache: hot blocks are promoted
    /// into linked superblocks replayed without per-instruction fetches
    /// (see `sim_cpu::trace`).
    Trace,
    /// The original per-step loop, retained as the determinism oracle and
    /// benchmarking baseline.
    Stepwise,
}

/// One typed configuration for the execution engine.
///
/// ```
/// use sim_kernel::{Engine, EngineConfig, MemMode};
///
/// let fast = EngineConfig::new();
/// assert_eq!(fast.engine, Engine::Block);
/// let traced = EngineConfig::traced();
/// assert_eq!(traced.engine, Engine::Trace);
/// let oracle = EngineConfig::stepwise();
/// assert_eq!(oracle.engine, Engine::Stepwise);
/// let legacy = EngineConfig::new().mem(MemMode::Legacy);
/// assert_eq!(legacy.mem, MemMode::Legacy);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Scheduler engine.
    pub engine: Engine,
    /// Guest memory access mode (applied to every address space).
    pub mem: MemMode,
    /// Trace-cache knobs (consulted only under [`Engine::Trace`]).
    pub trace: TraceParams,
    /// Fault-injection plan, if any.
    pub fault: Option<FaultPlan>,
    /// Profiler sample period in retired instructions, if sampling.
    pub profile: Option<u64>,
    /// Observability event-ring capacity override (events per simulated
    /// CPU); `None` keeps the recorder's own configuration. Applied at
    /// [`crate::Kernel::configure`] time when recording is live.
    pub obs_ring_capacity: Option<usize>,
    /// Record/replay mode, if any (see [`crate::record`]).
    pub record: Option<RecordSpec>,
    /// Coverage-audit expectation, if auditing (see [`crate::audit`]).
    pub audit: Option<crate::audit::AuditSpec>,
}

impl EngineConfig {
    /// The default fast configuration: block engine, page-run memory,
    /// revalidating icache, no fault injection.
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// The trace-engine configuration: block engine plus superblock
    /// promotion with default [`TraceParams`].
    pub fn traced() -> EngineConfig {
        EngineConfig {
            engine: Engine::Trace,
            ..EngineConfig::default()
        }
    }

    /// The oracle configuration the determinism tests compare against:
    /// the stepwise engine, which [`crate::Kernel::configure`] always runs
    /// with the original seeded icache flushing
    /// ([`sim_cpu::IcacheMode::SeedFlush`]); the block and trace engines
    /// revalidate.
    pub fn stepwise() -> EngineConfig {
        EngineConfig {
            engine: Engine::Stepwise,
            ..EngineConfig::default()
        }
    }

    /// Selects the scheduler engine.
    pub fn engine(mut self, engine: Engine) -> EngineConfig {
        self.engine = engine;
        self
    }

    /// Overrides the trace-cache knobs (hotness threshold, max ops per
    /// trace, pool capacity).
    pub fn trace_params(mut self, params: TraceParams) -> EngineConfig {
        self.trace = params;
        self
    }

    /// Overrides the observability event-ring capacity (events per
    /// simulated CPU) while recording is live.
    pub fn obs_ring_capacity(mut self, cap: usize) -> EngineConfig {
        self.obs_ring_capacity = Some(cap);
        self
    }

    /// Selects the guest memory access mode.
    pub fn mem(mut self, mem: MemMode) -> EngineConfig {
        self.mem = mem;
        self
    }

    /// Installs a fault-injection plan.
    pub fn fault(mut self, plan: FaultPlan) -> EngineConfig {
        self.fault = Some(plan);
        self
    }

    /// Enables the deterministic sampling profiler: one sample every
    /// `period` retired instructions (clamped to ≥ 1). Samples land at
    /// identical architectural boundaries under both engines.
    pub fn profile(mut self, period: u64) -> EngineConfig {
        self.profile = Some(period.max(1));
        self
    }

    /// Enables recording (no checkpoints): syscall results, injected
    /// faults/signals, scheduler decisions, and exits are captured into a
    /// log keyed by retired-instruction counts.
    pub fn record(mut self) -> EngineConfig {
        self.record = Some(RecordSpec::Record {
            checkpoint_period: 0,
        });
        self
    }

    /// Enables navigation-grade recording: periodic checkpoints every
    /// `period` retired instructions (clamped to ≥ 1) plus per-syscall
    /// page-write snapshots for time-travel seeking.
    pub fn record_with_checkpoints(mut self, period: u64) -> EngineConfig {
        self.record = Some(RecordSpec::Record {
            checkpoint_period: period.max(1),
        });
        self
    }

    /// Enables the interposition coverage ledger, auditing every retired
    /// syscall against `spec` (a mechanism's expected-coverage
    /// declaration, `interpose::Interposer::coverage`). Auditing forces
    /// the full slow path so every syscall reaches the dispatch choke
    /// point; with no session configured the fast paths are untouched.
    pub fn audit(mut self, spec: crate::audit::AuditSpec) -> EngineConfig {
        self.audit = Some(spec);
        self
    }

    /// Enables verifying replay: re-execute in full and compare every
    /// produced record against `log`, halting at the first mismatch.
    pub fn replay_verify(mut self, log: Rc<Vec<Rec>>) -> EngineConfig {
        self.record = Some(RecordSpec::Verify { log });
        self
    }

    /// Enables injecting replay (navigation): short-circuit
    /// non-process-local syscalls and re-apply recorded asynchrony.
    pub fn replay_inject(mut self, log: Rc<Vec<Rec>>) -> EngineConfig {
        self.record = Some(RecordSpec::Inject { log });
        self
    }
}

/// Kernel-side state for applying one [`FaultPlan`].
pub(crate) struct FaultSession {
    /// The plan being applied.
    pub plan: FaultPlan,
    /// Plan boundaries strictly below this have fired. Injection retires
    /// no instructions, so without the cursor a boundary would re-fire
    /// forever at the same retired count.
    pub fired_until: u64,
    /// Per-syscall-nr executed-occurrence counters (counted only after
    /// `interposer_live`, never for in-kernel restarts).
    pub occurrences: BTreeMap<u64, u64>,
    /// Pending permission restorations:
    /// `(due boundary, pid, page base, saved perms)`.
    pub restores: Vec<(u64, Pid, u64, Perms)>,
    /// Scheduling round counter (drives [`FaultPlan::sched_rotation`]).
    pub round: u64,
}

/// Kernel-side state for the sampling profiler: the next sample boundary
/// on the kernel's retired clock. The kernel caps block budgets at it, so
/// samples land at identical architectural instructions under every
/// engine.
pub(crate) struct ProfSession {
    /// Sample period in retired instructions (≥ 1).
    pub period: u64,
    /// Next sample boundary: the first multiple of `period` above the
    /// last retired count a sample was due at.
    pub next: u64,
}

impl ProfSession {
    pub fn new(period: u64) -> ProfSession {
        let period = period.max(1);
        ProfSession {
            period,
            next: period,
        }
    }

    /// Moves [`ProfSession::next`] past `retired`; true when a boundary
    /// was reached (the caller takes one sample).
    pub fn pass(&mut self, retired: u64) -> bool {
        if retired < self.next {
            return false;
        }
        self.next += ((retired - self.next) / self.period + 1) * self.period;
        true
    }
}

impl FaultSession {
    pub fn new(plan: FaultPlan) -> FaultSession {
        FaultSession {
            plan,
            fired_until: 0,
            occurrences: BTreeMap::new(),
            restores: Vec::new(),
            round: 0,
        }
    }

    /// The next boundary (plan event or scheduled restore) at or after
    /// `retired` the engines must stop at, skipping plan boundaries that
    /// already fired. Due when it is at most `retired`.
    pub fn next_stop(&self, retired: u64) -> Option<u64> {
        let plan_next = self.plan.next_boundary(retired.max(self.fired_until));
        let restore_next = self.restores.iter().map(|r| r.0).min();
        plan_next.into_iter().chain(restore_next).min()
    }
}
