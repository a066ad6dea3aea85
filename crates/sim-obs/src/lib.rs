//! # sim-obs — deterministic tracing and metrics for the simulator
//!
//! A zero-overhead-when-disabled observability layer threaded through
//! `sim-mem`, `sim-cpu`, `sim-kernel`, and every interposer crate. It
//! records two kinds of data:
//!
//! * **Events** — structured records (syscall enter/exit, SIGSYS and
//!   ptrace-stop round-trips, context switches, SUD selector flips, PKU
//!   faults, icache revalidations/invalidations, TLB fills) pushed into
//!   bounded per-CPU ring buffers. Every event is stamped with the
//!   *simulated* clock — never wall time — so a trace is bit-identical
//!   across repeated runs and, for architectural events, across the block
//!   and stepwise engines.
//! * **Counters and histograms** — TLB hit rate, icache reuse vs.
//!   re-decode, block lengths, page-run lengths, and per-syscall latency
//!   histograms in sim-cycles bucketed per interposer path, so K23 vs.
//!   zpoline vs. lazypoline vs. SUD-only vs. ptrace-only overhead is
//!   directly attributable (paper Tables 3/4).
//!
//! ## Determinism contract
//!
//! Events split into two classes:
//!
//! * **Architectural** (syscalls, signals, tracer stops, context switches,
//!   SUD arms/selector flips, PKU faults): emitted from kernel code shared
//!   by both engines, stamped with clocks the determinism oracle already
//!   proves equal — these streams are byte-identical across engines.
//! * **Microarchitectural** ([`EventKind::TlbFill`],
//!   [`EventKind::IcacheRevalidate`], [`EventKind::IcacheInvalidate`]):
//!   the stepwise oracle seeds the icache flush at every serialization
//!   point while the block engine revalidates, so these *counts differ by
//!   design* across engines. They are therefore gated behind
//!   [`ObsConfig::micro_events`] (off by default) and excluded from the
//!   cross-engine equality guarantee; within one engine they are still
//!   bit-identical run to run.
//!
//! Ring buffers are bounded: once a CPU's ring is full, new events are
//! counted in [`Ring::dropped`] instead of growing the buffer, keeping
//! memory use flat and the recorded prefix deterministic.
//!
//! ## Threading model
//!
//! The simulator is single-host-threaded (a `Kernel` owns everything via
//! `Rc`), so all state here is thread-local: each host thread gets an
//! independent recorder, which also isolates concurrent `cargo test`
//! threads from each other. "Per-CPU" refers to *simulated* CPUs, keyed
//! by `(pid, tid)`.
//!
//! Not to be confused with `k23::log`, the K23 *offline site log* (the
//! persisted set of syscall sites discovered by the offline phase); this
//! crate is runtime telemetry about the simulation itself.

mod export;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Label used for syscall sites not inside any registered interposer
/// region: sites in the application or libc images ("direct" syscalls).
pub const DIRECT_PATH: &str = "direct";

/// One structured trace event. All payloads are plain integers or
/// `'static` names so events are `Copy` and comparisons are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Guest entered the kernel for a syscall. `path` indexes
    /// [`Recorder::paths`]: 0 is [`DIRECT_PATH`], others are interposer
    /// labels registered via [`register_region_path`].
    SyscallEnter {
        nr: u64,
        site: u64,
        path: u16,
        name: &'static str,
    },
    /// Syscall completed (or was cut short by SIGSYS, in which case
    /// `ret` is `u64::MAX` and the latency covers entry to delivery).
    SyscallExit {
        nr: u64,
        ret: u64,
        path: u16,
        latency: u64,
        name: &'static str,
    },
    /// SUD blocked the syscall and SIGSYS is about to be delivered.
    Sigsys { nr: u64, site: u64 },
    /// The tracee stopped for its ptracer (one full round-trip: two
    /// context switches were charged).
    TracerStop { kind: &'static str },
    /// The scheduler switched the running thread.
    ContextSwitch,
    /// `prctl(PR_SET_SYSCALL_USER_DISPATCH, ON)` armed SUD.
    SudArm { selector_addr: u64 },
    /// The SUD selector byte changed since this CPU last entered the
    /// kernel with SUD armed (ALLOW <-> BLOCK flip).
    SudSelectorFlip { value: u8 },
    /// A protection-key fault (lazypoline/K23 PKU guard).
    PkuFault { addr: u64 },
    /// `sim-fault` injected an errno (or partial-transfer cap) into a
    /// syscall occurrence.
    FaultErrno { nr: u64, kind: &'static str },
    /// `sim-fault` injected an asynchronous signal at an instruction
    /// boundary (`delivered` is false when the guest had no handler and
    /// the injection was deterministically skipped).
    FaultSignal { signo: u64, delivered: bool },
    /// `sim-fault` transiently flipped (or restored) a page's
    /// permissions.
    FaultPermFlip { page: u64, restore: bool },
    /// Microarchitectural: software TLB miss filled a slot.
    TlbFill { page: u64 },
    /// Microarchitectural: a stale icache entry revalidated by version
    /// check instead of re-decoding.
    IcacheRevalidate { rip: u64 },
    /// Microarchitectural: a store invalidated decoded instructions.
    IcacheInvalidate { addr: u64, entries: u64 },
    /// Coverage audit: the kernel's dispatch choke point saw a syscall
    /// the configured mechanism missed. `sig` is the pitfall-signature
    /// code (`sim_kernel::audit::Signature::code`). Gated behind
    /// [`ObsConfig::audit_events`] (off by default) so the event stream
    /// stays byte-identical between audit-on and audit-off runs;
    /// [`Counters`] and [`Recorder::audit_by_path`] are maintained
    /// regardless.
    AuditBypass {
        nr: u64,
        site: u64,
        sig: &'static str,
    },
    /// A critical-path span opened. `stage` indexes [`Recorder::stages`];
    /// emitted by an explicit [`span_enter`] or when execution entered a
    /// guest-address range registered via [`register_span_range`].
    SpanEnter { stage: u16 },
    /// The matching span closed; `dur` is its length in sim-cycles.
    SpanExit { stage: u16, dur: u64 },
}

/// An event stamped with the simulated clock and the simulated CPU
/// (`(pid, tid)`) that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub clock: u64,
    pub pid: u64,
    pub tid: u64,
    /// Recorder-wide insertion sequence number: a total order over all
    /// rings. Exporters use it to break clock ties so a begin/end pair
    /// emitted at the same clock can never be reordered.
    pub seq: u64,
    pub kind: EventKind,
}

/// Recorder configuration, fixed at [`enable`] time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Maximum events retained per simulated CPU; overflow increments
    /// the ring's drop counter instead of growing memory.
    pub ring_capacity: usize,
    /// Record microarchitectural events (TLB fills, icache
    /// revalidations/invalidations) into the rings. Off by default
    /// because their counts legitimately differ between the block and
    /// stepwise engines; counters are maintained regardless.
    pub micro_events: bool,
    /// Record [`EventKind::AuditBypass`] events into the rings. Off by
    /// default so enabling the kernel's coverage audit never perturbs
    /// the event stream (the audit-on/audit-off identity the
    /// invisibility proptests pin down); audit counters and the per-path
    /// table are maintained regardless.
    pub audit_events: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            ring_capacity: 1 << 16,
            micro_events: false,
            audit_events: false,
        }
    }
}

/// Bounded event buffer for one simulated CPU.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ring {
    cap: usize,
    pub events: Vec<Event>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap,
            events: Vec::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// Power-of-two histogram: bucket `b` counts values whose bit width is
/// `b` (bucket 0 holds only zero, bucket 1 holds 1, bucket 2 holds 2–3,
/// bucket `b` holds `2^(b-1) ..= 2^b - 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    pub buckets: [u64; 65],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        // Adversarial latencies (e.g. u64::MAX from injected faults) must
        // not wrap the running sum in debug builds.
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (an
    /// over-approximation, exact to a factor of two). `q` is clamped to
    /// `[0, 1]`; a NaN quantile reads as 0. An empty histogram answers 0
    /// for every quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= target {
                return if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
            }
        }
        self.max
    }
}

/// Flat counter/histogram registry, always maintained while enabled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counters {
    // sim-mem
    pub tlb_hits: u64,
    pub tlb_fills: u64,
    pub page_runs: Hist,
    // sim-cpu
    pub icache_fresh_hits: u64,
    pub icache_revalidations: u64,
    pub icache_decodes: u64,
    pub icache_invalidations: u64,
    pub icache_invalidated_entries: u64,
    pub icache_flushes: u64,
    /// Serialization points coalesced away because the address space's
    /// write stamp was unchanged since the last real flush — the flush
    /// would have revalidated every entry trivially.
    pub icache_flush_coalesced: u64,
    pub block_lengths: Hist,
    // sim-cpu trace engine
    pub trace_forms: u64,
    pub trace_entries: u64,
    pub trace_links: u64,
    pub trace_side_exits: u64,
    pub trace_revalidations: u64,
    pub trace_unlinks: u64,
    pub trace_aborts: u64,
    pub trace_lengths: Hist,
    // sim-kernel
    pub syscalls: u64,
    pub sigsys: u64,
    pub tracer_stops: u64,
    pub ctx_switches: u64,
    pub sud_arms: u64,
    pub sud_selector_flips: u64,
    pub pku_faults: u64,
    // sim-fault injections (architectural: identical across engines)
    pub faults_errno: u64,
    pub faults_signal: u64,
    pub faults_flip: u64,
    // interposers
    pub ptrace_hooks: u64,
    // sim-kernel coverage audit (architectural; maintained whenever the
    // kernel's audit session is live, independent of `audit_events`)
    pub audit_interposed: u64,
    pub audit_bypassed: u64,
    pub audit_double: u64,
}

impl Counters {
    /// TLB hit rate in [0, 1]; 1.0 when the TLB was never exercised.
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_hits + self.tlb_fills;
        if total == 0 {
            1.0
        } else {
            self.tlb_hits as f64 / total as f64
        }
    }

    /// Fraction of fetches served without a full re-decode.
    pub fn icache_reuse_rate(&self) -> f64 {
        let total = self.icache_fresh_hits + self.icache_revalidations + self.icache_decodes;
        if total == 0 {
            1.0
        } else {
            (self.icache_fresh_hits + self.icache_revalidations) as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    clock: u64,
    path: u16,
}

/// One profiler sample: the simulated clock, the CPU it was taken on
/// (an index into [`Recorder::cpus`]) and its interned stack (an index
/// into [`Recorder::stacks`]). Sixteen bytes, no heap: resolve the frames
/// with [`Recorder::stack`] and the `(pid, tid)` with [`Recorder::cpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfSample {
    pub clock: u64,
    pub cpu: u32,
    pub stack: u32,
}

/// All state captured while tracing is enabled. Returned by [`disable`]
/// for export; every field needed by exporters and tests is public.
#[derive(Debug)]
pub struct Recorder {
    pub cfg: ObsConfig,
    pub counters: Counters,
    /// Per simulated CPU (`(pid, tid)`) bounded event rings.
    pub rings: BTreeMap<(u64, u64), Ring>,
    /// Interposer path table; index 0 is always [`DIRECT_PATH`].
    pub paths: Vec<String>,
    /// Per-path syscall latency histograms (sim-cycles, enter→exit).
    pub latency: BTreeMap<u16, Hist>,
    /// Critical-path stage table; [`EventKind::SpanEnter`]'s `stage` and
    /// the [`Recorder::stage_cycles`] keys index into it.
    pub stages: Vec<String>,
    /// Per-stage span-duration histograms (sim-cycles). Besides explicit
    /// and range spans this also holds one `<path>/kernel` stage per
    /// interposer path, fed from the syscall latency samples, so the
    /// stage table decomposes a full round-trip.
    pub stage_cycles: BTreeMap<u16, Hist>,
    /// Profiler samples in capture order (the sample hook in sim-kernel
    /// fires at deterministic retired-instruction boundaries).
    pub samples: Vec<ProfSample>,
    /// Per-path coverage-audit tallies `[interposed, bypassed, double]`,
    /// keyed like [`Recorder::latency`] by path id. Fed by the kernel's
    /// audit session ([`audit_tag`]); empty unless auditing ran.
    pub audit_by_path: BTreeMap<u16, [u64; 3]>,
    /// Interned symbolized frame names; [`Recorder::stacks`] index it.
    pub frame_names: Vec<String>,
    frame_ids: BTreeMap<String, u32>,
    /// Interned call stacks (frame ids, leaf first);
    /// [`ProfSample::stack`] indexes it.
    pub stacks: Vec<Box<[u32]>>,
    stack_ids: HashMap<Box<[u32]>, u32>,
    /// Interned simulated CPUs `(pid, tid)`; [`ProfSample::cpu`] indexes it.
    pub cpus: Vec<(u64, u64)>,
    cpu_ids: BTreeMap<(u64, u64), u32>,
    pending: BTreeMap<(u64, u64), Pending>,
    last_selector: BTreeMap<(u64, u64), u8>,
    /// Per-CPU stack of open explicit spans: `(stage, enter_clock)`.
    span_stack: BTreeMap<(u64, u64), Vec<(u16, u64)>>,
    /// Memoized `path id -> "<path>/kernel" stage id`.
    kernel_stage_ids: BTreeMap<u16, u16>,
    next_seq: u64,
}

impl Recorder {
    fn new(cfg: ObsConfig) -> Recorder {
        Recorder {
            cfg,
            counters: Counters::default(),
            rings: BTreeMap::new(),
            paths: vec![DIRECT_PATH.to_string()],
            latency: BTreeMap::new(),
            stages: Vec::new(),
            stage_cycles: BTreeMap::new(),
            samples: Vec::new(),
            audit_by_path: BTreeMap::new(),
            frame_names: Vec::new(),
            frame_ids: BTreeMap::new(),
            stacks: Vec::new(),
            stack_ids: HashMap::new(),
            cpus: Vec::new(),
            cpu_ids: BTreeMap::new(),
            pending: BTreeMap::new(),
            last_selector: BTreeMap::new(),
            span_stack: BTreeMap::new(),
            kernel_stage_ids: BTreeMap::new(),
            next_seq: 0,
        }
    }

    fn record(&mut self, cpu: (u64, u64), clock: u64, kind: EventKind) {
        let cap = self.cfg.ring_capacity;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rings
            .entry(cpu)
            .or_insert_with(|| Ring::new(cap))
            .push(Event {
                clock,
                pid: cpu.0,
                tid: cpu.1,
                seq,
                kind,
            });
    }

    /// Index of `label` in [`Recorder::paths`], interning it if new.
    fn path_id(&mut self, label: &str) -> u16 {
        if let Some(i) = self.paths.iter().position(|p| p == label) {
            return i as u16;
        }
        self.paths.push(label.to_string());
        (self.paths.len() - 1) as u16
    }

    /// Label for a path id (callers outside the crate read summaries).
    pub fn path_label(&self, id: u16) -> &str {
        self.paths.get(id as usize).map_or(DIRECT_PATH, |s| s)
    }

    /// Index of `stage` in [`Recorder::stages`], interning it if new.
    fn stage_id(&mut self, stage: &str) -> u16 {
        if let Some(i) = self.stages.iter().position(|s| s == stage) {
            return i as u16;
        }
        self.stages.push(stage.to_string());
        (self.stages.len() - 1) as u16
    }

    /// Label for a stage id.
    pub fn stage_label(&self, id: u16) -> &str {
        self.stages.get(id as usize).map_or("?", |s| s)
    }

    /// Interned `<path>/kernel` stage for an interposer path id.
    fn kernel_stage(&mut self, path: u16) -> u16 {
        if let Some(&s) = self.kernel_stage_ids.get(&path) {
            return s;
        }
        let name = format!("{}/kernel", self.path_label(path));
        let id = self.stage_id(&name);
        self.kernel_stage_ids.insert(path, id);
        id
    }

    /// Index of `name` in [`Recorder::frame_names`], interning it if new.
    fn frame_id(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.frame_ids.get(name) {
            return i;
        }
        let i = self.frame_names.len() as u32;
        self.frame_names.push(name.to_string());
        self.frame_ids.insert(name.to_string(), i);
        i
    }

    /// Index of `frames` in [`Recorder::stacks`], interning it if new.
    /// A hit hashes the slice and allocates nothing.
    fn stack_id(&mut self, frames: &[u32]) -> u32 {
        if let Some(&i) = self.stack_ids.get(frames) {
            return i;
        }
        let i = self.stacks.len() as u32;
        self.stacks.push(frames.into());
        self.stack_ids.insert(frames.into(), i);
        i
    }

    /// Index of `cpu` in [`Recorder::cpus`], interning it if new.
    fn cpu_id(&mut self, cpu: (u64, u64)) -> u32 {
        if let Some(&i) = self.cpu_ids.get(&cpu) {
            return i;
        }
        let i = self.cpus.len() as u32;
        self.cpus.push(cpu);
        self.cpu_ids.insert(cpu, i);
        i
    }

    /// The frame ids of interned stack `id` (a [`ProfSample::stack`]),
    /// leaf first.
    pub fn stack(&self, id: u32) -> &[u32] {
        &self.stacks[id as usize]
    }

    /// The `(pid, tid)` of interned CPU `id` (a [`ProfSample::cpu`]).
    pub fn cpu(&self, id: u32) -> (u64, u64) {
        self.cpus[id as usize]
    }

    /// The frame names of `sample`'s stack, leaf first.
    pub fn sample_frames<'a>(&'a self, sample: &ProfSample) -> impl Iterator<Item = &'a str> {
        self.stack(sample.stack)
            .iter()
            .map(|&f| self.frame_names[f as usize].as_str())
    }

    pub fn total_events(&self) -> u64 {
        self.rings.values().map(|r| r.events.len() as u64).sum()
    }

    pub fn total_dropped(&self) -> u64 {
        self.rings.values().map(|r| r.dropped).sum()
    }

    fn close_pending(&mut self, cpu: (u64, u64), clock: u64, ret: u64, nr: u64, name: &'static str) {
        if let Some(p) = self.pending.remove(&cpu) {
            let latency = clock.saturating_sub(p.clock);
            self.latency.entry(p.path).or_default().record(latency);
            let stage = self.kernel_stage(p.path);
            self.stage_cycles.entry(stage).or_default().record(latency);
            self.record(
                cpu,
                clock,
                EventKind::SyscallExit {
                    nr,
                    ret,
                    path: p.path,
                    latency,
                    name,
                },
            );
        }
    }
}

/// A registered guest-address range attributed to a named stage while
/// any instruction inside it retires (see [`register_span_range`]).
#[derive(Debug, Clone)]
struct SpanRange {
    pid: u64,
    start: u64,
    end: u64,
    stage: String,
}

/// Cached containment interval for the per-step range-span check: the
/// half-open `[lo, hi)` around the last observed RIP in which the stage
/// answer cannot change, so consecutive steps cost three compares.
#[derive(Debug, Clone, Copy)]
struct SpanCur {
    pid: u64,
    tid: u64,
    lo: u64,
    hi: u64,
    /// Inside a registered range (vs. in the gap between ranges).
    in_range: bool,
    stage: u16,
    enter_clock: u64,
}

/// `pid == u64::MAX` plus an empty interval: never matches a real CPU,
/// forcing the slow path to recompute.
const SPAN_CUR_INVALID: SpanCur = SpanCur {
    pid: u64::MAX,
    tid: u64::MAX,
    lo: 1,
    hi: 0,
    in_range: false,
    stage: 0,
    enter_clock: 0,
};

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CLOCK: Cell<u64> = const { Cell::new(0) };
    static CPU: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static RECORDER: RefCell<Option<Box<Recorder>>> = const { RefCell::new(None) };
    /// `(region basename, interposer label)` registrations. Survives
    /// enable/disable cycles so interposer `install()` may run before
    /// tracing starts.
    static REGION_PATHS: RefCell<Vec<(String, String)>> = const { RefCell::new(Vec::new()) };
    /// Guest-address range → stage registrations ([`register_span_range`]).
    /// Unlike `REGION_PATHS` these are pid-scoped and only ever registered
    /// while recording, so [`enable`] clears them: stale ranges from a
    /// previous kernel (pid numbering restarts) would mis-attribute — and
    /// desynchronize the engines, since the fresh run's registrations land
    /// mid-run while the stale ones cover it from instruction zero.
    static SPAN_RANGES: RefCell<Vec<SpanRange>> = const { RefCell::new(Vec::new()) };
    static SPAN_CUR: Cell<SpanCur> = const { Cell::new(SPAN_CUR_INVALID) };
    /// The live recording's [`epoch`]; 0 while disabled.
    static EPOCH: Cell<u64> = const { Cell::new(0) };
}

/// Source of recording epochs, shared by every host thread so an epoch
/// names one recording even for a kernel that changes threads.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Fast gate checked by every tracepoint; `false` unless [`enable`] is
/// active on this host thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Starts recording on this host thread, replacing any prior recorder.
pub fn enable(cfg: ObsConfig) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Box::new(Recorder::new(cfg))));
    CLOCK.with(|c| c.set(0));
    CPU.with(|c| c.set((0, 0)));
    SPAN_RANGES.with(|m| m.borrow_mut().clear());
    SPAN_CUR.with(|c| c.set(SPAN_CUR_INVALID));
    EPOCH.with(|e| e.set(NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)));
    ENABLED.with(|e| e.set(true));
}

/// Resizes the event-ring capacity of the live recorder (and of rings
/// already allocated). No-op when recording is disabled. Shrinking below
/// a ring's current length stops further pushes but never discards
/// already-recorded events.
pub fn set_ring_capacity(cap: usize) {
    if !enabled() || cap == 0 {
        return;
    }
    with_rec(|r| {
        r.cfg.ring_capacity = cap;
        for ring in r.rings.values_mut() {
            ring.cap = cap;
        }
    });
}

/// Stops recording and hands the recorder to the caller for export.
pub fn disable() -> Option<Box<Recorder>> {
    ENABLED.with(|e| e.set(false));
    EPOCH.with(|e| e.set(0));
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Maps a mapped-region basename (e.g. `libk23.so`) to an interposer
/// label so syscalls issued from that region are attributed to it.
/// Idempotent; registrations persist across enable/disable cycles.
pub fn register_region_path(region: &str, label: &str) {
    let base = basename(region).to_string();
    REGION_PATHS.with(|m| {
        let mut m = m.borrow_mut();
        if !m.iter().any(|(r, _)| *r == base) {
            m.push((base, label.to_string()));
        }
    });
}

/// Clears region registrations (test isolation helper).
pub fn clear_region_paths() {
    REGION_PATHS.with(|m| m.borrow_mut().clear());
}

/// Attributes retired instructions inside `[start, end)` of guest `pid`
/// to `stage` (e.g. a trampoline page or an interposer handler's text):
/// [`span_step`] opens a span when execution enters the range and closes
/// it when execution leaves, feeding [`Recorder::stage_cycles`].
/// Idempotent per `(pid, start, end)`; cleared by the next [`enable`]
/// (ranges are pid-scoped, so they never outlive a recording session).
pub fn register_span_range(pid: u64, start: u64, end: u64, stage: &str) {
    if start >= end {
        return;
    }
    let inserted = SPAN_RANGES.with(|m| {
        let mut m = m.borrow_mut();
        if m.iter()
            .any(|r| r.pid == pid && r.start == start && r.end == end)
        {
            return false;
        }
        m.push(SpanRange {
            pid,
            start,
            end,
            stage: stage.to_string(),
        });
        true
    });
    // Only a genuinely new range can change a containment answer; an
    // idempotent re-registration must not disturb the cache (dropping it
    // mid-range would orphan the open span's exit).
    if inserted {
        SPAN_CUR.with(|c| c.set(SPAN_CUR_INVALID));
    }
}

/// Clears span-range registrations. [`enable`] does this automatically;
/// this entry point exists for callers that want a clean table without
/// (re)starting a recording session.
pub fn clear_span_ranges() {
    SPAN_RANGES.with(|m| m.borrow_mut().clear());
    SPAN_CUR.with(|c| c.set(SPAN_CUR_INVALID));
}

fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn lookup_region_label(region: &str) -> Option<String> {
    let base = basename(region);
    REGION_PATHS.with(|m| {
        m.borrow()
            .iter()
            .find(|(r, _)| r == base)
            .map(|(_, l)| l.clone())
    })
}

#[inline]
fn with_rec<F: FnOnce(&mut Recorder)>(f: F) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Advances the observed simulated clock; micro events emitted after
/// this call are stamped with it.
#[inline]
pub fn set_clock(clock: u64) {
    CLOCK.with(|c| c.set(clock));
}

/// Sets the simulated CPU subsequent events are attributed to.
#[inline]
pub fn set_cpu(pid: u64, tid: u64) {
    CPU.with(|c| c.set((pid, tid)));
}

// ---------------------------------------------------------------------
// Architectural tracepoints (kernel layer; caller passes the sim clock).
// ---------------------------------------------------------------------

/// Syscall entry. `region` is the mapped-region name containing the
/// syscall site (resolved to an interposer path); `name` the syscall's
/// static name.
#[inline]
pub fn syscall_enter(clock: u64, nr: u64, site: u64, region: &str, name: &'static str) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    let label = lookup_region_label(region);
    with_rec(|r| {
        let path = match &label {
            Some(l) => r.path_id(l),
            None => 0,
        };
        r.counters.syscalls += 1;
        r.pending.insert(cpu, Pending { clock, path });
        r.record(
            cpu,
            clock,
            EventKind::SyscallEnter {
                nr,
                site,
                path,
                name,
            },
        );
    });
}

/// Syscall completion; pairs with the pending [`syscall_enter`] on this
/// CPU to produce the latency sample (blocked time included).
#[inline]
pub fn syscall_exit(clock: u64, nr: u64, ret: u64, name: &'static str) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| r.close_pending(cpu, clock, ret, nr, name));
}

/// SUD blocked the syscall; closes the pending span with `ret =
/// u64::MAX` and emits a SIGSYS instant.
#[inline]
pub fn sigsys(clock: u64, nr: u64, site: u64, name: &'static str) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        r.counters.sigsys += 1;
        r.record(cpu, clock, EventKind::Sigsys { nr, site });
        r.close_pending(cpu, clock, u64::MAX, nr, name);
    });
}

/// A ptrace stop round-trip completed (after its context-switch charge).
#[inline]
pub fn tracer_stop(clock: u64, kind: &'static str) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        r.counters.tracer_stops += 1;
        r.record(cpu, clock, EventKind::TracerStop { kind });
    });
}

/// Scheduler switched to `(pid, tid)`; also retargets [`set_cpu`].
#[inline]
pub fn context_switch(clock: u64, pid: u64, tid: u64) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    set_cpu(pid, tid);
    with_rec(|r| {
        r.counters.ctx_switches += 1;
        r.record((pid, tid), clock, EventKind::ContextSwitch);
    });
}

/// SUD armed via prctl.
#[inline]
pub fn sud_arm(clock: u64, selector_addr: u64) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        r.counters.sud_arms += 1;
        r.record(cpu, clock, EventKind::SudArm { selector_addr });
    });
}

/// Kernel observed the SUD selector byte at syscall entry; emits a flip
/// event when it differs from this CPU's previous observation.
#[inline]
pub fn sud_selector(clock: u64, value: u8) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        if r.last_selector.insert(cpu, value) != Some(value) {
            r.counters.sud_selector_flips += 1;
            r.record(cpu, clock, EventKind::SudSelectorFlip { value });
        }
    });
}

/// A protection-key (PKU) fault was raised for `addr`.
#[inline]
pub fn pku_fault(clock: u64, addr: u64) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        r.counters.pku_faults += 1;
        r.record(cpu, clock, EventKind::PkuFault { addr });
    });
}

/// `sim-fault` injected an errno (or partial-transfer cap) into the
/// current syscall.
#[inline]
pub fn fault_errno(clock: u64, nr: u64, kind: &'static str) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        r.counters.faults_errno += 1;
        r.record(cpu, clock, EventKind::FaultErrno { nr, kind });
    });
}

/// `sim-fault` injected an asynchronous signal at an instruction
/// boundary (or deterministically skipped it: no handler registered).
#[inline]
pub fn fault_signal(clock: u64, signo: u64, delivered: bool) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        r.counters.faults_signal += 1;
        r.record(cpu, clock, EventKind::FaultSignal { signo, delivered });
    });
}

/// `sim-fault` flipped (restore = false) or restored (restore = true)
/// a page's permissions.
#[inline]
pub fn fault_flip(clock: u64, page: u64, restore: bool) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        r.counters.faults_flip += 1;
        r.record(cpu, clock, EventKind::FaultPermFlip { page, restore });
    });
}

/// An interposer's ptrace hook observed a syscall-enter stop.
#[inline]
pub fn ptrace_hook() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.ptrace_hooks += 1);
}

/// How the kernel's coverage audit tagged one syscall (the obs-side
/// mirror of `sim_kernel::audit::AuditTag`; sim-obs sits below
/// sim-kernel in the dependency graph, so the kernel maps its tags onto
/// this when calling [`audit_tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMark {
    /// Interposed via a declared handler region.
    Path,
    /// Interposed via a control transfer (SIGSYS / ptrace stop).
    Control,
    /// Observed by two interposition channels at once.
    Double,
    /// Bypassed; the payload is the pitfall-signature code.
    Bypass(&'static str),
}

/// The kernel's audit session tagged one retired syscall. Counters and
/// the per-path table update unconditionally; a ring event is emitted
/// only for bypasses and only under [`ObsConfig::audit_events`], so the
/// default event stream is identical with auditing on or off.
#[inline]
pub fn audit_tag(clock: u64, nr: u64, site: u64, region: &str, mark: AuditMark) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    let label = lookup_region_label(region);
    with_rec(|r| {
        let path = match &label {
            Some(l) => r.path_id(l),
            None => 0,
        };
        let slot = r.audit_by_path.entry(path).or_insert([0; 3]);
        match mark {
            AuditMark::Path | AuditMark::Control => {
                r.counters.audit_interposed += 1;
                slot[0] += 1;
            }
            AuditMark::Double => {
                r.counters.audit_double += 1;
                slot[2] += 1;
            }
            AuditMark::Bypass(sig) => {
                r.counters.audit_bypassed += 1;
                slot[1] += 1;
                if r.cfg.audit_events {
                    r.record(cpu, clock, EventKind::AuditBypass { nr, site, sig });
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Critical-path spans and profiler samples (simprof).
// ---------------------------------------------------------------------

/// Opens an explicit nestable span named `stage` on the current CPU.
/// Spans nest per CPU: each [`span_exit`] closes the innermost open one.
#[inline]
pub fn span_enter(clock: u64, stage: &str) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        let id = r.stage_id(stage);
        r.span_stack.entry(cpu).or_default().push((id, clock));
        r.record(cpu, clock, EventKind::SpanEnter { stage: id });
    });
}

/// Closes the innermost open explicit span on the current CPU, recording
/// its duration into [`Recorder::stage_cycles`]. A stray exit with no
/// open span is ignored.
#[inline]
pub fn span_exit(clock: u64) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        if let Some((id, t0)) = r.span_stack.get_mut(&cpu).and_then(|s| s.pop()) {
            let dur = clock.saturating_sub(t0);
            r.stage_cycles.entry(id).or_default().record(dur);
            r.record(cpu, clock, EventKind::SpanExit { stage: id, dur });
        }
    });
}

/// Per-retired-instruction hook driving the range spans registered via
/// [`register_span_range`]: `rip` is the post-step instruction pointer.
/// Both engines call it with identical `(clock, rip)` sequences, so the
/// resulting span stream is architectural. The fast path (same CPU, RIP
/// still inside the cached containment interval) is three compares.
#[inline]
pub fn span_step(clock: u64, rip: u64) {
    if !enabled() {
        return;
    }
    let (pid, tid) = CPU.with(|c| c.get());
    let cur = SPAN_CUR.with(|c| c.get());
    if pid == cur.pid && tid == cur.tid && rip >= cur.lo && rip < cur.hi {
        return;
    }
    span_step_slow(clock, rip, pid, tid);
}

#[cold]
fn span_step_slow(clock: u64, rip: u64, pid: u64, tid: u64) {
    // Compute the containment interval around `rip` for this pid: the
    // matching range, or the gap up to the nearest range boundaries so
    // steps outside every range stay on the fast path too.
    let (lo, hi, stage_name) = SPAN_RANGES.with(|m| {
        let m = m.borrow();
        let (mut lo, mut hi) = (0u64, u64::MAX);
        let mut hit: Option<(u64, u64, String)> = None;
        for r in m.iter().filter(|r| r.pid == pid) {
            if rip >= r.start && rip < r.end {
                hit = Some((r.start, r.end, r.stage.clone()));
            } else if r.end <= rip {
                lo = lo.max(r.end);
            } else {
                hi = hi.min(r.start);
            }
        }
        match hit {
            Some((s, e, n)) => (s, e, Some(n)),
            None => (lo, hi, None),
        }
    });
    let prev = SPAN_CUR.with(|c| c.get());
    with_rec(|r| {
        // Leaving a range (or being preempted inside one) closes its
        // span; the next entry opens a fresh one, so descheduled time is
        // never charged to a stage.
        if prev.pid != u64::MAX && prev.in_range {
            let dur = clock.saturating_sub(prev.enter_clock);
            r.stage_cycles.entry(prev.stage).or_default().record(dur);
            r.record(
                (prev.pid, prev.tid),
                clock,
                EventKind::SpanExit {
                    stage: prev.stage,
                    dur,
                },
            );
        }
        let (in_range, stage) = match &stage_name {
            Some(n) => {
                let id = r.stage_id(n);
                r.record((pid, tid), clock, EventKind::SpanEnter { stage: id });
                (true, id)
            }
            None => (false, 0),
        };
        SPAN_CUR.with(|c| {
            c.set(SpanCur {
                pid,
                tid,
                lo,
                hi,
                in_range,
                stage,
                enter_clock: clock,
            })
        });
    });
}

/// Stores one profiler sample whose frames were interned with
/// [`intern_frame`] during the current recording ([`epoch`]), leaf
/// first. The stack and the CPU are interned; the sample itself is
/// sixteen bytes.
pub fn profile_stack(clock: u64, frames: &[u32]) {
    if !enabled() {
        return;
    }
    set_clock(clock);
    let cpu = CPU.with(|c| c.get());
    with_rec(|r| {
        let stack = r.stack_id(frames);
        let cpu = r.cpu_id(cpu);
        r.samples.push(ProfSample { clock, cpu, stack });
    });
}

/// Id of the frame `name` in the live recorder, interning it if new;
/// `None` when recording is off. Ids stay valid for the rest of the
/// recording, so callers may memoize them keyed by [`epoch`].
pub fn intern_frame(name: &str) -> Option<u32> {
    if !enabled() {
        return None;
    }
    RECORDER.with(|r| r.borrow_mut().as_mut().map(|rec| rec.frame_id(name)))
}

/// Names of interned frame ids in the live recorder (empty when
/// recording is off); the inverse of [`intern_frame`].
pub fn frame_names(ids: &[u32]) -> Vec<String> {
    RECORDER.with(|r| {
        r.borrow().as_ref().map_or_else(Vec::new, |rec| {
            ids.iter()
                .map(|&i| rec.frame_names[i as usize].clone())
                .collect()
        })
    })
}

/// Identity of the current recording: unique across every [`enable`] in
/// the host process, 0 while recording is off. Frame ids from
/// [`intern_frame`] are valid exactly while it is unchanged.
#[inline]
pub fn epoch() -> u64 {
    EPOCH.with(|e| e.get())
}

// ---------------------------------------------------------------------
// Microarchitectural tracepoints (engine layer; stamped from the clock
// last published via `set_clock`). Ring events additionally require
// `ObsConfig::micro_events`.
// ---------------------------------------------------------------------

#[inline]
pub fn tlb_hit() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.tlb_hits += 1);
}

#[inline]
pub fn tlb_fill(page: u64) {
    if !enabled() {
        return;
    }
    let cpu = CPU.with(|c| c.get());
    let clock = CLOCK.with(|c| c.get());
    with_rec(|r| {
        r.counters.tlb_fills += 1;
        if r.cfg.micro_events {
            r.record(cpu, clock, EventKind::TlbFill { page });
        }
    });
}

/// Records the length in bytes of one contiguous page-run access.
#[inline]
pub fn page_run(len: u64) {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.page_runs.record(len));
}

#[inline]
pub fn icache_fresh_hit() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.icache_fresh_hits += 1);
}

#[inline]
pub fn icache_revalidate(rip: u64) {
    if !enabled() {
        return;
    }
    let cpu = CPU.with(|c| c.get());
    let clock = CLOCK.with(|c| c.get());
    with_rec(|r| {
        r.counters.icache_revalidations += 1;
        if r.cfg.micro_events {
            r.record(cpu, clock, EventKind::IcacheRevalidate { rip });
        }
    });
}

#[inline]
pub fn icache_decode() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.icache_decodes += 1);
}

/// A store invalidated `entries` decoded instructions at `addr`.
#[inline]
pub fn icache_invalidate(addr: u64, entries: u64) {
    if !enabled() {
        return;
    }
    let cpu = CPU.with(|c| c.get());
    let clock = CLOCK.with(|c| c.get());
    with_rec(|r| {
        r.counters.icache_invalidations += 1;
        r.counters.icache_invalidated_entries += entries;
        if r.cfg.micro_events {
            r.record(cpu, clock, EventKind::IcacheInvalidate { addr, entries });
        }
    });
}

#[inline]
pub fn icache_flush() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.icache_flushes += 1);
}

/// A serialization point was coalesced away: the address space's write
/// stamp was unchanged since the last real flush, so every cached decode
/// would have revalidated trivially.
#[inline]
pub fn icache_flush_coalesced() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.icache_flush_coalesced += 1);
}

/// A hot block chain was promoted into a trace of `ops` instructions.
#[inline]
pub fn trace_form(ops: u64) {
    if !enabled() {
        return;
    }
    with_rec(|r| {
        r.counters.trace_forms += 1;
        r.counters.trace_lengths.record(ops);
    });
}

/// Execution entered a validated trace from the cold dispatcher.
#[inline]
pub fn trace_enter() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.trace_entries += 1);
}

/// A trace's terminal branch jumped directly into a successor trace
/// without returning to the dispatcher.
#[inline]
pub fn trace_link() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.trace_links += 1);
}

/// Control flow left a trace before its terminal op (branch went the
/// other way); execution fell back to the dispatcher.
#[inline]
pub fn trace_side_exit() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.trace_side_exits += 1);
}

/// A trace survived a generation bump: one `mem_gen` compare plus a
/// per-page version walk confirmed its decode is still current.
#[inline]
pub fn trace_revalidate() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.trace_revalidations += 1);
}

/// `n` traces were unlinked (invalidated) by a store, protection flip,
/// or failed revalidation.
#[inline]
pub fn trace_unlink(n: u64) {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.trace_unlinks += n);
}

/// An in-progress trace recording was aborted (SMC, flush, or overlap
/// with a store) before it could form.
#[inline]
pub fn trace_abort() {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.trace_aborts += 1);
}

/// Records the number of steps retired by one `run_block` invocation.
#[inline]
pub fn block_len(steps: u64) {
    if !enabled() {
        return;
    }
    with_rec(|r| r.counters.block_lengths.record(steps));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracepoints_are_noops() {
        assert!(!enabled());
        syscall_enter(1, 0, 0x1000, "app", "read");
        syscall_exit(2, 0, 0, "read");
        tlb_hit();
        tlb_fill(0x2000);
        block_len(9);
        context_switch(3, 1, 1);
        assert!(disable().is_none());
    }

    #[test]
    fn ring_is_bounded_with_drop_counter() {
        enable(ObsConfig {
            ring_capacity: 4,
            ..ObsConfig::default()
        });
        for i in 0..10 {
            context_switch(i, 1, 1);
        }
        let rec = disable().expect("recorder");
        let ring = &rec.rings[&(1, 1)];
        assert_eq!(ring.events.len(), 4);
        assert_eq!(ring.dropped, 6);
        assert_eq!(rec.total_events(), 4);
        assert_eq!(rec.total_dropped(), 6);
        assert_eq!(rec.counters.ctx_switches, 10);
    }

    #[test]
    fn syscall_latency_attributes_to_registered_path() {
        clear_region_paths();
        register_region_path("/usr/lib/libk23.so", "K23-default");
        enable(ObsConfig::default());
        set_cpu(1, 1);
        syscall_enter(100, 0, 0x7000, "libk23.so", "read");
        syscall_exit(340, 0, 5, "read");
        syscall_enter(400, 1, 0x4000, "app", "write");
        syscall_exit(520, 1, 5, "write");
        let rec = disable().expect("recorder");
        clear_region_paths();
        assert_eq!(rec.paths, vec!["direct".to_string(), "K23-default".to_string()]);
        assert_eq!(rec.latency[&1].count, 1);
        assert_eq!(rec.latency[&1].sum, 240);
        assert_eq!(rec.latency[&0].sum, 120);
        assert_eq!(rec.counters.syscalls, 2);
    }

    #[test]
    fn sigsys_closes_pending_span() {
        enable(ObsConfig::default());
        set_cpu(2, 3);
        syscall_enter(10, 500, 0x9000, "app", "nonexistent");
        sigsys(25, 500, 0x9000, "nonexistent");
        let rec = disable().expect("recorder");
        assert_eq!(rec.counters.sigsys, 1);
        let evs = &rec.rings[&(2, 3)].events;
        assert!(matches!(
            evs.last().unwrap().kind,
            EventKind::SyscallExit {
                ret: u64::MAX,
                latency: 15,
                ..
            }
        ));
    }

    #[test]
    fn selector_flip_only_on_change() {
        enable(ObsConfig::default());
        set_cpu(1, 1);
        sud_selector(5, 1);
        sud_selector(10, 1);
        sud_selector(20, 0);
        sud_selector(30, 1);
        let rec = disable().expect("recorder");
        assert_eq!(rec.counters.sud_selector_flips, 3);
    }

    #[test]
    fn micro_events_gated_by_config() {
        enable(ObsConfig::default());
        set_cpu(1, 1);
        set_clock(7);
        tlb_fill(0x1000);
        icache_revalidate(0x400);
        let rec = disable().expect("recorder");
        assert_eq!(rec.counters.tlb_fills, 1);
        assert_eq!(rec.counters.icache_revalidations, 1);
        assert_eq!(rec.total_events(), 0, "micro events off by default");

        enable(ObsConfig {
            micro_events: true,
            ..ObsConfig::default()
        });
        set_cpu(1, 1);
        set_clock(7);
        tlb_fill(0x1000);
        let rec = disable().expect("recorder");
        assert_eq!(rec.total_events(), 1);
        assert_eq!(
            rec.rings[&(1, 1)].events[0].kind,
            EventKind::TlbFill { page: 0x1000 }
        );
    }

    #[test]
    fn hist_buckets_and_quantiles() {
        let mut h = Hist::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn hist_quantile_of_empty_hist_is_zero() {
        let h = Hist::default();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn hist_quantile_clamps_out_of_range_and_nan_q() {
        let mut h = Hist::default();
        for v in [1, 2, 4, 8] {
            h.record(v);
        }
        // q outside [0, 1] clamps instead of over/under-shooting.
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        // NaN reads as the 0-quantile, never a garbage bucket index.
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
        // And the empty histogram stays 0 under the same abuse.
        let e = Hist::default();
        assert_eq!(e.quantile(f64::NAN), 0);
        assert_eq!(e.quantile(7.5), 0);
    }

    #[test]
    fn audit_tags_count_without_events_unless_opted_in() {
        clear_region_paths();
        register_region_path("/usr/lib/libzpoline.so", "zpoline-default");
        enable(ObsConfig::default());
        set_cpu(1, 1);
        audit_tag(10, 0, 0x7000, "libzpoline.so", AuditMark::Path);
        audit_tag(20, 1, 0x4000, "app", AuditMark::Bypass("P2b-preinit"));
        audit_tag(30, 2, 0x7000, "libzpoline.so", AuditMark::Double);
        let rec = disable().expect("recorder");
        assert_eq!(rec.counters.audit_interposed, 1);
        assert_eq!(rec.counters.audit_bypassed, 1);
        assert_eq!(rec.counters.audit_double, 1);
        let zp = rec.paths.iter().position(|p| p == "zpoline-default").unwrap() as u16;
        assert_eq!(rec.audit_by_path[&zp], [1, 0, 1]);
        assert_eq!(rec.audit_by_path[&0], [0, 1, 0]);
        assert_eq!(rec.total_events(), 0, "no ring events by default");

        enable(ObsConfig {
            audit_events: true,
            ..ObsConfig::default()
        });
        set_cpu(1, 1);
        audit_tag(10, 1, 0x4000, "app", AuditMark::Bypass("P1a-exec"));
        audit_tag(20, 2, 0x4000, "app", AuditMark::Control);
        let rec = disable().expect("recorder");
        clear_region_paths();
        assert_eq!(rec.total_events(), 1, "only bypasses become events");
        assert_eq!(
            rec.rings[&(1, 1)].events[0].kind,
            EventKind::AuditBypass {
                nr: 1,
                site: 0x4000,
                sig: "P1a-exec"
            }
        );
    }

    #[test]
    fn hist_zero_lands_in_bucket_zero() {
        let mut h = Hist::default();
        h.record(0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn hist_umax_lands_in_bucket_64_and_never_wraps_sum() {
        let mut h = Hist::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.buckets[64], 2);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Two MAX samples would wrap a plain `+=`; the sum saturates.
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn events_carry_monotonic_sequence_numbers() {
        enable(ObsConfig::default());
        context_switch(5, 1, 1);
        context_switch(5, 2, 1);
        context_switch(5, 1, 1);
        let rec = disable().expect("recorder");
        let mut seqs: Vec<u64> = rec
            .rings
            .values()
            .flat_map(|r| r.events.iter().map(|e| e.seq))
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2], "global order across rings");
    }

    #[test]
    fn explicit_spans_nest_per_cpu() {
        enable(ObsConfig::default());
        set_cpu(1, 1);
        span_enter(100, "ptrace/stop");
        span_enter(110, "ptrace/peek");
        span_exit(130); // closes peek: 20 cycles
        span_exit(200); // closes stop: 100 cycles
        span_exit(210); // stray: ignored
        let rec = disable().expect("recorder");
        assert_eq!(rec.stages, vec!["ptrace/stop", "ptrace/peek"]);
        assert_eq!(rec.stage_cycles[&0].sum, 100);
        assert_eq!(rec.stage_cycles[&1].sum, 20);
        let evs = &rec.rings[&(1, 1)].events;
        assert!(matches!(evs[0].kind, EventKind::SpanEnter { stage: 0 }));
        assert!(matches!(evs[1].kind, EventKind::SpanEnter { stage: 1 }));
        assert!(matches!(
            evs[2].kind,
            EventKind::SpanExit { stage: 1, dur: 20 }
        ));
        assert!(matches!(
            evs[3].kind,
            EventKind::SpanExit {
                stage: 0,
                dur: 100
            }
        ));
        assert_eq!(evs.len(), 4, "the stray exit emitted nothing");
    }

    #[test]
    fn range_spans_open_and_close_on_boundary_crossings() {
        enable(ObsConfig::default());
        register_span_range(1, 0x1000, 0x2000, "zpoline-trampoline");
        set_cpu(1, 1);
        span_step(10, 0x400); // outside
        span_step(20, 0x1000); // enter
        span_step(30, 0x1ff0); // inside: fast path, no event
        span_step(40, 0x2000); // exit: 20 cycles in range
        span_step(50, 0x3000); // outside: fast path
        let rec = disable().expect("recorder");
        clear_span_ranges();
        let id = rec
            .stages
            .iter()
            .position(|s| s == "zpoline-trampoline")
            .expect("stage interned") as u16;
        let h = &rec.stage_cycles[&id];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 20);
        let evs = &rec.rings[&(1, 1)].events;
        assert_eq!(evs.len(), 2, "one enter + one exit");
        assert!(matches!(evs[0].kind, EventKind::SpanEnter { stage } if stage == id));
        assert!(matches!(evs[1].kind, EventKind::SpanExit { stage, dur: 20 } if stage == id));
    }

    #[test]
    fn range_spans_split_at_cpu_switches() {
        enable(ObsConfig::default());
        register_span_range(1, 0x1000, 0x2000, "handler");
        set_cpu(1, 1);
        span_step(10, 0x1100); // enter on (1,1)
        set_cpu(1, 2);
        span_step(30, 0x5000); // other thread outside: closes (1,1)'s span
        set_cpu(1, 1);
        span_step(40, 0x1200); // re-enter
        span_step(60, 0x9000); // exit
        let rec = disable().expect("recorder");
        clear_span_ranges();
        let h = &rec.stage_cycles[&0];
        assert_eq!(h.count, 2, "span split at the switch");
        assert_eq!(h.sum, (30 - 10) + (60 - 40));
        // The split exit is attributed to the CPU that owned the span.
        assert_eq!(rec.rings[&(1, 1)].events.len(), 4);
        assert!(!rec.rings.contains_key(&(1, 2)));
    }

    #[test]
    fn profile_samples_intern_frames() {
        enable(ObsConfig::default());
        let main = intern_frame("app:main").expect("recording");
        let start = intern_frame("libc.so:_start").expect("recording");
        let helper = intern_frame("app:helper").expect("recording");
        assert_eq!(intern_frame("app:main"), Some(main), "frames intern once");
        set_cpu(1, 1);
        profile_stack(100, &[main, start]);
        profile_stack(200, &[helper, start]);
        set_cpu(2, 7);
        profile_stack(300, &[main, start]);
        set_cpu(1, 1);
        profile_stack(400, &[main, start]);
        assert_eq!(frame_names(&[start, main]), ["libc.so:_start", "app:main"]);
        let rec = disable().expect("recorder");
        assert_eq!(
            rec.frame_names,
            vec!["app:main", "libc.so:_start", "app:helper"]
        );
        // One entry per sample; equal stacks and CPUs share one id each.
        let ids: Vec<(u64, u32, u32)> = rec
            .samples
            .iter()
            .map(|s| (s.clock, s.cpu, s.stack))
            .collect();
        assert_eq!(ids, [(100, 0, 0), (200, 0, 1), (300, 1, 0), (400, 0, 0)]);
        assert_eq!(rec.stacks.len(), 2);
        assert_eq!(rec.stack(0), [main, start]);
        assert_eq!(rec.stack(1), [helper, start]);
        assert_eq!(rec.cpus, [(1, 1), (2, 7)]);
        assert_eq!(rec.cpu(rec.samples[2].cpu), (2, 7));
        let names: Vec<&str> = rec.sample_frames(&rec.samples[1]).collect();
        assert_eq!(names, ["app:helper", "libc.so:_start"]);
    }

    #[test]
    fn frame_ids_are_scoped_to_one_recording() {
        assert_eq!(epoch(), 0, "no recording, no epoch");
        assert_eq!(intern_frame("app:main"), None);
        enable(ObsConfig::default());
        let first = epoch();
        assert_ne!(first, 0);
        disable();
        assert_eq!(epoch(), 0);
        enable(ObsConfig::default());
        assert_ne!(epoch(), first, "every recording gets a fresh epoch");
        disable();
    }

    #[test]
    fn a_profiler_sample_is_at_most_sixteen_bytes() {
        assert!(std::mem::size_of::<ProfSample>() <= 16);
    }

    #[test]
    fn syscall_latency_feeds_kernel_stage() {
        enable(ObsConfig::default());
        set_cpu(1, 1);
        syscall_enter(100, 0, 0x7000, "app", "read");
        syscall_exit(340, 0, 5, "read");
        let rec = disable().expect("recorder");
        let id = rec
            .stages
            .iter()
            .position(|s| s == "direct/kernel")
            .expect("kernel stage") as u16;
        assert_eq!(rec.stage_cycles[&id].sum, 240);
    }
}
