//! Processes, threads, file descriptors, and per-thread SUD state.

use sim_cpu::Cpu;
use sim_mem::{AddressSpace, PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};

/// Process identifier.
pub type Pid = u64;
/// Thread identifier (global, not per-process).
pub type Tid = u64;

/// Per-thread Syscall User Dispatch configuration (the `prctl` interface,
/// paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sud {
    /// Guest address of the selector byte (0 = allow, 1 = block).
    pub selector_addr: u64,
    /// Start of the allowlisted range that always bypasses dispatch.
    pub range_start: u64,
    /// Length of the allowlisted range.
    pub range_len: u64,
}

impl Sud {
    /// True if a syscall issued from `rip` bypasses dispatch regardless of
    /// the selector.
    pub fn in_allowlist(&self, rip: u64) -> bool {
        rip >= self.range_start && rip < self.range_start.saturating_add(self.range_len)
    }
}

/// A seccomp filter action for one syscall number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeccompAction {
    /// Let the syscall run.
    Allow,
    /// Fail the syscall with `-errno` without executing it.
    Errno(i64),
    /// Kill the process (SECCOMP_RET_KILL_PROCESS).
    Kill,
}

/// A minimal seccomp filter: per-number actions plus a default.
#[derive(Debug, Clone)]
pub struct SeccompFilter {
    /// Actions for specific syscall numbers.
    pub rules: std::collections::BTreeMap<u64, SeccompAction>,
    /// Action for numbers not in `rules`.
    pub default: SeccompAction,
}

impl SeccompFilter {
    /// The action for syscall `nr`.
    pub fn action(&self, nr: u64) -> SeccompAction {
        self.rules.get(&nr).copied().unwrap_or(self.default)
    }
}

/// A registered signal handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigAction {
    /// Guest address of the handler entry point.
    pub handler: u64,
    /// Registered with [`crate::nr::SIGACT_MASK_ALL`]: while this handler
    /// runs, further asynchronous signals queue until `rt_sigreturn`
    /// (the simplified stand-in for `sa_mask = all`). Synchronous faults
    /// (SIGSEGV, SIGSYS) still deliver immediately.
    pub mask_all: bool,
}

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Readable data (or EOF) on a channel end.
    ChannelReadable {
        /// Channel index in the kernel's channel table.
        chan: usize,
        /// Which end this thread reads from.
        end: crate::net::End,
    },
    /// A connection arriving on a listening port.
    Accept {
        /// The listening port.
        port: u16,
    },
    /// Any child to exit (`wait4`).
    Child,
    /// The global clock to reach a deadline (`nanosleep`).
    Sleep {
        /// Absolute cycle deadline.
        until: u64,
    },
    /// A futex wake on the given guest address.
    Futex {
        /// The futex word address.
        addr: u64,
    },
    /// Buffer space to write into a channel end (bounded buffers).
    ChannelWritable {
        /// Channel index in the kernel's channel table.
        chan: usize,
        /// Which end this thread writes from.
        end: crate::net::End,
    },
    /// Room in a listening port's accept backlog (`connect` on a full
    /// backlog parks until an `accept` drains a slot).
    Backlog {
        /// The listening port.
        port: u16,
    },
    /// Readiness on any member of an epoll interest set. Deliberately
    /// payload-free: readiness transitions wake *all* epoll waiters, which
    /// deterministically recompute their ready sets and re-block if still
    /// empty (spurious wakeups are cheap; waiter bookkeeping is not).
    Epoll,
    /// A nonzero eventfd counter (`read` on an empty eventfd).
    EventFd {
        /// Eventfd object index in the owning process.
        id: usize,
    },
}

/// Thread run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Eligible to run.
    Runnable,
    /// Waiting on [`Wait`].
    Blocked(Wait),
    /// Finished.
    Exited,
}

/// A guest thread: one CPU core's worth of state plus kernel bookkeeping.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Global thread id.
    pub tid: Tid,
    /// Architectural state.
    pub cpu: Cpu,
    /// Run state.
    pub state: ThreadState,
    /// SUD configuration, if armed. Arming puts *every* kernel entry by this
    /// thread on the slow path (paper §6.2.1).
    pub sud: Option<Sud>,
    /// Stack of live signal-frame base addresses (innermost last).
    pub sig_frames: Vec<u64>,
    /// Parallel to `sig_frames`: whether each live frame's handler was
    /// registered with `SIGACT_MASK_ALL` (defers async signals).
    pub frame_masked: Vec<bool>,
    /// Asynchronous signals deferred while a masking handler runs,
    /// delivered FIFO at `rt_sigreturn`.
    pub pending_signals: Vec<crate::signal::SigInfo>,
    /// Set while the thread is re-executing a syscall it blocked in: the
    /// retry resumes *in-kernel* (no second entry cost, no re-dispatch).
    pub restarting: bool,
}

impl Thread {
    /// A fresh runnable thread.
    pub fn new(tid: Tid) -> Thread {
        Thread {
            tid,
            cpu: Cpu::new(),
            state: ThreadState::Runnable,
            sud: None,
            sig_frames: Vec::new(),
            frame_masked: Vec::new(),
            pending_signals: Vec::new(),
            restarting: false,
        }
    }
}

/// One open file description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdEntry {
    /// Console (stdin reads EOF; stdout/stderr append to the process's
    /// captured output).
    Console,
    /// A VFS-backed file.
    File {
        /// Absolute path.
        path: String,
        /// Read/write offset.
        offset: u64,
    },
    /// A snapshot pseudo-file (e.g. `/proc/$PID/maps` captured at open).
    Snapshot {
        /// Contents frozen at open time.
        data: Vec<u8>,
        /// Read offset.
        offset: u64,
    },
    /// Read end of a pipe/socketpair channel.
    ChannelRead {
        /// Channel index.
        chan: usize,
        /// Which end.
        end: crate::net::End,
    },
    /// Write end of a channel.
    ChannelWrite {
        /// Channel index.
        chan: usize,
        /// Which end.
        end: crate::net::End,
    },
    /// A connected socket (bidirectional channel end).
    Socket {
        /// Channel index.
        chan: usize,
        /// Which end.
        end: crate::net::End,
    },
    /// An unbound/unconnected socket placeholder.
    SocketUnbound,
    /// A listening socket.
    Listener {
        /// Bound port.
        port: u16,
    },
    /// An epoll instance (readiness multiplexer).
    Epoll {
        /// Index into the owning process's `epolls` table.
        id: usize,
    },
    /// An eventfd counter object.
    EventFd {
        /// Index into the owning process's `eventfds` table.
        id: usize,
    },
}

/// One fd's membership in an epoll interest set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpollEntry {
    /// Requested event mask (`EPOLLIN`/`EPOLLOUT` plus `EPOLLET` /
    /// `EPOLLONESHOT` modifiers).
    pub events: u64,
    /// Cleared by a delivered `EPOLLONESHOT` event until re-armed via
    /// `EPOLL_CTL_MOD`.
    pub armed: bool,
    /// Edge-trigger memory: bits already reported while continuously
    /// ready. A bit leaves this set when the fd stops being ready for it,
    /// re-arming the edge.
    pub seen: u64,
}

/// What an fd's readiness is computed from. Readiness only rises at the
/// kernel's wake points for that source, which is where epoll instances
/// get poked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ReadySource {
    /// A channel (pipe, socketpair or connected socket), by index.
    Chan(usize),
    /// A listening port's accept backlog.
    Port(u16),
    /// An eventfd counter, by per-process id.
    EventFd(usize),
}

impl FdEntry {
    /// The source this entry's readiness follows; `None` when it never
    /// changes (console, files, snapshots, unbound sockets, epoll).
    pub(crate) fn ready_source(&self) -> Option<ReadySource> {
        match self {
            FdEntry::ChannelRead { chan, .. }
            | FdEntry::ChannelWrite { chan, .. }
            | FdEntry::Socket { chan, .. } => Some(ReadySource::Chan(*chan)),
            FdEntry::Listener { port } => Some(ReadySource::Port(*port)),
            FdEntry::EventFd { id } => Some(ReadySource::EventFd(*id)),
            _ => None,
        }
    }
}

/// An epoll instance: interest set keyed by member fd (BTreeMap iteration
/// order makes `epoll_wait` output deterministic and fd-ordered).
///
/// `ready` is the instance's ready list: every armed member *not* in it
/// has no wanted readiness and an empty `seen` mask, so `epoll_wait` can
/// walk `ready` alone and produce what a scan of all of `interest` would.
/// Members enter it when registered, re-armed, or poked through
/// `by_source`, and leave it when a wait finds them idle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Epoll {
    /// Member fd → registration.
    pub interest: BTreeMap<i64, EpollEntry>,
    /// Open descriptor count (dup shares the instance).
    pub refs: u32,
    /// Members that may be ready (a superset of the deliverable ones).
    pub(crate) ready: BTreeSet<i64>,
    /// `(source, member)` pairs: the members whose readiness follows each
    /// source, as one ordered multimap.
    pub(crate) by_source: BTreeSet<(ReadySource, i64)>,
}

impl Epoll {
    /// Registers `fd` (readiness from `src`) and marks it ready. Returns
    /// false, changing nothing, when `fd` is already a member.
    pub(crate) fn add(&mut self, fd: i64, entry: EpollEntry, src: Option<ReadySource>) -> bool {
        if self.interest.contains_key(&fd) {
            return false;
        }
        self.interest.insert(fd, entry);
        self.retarget(fd, None, src);
        true
    }

    /// Drops `fd` (readiness from `src`) from the instance; returns its
    /// registration if it was a member.
    pub(crate) fn remove(&mut self, fd: i64, src: Option<ReadySource>) -> Option<EpollEntry> {
        let entry = self.interest.remove(&fd)?;
        self.ready.remove(&fd);
        if let Some(src) = src {
            self.by_source.remove(&(src, fd));
        }
        Some(entry)
    }

    /// Moves member `fd` from source `from` to source `to` and marks it
    /// ready (its readiness was just recomputed from a new object). No-op
    /// for non-members.
    pub(crate) fn retarget(&mut self, fd: i64, from: Option<ReadySource>, to: Option<ReadySource>) {
        if !self.interest.contains_key(&fd) {
            return;
        }
        if let Some(src) = from {
            self.by_source.remove(&(src, fd));
        }
        if let Some(src) = to {
            self.by_source.insert((src, fd));
        }
        self.ready.insert(fd);
    }

    /// Marks every member whose readiness follows `src` as possibly ready.
    pub(crate) fn poke(&mut self, src: ReadySource) {
        let members = self.by_source.range((src, i64::MIN)..=(src, i64::MAX));
        self.ready.extend(members.map(|(_, fd)| *fd));
    }
}

/// Per-process statistics (observability for tests and experiments).
#[derive(Debug, Clone, Default)]
pub struct ProcStats {
    /// Syscalls the kernel executed on behalf of this process.
    pub syscalls: u64,
    /// Executed syscalls broken down by number.
    pub per_syscall: std::collections::BTreeMap<u64, u64>,
    /// Executed syscalls broken down by the region containing the issuing
    /// `syscall` instruction. Syscalls attributed to an interposer library's
    /// region were, by construction, interposed — the measurement the
    /// pitfall matrix uses.
    pub syscalls_via: std::collections::BTreeMap<String, u64>,
    /// Executed syscalls broken down by exact issuing site address.
    pub per_site: std::collections::BTreeMap<u64, u64>,
    /// Syscalls executed before the process's interposer announced itself
    /// (see [`Process::interposer_live`]); the P2b metric.
    pub syscalls_before_interposer: u64,
    /// SIGSYS deliveries (SUD traps).
    pub sigsys_count: u64,
    /// vDSO fast-path calls (never enter the kernel).
    pub vdso_calls: u64,
    /// Signal deliveries of any kind.
    pub signals: u64,
}

impl ProcStats {
    /// Executed count of one syscall number.
    pub fn syscall_count_of(&self, nr: u64) -> u64 {
        self.per_syscall.get(&nr).copied().unwrap_or(0)
    }

    /// Executed syscalls whose issuing instruction lives in `region`.
    pub fn syscalls_via_region(&self, region: &str) -> u64 {
        self.syscalls_via.get(region).copied().unwrap_or(0)
    }

    /// Executed syscalls issued from the exact instruction at `site`.
    pub fn syscalls_at_site(&self, site: u64) -> u64 {
        self.per_site.get(&site).copied().unwrap_or(0)
    }

    /// Number of distinct `syscall` instruction addresses that executed —
    /// the Table 2 metric.
    pub fn unique_sites(&self) -> usize {
        self.per_site.len()
    }
}

/// A guest process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent pid (0 for the initial process).
    pub ppid: Pid,
    /// Executable path (latest `execve`).
    pub exe: String,
    /// Address space (shared by all threads).
    pub space: AddressSpace,
    /// Threads (index 0 is the main thread).
    pub threads: Vec<Thread>,
    /// Open file descriptors.
    pub fds: BTreeMap<i64, FdEntry>,
    next_fd: i64,
    /// Environment (`KEY=value` strings), as passed to `execve`.
    pub env: Vec<String>,
    /// Arguments.
    pub argv: Vec<String>,
    /// Working directory.
    pub cwd: String,
    /// Registered signal handlers.
    pub sigactions: BTreeMap<u64, SigAction>,
    /// Exit status once the process has fully exited.
    pub exit_status: Option<i64>,
    /// Children that exited and have not been reaped: (pid, status).
    pub zombies: Vec<(Pid, i64)>,
    /// Live children.
    pub children: Vec<Pid>,
    /// Captured stdout/stderr bytes.
    pub output: Vec<u8>,
    /// Next protection key for `pkey_alloc`.
    pub next_pkey: u8,
    /// Statistics.
    pub stats: ProcStats,
    /// Set by interposers once their in-process component is initialized;
    /// used to measure how many syscalls escaped before that point (P2b).
    pub interposer_live: bool,
    /// Whether vDSO acceleration is enabled for this image (a tracer can
    /// disable it at exec so vDSO calls fall back to real syscalls, §5.2).
    pub vdso_enabled: bool,
    /// Base address of the mapped vDSO (0 when absent).
    pub vdso_base: u64,
    /// Symbol table of the loaded image: `"region:symbol"` → vaddr.
    pub symbols: BTreeMap<String, u64>,
    /// Base address of each loaded region, keyed by region name.
    pub lib_bases: BTreeMap<String, u64>,
    /// Installed seccomp filter, if any (checked on every dispatch; like
    /// Linux, it cannot be removed once installed).
    pub seccomp: Option<SeccompFilter>,
    /// Active-layer bitmask of the installed interposer stack: bit *i*
    /// set means layer *i* of the session interposes this process. Zero
    /// (the default) leaves the chain inert. Fork/execve filter it by the
    /// layers' propagation flags.
    pub stack_mask: u64,
    /// Cached chain-site resolution for the stack's site filter:
    /// `(symbols.len() key, sorted site addresses)`, invalidated on exec
    /// and whenever the symbol table changes size.
    pub(crate) chain_sites: Option<(usize, Vec<u64>)>,
    /// Memoized `site → containing-region name` for per-syscall accounting:
    /// `site → (space generation, region name)`. Entries are valid only
    /// while the space generation is unchanged, so mapping churn can never
    /// yield stale attribution.
    pub(crate) region_cache: sim_cpu::FastMap<u64, (u64, String)>,
    /// Lazily built address-sorted symbol table for profiler
    /// symbolization, keyed by `symbols.len()` for invalidation and
    /// explicitly cleared on exec.
    pub(crate) symcache: Option<(usize, Vec<(u64, String)>)>,
    /// The sampling profiler's executable ranges and frame-id memo;
    /// replaced on exec. Boxed: it is profiler-only state, and keeping
    /// it out of line keeps `Process` (stored by value in the kernel's
    /// process map) at its unprofiled size.
    pub(crate) prof_cache: Box<ProfCache>,
    /// Epoll instances owned by this process, keyed by the `id` inside
    /// `FdEntry::Epoll`. Slots persist after close (ids stay stable);
    /// `refs == 0` marks a dead instance.
    pub epolls: BTreeMap<usize, Epoll>,
    /// Next epoll instance id.
    pub(crate) next_epoll: usize,
    /// Eventfd counters, keyed by the `id` inside `FdEntry::EventFd`:
    /// `(counter value, open descriptor count)`.
    pub eventfds: BTreeMap<usize, (u64, u32)>,
    /// Next eventfd id.
    pub(crate) next_eventfd: usize,
    /// Fds with `O_NONBLOCK` set via `fcntl(F_SETFL)`.
    pub nonblock: std::collections::BTreeSet<i64>,
}

impl Process {
    /// A new single-threaded process shell (the loader fills the space).
    pub fn new(pid: Pid, ppid: Pid, main_tid: Tid) -> Process {
        let mut fds = BTreeMap::new();
        fds.insert(0, FdEntry::Console);
        fds.insert(1, FdEntry::Console);
        fds.insert(2, FdEntry::Console);
        Process {
            pid,
            ppid,
            exe: String::new(),
            space: AddressSpace::new(),
            threads: vec![Thread::new(main_tid)],
            fds,
            next_fd: 3,
            env: Vec::new(),
            argv: Vec::new(),
            cwd: "/".to_string(),
            sigactions: BTreeMap::new(),
            exit_status: None,
            zombies: Vec::new(),
            children: Vec::new(),
            output: Vec::new(),
            next_pkey: 1,
            stats: ProcStats::default(),
            interposer_live: false,
            vdso_enabled: true,
            vdso_base: 0,
            symbols: BTreeMap::new(),
            lib_bases: BTreeMap::new(),
            seccomp: None,
            stack_mask: 0,
            chain_sites: None,
            region_cache: sim_cpu::FastMap::default(),
            symcache: None,
            prof_cache: Box::default(),
            epolls: BTreeMap::new(),
            next_epoll: 0,
            eventfds: BTreeMap::new(),
            next_eventfd: 0,
            nonblock: std::collections::BTreeSet::new(),
        }
    }

    /// Allocates a fresh epoll instance with one descriptor reference.
    pub fn alloc_epoll(&mut self) -> usize {
        let id = self.next_epoll;
        self.next_epoll += 1;
        self.epolls.insert(
            id,
            Epoll {
                refs: 1,
                ..Epoll::default()
            },
        );
        id
    }

    /// Allocates a fresh eventfd with the given initial counter.
    pub fn alloc_eventfd(&mut self, initval: u64) -> usize {
        let id = self.next_eventfd;
        self.next_eventfd += 1;
        self.eventfds.insert(id, (initval, 1));
        id
    }

    /// Allocates the lowest free fd ≥ 3.
    pub fn alloc_fd(&mut self, entry: FdEntry) -> i64 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.set_fd(fd, entry);
        fd
    }

    /// Installs `entry` at `fd`. When that replaces an entry, an epoll
    /// member at `fd` follows its new object: `bind`/`connect` turn an
    /// unbound socket into a listener or a socket, and a forked child
    /// restarts numbering at 3, so `alloc_fd` can land on an inherited fd.
    pub(crate) fn set_fd(&mut self, fd: i64, entry: FdEntry) {
        let to = entry.ready_source();
        if let Some(old) = self.fds.insert(fd, entry) {
            let from = old.ready_source();
            for ep in self.epolls.values_mut() {
                ep.retarget(fd, from, to);
            }
        }
    }

    /// Looks up an environment variable.
    pub fn getenv(&self, key: &str) -> Option<&str> {
        let prefix = format!("{key}=");
        self.env
            .iter()
            .find(|e| e.starts_with(&prefix))
            .map(|e| &e[prefix.len()..])
    }

    /// The thread with `tid`.
    pub fn thread(&self, tid: Tid) -> Option<&Thread> {
        self.threads.iter().find(|t| t.tid == tid)
    }

    /// The thread with `tid`, mutably.
    pub fn thread_mut(&mut self, tid: Tid) -> Option<&mut Thread> {
        self.threads.iter_mut().find(|t| t.tid == tid)
    }

    /// True when every thread has exited.
    pub fn all_threads_exited(&self) -> bool {
        self.threads.iter().all(|t| t.state == ThreadState::Exited)
    }

    /// Captured output as lossy UTF-8.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// Symbolizes guest addresses for the profiler: the greatest symbol
    /// at or below each address *within the same mapping*, else
    /// `basename+0xoffset` of the containing mapping, else the raw
    /// address. Names omit the intra-symbol offset so folded stacks
    /// aggregate by function.
    pub(crate) fn symbolize_frames(&mut self, addrs: &[u64]) -> Vec<String> {
        addrs.iter().map(|&addr| self.symbolize(addr)).collect()
    }

    /// The profiler name of one guest address (see
    /// [`Process::symbolize_frames`]).
    fn symbolize(&mut self, addr: u64) -> String {
        let n = self.symbols.len();
        if self.symcache.as_ref().map(|(k, _)| *k) != Some(n) {
            let mut tab: Vec<(u64, String)> = self
                .symbols
                .iter()
                .map(|(name, &addr)| (addr, name.clone()))
                .collect();
            tab.sort();
            // Aliased addresses keep the alphabetically first name.
            tab.dedup_by(|a, b| a.0 == b.0);
            self.symcache = Some((n, tab));
        }
        let tab = &self.symcache.as_ref().expect("just built").1;
        let mapping = self.space.mapping_at(addr);
        let idx = tab.partition_point(|e| e.0 <= addr);
        if idx > 0 {
            let (sym_addr, name) = &tab[idx - 1];
            if mapping.is_none_or(|m| *sym_addr >= m.start) {
                return name.clone();
            }
        }
        match mapping {
            Some(m) => {
                let base = m.name.rsplit('/').next().unwrap_or(&m.name);
                format!("{}+{:#x}", base, addr - m.start)
            }
            None => format!("{addr:#x}"),
        }
    }

    /// The sampling profiler's stack walk: `rip`, then the values in the
    /// first [`PROF_SCAN_SLOTS`] u64 slots above `rsp` that point into
    /// executable mappings, up to [`PROF_MAX_FRAMES`] frames in all,
    /// stopping at the first slot that is not mapped. Writes the frames
    /// into `out` and returns how many there are.
    ///
    /// The same walk as `Kernel::symbolized_stack`, with no allocation:
    /// the window is read one page run at a time (a page only when the
    /// walk reaches it, so it touches the pages the slot-by-slot walk
    /// touches), and the executable test is a binary search over
    /// [`ProfCache`]'s ranges instead of a mapping scan per slot.
    pub(crate) fn prof_stack(
        &mut self,
        rip: u64,
        rsp: u64,
        out: &mut [u64; PROF_MAX_FRAMES],
    ) -> usize {
        let gen = self.space.generation();
        let cache = &mut self.prof_cache;
        if cache.exec_gen != gen {
            cache.exec.clear();
            cache.exec.extend(
                self.space
                    .mappings()
                    .into_iter()
                    .filter(|m| m.perms.executable())
                    .map(|m| (m.start, m.end)),
            );
            cache.exec_gen = gen;
        }
        let exec = &cache.exec;
        out[0] = rip;
        let mut n = 1;
        // Slots whose start address does not overflow; a slot's bytes
        // may still wrap, as the slot-by-slot reads did.
        let slots = PROF_SCAN_SLOTS.min(((u64::MAX - rsp) / 8) as usize + 1);
        let mut window = [0u8; 8 * PROF_SCAN_SLOTS];
        let window = &mut window[..8 * slots];
        let (mut filled, mut slot) = (0usize, 0usize);
        while slot < slots && n < PROF_MAX_FRAMES {
            let at = rsp.wrapping_add(filled as u64);
            let run = (PAGE_SIZE - at % PAGE_SIZE).min((window.len() - filled) as u64) as usize;
            if self
                .space
                .read_raw(at, &mut window[filled..filled + run])
                .is_err()
            {
                break;
            }
            filled += run;
            // Every slot this run completes; a slot straddling into the
            // next page waits for the next run.
            for bytes in window[8 * slot..filled].chunks_exact(8) {
                if n == PROF_MAX_FRAMES {
                    break;
                }
                let v = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                if v != 0 && in_ranges(exec, v) {
                    out[n] = v;
                    n += 1;
                }
                slot += 1;
            }
        }
        n
    }

    /// Resolves `addrs` to frame ids of the live `sim-obs` recording,
    /// leaf first, through [`ProfCache`]'s `address → frame id` memo:
    /// only an address the memo has not seen under the current
    /// `(recording epoch, symbols.len(), space generation)` is
    /// symbolized and interned. Frames are interned in the order the
    /// string walk interned them, so frame ids match it too.
    pub(crate) fn prof_frame_ids(&mut self, addrs: &[u64], out: &mut [u32]) {
        let key = (
            sim_obs::epoch(),
            self.symbols.len(),
            self.space.generation(),
        );
        if self.prof_cache.memo_key != key {
            self.prof_cache.memo.clear();
            self.prof_cache.memo_key = key;
        }
        for (slot, &addr) in out.iter_mut().zip(addrs) {
            *slot = match self.prof_cache.memo.get(&addr) {
                Some(&id) => id,
                None => {
                    let name = self.symbolize(addr);
                    let id = sim_obs::intern_frame(&name).expect("sampling while recording");
                    self.prof_cache.memo.insert(addr, id);
                    id
                }
            };
        }
    }
}

/// True when `v` lies in one of the sorted, disjoint `[start, end)`
/// `ranges`.
fn in_ranges(ranges: &[(u64, u64)], v: u64) -> bool {
    let r = ranges.partition_point(|&(start, _)| start <= v);
    r > 0 && v < ranges[r - 1].1
}

/// Most frames in one profiler sample (the RIP included).
pub(crate) const PROF_MAX_FRAMES: usize = 16;
/// Stack slots scanned per sample by the return-address walker.
pub(crate) const PROF_SCAN_SLOTS: usize = 64;

/// Per-process caches of the sampling profiler. Both start empty: space
/// generations start at 1 and recording epochs at 1, so the zero keys
/// never match. A fresh address space restarts its generation count, so
/// exec replaces the whole cache rather than trusting the keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProfCache {
    /// Space generation [`ProfCache::exec`] was built at.
    exec_gen: u64,
    /// Sorted, disjoint `[start, end)` of the executable mappings.
    exec: Vec<(u64, u64)>,
    /// `(recording epoch, symbols.len(), space generation)` the memo is
    /// valid for.
    memo_key: (u64, usize, u64),
    /// Guest address → interned frame id.
    memo: sim_cpu::FastMap<u64, u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fds_start_after_stdio() {
        let mut p = Process::new(1, 0, 1);
        let fd = p.alloc_fd(FdEntry::SocketUnbound);
        assert_eq!(fd, 3);
        assert_eq!(p.fds.len(), 4);
    }

    #[test]
    fn getenv_finds_exact_key() {
        let mut p = Process::new(1, 0, 1);
        p.env = vec![
            "LD_PRELOAD=/lib/libk23.so".into(),
            "PATH=/bin".into(),
            "LD_PRELOAD_EXTRA=x".into(),
        ];
        assert_eq!(p.getenv("LD_PRELOAD"), Some("/lib/libk23.so"));
        assert_eq!(p.getenv("PATH"), Some("/bin"));
        assert_eq!(p.getenv("HOME"), None);
    }

    #[test]
    fn sud_allowlist() {
        let s = Sud {
            selector_addr: 0x100,
            range_start: 0x7000,
            range_len: 0x1000,
        };
        assert!(s.in_allowlist(0x7000));
        assert!(s.in_allowlist(0x7fff));
        assert!(!s.in_allowlist(0x8000));
        assert!(!s.in_allowlist(0x6fff));
    }
}
