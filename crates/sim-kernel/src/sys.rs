//! Syscall implementations.

use crate::kernel::Kernel;
use crate::net::End;
use crate::nr::{self, err};
use crate::process::{EpollEntry, FdEntry, Pid, SigAction, ThreadState, Tid, Wait};
use crate::process::{Sud, Wait::*};
use sim_isa::Reg;

/// How a syscall dispatch concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disp {
    /// Completed with a return value; advance past the instruction.
    Ret(u64),
    /// Would block: leave `rip` on the instruction and park the thread.
    /// The syscall re-executes (and re-pays kernel entry) on wake — matching
    /// a restarted syscall.
    Block(Wait),
    /// Completed with a return value *and* parks the thread (sleep-style:
    /// the syscall must not re-execute on wake).
    RetThenBlock(u64, Wait),
    /// The handler already arranged control flow (exit, execve, sigreturn).
    NoReturn,
}

const O_CREAT: u64 = 0x40;

/// Cycles of in-kernel service work per syscall (on top of
/// `CostModel::kernel_entry`).
pub(crate) fn service_cost(nr_: u64, bytes: u64) -> u64 {
    match nr_ {
        nr::SYS_READ | nr::SYS_WRITE => 60 + bytes / 32,
        nr::SYS_OPEN | nr::SYS_OPENAT | nr::SYS_CLOSE | nr::SYS_NEWFSTATAT | nr::SYS_ACCESS => 80,
        nr::SYS_MMAP | nr::SYS_MPROTECT | nr::SYS_MUNMAP | nr::SYS_PKEY_MPROTECT => 120,
        nr::SYS_FORK => 4000,
        nr::SYS_CLONE => 2500,
        nr::SYS_EXECVE => 25_000,
        nr::SYS_WAIT4 => 120,
        nr::SYS_FSYNC => 400,
        nr::SYS_ACCEPT | nr::SYS_CONNECT => 150,
        nr::SYS_SOCKET | nr::SYS_BIND | nr::SYS_LISTEN => 90,
        nr::SYS_GETDENTS64 => 100,
        nr::SYS_EPOLL_WAIT => 70,
        nr::SYS_EPOLL_CTL => 60,
        nr::SYS_EPOLL_CREATE1 | nr::SYS_EVENTFD2 => 90,
        nr::SYS_RT_SIGRETURN => 0, // costed as CostModel::sigreturn
        nr::SYS_PRCTL | nr::SYS_RT_SIGACTION => 60,
        nr::SYS_GETPID | nr::SYS_GETTID | nr::SYS_GETUID | nr::SYS_SCHED_YIELD => 30,
        nr::SYS_CLOCK_GETTIME | nr::SYS_GETTIMEOFDAY | nr::SYS_TIME => 45,
        nr::SYS_NONEXISTENT => 10,
        _ if nr::syscall_name(nr_) == "unknown" => 10,
        _ => 40,
    }
}

impl Kernel {
    fn guest_read(&mut self, pid: Pid, addr: u64, len: usize) -> Result<Vec<u8>, u64> {
        let p = self.process_mut(pid).ok_or(err(nr::EFAULT))?;
        let mut buf = vec![0u8; len];
        p.space.read_raw(addr, &mut buf).map_err(|_| err(nr::EFAULT))?;
        Ok(buf)
    }

    fn guest_write(&mut self, pid: Pid, addr: u64, data: &[u8]) -> Result<(), u64> {
        let p = self.process_mut(pid).ok_or(err(nr::EFAULT))?;
        p.space.write_raw(addr, data).map_err(|_| err(nr::EFAULT))
    }

    fn guest_cstr(&mut self, pid: Pid, addr: u64) -> Result<String, u64> {
        let p = self.process_mut(pid).ok_or(err(nr::EFAULT))?;
        p.space.read_cstr(addr).map_err(|_| err(nr::EFAULT))
    }

    /// Reads a NULL-terminated array of string pointers (argv/envp).
    fn guest_str_array(&mut self, pid: Pid, addr: u64) -> Result<Vec<String>, u64> {
        if addr == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for i in 0..256u64 {
            let b = self.guest_read(pid, addr + i * 8, 8)?;
            let ptr = u64::from_le_bytes(b.try_into().expect("8 bytes"));
            if ptr == 0 {
                break;
            }
            out.push(self.guest_cstr(pid, ptr)?);
        }
        Ok(out)
    }

    fn abs_path(&self, pid: Pid, path: &str) -> String {
        if path.starts_with('/') {
            path.to_string()
        } else {
            let cwd = self
                .process(pid)
                .map(|p| p.cwd.clone())
                .unwrap_or_else(|| "/".into());
            if cwd.ends_with('/') {
                format!("{cwd}{path}")
            } else {
                format!("{cwd}/{path}")
            }
        }
    }

    pub(crate) fn sys_dispatch(
        &mut self,
        pid: Pid,
        tid: Tid,
        nr_: u64,
        args: [u64; 6],
        site: u64,
    ) -> Disp {
        let disp = self.sys_dispatch_inner(pid, tid, nr_, args, site);
        if !matches!(disp, Disp::Block(_)) {
            // I/O work is charged by bytes actually transferred, not by the
            // (possibly garbage) requested length.
            let bytes = match (nr_, &disp) {
                (nr::SYS_READ | nr::SYS_WRITE, Disp::Ret(r)) if !nr::is_err(*r) => *r,
                _ => 0,
            };
            self.charge(service_cost(nr_, bytes));
        }
        disp
    }

    fn sys_dispatch_inner(
        &mut self,
        pid: Pid,
        tid: Tid,
        nr_: u64,
        args: [u64; 6],
        site: u64,
    ) -> Disp {
        match nr_ {
            nr::SYS_READ => self.sys_read(pid, args),
            nr::SYS_WRITE => self.sys_write(pid, args),
            nr::SYS_OPEN | nr::SYS_OPENAT => self.sys_open(pid, nr_, args),
            nr::SYS_CLOSE => self.sys_close(pid, args),
            nr::SYS_LSEEK => self.sys_lseek(pid, args),
            nr::SYS_MMAP => self.sys_mmap(pid, args),
            nr::SYS_MPROTECT => self.sys_mprotect(pid, args, None),
            nr::SYS_PKEY_MPROTECT => self.sys_mprotect(pid, args, Some(args[3] as u8)),
            nr::SYS_MUNMAP => {
                if let Some(p) = self.process_mut(pid) {
                    p.space.unmap(args[0], args[1]);
                }
                Disp::Ret(0)
            }
            nr::SYS_BRK => Disp::Ret(0),
            nr::SYS_RT_SIGACTION => {
                let sig = args[0] & !nr::SIGACT_MASK_ALL;
                let mask_all = args[0] & nr::SIGACT_MASK_ALL != 0;
                let handler = args[1];
                if let Some(p) = self.process_mut(pid) {
                    if handler == 0 {
                        p.sigactions.remove(&sig);
                    } else {
                        p.sigactions.insert(sig, SigAction { handler, mask_all });
                    }
                }
                Disp::Ret(0)
            }
            nr::SYS_RT_SIGPROCMASK => Disp::Ret(0),
            nr::SYS_RT_SIGRETURN => self.sys_sigreturn(pid, tid),
            nr::SYS_IOCTL | nr::SYS_MADVISE | nr::SYS_ARCH_PRCTL
            | nr::SYS_SET_TID_ADDRESS => Disp::Ret(0),
            nr::SYS_FCNTL => self.sys_fcntl(pid, args),
            nr::SYS_EPOLL_CREATE1 => self.sys_epoll_create1(pid),
            nr::SYS_EPOLL_CTL => self.sys_epoll_ctl(pid, args),
            nr::SYS_EPOLL_WAIT => self.sys_epoll_wait(pid, args),
            nr::SYS_EVENTFD2 => self.sys_eventfd2(pid, args),
            nr::SYS_ACCESS => {
                let path = match self.guest_cstr(pid, args[0]) {
                    Ok(p) => self.abs_path(pid, &p),
                    Err(e) => return Disp::Ret(e),
                };
                if self.vfs.exists(&path) {
                    Disp::Ret(0)
                } else {
                    Disp::Ret(err(nr::ENOENT))
                }
            }
            nr::SYS_PIPE => self.sys_pipe(pid, args),
            nr::SYS_SCHED_YIELD => Disp::Ret(0),
            nr::SYS_DUP => self.sys_dup(pid, args),
            nr::SYS_NANOSLEEP => {
                let cycles = args[0]; // simplified ABI: rdi = cycles to sleep
                Disp::RetThenBlock(
                    0,
                    Sleep {
                        until: self.clock + cycles,
                    },
                )
            }
            nr::SYS_GETPID => Disp::Ret(pid),
            nr::SYS_GETTID => Disp::Ret(tid),
            nr::SYS_GETUID => Disp::Ret(1000),
            nr::SYS_SOCKET => {
                let fd = self
                    .process_mut(pid)
                    .map(|p| p.alloc_fd(FdEntry::SocketUnbound))
                    .unwrap_or(-nr::ESRCH);
                Disp::Ret(fd as u64)
            }
            nr::SYS_BIND => self.sys_bind(pid, args),
            nr::SYS_LISTEN => self.sys_listen(pid, args),
            nr::SYS_CONNECT => self.sys_connect(pid, args),
            nr::SYS_ACCEPT => self.sys_accept(pid, args),
            nr::SYS_CLONE => {
                let stack = args[1];
                Disp::Ret(self.do_clone_thread(pid, tid, site, stack))
            }
            nr::SYS_FORK => Disp::Ret(self.do_fork(pid, tid, site)),
            nr::SYS_EXECVE => self.sys_execve(pid, tid, args),
            nr::SYS_EXIT => self.sys_exit(pid, tid, args[0] as i64),
            nr::SYS_EXIT_GROUP => {
                self.kill_process(pid, args[0] as i64);
                Disp::NoReturn
            }
            nr::SYS_WAIT4 => self.sys_wait4(pid, args),
            nr::SYS_UNAME => {
                let _ = self.guest_write(pid, args[0], b"SimLinux 6.8.0-sim x86_64\0");
                Disp::Ret(0)
            }
            nr::SYS_FSYNC => Disp::Ret(0),
            nr::SYS_GETCWD => {
                let cwd = self
                    .process(pid)
                    .map(|p| p.cwd.clone())
                    .unwrap_or_default();
                let mut bytes = cwd.into_bytes();
                bytes.push(0);
                let n = bytes.len().min(args[1] as usize);
                match self.guest_write(pid, args[0], &bytes[..n]) {
                    Ok(()) => Disp::Ret(n as u64),
                    Err(e) => Disp::Ret(e),
                }
            }
            nr::SYS_MKDIR => {
                let path = match self.guest_cstr(pid, args[0]) {
                    Ok(p) => self.abs_path(pid, &p),
                    Err(e) => return Disp::Ret(e),
                };
                match self.vfs.mkdir_p(&path) {
                    Ok(()) => Disp::Ret(0),
                    Err(e) => Disp::Ret(e),
                }
            }
            nr::SYS_UNLINK => {
                let path = match self.guest_cstr(pid, args[0]) {
                    Ok(p) => self.abs_path(pid, &p),
                    Err(e) => return Disp::Ret(e),
                };
                match self.vfs.unlink(&path) {
                    Ok(()) => Disp::Ret(0),
                    Err(e) => Disp::Ret(e),
                }
            }
            nr::SYS_GETTIMEOFDAY => {
                let sec = self.clock / 3_200_000_000;
                let usec = (self.clock % 3_200_000_000) / 3_200;
                let mut buf = [0u8; 16];
                buf[..8].copy_from_slice(&sec.to_le_bytes());
                buf[8..].copy_from_slice(&usec.to_le_bytes());
                let _ = self.guest_write(pid, args[0], &buf);
                Disp::Ret(0)
            }
            nr::SYS_TIME => Disp::Ret(self.clock / 3_200_000_000),
            nr::SYS_CLOCK_GETTIME => {
                let sec = self.clock / 3_200_000_000;
                let nsec = (self.clock % 3_200_000_000) * 10 / 32;
                let mut buf = [0u8; 16];
                buf[..8].copy_from_slice(&sec.to_le_bytes());
                buf[8..].copy_from_slice(&nsec.to_le_bytes());
                let _ = self.guest_write(pid, args[1], &buf);
                Disp::Ret(0)
            }
            nr::SYS_PRCTL => self.sys_prctl(pid, tid, args),
            nr::SYS_FUTEX => self.sys_futex(pid, args),
            nr::SYS_GETDENTS64 => self.sys_getdents(pid, args),
            nr::SYS_NEWFSTATAT => self.sys_fstatat(pid, args),
            nr::SYS_UTIMENSAT => {
                let path = match self.guest_cstr(pid, args[1]) {
                    Ok(p) => self.abs_path(pid, &p),
                    Err(e) => return Disp::Ret(e),
                };
                if self.vfs.exists(&path) {
                    Disp::Ret(0)
                } else {
                    Disp::Ret(err(nr::ENOENT))
                }
            }
            nr::SYS_PROCESS_VM_READV => self.sys_process_vm(pid, args, false),
            nr::SYS_PROCESS_VM_WRITEV => self.sys_process_vm(pid, args, true),
            nr::SYS_GETRANDOM => {
                let len = (args[1] as usize).min(4096);
                let mut data = vec![0u8; len];
                for chunk in data.chunks_mut(8) {
                    let r = self.next_random().to_le_bytes();
                    let n = chunk.len();
                    chunk.copy_from_slice(&r[..n]);
                }
                match self.guest_write(pid, args[0], &data) {
                    Ok(()) => Disp::Ret(len as u64),
                    Err(e) => Disp::Ret(e),
                }
            }
            nr::SYS_PKEY_ALLOC => {
                let key = self.process_mut(pid).map(|p| {
                    let k = p.next_pkey;
                    p.next_pkey += 1;
                    k
                });
                match key {
                    Some(k) if k < 16 => Disp::Ret(k as u64),
                    _ => Disp::Ret(err(nr::ENOMEM)),
                }
            }
            nr::SYS_PKEY_FREE => Disp::Ret(0),
            _ => Disp::Ret(err(nr::ENOSYS)),
        }
    }

    fn sys_read(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let (fd, buf, count) = (args[0] as i64, args[1], args[2] as usize);
        let entry = match self.process(pid).and_then(|p| p.fds.get(&fd)).cloned() {
            Some(e) => e,
            None => return Disp::Ret(err(nr::EBADF)),
        };
        match entry {
            FdEntry::Console => Disp::Ret(0),
            FdEntry::File { path, offset } => {
                let data = match self.vfs.read_file(&path) {
                    Ok(d) => d.to_vec(),
                    Err(e) => return Disp::Ret(e),
                };
                let start = (offset as usize).min(data.len());
                let end = (start + count).min(data.len());
                let chunk = data[start..end].to_vec();
                if let Err(e) = self.guest_write(pid, buf, &chunk) {
                    return Disp::Ret(e);
                }
                if let Some(FdEntry::File { offset, .. }) =
                    self.process_mut(pid).and_then(|p| p.fds.get_mut(&fd))
                {
                    *offset += chunk.len() as u64;
                }
                Disp::Ret(chunk.len() as u64)
            }
            FdEntry::Snapshot { data, offset } => {
                let start = (offset as usize).min(data.len());
                let end = (start + count).min(data.len());
                let chunk = data[start..end].to_vec();
                if let Err(e) = self.guest_write(pid, buf, &chunk) {
                    return Disp::Ret(e);
                }
                if let Some(FdEntry::Snapshot { offset, .. }) =
                    self.process_mut(pid).and_then(|p| p.fds.get_mut(&fd))
                {
                    *offset += chunk.len() as u64;
                }
                Disp::Ret(chunk.len() as u64)
            }
            FdEntry::ChannelRead { chan, end } | FdEntry::Socket { chan, end } => {
                let nonblock = self.process(pid).is_some_and(|p| p.nonblock.contains(&fd));
                let c = &mut self.net.channels[chan];
                if c.readable(end) == 0 {
                    if c.peer_closed(end) {
                        return Disp::Ret(0);
                    }
                    if nonblock {
                        return Disp::Ret(err(nr::EAGAIN));
                    }
                    return Disp::Block(ChannelReadable { chan, end });
                }
                let data = c.read(end, count);
                if let Err(e) = self.guest_write(pid, buf, &data) {
                    return Disp::Ret(e);
                }
                // Draining freed buffer space: writers parked on the bound
                // (and epoll waiters watching EPOLLOUT) can retry.
                self.wake_channel(chan);
                Disp::Ret(data.len() as u64)
            }
            FdEntry::EventFd { id } => {
                let nonblock = self.process(pid).is_some_and(|p| p.nonblock.contains(&fd));
                let val = self
                    .process(pid)
                    .and_then(|p| p.eventfds.get(&id))
                    .map(|(v, _)| *v)
                    .unwrap_or(0);
                if val == 0 {
                    if nonblock {
                        return Disp::Ret(err(nr::EAGAIN));
                    }
                    return Disp::Block(EventFd { id });
                }
                if count < 8 {
                    return Disp::Ret(err(nr::EINVAL));
                }
                if let Some((v, _)) = self.process_mut(pid).and_then(|p| p.eventfds.get_mut(&id)) {
                    *v = 0;
                }
                if let Err(e) = self.guest_write(pid, buf, &val.to_le_bytes()) {
                    return Disp::Ret(e);
                }
                Disp::Ret(8)
            }
            _ => Disp::Ret(err(nr::EINVAL)),
        }
    }

    fn sys_write(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let (fd, buf, count) = (args[0] as i64, args[1], args[2] as usize);
        let entry = match self.process(pid).and_then(|p| p.fds.get(&fd)).cloned() {
            Some(e) => e,
            None => return Disp::Ret(err(nr::EBADF)),
        };
        let data = match self.guest_read(pid, buf, count) {
            Ok(d) => d,
            Err(e) => return Disp::Ret(e),
        };
        match entry {
            FdEntry::Console => {
                if let Some(p) = self.process_mut(pid) {
                    p.output.extend_from_slice(&data);
                }
                Disp::Ret(count as u64)
            }
            FdEntry::File { path, offset } => {
                let mut content = self.vfs.read_file(&path).map(|d| d.to_vec()).unwrap_or_default();
                let off = offset as usize;
                if content.len() < off + data.len() {
                    content.resize(off + data.len(), 0);
                }
                content[off..off + data.len()].copy_from_slice(&data);
                if let Err(e) = self.vfs.write_file(&path, &content) {
                    return Disp::Ret(e);
                }
                if let Some(FdEntry::File { offset, .. }) =
                    self.process_mut(pid).and_then(|p| p.fds.get_mut(&fd))
                {
                    *offset += data.len() as u64;
                }
                Disp::Ret(count as u64)
            }
            FdEntry::ChannelWrite { chan, end } | FdEntry::Socket { chan, end } => {
                let nonblock = self.process(pid).is_some_and(|p| p.nonblock.contains(&fd));
                let c = &mut self.net.channels[chan];
                let n = c.write(end, &data);
                if n == 0 && !data.is_empty() {
                    if c.peer_closed(end) {
                        // No reader will ever drain the buffer: discard,
                        // as the unbounded channel effectively did.
                        return Disp::Ret(count as u64);
                    }
                    if nonblock {
                        return Disp::Ret(err(nr::EAGAIN));
                    }
                    return Disp::Block(ChannelWritable { chan, end });
                }
                self.wake_channel(chan);
                Disp::Ret(n as u64)
            }
            FdEntry::EventFd { id } => {
                if data.len() < 8 {
                    return Disp::Ret(err(nr::EINVAL));
                }
                let add = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
                if let Some((v, _)) = self.process_mut(pid).and_then(|p| p.eventfds.get_mut(&id)) {
                    *v = v.saturating_add(add);
                }
                self.wake_eventfd(id);
                Disp::Ret(8)
            }
            _ => Disp::Ret(err(nr::EINVAL)),
        }
    }

    fn sys_open(&mut self, pid: Pid, nr_: u64, args: [u64; 6]) -> Disp {
        // openat(dirfd, path, flags, mode) vs open(path, flags, mode)
        let (path_ptr, flags) = if nr_ == nr::SYS_OPENAT {
            (args[1], args[2])
        } else {
            (args[0], args[1])
        };
        let raw = match self.guest_cstr(pid, path_ptr) {
            Ok(p) => p,
            Err(e) => return Disp::Ret(e),
        };
        let path = self.abs_path(pid, &raw);
        // /proc/<pid>/maps and /proc/self/maps: snapshot at open.
        if path.starts_with("/proc/") && path.ends_with("/maps") {
            let target: Pid = {
                let mid = &path["/proc/".len()..path.len() - "/maps".len()];
                if mid == "self" {
                    pid
                } else {
                    match mid.parse() {
                        Ok(p) => p,
                        Err(_) => return Disp::Ret(err(nr::ENOENT)),
                    }
                }
            };
            let Some(p) = self.process(target) else {
                return Disp::Ret(err(nr::ENOENT));
            };
            let data = p.space.render_maps().into_bytes();
            let fd = self
                .process_mut(pid)
                .map(|p| p.alloc_fd(FdEntry::Snapshot { data, offset: 0 }))
                .unwrap_or(-nr::ESRCH);
            return Disp::Ret(fd as u64);
        }
        if !self.vfs.exists(&path) {
            if flags & O_CREAT != 0 {
                if let Err(e) = self.vfs.write_file(&path, b"") {
                    return Disp::Ret(e);
                }
            } else {
                return Disp::Ret(err(nr::ENOENT));
            }
        }
        let fd = self
            .process_mut(pid)
            .map(|p| p.alloc_fd(FdEntry::File { path, offset: 0 }))
            .unwrap_or(-nr::ESRCH);
        Disp::Ret(fd as u64)
    }

    fn sys_close(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let fd = args[0] as i64;
        let entry = match self.process_mut(pid).and_then(|p| p.fds.remove(&fd)) {
            Some(e) => e,
            None => return Disp::Ret(err(nr::EBADF)),
        };
        // Linux auto-removes a closed description from every epoll interest
        // set; with per-process single-description fds that means: on close.
        if let Some(p) = self.process_mut(pid) {
            p.nonblock.remove(&fd);
            let src = entry.ready_source();
            for ep in p.epolls.values_mut() {
                ep.remove(fd, src);
            }
        }
        match entry {
            FdEntry::ChannelRead { chan, end }
            | FdEntry::ChannelWrite { chan, end }
            | FdEntry::Socket { chan, end } => {
                self.net.drop_ref(chan, end);
                self.wake_channel(chan);
            }
            FdEntry::Listener { port } => {
                let gone = if let Some(l) = self.net.listeners.get_mut(&port) {
                    l.refs = l.refs.saturating_sub(1);
                    if l.refs == 0 {
                        self.net.listeners.remove(&port);
                        true
                    } else {
                        false
                    }
                } else {
                    false
                };
                if gone {
                    // Parked connectors must wake and observe ECONNREFUSED.
                    self.wake_backlog(port);
                    self.wake_accept(port);
                }
            }
            FdEntry::Epoll { id } => {
                if let Some(p) = self.process_mut(pid) {
                    if let Some(ep) = p.epolls.get_mut(&id) {
                        ep.refs = ep.refs.saturating_sub(1);
                        if ep.refs == 0 {
                            p.epolls.remove(&id);
                        }
                    }
                }
            }
            FdEntry::EventFd { id } => {
                if let Some(p) = self.process_mut(pid) {
                    if let Some((_, refs)) = p.eventfds.get_mut(&id) {
                        *refs = refs.saturating_sub(1);
                        if *refs == 0 {
                            p.eventfds.remove(&id);
                        }
                    }
                }
            }
            _ => {}
        }
        Disp::Ret(0)
    }

    fn sys_lseek(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let (fd, off, whence) = (args[0] as i64, args[1], args[2]);
        let flen = match self.process(pid).and_then(|p| p.fds.get(&fd)) {
            Some(FdEntry::File { path, .. }) => self.vfs.file_len(path).unwrap_or(0),
            Some(FdEntry::Snapshot { data, .. }) => data.len() as u64,
            _ => return Disp::Ret(err(nr::EBADF)),
        };
        let p = self.process_mut(pid).expect("checked above");
        let cur = match p.fds.get_mut(&fd) {
            Some(FdEntry::File { offset, .. }) | Some(FdEntry::Snapshot { offset, .. }) => offset,
            _ => return Disp::Ret(err(nr::EBADF)),
        };
        let new = match whence {
            0 => off,                          // SEEK_SET
            1 => cur.wrapping_add(off),        // SEEK_CUR
            2 => flen.wrapping_add(off),       // SEEK_END
            _ => return Disp::Ret(err(nr::EINVAL)),
        };
        *cur = new;
        Disp::Ret(new)
    }

    fn sys_mmap(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        const MAP_FIXED: u64 = 0x10;
        let (addr, len, prot, flags) = (args[0], args[1], args[2], args[3]);
        let perms = prot_to_perms(prot);
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        let len = len.div_ceil(sim_mem::PAGE_SIZE) * sim_mem::PAGE_SIZE;
        let base = if flags & MAP_FIXED != 0 || (addr != 0 && !p.space.is_mapped(addr)) {
            addr
        } else {
            p.space.find_free(0x7000_0000_0000, len)
        };
        match p.space.map(base, len, perms, "[anon]") {
            Ok(()) => Disp::Ret(base),
            Err(_) => Disp::Ret(err(nr::ENOMEM)),
        }
    }

    fn sys_mprotect(&mut self, pid: Pid, args: [u64; 6], pkey: Option<u8>) -> Disp {
        let (addr, len, prot) = (args[0], args[1], args[2]);
        let perms = prot_to_perms(prot);
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        if p.space.protect(addr, len, perms).is_err() {
            return Disp::Ret(err(nr::ENOMEM));
        }
        if let Some(k) = pkey {
            if p.space.set_pkey(addr, len, k).is_err() {
                return Disp::Ret(err(nr::EINVAL));
            }
        }
        Disp::Ret(0)
    }

    fn sys_sigreturn(&mut self, pid: Pid, tid: Tid) -> Disp {
        self.charge(self.cost.sigreturn);
        let Some(p) = self.process_mut(pid) else {
            return Disp::NoReturn;
        };
        let Some(t) = p.thread_mut(tid) else {
            return Disp::NoReturn;
        };
        let Some(base) = t.sig_frames.pop() else {
            // sigreturn with no frame: fatal (as on Linux).
            self.kill_process(pid, 128 + nr::SIGSEGV as i64);
            return Disp::NoReturn;
        };
        t.frame_masked.pop();
        let mut frame = vec![0u8; crate::signal::FRAME_SIZE as usize];
        if p.space.read_raw(base, &mut frame).is_err() {
            self.kill_process(pid, 128 + nr::SIGSEGV as i64);
            return Disp::NoReturn;
        }
        let rd = |off: u64| {
            let o = off as usize;
            u64::from_le_bytes(frame[o..o + 8].try_into().expect("8 bytes"))
        };
        let p = self.process_mut(pid).expect("proc");
        let crate::process::Process { space, threads, .. } = p;
        let t = threads.iter_mut().find(|t| t.tid == tid).expect("thread");
        t.cpu.rip = rd(crate::signal::UC_RIP);
        t.cpu.flags_from_packed(rd(crate::signal::UC_FLAGS));
        t.cpu.pkru = sim_mem::Pkru(rd(crate::signal::UC_PKRU) as u32);
        for (i, r) in Reg::ALL.iter().enumerate() {
            let v = rd(crate::signal::UC_REGS + 8 * i as u64);
            t.cpu.set(*r, v);
        }
        // Returning from the handler serializes (iret).
        t.cpu.serialize(space);
        // A masking handler just left the stack: deliver the oldest
        // deferred signal (one per sigreturn — each delivery pushes its own
        // frame, whose sigreturn drains the next, keeping delivery points
        // architecturally deterministic).
        let pending = self
            .process_mut(pid)
            .and_then(|p| p.thread_mut(tid))
            .filter(|t| !t.frame_masked.iter().any(|m| *m) && !t.pending_signals.is_empty())
            .map(|t| t.pending_signals.remove(0));
        if let Some(info) = pending {
            self.deliver_signal(pid, tid, info);
        }
        Disp::NoReturn
    }

    fn sys_pipe(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let chan = self.net.new_channel();
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        let rfd = p.alloc_fd(FdEntry::ChannelRead { chan, end: End::B });
        let wfd = p.alloc_fd(FdEntry::ChannelWrite { chan, end: End::A });
        let mut buf = [0u8; 8];
        buf[..4].copy_from_slice(&(rfd as i32).to_le_bytes());
        buf[4..].copy_from_slice(&(wfd as i32).to_le_bytes());
        match self.guest_write(pid, args[0], &buf) {
            Ok(()) => Disp::Ret(0),
            Err(e) => Disp::Ret(e),
        }
    }

    fn sys_dup(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let fd = args[0] as i64;
        let entry = match self.process(pid).and_then(|p| p.fds.get(&fd)).cloned() {
            Some(e) => e,
            None => return Disp::Ret(err(nr::EBADF)),
        };
        match &entry {
            FdEntry::ChannelRead { chan, end }
            | FdEntry::ChannelWrite { chan, end }
            | FdEntry::Socket { chan, end } => self.net.add_ref(*chan, *end),
            FdEntry::Epoll { id } => {
                if let Some(ep) = self.process_mut(pid).and_then(|p| p.epolls.get_mut(id)) {
                    ep.refs += 1;
                }
            }
            FdEntry::EventFd { id } => {
                if let Some((_, refs)) =
                    self.process_mut(pid).and_then(|p| p.eventfds.get_mut(id))
                {
                    *refs += 1;
                }
            }
            _ => {}
        }
        let nfd = self
            .process_mut(pid)
            .map(|p| p.alloc_fd(entry))
            .unwrap_or(-nr::ESRCH);
        Disp::Ret(nfd as u64)
    }

    fn sys_bind(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        // Simplified ABI: bind(fd, port).
        let (fd, port) = (args[0] as i64, args[1] as u16);
        if self.net.listeners.contains_key(&port) {
            return Disp::Ret(err(nr::EADDRINUSE));
        }
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        match p.fds.get(&fd) {
            Some(FdEntry::SocketUnbound) => {
                p.set_fd(fd, FdEntry::Listener { port });
                Disp::Ret(0)
            }
            Some(_) => Disp::Ret(err(nr::EINVAL)),
            None => Disp::Ret(err(nr::EBADF)),
        }
    }

    fn sys_listen(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let fd = args[0] as i64;
        let port = match self.process(pid).and_then(|p| p.fds.get(&fd)) {
            Some(FdEntry::Listener { port }) => *port,
            Some(_) => return Disp::Ret(err(nr::EINVAL)),
            None => return Disp::Ret(err(nr::EBADF)),
        };
        let l = self.net.listeners.entry(port).or_default();
        l.refs += 1;
        l.max_backlog = (args[1] as usize).min(65536);
        Disp::Ret(0)
    }

    fn sys_connect(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        // Simplified ABI: connect(fd, port).
        let (fd, port) = (args[0] as i64, args[1] as u16);
        if !matches!(
            self.process(pid).and_then(|p| p.fds.get(&fd)),
            Some(FdEntry::SocketUnbound)
        ) {
            return Disp::Ret(err(nr::EINVAL));
        }
        let Some(l) = self.net.listeners.get(&port) else {
            return Disp::Ret(err(nr::ECONNREFUSED));
        };
        if l.backlog_full() {
            // Park until an accept drains a slot (SYN backlog pressure).
            if self.process(pid).is_some_and(|p| p.nonblock.contains(&fd)) {
                return Disp::Ret(err(nr::EAGAIN));
            }
            return Disp::Block(Backlog { port });
        }
        let chan = self.net.new_channel();
        self.net
            .listeners
            .get_mut(&port)
            .expect("listener checked")
            .backlog
            .push_back(chan);
        if let Some(p) = self.process_mut(pid) {
            // Checked above to be an unbound socket.
            p.set_fd(fd, FdEntry::Socket { chan, end: End::A });
        }
        self.wake_accept(port);
        Disp::Ret(0)
    }

    fn sys_accept(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let fd = args[0] as i64;
        let port = match self.process(pid).and_then(|p| p.fds.get(&fd)) {
            Some(FdEntry::Listener { port }) => *port,
            Some(_) => return Disp::Ret(err(nr::EINVAL)),
            None => return Disp::Ret(err(nr::EBADF)),
        };
        let chan = match self.net.listeners.get_mut(&port).and_then(|l| l.backlog.pop_front()) {
            Some(c) => c,
            None => {
                if self.process(pid).is_some_and(|p| p.nonblock.contains(&fd)) {
                    return Disp::Ret(err(nr::EAGAIN));
                }
                return Disp::Block(Accept { port });
            }
        };
        // A backlog slot freed up: parked connectors retry.
        self.wake_backlog(port);
        let nfd = self
            .process_mut(pid)
            .map(|p| p.alloc_fd(FdEntry::Socket { chan, end: End::B }))
            .unwrap_or(-nr::ESRCH);
        Disp::Ret(nfd as u64)
    }

    fn sys_execve(&mut self, pid: Pid, tid: Tid, args: [u64; 6]) -> Disp {
        let path = match self.guest_cstr(pid, args[0]) {
            Ok(p) => self.abs_path(pid, &p),
            Err(e) => return Disp::Ret(e),
        };
        let argv = match self.guest_str_array(pid, args[1]) {
            Ok(a) => a,
            Err(e) => return Disp::Ret(e),
        };
        let env = match self.guest_str_array(pid, args[2]) {
            Ok(a) => a,
            Err(e) => return Disp::Ret(e),
        };
        let _ = tid;
        match self.exec_into(pid, &path, argv, env) {
            Ok(()) => Disp::NoReturn,
            Err(e) => Disp::Ret((-e) as u64),
        }
    }

    fn sys_exit(&mut self, pid: Pid, tid: Tid, status: i64) -> Disp {
        let last = {
            let Some(p) = self.process_mut(pid) else {
                return Disp::NoReturn;
            };
            if let Some(t) = p.thread_mut(tid) {
                t.state = ThreadState::Exited;
            }
            p.all_threads_exited()
        };
        if last {
            self.kill_process(pid, status);
        }
        Disp::NoReturn
    }

    fn sys_wait4(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        if let Some((child, status)) = p.zombies.pop() {
            if args[1] != 0 {
                let _ = self.guest_write(pid, args[1], &(status as u64).to_le_bytes());
            }
            return Disp::Ret(child);
        }
        if p.children.is_empty() {
            return Disp::Ret(err(nr::ECHILD));
        }
        Disp::Block(Child)
    }

    fn sys_prctl(&mut self, pid: Pid, tid: Tid, args: [u64; 6]) -> Disp {
        if args[0] != nr::PR_SET_SYSCALL_USER_DISPATCH {
            return Disp::Ret(err(nr::EINVAL));
        }
        let Some(t) = self.process_mut(pid).and_then(|p| p.thread_mut(tid)) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        match args[1] {
            nr::PR_SYS_DISPATCH_ON => {
                t.sud = Some(Sud {
                    range_start: args[2],
                    range_len: args[3],
                    selector_addr: args[4],
                });
                if sim_obs::enabled() {
                    sim_obs::sud_arm(self.clock, args[4]);
                }
                Disp::Ret(0)
            }
            nr::PR_SYS_DISPATCH_OFF => {
                t.sud = None;
                Disp::Ret(0)
            }
            _ => Disp::Ret(err(nr::EINVAL)),
        }
    }

    fn sys_futex(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        const FUTEX_WAIT: u64 = 0;
        const FUTEX_WAKE: u64 = 1;
        let (addr, op, val) = (args[0], args[1], args[2]);
        match op {
            FUTEX_WAIT => {
                let cur = match self.guest_read(pid, addr, 4) {
                    Ok(b) => u32::from_le_bytes(b.try_into().expect("4 bytes")),
                    Err(e) => return Disp::Ret(e),
                };
                if cur as u64 == val {
                    Disp::Block(Futex { addr })
                } else {
                    Disp::Ret(err(nr::EAGAIN))
                }
            }
            FUTEX_WAKE => {
                let woken = self.wake_futex(pid, addr, val);
                Disp::Ret(woken)
            }
            _ => Disp::Ret(err(nr::EINVAL)),
        }
    }

    fn sys_getdents(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let (fd, buf, count) = (args[0] as i64, args[1], args[2] as usize);
        let (path, offset) = match self.process(pid).and_then(|p| p.fds.get(&fd)) {
            Some(FdEntry::File { path, offset }) => (path.clone(), *offset),
            _ => return Disp::Ret(err(nr::EBADF)),
        };
        let names = match self.vfs.read_dir(&path) {
            Ok(n) => n,
            Err(e) => return Disp::Ret(e),
        };
        // Simplified dirent stream: NUL-terminated names; offset indexes the
        // entry list.
        let mut out = Vec::new();
        let mut idx = offset as usize;
        while idx < names.len() {
            let n = names[idx].as_bytes();
            if out.len() + n.len() + 1 > count {
                break;
            }
            out.extend_from_slice(n);
            out.push(0);
            idx += 1;
        }
        if let Some(FdEntry::File { offset, .. }) =
            self.process_mut(pid).and_then(|p| p.fds.get_mut(&fd))
        {
            *offset = idx as u64;
        }
        if out.is_empty() {
            return Disp::Ret(0);
        }
        match self.guest_write(pid, buf, &out) {
            Ok(()) => Disp::Ret(out.len() as u64),
            Err(e) => Disp::Ret(e),
        }
    }

    fn sys_fstatat(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let path = match self.guest_cstr(pid, args[1]) {
            Ok(p) => self.abs_path(pid, &p),
            Err(e) => return Disp::Ret(e),
        };
        if !self.vfs.exists(&path) {
            return Disp::Ret(err(nr::ENOENT));
        }
        let size = self.vfs.file_len(&path).unwrap_or(0);
        let is_dir = self.vfs.is_dir(&path) as u64;
        // stat buffer: mode at +24, size at +48 (matching the real layout's
        // interesting fields).
        let _ = self.guest_write(pid, args[2] + 24, &is_dir.to_le_bytes());
        let _ = self.guest_write(pid, args[2] + 48, &size.to_le_bytes());
        Disp::Ret(0)
    }

    fn sys_process_vm(&mut self, pid: Pid, args: [u64; 6], write: bool) -> Disp {
        // Simplified ABI: (target_pid, local_addr, len, remote_addr).
        let (target, local, len, remote) = (args[0], args[1], args[2] as usize, args[3]);
        let data = if write {
            match self.guest_read(pid, local, len) {
                Ok(d) => d,
                Err(e) => return Disp::Ret(e),
            }
        } else {
            match self.guest_read(target, remote, len) {
                Ok(d) => d,
                Err(e) => return Disp::Ret(e),
            }
        };
        let res = if write {
            self.guest_write(target, remote, &data)
        } else {
            self.guest_write(pid, local, &data)
        };
        match res {
            Ok(()) => Disp::Ret(len as u64),
            Err(e) => Disp::Ret(e),
        }
    }

    /// `fcntl` — implements the `O_NONBLOCK` file-status subset; every
    /// other command stays an inert success (as the old stub was).
    fn sys_fcntl(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let (fd, cmd, arg) = (args[0] as i64, args[1], args[2]);
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        if !p.fds.contains_key(&fd) {
            return Disp::Ret(err(nr::EBADF));
        }
        match cmd {
            nr::F_GETFL => {
                let fl = if p.nonblock.contains(&fd) { nr::O_NONBLOCK } else { 0 };
                Disp::Ret(fl)
            }
            nr::F_SETFL => {
                if arg & nr::O_NONBLOCK != 0 {
                    p.nonblock.insert(fd);
                } else {
                    p.nonblock.remove(&fd);
                }
                Disp::Ret(0)
            }
            _ => Disp::Ret(0),
        }
    }

    fn sys_epoll_create1(&mut self, pid: Pid) -> Disp {
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        let id = p.alloc_epoll();
        let fd = p.alloc_fd(FdEntry::Epoll { id });
        Disp::Ret(fd as u64)
    }

    fn sys_eventfd2(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        let id = p.alloc_eventfd(args[0]);
        let fd = p.alloc_fd(FdEntry::EventFd { id });
        Disp::Ret(fd as u64)
    }

    /// `epoll_ctl(epfd, op, fd, events)` — simplified ABI: the event mask
    /// rides in the fourth register instead of a struct pointer.
    fn sys_epoll_ctl(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let (epfd, op, fd, events) = (args[0] as i64, args[1], args[2] as i64, args[3]);
        let Some(p) = self.process_mut(pid) else {
            return Disp::Ret(err(nr::ENOENT));
        };
        let id = match p.fds.get(&epfd) {
            Some(FdEntry::Epoll { id }) => *id,
            Some(_) => return Disp::Ret(err(nr::EINVAL)),
            None => return Disp::Ret(err(nr::EBADF)),
        };
        if fd == epfd {
            return Disp::Ret(err(nr::EINVAL));
        }
        let src = match p.fds.get(&fd) {
            None => return Disp::Ret(err(nr::EBADF)),
            // No epoll-on-epoll nesting.
            Some(FdEntry::Epoll { .. }) => return Disp::Ret(err(nr::EINVAL)),
            Some(e) => e.ready_source(),
        };
        let Some(ep) = p.epolls.get_mut(&id) else {
            return Disp::Ret(err(nr::EBADF));
        };
        let (disp, wake) = match op {
            nr::EPOLL_CTL_ADD => {
                let entry = EpollEntry {
                    events,
                    armed: true,
                    seen: 0,
                };
                if ep.add(fd, entry, src) {
                    (Disp::Ret(0), true)
                } else {
                    (Disp::Ret(err(nr::EEXIST)), false)
                }
            }
            nr::EPOLL_CTL_MOD => match ep.interest.get_mut(&fd) {
                Some(e) => {
                    e.events = events;
                    e.armed = true;
                    e.seen = 0;
                    ep.ready.insert(fd);
                    (Disp::Ret(0), true)
                }
                None => (Disp::Ret(err(nr::ENOENT)), false),
            },
            nr::EPOLL_CTL_DEL => match ep.remove(fd, src) {
                Some(_) => (Disp::Ret(0), false),
                None => (Disp::Ret(err(nr::ENOENT)), false),
            },
            _ => (Disp::Ret(err(nr::EINVAL)), false),
        };
        if wake {
            // The (re)armed member may already be ready: another thread
            // parked in epoll_wait on this instance must recompute.
            self.wake_epoll_waiters();
        }
        disp
    }

    /// The current readiness mask of one fd (level state; edge memory lives
    /// in the epoll entry).
    fn fd_readiness(&self, pid: Pid, fd: i64) -> u64 {
        let Some(p) = self.process(pid) else {
            return 0;
        };
        let Some(entry) = p.fds.get(&fd) else {
            return 0;
        };
        match entry {
            FdEntry::Console | FdEntry::File { .. } | FdEntry::Snapshot { .. } => {
                nr::EPOLLIN | nr::EPOLLOUT
            }
            FdEntry::ChannelRead { chan, end } | FdEntry::Socket { chan, end } => {
                let c = &self.net.channels[*chan];
                let mut r = 0;
                if c.readable(*end) > 0 {
                    r |= nr::EPOLLIN;
                }
                if c.peer_closed(*end) {
                    // EOF is readable (read returns 0) and a hangup.
                    r |= nr::EPOLLIN | nr::EPOLLHUP;
                }
                if c.space(*end) > 0 {
                    r |= nr::EPOLLOUT;
                }
                r
            }
            FdEntry::ChannelWrite { chan, end } => {
                let c = &self.net.channels[*chan];
                let mut r = 0;
                if c.space(*end) > 0 {
                    r |= nr::EPOLLOUT;
                }
                if c.peer_closed(*end) {
                    r |= nr::EPOLLERR;
                }
                r
            }
            FdEntry::Listener { port } => match self.net.listeners.get(port) {
                Some(l) if !l.backlog.is_empty() => nr::EPOLLIN,
                _ => 0,
            },
            FdEntry::EventFd { id } => {
                let mut r = nr::EPOLLOUT;
                if p.eventfds.get(id).map(|(v, _)| *v > 0).unwrap_or(false) {
                    r |= nr::EPOLLIN;
                }
                r
            }
            FdEntry::SocketUnbound | FdEntry::Epoll { .. } => 0,
        }
    }

    /// `epoll_wait(epfd, buf, maxevents)` — simplified ABI: each ready fd
    /// writes one 16-byte record `[fd: u64][events: u64]`; returns the
    /// record count, or parks on [`Wait::Epoll`] when nothing is ready.
    ///
    /// Walks only the instance's ready list; members off it would yield
    /// nothing and change nothing (see [`crate::process::Epoll`]). Debug
    /// builds check every call against the full-interest scan.
    fn sys_epoll_wait(&mut self, pid: Pid, args: [u64; 6]) -> Disp {
        let (epfd, buf, maxevents) = (args[0] as i64, args[1], args[2] as usize);
        let id = match self.process(pid).and_then(|p| p.fds.get(&epfd)) {
            Some(FdEntry::Epoll { id }) => *id,
            Some(_) => return Disp::Ret(err(nr::EINVAL)),
            None => return Disp::Ret(err(nr::EBADF)),
        };
        if maxevents == 0 {
            return Disp::Ret(err(nr::EINVAL));
        }
        let Some(ep) = self.process(pid).and_then(|p| p.epolls.get(&id)) else {
            return Disp::Block(Epoll);
        };
        let scan = self.epoll_scan(pid, ep, ep.ready.iter().copied(), maxevents);
        #[cfg(debug_assertions)]
        {
            let full = self.epoll_scan_full(pid, ep, maxevents);
            assert_eq!(
                (&scan.out, &scan.updates),
                (&full.out, &full.updates),
                "epoll_wait ready-list walk diverged from the full-interest scan"
            );
        }
        let EpollScan { out, updates, idle } = scan;
        let Some(ep) = self.process_mut(pid).and_then(|p| p.epolls.get_mut(&id)) else {
            return Disp::Block(Epoll);
        };
        if out.is_empty() {
            // Nothing ready: park without applying the `seen` updates (the
            // retry recomputes them), so a member that has one stays on
            // the ready list.
            for fd in idle {
                if updates.binary_search_by_key(&fd, |u| u.0).is_err() {
                    ep.ready.remove(&fd);
                }
            }
            return Disp::Block(Epoll);
        }
        for (fd, seen, armed) in updates {
            if let Some(e) = ep.interest.get_mut(&fd) {
                e.seen = seen;
                e.armed = armed;
            }
        }
        for fd in idle {
            ep.ready.remove(&fd);
        }
        let mut bytes = Vec::with_capacity(out.len() * 16);
        for (fd, ev) in &out {
            bytes.extend_from_slice(&(*fd as u64).to_le_bytes());
            bytes.extend_from_slice(&ev.to_le_bytes());
        }
        let n = out.len() as u64;
        match self.guest_write(pid, buf, &bytes) {
            Ok(()) => Disp::Ret(n),
            Err(e) => Disp::Ret(e),
        }
    }

    /// One `epoll_wait` pass of instance `ep` over `members` (ascending
    /// fds; non-members are skipped).
    fn epoll_scan(
        &self,
        pid: Pid,
        ep: &crate::process::Epoll,
        members: impl Iterator<Item = i64>,
        maxevents: usize,
    ) -> EpollScan {
        let mut scan = EpollScan::default();
        for fd in members {
            let Some(ent) = ep.interest.get(&fd) else {
                continue;
            };
            if !ent.armed {
                scan.idle.push(fd);
                continue;
            }
            let cur = self.fd_readiness(pid, fd);
            // A bit that stopped being ready re-arms its edge.
            let mut seen = ent.seen & cur;
            let wanted = cur & (ent.events | nr::EPOLLHUP | nr::EPOLLERR);
            let fresh = if ent.events & nr::EPOLLET != 0 {
                wanted & !seen
            } else {
                wanted
            };
            let mut armed = true;
            if fresh != 0 && scan.out.len() < maxevents {
                scan.out.push((fd, fresh));
                seen |= fresh;
                if ent.events & nr::EPOLLONESHOT != 0 {
                    armed = false;
                }
            }
            if seen != ent.seen || armed != ent.armed {
                scan.updates.push((fd, seen, armed));
            }
            // `seen ⊆ wanted`, so nothing wanted means nothing seen once
            // the updates land.
            if wanted == 0 || !armed {
                scan.idle.push(fd);
            }
        }
        scan
    }

    /// The scan over the whole interest set: what every `epoll_wait` did
    /// before the ready list, kept as the oracle the ready-list walk must
    /// match.
    #[cfg(any(test, debug_assertions))]
    fn epoll_scan_full(&self, pid: Pid, ep: &crate::process::Epoll, maxevents: usize) -> EpollScan {
        self.epoll_scan(pid, ep, ep.interest.keys().copied(), maxevents)
    }
}

/// The outcome of one `epoll_wait` pass.
#[derive(Debug, Default, PartialEq, Eq)]
struct EpollScan {
    /// Delivered `(fd, events)` records, at most `maxevents`.
    out: Vec<(i64, u64)>,
    /// `(fd, seen, armed)` entry updates, in fd order; applied only when
    /// `out` is non-empty.
    updates: Vec<(i64, u64, bool)>,
    /// Members that, once the updates land, yield nothing until a poke.
    idle: Vec<i64>,
}

fn prot_to_perms(prot: u64) -> sim_mem::Perms {
    let mut p = sim_mem::Perms::NONE;
    if prot & 1 != 0 {
        p |= sim_mem::Perms::R;
    }
    if prot & 2 != 0 {
        p |= sim_mem::Perms::W;
    }
    if prot & 4 != 0 {
        p |= sim_mem::Perms::X;
    }
    p
}

#[cfg(test)]
mod epoll_tests;
