//! The epoll ready list against the full-interest scan it replaces.
//!
//! These tests drive syscalls straight through `sys_dispatch` on a process
//! that never runs guest code, so every step is one kernel transition.
//! After each step every epoll instance must satisfy the ready-list
//! invariant, and every `epoll_wait` must deliver the records and leave
//! the `seen`/`armed` state the oracle scan predicts.

use super::{Disp, EpollScan};
use crate::kernel::tests::kernel_with;
use crate::kernel::Kernel;
use crate::nr::{self, err};
use crate::process::{FdEntry, Pid, Wait};
use proptest::prelude::*;

/// Guest scratch inside the test image's RW mapping.
const EVBUF: u64 = 0x8_0000;
const PIPEBUF: u64 = 0x8_4000;
const DATA: u64 = 0x8_5000;
const RDBUF: u64 = 0x8_6000;
/// Small channel bounds so writes can fill a buffer and drop EPOLLOUT.
const CAP: usize = 16;

fn main_tid(k: &Kernel, pid: Pid) -> u64 {
    k.process(pid).expect("live process").threads[0].tid
}

fn sys(k: &mut Kernel, pid: Pid, nr_: u64, args: [u64; 4]) -> Disp {
    let tid = main_tid(k, pid);
    let d = k.sys_dispatch(
        pid,
        tid,
        nr_,
        [args[0], args[1], args[2], args[3], 0, 0],
        0x1000,
    );
    // Fresh channels get a small bound before anything is queued in them
    // (space stays nonzero, so readiness does not change).
    for c in &mut k.net.channels {
        if c.cap == 0 {
            c.cap = CAP;
        }
    }
    d
}

fn ret(d: Disp) -> i64 {
    match d {
        Disp::Ret(r) => r as i64,
        other => panic!("expected a return, got {other:?}"),
    }
}

fn epoll_id(k: &Kernel, pid: Pid, epfd: i64) -> Option<usize> {
    match k.process(pid)?.fds.get(&epfd)? {
        FdEntry::Epoll { id } => Some(*id),
        _ => None,
    }
}

/// Every armed member off an instance's ready list has nothing wanted
/// and nothing seen.
fn assert_ready_invariant(k: &Kernel) {
    let pids: Vec<Pid> = k.pids();
    for pid in pids {
        let p = k.process(pid).expect("listed pid");
        for (id, ep) in &p.epolls {
            for (fd, e) in &ep.interest {
                if !e.armed || ep.ready.contains(fd) {
                    continue;
                }
                let wanted = k.fd_readiness(pid, *fd) & (e.events | nr::EPOLLHUP | nr::EPOLLERR);
                assert!(
                    wanted == 0 && e.seen == 0,
                    "pid {pid} epoll {id}: fd {fd} off the ready list with wanted {wanted:#x} seen {:#x}",
                    e.seen
                );
            }
        }
    }
}

/// Runs one `epoll_wait` and checks it against the full-interest scan:
/// the return, the records written, and the post-call entry state.
/// Returns the scan's record count.
fn wait_matches_oracle(k: &mut Kernel, pid: Pid, epfd: i64, maxevents: usize) -> usize {
    let Some(id) = epoll_id(k, pid, epfd) else {
        return 0;
    };
    let ep = &k.process(pid).unwrap().epolls[&id];
    let full: EpollScan = k.epoll_scan_full(pid, ep, maxevents);
    let mut expect = ep.interest.clone();
    if !full.out.is_empty() {
        for (fd, seen, armed) in &full.updates {
            let e = expect.get_mut(fd).expect("update for a member");
            e.seen = *seen;
            e.armed = *armed;
        }
    }
    let d = sys(
        k,
        pid,
        nr::SYS_EPOLL_WAIT,
        [epfd as u64, EVBUF, maxevents as u64, 0],
    );
    if full.out.is_empty() {
        assert_eq!(d, Disp::Block(Wait::Epoll));
    } else {
        assert_eq!(d, Disp::Ret(full.out.len() as u64));
        let bytes = k.guest_read(pid, EVBUF, full.out.len() * 16).unwrap();
        let got: Vec<(i64, u64)> = bytes
            .chunks(16)
            .map(|r| {
                (
                    u64::from_le_bytes(r[..8].try_into().unwrap()) as i64,
                    u64::from_le_bytes(r[8..].try_into().unwrap()),
                )
            })
            .collect();
        assert_eq!(got, full.out);
    }
    assert_eq!(k.process(pid).unwrap().epolls[&id].interest, expect);
    assert_ready_invariant(k);
    full.out.len()
}

/// Picks the `i`-th open fd of `pid` (wrapping), or -1 when there is none.
fn pick_fd(k: &Kernel, pid: Pid, i: u8, want: impl Fn(&FdEntry) -> bool) -> i64 {
    let fds: Vec<i64> = k
        .process(pid)
        .map(|p| {
            p.fds
                .iter()
                .filter(|(_, e)| want(e))
                .map(|(fd, _)| *fd)
                .collect()
        })
        .unwrap_or_default();
    if fds.is_empty() {
        -1
    } else {
        fds[i as usize % fds.len()]
    }
}

fn events_of(c: u8) -> u64 {
    let base = [nr::EPOLLIN, nr::EPOLLOUT, nr::EPOLLIN | nr::EPOLLOUT][c as usize % 3];
    let et = if c & 4 != 0 { nr::EPOLLET } else { 0 };
    let oneshot = if c & 8 != 0 { nr::EPOLLONESHOT } else { 0 };
    base | et | oneshot
}

/// Applies one random step to a random process. `op` is weighted toward
/// ctl and I/O so members often change readiness after going idle.
fn step(k: &mut Kernel, pids: &mut Vec<Pid>, (op, a, b, c): (u8, u8, u8, u8)) {
    let pid = pids[a as usize % pids.len()];
    let not_console = |e: &FdEntry| !matches!(e, FdEntry::Console);
    let fd = pick_fd(k, pid, b, not_console) as u64;
    let epfd = pick_fd(k, pid, c, |e| matches!(e, FdEntry::Epoll { .. })) as u64;
    let unbound = pick_fd(k, pid, b, |e| matches!(e, FdEntry::SocketUnbound)) as u64;
    let port = 7000 + u64::from(c % 2);
    match op % 32 {
        0 => {
            sys(k, pid, nr::SYS_PIPE, [PIPEBUF, 0, 0, 0]);
        }
        1 => {
            sys(k, pid, nr::SYS_SOCKET, [0; 4]);
        }
        2 => {
            sys(k, pid, nr::SYS_BIND, [unbound, port, 0, 0]);
            sys(k, pid, nr::SYS_LISTEN, [unbound, 2, 0, 0]);
        }
        3 | 4 => {
            sys(k, pid, nr::SYS_CONNECT, [unbound, port, 0, 0]);
        }
        5 => {
            let lfd = pick_fd(k, pid, b, |e| matches!(e, FdEntry::Listener { .. })) as u64;
            sys(k, pid, nr::SYS_ACCEPT, [lfd, 0, 0, 0]);
        }
        6 => {
            sys(k, pid, nr::SYS_EVENTFD2, [u64::from(c % 2), 0, 0, 0]);
        }
        7 => {
            sys(k, pid, nr::SYS_EPOLL_CREATE1, [0; 4]);
        }
        8 if pids.len() < 3 => {
            let child = ret(sys(k, pid, nr::SYS_FORK, [0; 4]));
            pids.push(child as Pid);
        }
        9 if pid != pids[0] => {
            // A child exits: its descriptors close without a `close`.
            sys(k, pid, nr::SYS_EXIT_GROUP, [0; 4]);
            pids.retain(|p| *p != pid);
        }
        8 | 9 => {
            sys(k, pid, nr::SYS_DUP, [fd, 0, 0, 0]);
        }
        10..=14 => {
            sys(
                k,
                pid,
                nr::SYS_EPOLL_CTL,
                [epfd, nr::EPOLL_CTL_ADD, fd, events_of(c >> 2)],
            );
        }
        15 | 16 => {
            sys(
                k,
                pid,
                nr::SYS_EPOLL_CTL,
                [epfd, nr::EPOLL_CTL_MOD, fd, events_of(c >> 2)],
            );
        }
        17 => {
            sys(k, pid, nr::SYS_EPOLL_CTL, [epfd, nr::EPOLL_CTL_DEL, fd, 0]);
        }
        18..=24 => {
            // Eventfds need 8 bytes; channels take 1..=12.
            let len = if c & 1 != 0 { 8 } else { 1 + u64::from(c % 12) };
            sys(k, pid, nr::SYS_WRITE, [fd, DATA, len, 0]);
        }
        25..=29 => {
            sys(k, pid, nr::SYS_READ, [fd, RDBUF, 1 + u64::from(c % 16), 0]);
        }
        _ => {
            sys(k, pid, nr::SYS_CLOSE, [fd, 0, 0, 0]);
        }
    }
}

proptest! {
    /// Random ctl/IO/socket/eventfd/fork/exit sequences: after every step the
    /// ready-list invariant holds, and an `epoll_wait` on a random
    /// instance equals the full-interest scan.
    #[test]
    fn ready_list_wait_equals_full_scan(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
    ) {
        let (mut k, root) = kernel_with(Vec::new());
        k.guest_write(root, DATA, &[1u8; 64]).unwrap();
        let mut pids = vec![root];
        for (i, op) in ops.into_iter().enumerate() {
            step(&mut k, &mut pids, op);
            assert_ready_invariant(&k);
            let pid = pids[(op.1 as usize + i) % pids.len()];
            let epfd = pick_fd(&k, pid, op.2, |e| matches!(e, FdEntry::Epoll { .. }));
            // maxevents 1..=4, often below the ready count.
            wait_matches_oracle(&mut k, pid, epfd, 1 + (op.3 as usize >> 4) % 4);
        }
    }
}

/// ~1000 idle connections plus one active one: once the active member is
/// drained, at most that member is left on the ready list, and every wait
/// still equals the full scan.
#[test]
fn idle_members_leave_the_ready_list() {
    const IDLE: usize = 1000;
    let (mut k, pid) = kernel_with(Vec::new());
    k.guest_write(pid, DATA, &[1u8; 64]).unwrap();
    let lfd = ret(sys(&mut k, pid, nr::SYS_SOCKET, [0; 4])) as u64;
    sys(&mut k, pid, nr::SYS_BIND, [lfd, 7100, 0, 0]);
    sys(&mut k, pid, nr::SYS_LISTEN, [lfd, 4096, 0, 0]);
    let epfd = ret(sys(&mut k, pid, nr::SYS_EPOLL_CREATE1, [0; 4]));
    let mut pair = (0, 0);
    for _ in 0..=IDLE {
        let cfd = ret(sys(&mut k, pid, nr::SYS_SOCKET, [0; 4]));
        assert_eq!(
            ret(sys(&mut k, pid, nr::SYS_CONNECT, [cfd as u64, 7100, 0, 0])),
            0
        );
        let sfd = ret(sys(&mut k, pid, nr::SYS_ACCEPT, [lfd, 0, 0, 0]));
        let add = [epfd as u64, nr::EPOLL_CTL_ADD, sfd as u64, nr::EPOLLIN];
        assert_eq!(ret(sys(&mut k, pid, nr::SYS_EPOLL_CTL, add)), 0);
        pair = (cfd, sfd);
    }
    let (cfd, sfd) = pair;
    let id = epoll_id(&k, pid, epfd).unwrap();
    let ready = |k: &Kernel| k.process(pid).unwrap().epolls[&id].ready.clone();

    // Every registration starts on the ready list; nothing is ready yet.
    assert_eq!(ready(&k).len(), IDLE + 1);
    assert_eq!(wait_matches_oracle(&mut k, pid, epfd, 64), 0);
    assert!(ready(&k).is_empty());

    // One request arrives on the active connection.
    assert_eq!(
        ret(sys(&mut k, pid, nr::SYS_WRITE, [cfd as u64, DATA, 4, 0])),
        4
    );
    assert_eq!(ready(&k).iter().copied().collect::<Vec<_>>(), vec![sfd]);
    assert_eq!(wait_matches_oracle(&mut k, pid, epfd, 64), 1);
    let rec = k.guest_read(pid, EVBUF, 16).unwrap();
    assert_eq!(i64::from_le_bytes(rec[..8].try_into().unwrap()), sfd);

    // Drained: the wait parks and the ready list holds at most that member.
    assert_eq!(
        ret(sys(&mut k, pid, nr::SYS_READ, [sfd as u64, RDBUF, 64, 0])),
        4
    );
    assert_eq!(wait_matches_oracle(&mut k, pid, epfd, 64), 0);
    assert!(ready(&k).len() <= 1, "ready list {:?}", ready(&k));
}

/// An epoll fd whose instance is gone answers `epoll_ctl` with EBADF
/// instead of panicking the host.
#[test]
fn epoll_ctl_on_a_dead_instance_is_ebadf() {
    let (mut k, pid) = kernel_with(Vec::new());
    let epfd = k
        .process_mut(pid)
        .unwrap()
        .alloc_fd(FdEntry::Epoll { id: 99 });
    for op in [nr::EPOLL_CTL_ADD, nr::EPOLL_CTL_MOD, nr::EPOLL_CTL_DEL] {
        let d = sys(
            &mut k,
            pid,
            nr::SYS_EPOLL_CTL,
            [epfd as u64, op, 1, nr::EPOLLIN],
        );
        assert_eq!(d, Disp::Ret(err(nr::EBADF)));
    }
}
