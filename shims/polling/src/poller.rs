//! [`Poller`]: one registration-based readiness set over two private
//! implementations.
//!
//! Register each fd once with [`Poller::add`] under a caller-chosen token,
//! adjust interest with [`Poller::modify`] when it changes, and
//! [`Poller::wait`] returns one [`Event`] per ready registration.
//!
//! - **epoll(7)** wherever `epoll_create1` succeeds: the kernel holds the
//!   interest set and a wakeup costs O(ready fds). Thousands of parked,
//!   mostly-idle connections cost nothing per iteration.
//! - **poll(2)** otherwise — it is the only readiness call every Unix
//!   has. The registered `(fd, interest, token)` set is kept here and the
//!   `pollfd` array is rebuilt inside `wait`, so a wakeup costs
//!   O(registered fds).
//!
//! Which one runs is decided by the platform probe in [`Poller::new`] and
//! by nothing else: there is no option, constructor or environment
//! variable a caller can use to pick. Both are level-triggered (a readable
//! fd keeps reporting readable until drained) and report through the same
//! [`POLLIN`]/[`POLLOUT`] masks, so one event loop is correct over either.
//!
//! One caveat inherited from epoll: it registers the *open file
//! description*, not the fd number. A `try_clone`d socket keeps the
//! registration alive after the registered fd is closed, so owners of
//! duplicated fds must [`Poller::delete`] explicitly before dropping.
//!
//! This file depends on nothing else in the crate, so that
//! `ccdb-server`'s unit tests can compile it as a module of their own and
//! reach the crate-private poll(2) constructor.

use std::collections::HashMap;
use std::io;

/// Raw file descriptor, as used by `poll(2)`.
pub type Fd = i32;

/// Readable data is available (or a listener has a pending connection).
pub const POLLIN: i16 = 0x001;
/// Writing is possible without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (reported, never requested).
pub const POLLHUP: i16 = 0x010;
/// Fd is not open (`poll(2)` only; surfaced to callers as [`POLLERR`]).
const POLLNVAL: i16 = 0x020;

/// One ready notification from [`Poller::wait`]: the token the fd was
/// registered under plus its ready condition.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The caller-chosen token passed to [`Poller::add`].
    pub token: u64,
    /// Ready mask in [`POLLIN`]/[`POLLOUT`]/[`POLLERR`]/[`POLLHUP`] terms.
    pub events: i16,
}

impl Event {
    /// Whether any of `mask` is ready.
    pub fn ready(&self, mask: i16) -> bool {
        self.events & mask != 0
    }

    /// Whether the fd reported an error/hangup condition.
    pub fn failed(&self) -> bool {
        self.events & (POLLERR | POLLHUP) != 0
    }
}

/// A readiness set; see the module docs for the contract.
pub struct Poller {
    imp: Imp,
}

enum Imp {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(PollSet),
}

impl Poller {
    /// Probes the platform: epoll where `epoll_create1` succeeds, else
    /// `poll(2)`.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        if let Ok(ep) = epoll::Epoll::new() {
            return Ok(Poller {
                imp: Imp::Epoll(ep),
            });
        }
        Ok(Poller::new_poll())
    }

    /// The `poll(2)` implementation regardless of platform. Crate-private:
    /// it exists for [`Poller::new`]'s fallback and for tests.
    pub(crate) fn new_poll() -> Poller {
        Poller {
            imp: Imp::Poll(PollSet::default()),
        }
    }

    /// Which implementation the probe chose: `"epoll"` or `"poll"`.
    pub fn name(&self) -> &'static str {
        match &self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => "epoll",
            Imp::Poll(_) => "poll",
        }
    }

    /// Registers `fd` for `interest` ([`POLLIN`] | [`POLLOUT`]) under
    /// `token`. Registering an fd twice is an error.
    pub fn add(&mut self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.ctl(epoll::CTL_ADD, fd, interest, token),
            Imp::Poll(set) => set.add(fd, interest, token),
        }
    }

    /// Replaces the interest mask and token of an already-registered `fd`.
    pub fn modify(&mut self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.ctl(epoll::CTL_MOD, fd, interest, token),
            Imp::Poll(set) => set.modify(fd, interest, token),
        }
    }

    /// Removes `fd` from the set; no event is reported for it afterwards.
    pub fn delete(&mut self, fd: Fd) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.ctl(epoll::CTL_DEL, fd, 0, 0),
            Imp::Poll(set) => set.delete(fd),
        }
    }

    /// Blocks up to `timeout_ms` (negative = forever, 0 = probe) and
    /// fills `out` (cleared first) with one [`Event`] per ready
    /// registration. Returns how many were ready. `EINTR` is retried.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        out.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.wait(out, timeout_ms),
            Imp::Poll(set) => set.wait(out, timeout_ms),
        }
    }
}

/// One entry of a `poll(2)` interest set, layout-compatible with the
/// kernel's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    fd: Fd,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: Fd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// Sweeps `fds` once: blocks up to `timeout_ms` and returns how many
/// entries have non-zero `revents`. `EINTR` is retried without adjusting
/// the timeout — callers that care about deadlines recompute them per
/// iteration anyway.
#[cfg(unix)]
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    /// `nfds_t`: `unsigned long` per POSIX (glibc/musl), but `unsigned
    /// int` on Darwin — a fixed `u64` would be an ABI mismatch on 32-bit
    /// Unix targets.
    #[cfg(target_os = "macos")]
    type NFds = u32;
    #[cfg(not(target_os = "macos"))]
    type NFds = std::os::raw::c_ulong;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` entries laid out as `struct pollfd`, and the count
        // passed is its length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(not(unix))]
pub(crate) fn poll_fds(_fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "polling shim supports Unix only",
    ))
}

/// The `poll(2)` implementation: the registrations live here, the kernel
/// sees a freshly built array each wait.
#[derive(Default)]
struct PollSet {
    regs: HashMap<Fd, (i16, u64)>,
    /// Reused kernel-facing array, rebuilt from `regs` inside `wait`.
    fds: Vec<PollFd>,
}

impl PollSet {
    fn add(&mut self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
        if self.regs.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd is already registered",
            ));
        }
        self.regs.insert(fd, (interest, token));
        Ok(())
    }

    fn modify(&mut self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
        match self.regs.get_mut(&fd) {
            Some(reg) => {
                *reg = (interest, token);
                Ok(())
            }
            None => Err(not_registered()),
        }
    }

    fn delete(&mut self, fd: Fd) -> io::Result<()> {
        self.regs.remove(&fd).map(drop).ok_or_else(not_registered)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        self.fds.clear();
        self.fds.extend(
            self.regs
                .iter()
                .map(|(&fd, &(interest, _))| PollFd::new(fd, interest)),
        );
        if poll_fds(&mut self.fds, timeout_ms)? == 0 {
            return Ok(0);
        }
        for p in self.fds.iter().filter(|p| p.revents != 0) {
            let mut events = p.revents & (POLLIN | POLLOUT | POLLERR | POLLHUP);
            if p.revents & POLLNVAL != 0 {
                events |= POLLERR;
            }
            out.push(Event {
                token: self.regs[&p.fd].1,
                events,
            });
        }
        Ok(out.len())
    }
}

fn not_registered() -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, "fd is not registered")
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, Fd, POLLERR, POLLHUP, POLLIN, POLLOUT};
    use std::io;

    pub const CTL_ADD: i32 = 1;
    pub const CTL_DEL: i32 = 2;
    pub const CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    /// The kernel's `struct epoll_event`: packed on x86-64 (the original
    /// i386 layout was kept for compat), naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn to_epoll_mask(events: i16) -> u32 {
        let mut m = 0u32;
        if events & POLLIN != 0 {
            m |= EPOLLIN;
        }
        if events & POLLOUT != 0 {
            m |= EPOLLOUT;
        }
        m
    }

    fn from_epoll_mask(events: u32) -> i16 {
        let mut m = 0i16;
        if events & EPOLLIN != 0 {
            m |= POLLIN;
        }
        if events & EPOLLOUT != 0 {
            m |= POLLOUT;
        }
        if events & EPOLLERR != 0 {
            m |= POLLERR;
        }
        if events & EPOLLHUP != 0 {
            m |= POLLHUP;
        }
        m
    }

    pub struct Epoll {
        epfd: i32,
        /// Reused kernel-facing event buffer.
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        pub fn ctl(&self, op: i32, fd: Fd, events: i16, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: to_epoll_mask(events),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: `buf` is a live, exclusively borrowed buffer and
                // the kernel writes at most `buf.len()` entries into it.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    let n = rc as usize;
                    out.extend(self.buf[..n].iter().map(|ev| Event {
                        token: ev.data,
                        events: from_epoll_mask(ev.events),
                    }));
                    // A full buffer means more may be pending; grow so the
                    // next wait drains larger ready sets in one call.
                    if n == self.buf.len() {
                        self.buf.resize(n * 2, EpollEvent { events: 0, data: 0 });
                    }
                    return Ok(n);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `epfd` is an fd this struct owns and closes once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}
