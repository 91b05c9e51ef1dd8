#![warn(missing_docs)]

//! Offline stand-in for readiness polling: a thin, `std`-only wrapper over
//! `epoll(7)`/`poll(2)` (plus the `getrlimit`/`setrlimit` pair the file-
//! descriptor-heavy benchmarks need). Like every other shim in this
//! workspace it links nothing beyond libc symbols the Rust standard
//! library already pulls in — no crates.io access required.
//!
//! The API is deliberately tiny:
//!
//! - [`Poller`] — the registration-based readiness set an event loop
//!   runs on: `add`/`modify`/`delete` an fd under a token, `wait` for
//!   [`Event`]s. epoll where the platform has it, `poll(2)` elsewhere,
//!   chosen by a platform probe and never by the caller (see [`poller`]);
//! - [`wait_readable`] / [`wait_writable`] — single-fd conveniences for
//!   code that may block on one socket (e.g. the shutdown drain flushing
//!   a final response to a nonblocking fd);
//! - [`raise_nofile_limit`] / [`nofile_limit`] — `RLIMIT_NOFILE`
//!   introspection so a 10k-connection experiment can size itself to what
//!   the process may actually open;
//! - [`set_send_buffer`] — `SO_SNDBUF` clamping, so tests exercising the
//!   write-stall path can shrink a socket's kernel buffering from
//!   megabytes (auto-tuned loopback) to something a slow subscriber
//!   fills in milliseconds.
//!
//! Only Unix is supported (the rest of the workspace's serving layer is
//! `std::net` + raw fds); on other platforms every call returns
//! [`std::io::ErrorKind::Unsupported`].

use std::io;

pub mod poller;

pub use poller::{Event, Fd, Poller, POLLERR, POLLHUP, POLLIN, POLLOUT};

#[cfg(unix)]
mod sys {
    use std::io;

    /// `rlim_t`: 64-bit on every supported target except 32-bit glibc,
    /// where the plain `getrlimit`/`setrlimit` symbols take the 32-bit
    /// `unsigned long` flavor.
    #[cfg(all(target_env = "gnu", target_pointer_width = "32"))]
    type RLim = std::os::raw::c_ulong;
    #[cfg(not(all(target_env = "gnu", target_pointer_width = "32")))]
    type RLim = u64;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::os::raw::c_void,
            optlen: u32,
        ) -> i32;
    }

    #[cfg(target_os = "macos")]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(not(target_os = "macos"))]
    const SOL_SOCKET: i32 = 1;
    #[cfg(target_os = "macos")]
    const SO_SNDBUF: i32 = 0x1001;
    #[cfg(not(target_os = "macos"))]
    const SO_SNDBUF: i32 = 7;

    pub fn set_send_buffer(fd: i32, bytes: usize) -> io::Result<()> {
        let val = i32::try_from(bytes).unwrap_or(i32::MAX);
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_SNDBUF,
                (&val as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    #[repr(C)]
    struct RLimit {
        cur: RLim,
        max: RLim,
    }

    fn to_rlim(v: u64) -> RLim {
        RLim::try_from(v).unwrap_or(RLim::MAX)
    }

    // The cast is lossless on 64-bit targets and widening on 32-bit glibc.
    #[allow(clippy::unnecessary_cast)]
    fn from_rlim(v: RLim) -> u64 {
        v as u64
    }

    #[cfg(target_os = "macos")]
    const RLIMIT_NOFILE: i32 = 8;
    #[cfg(not(target_os = "macos"))]
    const RLIMIT_NOFILE: i32 = 7;

    pub fn nofile_limit() -> io::Result<(u64, u64)> {
        let mut lim = RLimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((from_rlim(lim.cur), from_rlim(lim.max)))
    }

    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        let (cur, max) = nofile_limit()?;
        if cur >= want {
            return Ok(cur);
        }
        // Try the full ask first (root may raise the hard limit), then
        // fall back to the current hard limit.
        for target in [want.max(max), max] {
            let lim = RLimit {
                cur: to_rlim(want.min(target)),
                max: to_rlim(target),
            };
            if unsafe { setrlimit(RLIMIT_NOFILE, &lim) } == 0 {
                return Ok(from_rlim(lim.cur));
            }
        }
        Ok(cur)
    }
}

#[cfg(not(unix))]
mod sys {
    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "polling shim supports Unix only",
        ))
    }

    pub fn nofile_limit() -> io::Result<(u64, u64)> {
        unsupported()
    }

    pub fn raise_nofile_limit(_want: u64) -> io::Result<u64> {
        unsupported()
    }

    pub fn set_send_buffer(_fd: i32, _bytes: usize) -> io::Result<()> {
        unsupported()
    }
}

/// Blocks until `fd` is readable (or error/hangup). `Ok(false)` = timeout.
pub fn wait_readable(fd: Fd, timeout_ms: i32) -> io::Result<bool> {
    wait_single(fd, POLLIN, timeout_ms)
}

/// Blocks until `fd` is writable (or error/hangup). `Ok(false)` = timeout.
pub fn wait_writable(fd: Fd, timeout_ms: i32) -> io::Result<bool> {
    wait_single(fd, POLLOUT, timeout_ms)
}

fn wait_single(fd: Fd, events: i16, timeout_ms: i32) -> io::Result<bool> {
    let mut set = [poller::PollFd::new(fd, events)];
    let n = poller::poll_fds(&mut set, timeout_ms)?;
    // POLLERR/POLLHUP count as "ready": the next read/write surfaces the
    // real error instead of this call guessing at it.
    Ok(n > 0)
}

/// The process's `RLIMIT_NOFILE` as `(soft, hard)`.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    sys::nofile_limit()
}

/// Best-effort raise of the soft (and, when permitted, hard)
/// `RLIMIT_NOFILE` toward `want`; returns the soft limit now in effect.
/// Never lowers the limit.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    sys::raise_nofile_limit(want)
}

/// Requests a kernel send-buffer size (`SO_SNDBUF`) for `fd`. The kernel
/// may round the value (Linux doubles it and enforces a floor); the point
/// is shrinking multi-megabyte auto-tuned buffers down to a bounded size,
/// not hitting an exact byte count.
pub fn set_send_buffer(fd: Fd, bytes: usize) -> io::Result<()> {
    sys::set_send_buffer(fd, bytes)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn poll_reports_readable_after_write_and_timeout_before() {
        let (mut client, mut server) = pair();

        // Nothing sent yet: a zero-timeout probe finds nothing.
        assert!(!wait_readable(server.as_raw_fd(), 0).unwrap());

        client.write_all(b"x").unwrap();
        assert!(wait_readable(server.as_raw_fd(), 2_000).unwrap());
        let mut b = [0u8; 1];
        server.read_exact(&mut b).unwrap();
        assert_eq!(&b, b"x");

        // A fresh socket with empty send buffer is writable immediately.
        assert!(wait_writable(client.as_raw_fd(), 2_000).unwrap());
    }

    /// The [`Poller`] contract, checked identically on every
    /// implementation this platform can run.
    fn conformance(mut p: Poller) {
        let which = p.name();
        let mut events = Vec::new();
        let (mut a_client, a_srv) = pair();
        let (b_client, b_srv) = pair();
        p.add(a_srv.as_raw_fd(), POLLIN, 10).unwrap();
        p.add(b_srv.as_raw_fd(), POLLIN, 20).unwrap();
        assert!(
            p.add(b_srv.as_raw_fd(), POLLIN, 20).is_err(),
            "[{which}] double registration must be refused"
        );

        // Idle: the wait returns 0 at the timeout, and `out` is cleared.
        events.push(Event {
            token: 99,
            events: POLLIN,
        });
        assert_eq!(p.wait(&mut events, 20).unwrap(), 0, "[{which}]");
        assert!(events.is_empty(), "[{which}] wait must clear `out`");

        // A readable event carries its registration's token, and only the
        // ready registration is reported.
        a_client.write_all(b"hello").unwrap();
        assert_eq!(p.wait(&mut events, 2_000).unwrap(), 1, "[{which}]");
        assert_eq!(events[0].token, 10, "[{which}]");
        assert!(events[0].ready(POLLIN) && !events[0].failed(), "[{which}]");
        // Level-triggered: undrained data is reported again.
        assert_eq!(p.wait(&mut events, 2_000).unwrap(), 1, "[{which}]");

        // `modify` to POLLOUT (and a new token): an empty send buffer is
        // writable now, and the pending input is no longer of interest.
        p.modify(a_srv.as_raw_fd(), POLLOUT, 11).unwrap();
        assert_eq!(p.wait(&mut events, 2_000).unwrap(), 1, "[{which}]");
        assert_eq!(events[0].token, 11, "[{which}]");
        assert!(
            events[0].ready(POLLOUT) && !events[0].ready(POLLIN),
            "[{which}]"
        );

        // `delete` stops events even while a dup of the fd is still open:
        // epoll tracks the open file *description*, so merely closing the
        // registered fd would not.
        p.modify(a_srv.as_raw_fd(), POLLIN, 10).unwrap();
        let a_dup = a_srv.try_clone().unwrap();
        p.delete(a_srv.as_raw_fd()).unwrap();
        drop(a_srv);
        assert_eq!(p.wait(&mut events, 50).unwrap(), 0, "[{which}]");
        assert!(
            p.delete(a_dup.as_raw_fd()).is_err(),
            "[{which}] deleting an unregistered fd is an error"
        );

        // Hang-up is reported on the remaining registration.
        drop(b_client);
        assert_eq!(p.wait(&mut events, 2_000).unwrap(), 1, "[{which}]");
        assert_eq!(events[0].token, 20, "[{which}]");
        // EOF shows as POLLIN (read returns 0) and/or POLLHUP.
        assert!(events[0].ready(POLLIN) || events[0].failed(), "[{which}]");

        // A full reset (both directions gone) must report `failed()`.
        let (c_client, c_srv) = pair();
        p.add(c_srv.as_raw_fd(), 0, 30).unwrap();
        c_srv.shutdown(std::net::Shutdown::Both).unwrap();
        drop(c_client);
        p.wait(&mut events, 2_000).unwrap();
        let ev = events.iter().find(|e| e.token == 30).expect(which);
        assert!(
            ev.failed(),
            "[{which}] hang-up must report failed(): {ev:?}"
        );
    }

    #[test]
    fn every_poller_implementation_honors_the_contract() {
        let probed = Poller::new().unwrap();
        assert_eq!(
            probed.name(),
            if cfg!(target_os = "linux") {
                "epoll"
            } else {
                "poll"
            }
        );
        conformance(probed);
        let fallback = Poller::new_poll();
        assert_eq!(fallback.name(), "poll");
        conformance(fallback);
    }

    #[test]
    fn nofile_limit_is_sane_and_raise_never_lowers() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
        let now = raise_nofile_limit(soft).unwrap();
        assert!(now >= soft);
    }

    #[test]
    fn send_buffer_can_be_shrunk() {
        let (client, _server) = pair();
        set_send_buffer(client.as_raw_fd(), 8 * 1024).unwrap();
        // A bogus fd must surface the OS error, not be swallowed.
        assert!(set_send_buffer(-1, 8 * 1024).is_err());
    }
}
