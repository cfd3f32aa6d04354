//! The workspace's one sanctioned `unsafe` site: a minimal `poll(2)`
//! FFI shim (plus the self-pipe waker built on safe `UnixStream`s) for
//! the reactor core.
//!
//! ## Why FFI, and why here
//!
//! The reactor multiplexes thousands of nonblocking sockets from one
//! thread. The tentpole offered two mechanisms: (a) a pure-std
//! level-triggered scan loop (one `peek` syscall per socket per pass —
//! O(connections) userspace work even when nothing is ready), or (b) a
//! confined `poll(2)` shim — one syscall per pass, O(ready) results,
//! and real `POLLOUT` write-readiness so a blocked response write parks
//! until the peer drains instead of being re-probed. This file is
//! choice (b). `std` already links the platform C library on every Unix
//! target, so declaring `poll` adds **no dependency** — only this one
//! `extern` block and one `unsafe` call, both confined here.
//!
//! The confinement is machine-checked: conform rule D5 pairs this file
//! with the crate root's `#![deny(unsafe_code)]` — any `unsafe` token in
//! a *different* `crates/server` file is a D5 violation (see
//! `p3gm_conform::rules::D5_SHIM_EXEMPT`).
#![allow(unsafe_code)]

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// There is data to read.
pub(crate) const POLLIN: i16 = 0x001;
/// Writing will not block.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (always polled; only meaningful in `revents`).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up (only meaningful in `revents`).
pub(crate) const POLLHUP: i16 = 0x010;
/// The fd is not open (only meaningful in `revents`).
pub(crate) const POLLNVAL: i16 = 0x020;

/// `struct pollfd` from `<poll.h>`, bit-compatible by `repr(C)` (the
/// layout is identical on every Unix libc: int fd, short events, short
/// revents).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

impl PollFd {
    /// A poll entry watching `fd` for `events`.
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel reported any of `mask` (or an error/hangup
    /// condition, which always needs handling).
    pub(crate) fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until at least one entry in `fds` is ready, the timeout
/// elapses (`Ok(0)`), or a signal interrupts the wait (also `Ok(0)` —
/// the caller's loop re-evaluates deadlines either way). `None` waits
/// indefinitely. Sub-millisecond timeouts round **up** so a deadline
/// wait can never busy-spin.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        None => -1,
        Some(d) => {
            let ms = d.saturating_add(Duration::from_nanos(999_999)).as_millis();
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        }
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
    // pollfd-layout structs; the pointer and length describe exactly
    // that allocation for the duration of the call, and `poll` writes
    // only within it (the `revents` fields).
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// The reactor's wake-up channel: a nonblocking `UnixStream` pair whose
/// read end sits in the poll set. Executor threads and the shutdown path
/// write one byte to interrupt a parked `poll`; the reactor drains the
/// pipe on wake. Entirely safe code — it lives here because it is part
/// of the same platform shim surface.
pub(crate) struct Waker {
    rx: UnixStream,
    tx: Arc<UnixStream>,
}

impl Waker {
    /// A connected, nonblocking waker pair.
    pub(crate) fn new() -> std::io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            rx,
            tx: Arc::new(tx),
        })
    }

    /// The fd the reactor registers for `POLLIN`.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// A cloneable handle that wakes the reactor.
    pub(crate) fn handle(&self) -> WakeHandle {
        WakeHandle(Arc::clone(&self.tx))
    }

    /// Discards every pending wake byte (level-triggered poll would
    /// otherwise re-report the pipe forever).
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Wakes the reactor out of `poll`. A full pipe means a wake is already
/// pending, so the dropped write is harmless.
#[derive(Clone)]
pub(crate) struct WakeHandle(Arc<UnixStream>);

impl WakeHandle {
    pub(crate) fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_reports_readiness_and_timeouts() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        // Nothing written yet: a short wait times out with zero ready.
        let n = poll_fds(&mut fds, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].ready(POLLIN));
        // One byte makes the read end level-triggered readable.
        (&b).write_all(&[7]).unwrap();
        fds[0].revents = 0;
        let n = poll_fds(&mut fds, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
        // A stream socket is immediately writable.
        let mut wfds = [PollFd::new(b.as_raw_fd(), POLLOUT)];
        let n = poll_fds(&mut wfds, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(n, 1);
        assert!(wfds[0].ready(POLLOUT));
    }

    #[test]
    fn waker_round_trip_wakes_and_drains() {
        let waker = Waker::new().unwrap();
        let handle = waker.handle();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(
            poll_fds(&mut fds, Some(Duration::from_millis(5))).unwrap(),
            0
        );
        handle.wake();
        handle.wake();
        fds[0].revents = 0;
        assert_eq!(
            poll_fds(&mut fds, Some(Duration::from_millis(1000))).unwrap(),
            1
        );
        waker.drain();
        // Drained: the next wait times out again.
        fds[0].revents = 0;
        assert_eq!(
            poll_fds(&mut fds, Some(Duration::from_millis(5))).unwrap(),
            0
        );
    }
}
