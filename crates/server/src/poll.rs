//! `poll(2)` behind one `extern "C"` declaration (std already links libc, so
//! no dependency is added), and a [`Waker`] to end another thread's wait.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Readable / writable: the same bits on every unix.
pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// One entry of a wait set: `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watches `fd` for `events` (`POLLIN | POLLOUT` bits). A descriptor
    /// closed before the wait just comes back ready (`POLLNVAL`).
    pub fn new(fd: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// After [`wait`]: whether a watched event, `POLLHUP` or `POLLERR` came back.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until an entry is ready or `timeout` passes (`None`: no limit);
/// returns how many are ready. `EINTR` is retried against the same deadline.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        // Rounded up: ending early would spin on the sub-millisecond rest.
        let ms = deadline.map_or(-1, |d| {
            let left = d.saturating_duration_since(Instant::now());
            left.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
        });
        // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd`s, passed with its length; only `revents` is written.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Ends another thread's [`wait`]: a nonblocking socket pair whose read
/// end sits in the owner's wait set.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the owner's current or next wait return.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]); // buffer full: wakes are pending already
    }

    /// The owner's wait-set entry.
    pub fn pollfd(&self) -> PollFd {
        PollFd::new(&self.rx, POLLIN)
    }

    /// Owner side: swallows every pending wake.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wake_ends_an_untimed_wait_and_a_timed_one_ends_itself() {
        let waker = Waker::new().unwrap();
        let mut fds = [waker.pollfd()];
        std::thread::scope(|s| {
            let waiter = s.spawn(|| (wait(&mut fds, None).unwrap(), fds[0].ready()));
            waker.wake();
            assert_eq!(waiter.join().unwrap(), (1, true));
        });
        waker.drain(); // nothing is ready now: the wait lasts its timeout
        let started = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(!fds[0].ready() && started.elapsed() >= Duration::from_millis(20));
    }
}
