//! OS readiness notification for the reactor, without a libc crate.
//!
//! [`Poller`] multiplexes many non-blocking sockets onto one blocking
//! wait. Two backends are compiled on Linux and selected at construction:
//!
//! - **epoll** (Linux only, the default there): a thin vendored shim over
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait`, declared directly as
//!   `extern "C"` symbols in the vendor style the workspace already uses —
//!   no `libc` crate. O(ready) wakeups, which is what lets one event
//!   thread carry thousands of mostly-idle connections.
//! - **poll(2)** (every Unix): the portable POSIX fallback, O(registered)
//!   per wakeup but dependency-free and available everywhere the serve
//!   crate builds.
//!
//! [`Poller::new`] picks epoll on Linux and `poll(2)` elsewhere;
//! [`Poller::with_backend`] builds either explicitly, which is how the
//! unit tests below exercise both backends on Linux. Error and hang-up
//! conditions (`EPOLLERR`/`EPOLLHUP`, `POLLERR`/`POLLHUP`) are
//! reported as *readable* (and writable, when write interest is armed):
//! the subsequent read observes the actual error or EOF, which keeps the
//! reactor's teardown logic in exactly one place.

use std::collections::HashMap;
use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which OS facility a [`Poller`] is using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollBackend {
    /// Linux `epoll`: O(ready) wakeups.
    #[cfg(target_os = "linux")]
    Epoll,
    /// POSIX `poll(2)`: portable, O(registered) per wakeup.
    Poll,
}

/// One readiness event: the registered token plus which directions fired.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the file descriptor was registered under.
    pub token: usize,
    /// The descriptor is readable (or errored/hung up — read to find out).
    pub readable: bool,
    /// The descriptor is writable (only reported when write interest was
    /// armed at registration or via [`Poller::modify`]).
    pub writable: bool,
}

/// A readiness multiplexer over non-blocking file descriptors.
///
/// Read interest is always armed for every registered descriptor; write
/// interest is opted into per descriptor and toggled with
/// [`Poller::modify`] as output queues fill and drain.
pub struct Poller {
    imp: Impl,
}

enum Impl {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Poll(PollPoller),
}

impl Poller {
    /// Creates a poller on the platform's preferred backend: epoll on
    /// Linux, `poll(2)` elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            Self::with_backend(PollBackend::Epoll)
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::with_backend(PollBackend::Poll)
        }
    }

    /// Creates a poller on an explicit backend.
    pub fn with_backend(backend: PollBackend) -> io::Result<Self> {
        let imp = match backend {
            #[cfg(target_os = "linux")]
            PollBackend::Epoll => Impl::Epoll(EpollPoller::new()?),
            PollBackend::Poll => Impl::Poll(PollPoller::new()),
        };
        Ok(Self { imp })
    }

    /// The backend this poller runs on.
    pub fn backend(&self) -> PollBackend {
        match &self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(_) => PollBackend::Epoll,
            Impl::Poll(_) => PollBackend::Poll,
        }
    }

    /// Registers a descriptor under `token`. Read interest is always
    /// armed; `writable` additionally arms write interest.
    pub fn register(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(p) => p.register(fd, token, writable),
            Impl::Poll(p) => p.register(fd, token, writable),
        }
    }

    /// Re-arms a registered descriptor with a new write-interest setting.
    pub fn modify(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(p) => p.modify(fd, token, writable),
            Impl::Poll(p) => p.modify(fd, writable),
        }
    }

    /// Removes a descriptor from the interest set. Call before closing
    /// the descriptor.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(p) => p.deregister(fd),
            Impl::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one descriptor is ready or the timeout
    /// elapses (`None` blocks indefinitely), then fills `events` with
    /// what fired. A signal interruption returns success with no events.
    pub fn wait(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        events.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Impl::Epoll(p) => p.wait(events, timeout),
            Impl::Poll(p) => p.wait(events, timeout),
        }
    }
}

/// Clamps a timeout to the millisecond `c_int` the syscalls take;
/// `None` means block forever (-1). Sub-millisecond timeouts round up so
/// a 100µs request does not busy-spin as 0.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if ms == 0 && d.as_nanos() > 0 {
                1
            } else {
                ms.min(c_int::MAX as u128) as c_int
            }
        }
    }
}

// ---------------------------------------------------------------------------
// epoll backend (Linux)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll {
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    use super::{timeout_ms, PollEvent};

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Mirrors the kernel's `struct epoll_event`; packed on x86-64, where
    /// the kernel ABI has no padding between the mask and the payload.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    pub(super) struct EpollPoller {
        epfd: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl EpollPoller {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: plain syscall; a non-negative return is a fresh fd
            // this process owns, handed straight to OwnedFd.
            let raw = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            let epfd = unsafe { OwnedFd::from_raw_fd(raw) };
            Ok(Self {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn raw(&self) -> c_int {
            use std::os::fd::AsRawFd;
            self.epfd.as_raw_fd()
        }

        fn ctl(&self, op: c_int, fd: RawFd, mask: u32, token: usize) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask,
                data: token as u64,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.raw(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn mask(writable: bool) -> u32 {
            EPOLLIN | if writable { EPOLLOUT } else { 0 }
        }

        pub(super) fn register(
            &mut self,
            fd: RawFd,
            token: usize,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::mask(writable), token)
        }

        pub(super) fn modify(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::mask(writable), token)
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub(super) fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            // SAFETY: `buf` is a live, correctly sized array for the
            // duration of the call.
            let rc = unsafe {
                epoll_wait(
                    self.raw(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms(timeout),
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                // An interrupted wait is a spurious wake: report no
                // events and let the event loop call back in.
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            let n = rc as usize;
            for ev in &self.buf[..n] {
                let fired = ev.events;
                let troubled = fired & (EPOLLERR | EPOLLHUP) != 0;
                events.push(PollEvent {
                    token: ev.data as usize,
                    readable: fired & EPOLLIN != 0 || troubled,
                    writable: fired & EPOLLOUT != 0 || troubled,
                });
            }
            Ok(())
        }
    }
}

#[cfg(target_os = "linux")]
use epoll::EpollPoller;

// ---------------------------------------------------------------------------
// poll(2) backend (portable)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

const POLLIN: std::ffi::c_short = 0x001;
const POLLOUT: std::ffi::c_short = 0x004;
const POLLERR: std::ffi::c_short = 0x008;
const POLLHUP: std::ffi::c_short = 0x010;

/// Mirrors POSIX `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFdRaw {
    fd: c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

extern "C" {
    fn poll(fds: *mut PollFdRaw, nfds: NfdsT, timeout: c_int) -> c_int;
}

struct PollPoller {
    fds: Vec<PollFdRaw>,
    tokens: Vec<usize>,
    index: HashMap<RawFd, usize>,
}

impl PollPoller {
    fn new() -> Self {
        Self {
            fds: Vec::new(),
            tokens: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn events_for(writable: bool) -> std::ffi::c_short {
        POLLIN | if writable { POLLOUT } else { 0 }
    }

    fn register(&mut self, fd: RawFd, token: usize, writable: bool) -> io::Result<()> {
        if self.index.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.index.insert(fd, self.fds.len());
        self.fds.push(PollFdRaw {
            fd,
            events: Self::events_for(writable),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, writable: bool) -> io::Result<()> {
        let &at = self
            .index
            .get(&fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds[at].events = Self::events_for(writable);
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let at = self
            .index
            .remove(&fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds.swap_remove(at);
        self.tokens.swap_remove(at);
        if at < self.fds.len() {
            self.index.insert(self.fds[at].fd, at);
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        for slot in &mut self.fds {
            slot.revents = 0;
        }
        // SAFETY: `fds` is a live, contiguous pollfd array; the kernel
        // only writes `revents` within it.
        let rc = unsafe {
            poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as NfdsT,
                timeout_ms(timeout),
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            // An interrupted wait is a spurious wake: report no events
            // and let the event loop call back in.
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        let n = rc as usize;
        if n == 0 {
            return Ok(());
        }
        for (slot, &token) in self.fds.iter().zip(&self.tokens) {
            let fired = slot.revents;
            if fired == 0 {
                continue;
            }
            let troubled = fired & (POLLERR | POLLHUP) != 0;
            events.push(PollEvent {
                token,
                readable: fired & POLLIN != 0 || troubled,
                writable: fired & POLLOUT != 0 || troubled,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    use super::*;

    fn backends() -> Vec<PollBackend> {
        #[cfg(target_os = "linux")]
        {
            vec![PollBackend::Epoll, PollBackend::Poll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![PollBackend::Poll]
        }
    }

    #[test]
    fn reports_readable_when_bytes_arrive() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            assert_eq!(poller.backend(), backend);
            let (mut a, b) = UnixStream::pair().expect("pair");
            b.set_nonblocking(true).expect("nonblocking");
            poller.register(b.as_raw_fd(), 7, false).expect("register");

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend:?}: nothing sent yet");

            a.write_all(&[0xAB]).expect("write");
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            let mut byte = [0u8; 1];
            let mut rb = &b;
            rb.read_exact(&mut byte).expect("read");
            assert_eq!(byte[0], 0xAB);
        }
    }

    #[test]
    fn write_interest_is_togglable() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let (_a, b) = UnixStream::pair().expect("pair");
            b.set_nonblocking(true).expect("nonblocking");
            // Registered read-only: an idle healthy socket reports nothing.
            poller.register(b.as_raw_fd(), 3, false).expect("register");
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend:?}: no write interest armed");

            // Arm write interest: an empty socket buffer is writable now.
            poller.modify(b.as_raw_fd(), 3, true).expect("modify");
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(events.len(), 1, "{backend:?}");
            assert!(events[0].writable);

            // Disarm again: back to quiet.
            poller.modify(b.as_raw_fd(), 3, false).expect("modify");
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend:?}: write interest dropped");
        }
    }

    #[test]
    fn hangup_reports_as_readable() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let (a, b) = UnixStream::pair().expect("pair");
            b.set_nonblocking(true).expect("nonblocking");
            poller.register(b.as_raw_fd(), 11, false).expect("register");
            drop(a);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert_eq!(events.len(), 1, "{backend:?}");
            assert!(events[0].readable, "{backend:?}: hangup must read as EOF");
        }
    }

    #[test]
    fn deregister_silences_a_descriptor() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let (mut a, b) = UnixStream::pair().expect("pair");
            b.set_nonblocking(true).expect("nonblocking");
            poller.register(b.as_raw_fd(), 1, false).expect("register");
            a.write_all(&[1]).expect("write");
            poller.deregister(b.as_raw_fd()).expect("deregister");
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend:?}: deregistered fd fired");
        }
    }
}
