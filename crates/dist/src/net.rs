//! Transport endpoints: Unix-domain sockets and TCP, std only.
//!
//! A server (the policy daemon, a fleet coordinator) listens on exactly
//! one [`Endpoint`]; clients connect to the same value. Unix sockets
//! are the same-host deployment (a path the runtime mounts into the
//! enforcement agent, or a local run's private agent socket); TCP is the
//! multi-machine one. [`Conn`] erases the difference for the protocol
//! layer.

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where the policy service listens (or where a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP socket at this `host:port` address. Binding `…:0` picks an
    /// ephemeral port; the server handle reports the resolved address.
    Tcp(String),
}

impl Endpoint {
    /// Parses a CLI-style endpoint spec: `tcp:HOST:PORT` is TCP,
    /// `unix:PATH` or a bare path is a Unix socket.
    pub fn parse(spec: &str) -> Endpoint {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            Endpoint::Tcp(addr.to_string())
        } else if let Some(path) = spec.strip_prefix("unix:") {
            Endpoint::Unix(PathBuf::from(path))
        } else {
            Endpoint::Unix(PathBuf::from(spec))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A listening socket on either transport: the serve daemon accepts
/// clients and the fleet coordinator accepts agents through it.
pub enum Listener {
    /// A bound Unix-domain listener.
    Unix(UnixListener),
    /// A bound TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the endpoint. A Unix path with no live listener behind it
    /// (a previous daemon died without cleanup) is removed and rebound;
    /// a path a live daemon answers on is refused as `AddrInUse`.
    pub fn bind(endpoint: &Endpoint) -> std::io::Result<(Listener, Endpoint)> {
        match endpoint {
            Endpoint::Unix(path) => {
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("{} already has a live listener", path.display()),
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                Ok((Listener::Unix(listener), endpoint.clone()))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let resolved = Endpoint::Tcp(listener.local_addr()?.to_string());
                Ok((Listener::Tcp(listener), resolved))
            }
        }
    }

    /// Blocks until a peer connects and returns the accepted connection.
    /// On a nonblocking listener, returns `WouldBlock` when no peer is
    /// pending instead of blocking.
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                Conn::tcp(stream)
            }
        }
    }

    /// Switches the listener between blocking and nonblocking accepts —
    /// the readiness loop polls the listening socket alongside every
    /// connection instead of dedicating a thread to `accept`.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

/// One accepted or dialed connection on either transport.
#[derive(Debug)]
pub enum Conn {
    /// A Unix-domain stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// Dials the endpoint.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Conn> {
        match endpoint {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Endpoint::Tcp(addr) => Conn::tcp(TcpStream::connect(addr.as_str())?),
        }
    }

    /// Wraps a TCP stream with `TCP_NODELAY` set, dialed or accepted
    /// alike. Every protocol here is request/reply over small frames, so
    /// Nagle's algorithm only ever delays a frame's tail until the peer's
    /// delayed ACK; this keeps a frame written in more than one call
    /// from paying that stall.
    fn tcp(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn::Tcp(stream))
    }

    /// A second handle onto the same socket (separate read/write halves).
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Bounds how long a read may block.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Switches the socket between blocking and non-blocking reads —
    /// used by the serve watcher thread to probe a parked connection
    /// for liveness without ever blocking on it.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_nonblocking(nonblocking),
            Conn::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// A display label for the remote peer: the TCP peer address, or a
    /// placeholder for Unix sockets (whose peers are anonymous).
    pub fn peer_label(&self) -> String {
        match self {
            Conn::Unix(_) => "unix-peer".to_string(),
            Conn::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp-peer".to_string()),
        }
    }

    /// Severs both directions of the socket. Every clone of the
    /// connection observes it at once — the lever for forcibly
    /// disconnecting a peer (e.g. a fleet agent declared dead) whose
    /// reader thread is blocked in a read on another handle.
    pub fn shutdown_both(&self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Conn::Unix(s) => s.as_raw_fd(),
            Conn::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Removes a Unix socket file if the endpoint is one (listener teardown).
pub fn cleanup(endpoint: &Endpoint) {
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
}

/// `true` when an I/O error means "the socket is not ready right now" —
/// a nonblocking read or write that found nothing to do. Strictly
/// `WouldBlock`: on a nonblocking socket this is routine flow control,
/// never a failure, and conflating it with `TimedOut` (as the old
/// `is_timeout` did) would misread ordinary backpressure as a deadline.
pub fn is_would_block(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::WouldBlock
}

/// `true` when an I/O error means a configured read deadline expired on a
/// *blocking* socket (`set_read_timeout`). Platforms disagree on the
/// kind — Linux reports `WouldBlock`, others `TimedOut` — so both map
/// here. Only meaningful for blocking sockets; on a nonblocking socket
/// use [`is_would_block`], where `WouldBlock` means "not ready".
pub fn is_deadline(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_covers_both_transports() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7878"),
            Endpoint::Tcp("127.0.0.1:7878".to_string())
        );
        assert_eq!(
            Endpoint::parse("unix:/run/bside.sock"),
            Endpoint::Unix(PathBuf::from("/run/bside.sock"))
        );
        assert_eq!(
            Endpoint::parse("/run/bside.sock"),
            Endpoint::Unix(PathBuf::from("/run/bside.sock"))
        );
    }

    #[test]
    fn endpoint_display_round_trips_through_parse() {
        for spec in ["tcp:127.0.0.1:7878", "unix:/tmp/x.sock"] {
            let ep = Endpoint::parse(spec);
            assert_eq!(Endpoint::parse(&ep.to_string()), ep);
        }
    }

    #[test]
    fn nonblocking_not_ready_is_would_block_not_deadline() {
        // A nonblocking socket with nothing buffered: the error is
        // routine "not ready" flow control. is_would_block must accept
        // it; both classifiers match WouldBlock, but the distinction
        // that matters is below — a real deadline expiry is NOT
        // would-block.
        let (a, _b) = UnixStream::pair().expect("pair");
        a.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::Unix(a);
        let mut buf = [0u8; 8];
        let err = conn.read(&mut buf).expect_err("nothing to read");
        assert!(
            is_would_block(&err),
            "nonblocking empty read is would-block"
        );
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    #[test]
    fn blocking_deadline_expiry_is_deadline() {
        // A blocking socket with a read timeout: expiry is a deadline,
        // whatever kind the platform reports (Linux says WouldBlock,
        // others TimedOut). is_deadline accepts both kinds.
        let (a, _b) = UnixStream::pair().expect("pair");
        a.set_read_timeout(Some(Duration::from_millis(30)))
            .expect("timeout");
        let mut conn = Conn::Unix(a);
        let mut buf = [0u8; 8];
        let err = conn.read(&mut buf).expect_err("deadline expires");
        assert!(is_deadline(&err), "read-timeout expiry is a deadline");
        // And a genuine failure is neither.
        let real = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone");
        assert!(!is_would_block(&real));
        assert!(!is_deadline(&real));
    }

    #[test]
    fn tcp_conns_set_nodelay_whether_dialed_or_accepted() {
        let (listener, endpoint) =
            Listener::bind(&Endpoint::Tcp("127.0.0.1:0".to_string())).expect("bind");
        let dialed = Conn::connect(&endpoint).expect("dial");
        let accepted = listener.accept().expect("accept");
        for (side, conn) in [("dialed", &dialed), ("accepted", &accepted)] {
            let Conn::Tcp(stream) = conn else {
                panic!("{side} conn must be tcp");
            };
            assert!(stream.nodelay().expect("getsockopt"), "{side}: TCP_NODELAY");
        }
    }

    #[test]
    fn stale_unix_socket_is_rebound() {
        let dir = std::env::temp_dir().join(format!("bside_net_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.sock");
        // A socket file with no listener behind it.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists(), "dropped listener leaves the file");
        let (listener, _) = Listener::bind(&Endpoint::Unix(path.clone())).expect("rebinds");
        // And a live listener is refused.
        let err = match Listener::bind(&Endpoint::Unix(path.clone())) {
            Err(e) => e,
            Ok(_) => panic!("binding over a live listener must fail"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        drop(listener);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
