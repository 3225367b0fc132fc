//! Transport: one listener/stream pair over TCP or unix-domain sockets.
//!
//! The address grammar is positional, not schemed: an address containing
//! a `/` is a unix socket path, anything else is a TCP `host:port`. Unix
//! sockets are the default for local tooling (no port allocation, file
//! permissions for access control); TCP serves the remote case. On
//! non-unix platforms path addresses fail with `Unsupported`.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// Whether `addr` names a unix socket path (contains a `/`) rather than
/// a TCP `host:port`.
pub fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/')
}

#[derive(Debug)]
enum ListenerInner {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A bound service endpoint (TCP or unix), with its resolved address.
#[derive(Debug)]
pub struct Listener {
    inner: ListenerInner,
    addr: String,
    path: Option<String>,
}

impl Listener {
    /// Binds `addr`. TCP addresses resolve `:0` to the actual port;
    /// unix paths are re-bound over a stale socket file if one is left
    /// from a crashed predecessor.
    pub fn bind(addr: &str) -> io::Result<Listener> {
        if is_unix_addr(addr) {
            return Listener::bind_unix(addr);
        }
        let inner = TcpListener::bind(addr)?;
        let resolved = inner.local_addr()?.to_string();
        Ok(Listener { inner: ListenerInner::Tcp(inner), addr: resolved, path: None })
    }

    #[cfg(unix)]
    fn bind_unix(path: &str) -> io::Result<Listener> {
        // A stale socket file from a crashed server would fail the bind
        // with AddrInUse; a live server holds the same error. Remove and
        // bind: the stale case succeeds, the live case fails the same
        // way either way.
        let _ = std::fs::remove_file(path);
        let inner = UnixListener::bind(path)?;
        Ok(Listener {
            inner: ListenerInner::Unix(inner),
            addr: path.to_string(),
            path: Some(path.to_string()),
        })
    }

    #[cfg(not(unix))]
    fn bind_unix(_path: &str) -> io::Result<Listener> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix socket paths are unsupported on this platform; use host:port",
        ))
    }

    /// The resolved address (actual TCP port, or the socket path).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<Stream> {
        match &self.inner {
            ListenerInner::Tcp(l) => Ok(Stream::Tcp(l.accept()?.0)),
            #[cfg(unix)]
            ListenerInner::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
        }
    }

    /// Removes the unix socket file (no-op for TCP). Called on clean
    /// server exit so the path is reusable immediately.
    pub fn cleanup(&self) {
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accepted or dialed connection.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// An independently owned handle to the same connection (the reader
    /// half of a connection thread while the writer is shared).
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Writes `line` and its `'\n'` terminator with a single `write_all`,
/// then flushes: the one JSONL framing routine of both server and
/// client. One write per line matters on TCP — a line and its newline
/// sent as two small segments leave the second held back by Nagle's
/// algorithm until the peer's delayed ACK, about 40 ms per reply.
pub fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)?;
    w.flush()
}

/// Dials `addr` with the same `/`-means-unix grammar as [`Listener::bind`].
pub fn connect(addr: &str) -> io::Result<Stream> {
    if is_unix_addr(addr) {
        return connect_unix(addr);
    }
    Ok(Stream::Tcp(TcpStream::connect(addr)?))
}

#[cfg(unix)]
fn connect_unix(path: &str) -> io::Result<Stream> {
    Ok(Stream::Unix(UnixStream::connect(path)?))
}

#[cfg(not(unix))]
fn connect_unix(_path: &str) -> io::Result<Stream> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "unix socket paths are unsupported on this platform; use host:port",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct Counting {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_line_frames_each_line_in_one_write() {
        let mut sink = Counting::default();
        write_line(&mut sink, "{\"id\":\"a\"}").unwrap();
        write_line(&mut sink, "").unwrap();
        assert_eq!(sink.writes, [b"{\"id\":\"a\"}\n".to_vec(), b"\n".to_vec()]);
        assert_eq!(sink.flushes, 2);
    }
}
