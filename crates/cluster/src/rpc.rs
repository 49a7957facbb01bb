//! One-shot raw frame exchanges over a fresh TCP connection.
//!
//! The proxy's health monitor and the promotion path talk to standby
//! frontends with single request/reply frames — no `Hello` handshake,
//! no session state — so they use a throwaway socket per call instead
//! of the full [`clue_net::client::Connection`] machinery.

use std::io::{self, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use clue_net::frame::{Frame, FrameDecoder, FrameType};

/// Dials `addr`, sends `frame`, and returns the single reply frame.
///
/// An `Error` reply is surfaced as `ErrorKind::Other` carrying the
/// peer's message.
///
/// # Errors
///
/// Connect/read/write failures within the given timeouts, a protocol
/// violation, or an `Error` reply.
pub fn call(
    addr: &str,
    frame: &Frame,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> io::Result<Frame> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, format!("no address for {addr}")))?;
    let stream = TcpStream::connect_timeout(&target, connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    frame.write_to(&mut &stream)?;
    let reply = FrameDecoder::new().read_frame(&mut &stream)?;
    if reply.kind == FrameType::Error {
        return Err(io::Error::other(format!(
            "{addr}: {}",
            String::from_utf8_lossy(&reply.payload)
        )));
    }
    Ok(reply)
}

/// [`call`] that additionally checks the reply's frame type.
///
/// # Errors
///
/// Everything [`call`] fails on, plus `InvalidData` when the reply is
/// not of kind `want`.
pub fn call_expect(
    addr: &str,
    frame: &Frame,
    want: FrameType,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> io::Result<Frame> {
    let reply = call(addr, frame, connect_timeout, io_timeout)?;
    if reply.kind != want {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("{addr}: expected {want:?}, got {:?}", reply.kind),
        ));
    }
    Ok(reply)
}
