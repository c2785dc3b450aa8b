//! A keep-alive HTTP/1.1 connection, plus `poll(2)` so one thread can
//! drive several connections in a closed loop. One-shot requests use
//! `pep_serve::client::request`.

use pep_serve::http::{decode_chunked, ChunkedError};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// Bytes on the wire (head + body).
    pub bytes: usize,
}

/// A persistent connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `timeout` as the read/write timeout.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// The socket's file descriptor, for [`readable`].
    pub fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    /// Writes one request.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: keep-alive\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()
    }

    /// Reads what is available (blocking until at least one byte or the
    /// timeout) and returns the response once it is complete.
    pub fn read_some(&mut self) -> io::Result<Option<Response>> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        match parse(&self.buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))? {
            Some((resp, used)) => {
                self.buf.drain(..used);
                Ok(Some(resp))
            }
            None => Ok(None),
        }
    }

    /// Sends a request and waits for its response.
    pub fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        self.send(method, path, body)?;
        loop {
            if let Some(r) = self.read_some()? {
                return Ok(r);
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

/// Waits up to `timeout` until any of `fds` is readable (or closed);
/// returns one flag per fd.
pub fn readable(fds: &[i32], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `pfds` is a live, exclusively borrowed array of
    // `pfds.len()` `struct pollfd`-layout records for the whole call.
    let n = unsafe { poll(pfds.as_mut_ptr(), pfds.len() as u64, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(vec![false; fds.len()])
        } else {
            Err(e)
        };
    }
    Ok(pfds
        .iter()
        .map(|p| p.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect())
}

/// Parses one complete response from the front of `buf`: the response
/// and the bytes it used, `None` while incomplete.
fn parse(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    let mut chunked = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad content-length {value:?}"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    let start = head_end + 4;
    let (body, end) = if chunked {
        // One request is in flight per connection, so a chunked body
        // runs to the end of the buffer; a cut frame is incomplete.
        match decode_chunked(&buf[start..]) {
            Ok(body) => (body, buf.len()),
            Err(
                ChunkedError::Truncated
                | ChunkedError::MissingChunkCrlf
                | ChunkedError::MissingFinalCrlf,
            ) => return Ok(None),
            Err(e) => return Err(e.to_string()),
        }
    } else {
        let len = length.unwrap_or(0);
        if buf.len() < start + len {
            return Ok(None);
        }
        (buf[start..start + len].to_vec(), start + len)
    };
    Ok(Some((
        Response {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
            bytes: end,
        },
        end,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_length_and_chunked_bodies_incrementally() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhelloHTTP/1.1 404 N\r\n";
        let (r, used) = parse(full).expect("valid").expect("complete");
        assert_eq!((r.status, r.body.as_str(), used), (200, "hello", 43));
        assert!(parse(&full[..40]).expect("valid").is_none());

        let chunked = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let (r, used) = parse(chunked).expect("valid").expect("complete");
        assert_eq!((r.body.as_str(), used), ("abcde", chunked.len()));
        for cut in 48..chunked.len() {
            assert!(
                parse(&chunked[..cut]).expect("valid").is_none(),
                "cut {cut}"
            );
        }
        assert!(parse(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }
}
