//! A deliberately small HTTP/1.1 layer over `std::net::TcpStream`: just
//! enough protocol for `POST /run/<fn>` + keep-alive + `curl`.
//!
//! No async runtime (the registry is unreachable, and the serving model
//! is thread-per-connection with a bounded connection count); the only
//! subtlety is that `HttpConn` does its **own** read buffering so that
//! pipelined bytes survive across keep-alive requests *and* the raw
//! stream stays available for [`TcpStream::peek`]-based disconnect
//! detection while a request is in flight.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The raw path (`/run/f`).
    pub path: String,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }

    /// The `X-Deadline-Ms` header, when present and parseable.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.header("x-deadline-ms")?.trim().parse().ok()
    }

    /// The client-supplied `X-Request-Id`, sanitized for echoing back in
    /// headers, logs and error JSON: only ASCII alphanumerics plus
    /// `-`, `_`, `.`, `:` survive, capped at 64 chars. `None` when the
    /// header is absent or nothing survives sanitization.
    pub(crate) fn request_id(&self) -> Option<String> {
        let raw = self.header("x-request-id")?;
        let cleaned: String = raw
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
            .take(64)
            .collect();
        if cleaned.is_empty() {
            None
        } else {
            Some(cleaned)
        }
    }
}

/// What went wrong while reading a request.
#[derive(Debug)]
pub(crate) enum ReadError {
    /// Clean EOF before any byte of a new request: keep-alive ended.
    Closed,
    /// A socket error mid-request.
    Io(io::Error),
    /// The peer sent something that is not HTTP, or blew a size limit.
    /// Respond 400 and close.
    Malformed(String),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// A connection wrapper owning the read buffer.
pub(crate) struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
    max_body: usize,
}

impl HttpConn {
    /// Wrap an accepted stream. `max_body` bounds `Content-Length`.
    pub fn new(stream: TcpStream, max_body: usize) -> HttpConn {
        HttpConn {
            stream,
            buf: Vec::new(),
            max_body,
        }
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Read one full request. `Err(Closed)` on clean EOF between
    /// requests, `Err(Malformed)` on protocol garbage.
    pub(crate) fn read_request(&mut self) -> Result<Request, ReadError> {
        // accumulate until the blank line ending the head
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ReadError::Malformed("request head too large".into()));
            }
            match self.fill() {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Err(ReadError::Closed)
                    } else {
                        Err(ReadError::Malformed("EOF mid-request-head".into()))
                    }
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // read timeouts are only set while waiting between
                    // requests; treat as closed so the connection winds
                    // down instead of spinning
                    return Err(ReadError::Io(e));
                }
                Err(e) => return Err(ReadError::Io(e)),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let body_start = head_end + 4; // past \r\n\r\n
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (method, path) = match (parts.next(), parts.next()) {
            (Some(m), Some(p)) => (m.to_string(), p.to_string()),
            _ => {
                return Err(ReadError::Malformed(format!(
                    "bad request line '{request_line}'"
                )))
            }
        };
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            match line.split_once(':') {
                Some((k, v)) => headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string())),
                None => return Err(ReadError::Malformed(format!("bad header line '{line}'"))),
            }
        }
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        if content_length > self.max_body {
            return Err(ReadError::Malformed(format!(
                "body of {content_length} bytes exceeds the {} byte limit",
                self.max_body
            )));
        }
        while self.buf.len() < body_start + content_length {
            match self.fill() {
                Ok(0) => return Err(ReadError::Malformed("EOF mid-body".into())),
                Ok(_) => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        // keep any pipelined bytes for the next request
        self.buf.drain(..body_start + content_length);
        Ok(Request {
            method,
            path,
            headers,
            body,
        })
    }

    /// Write a JSON response. `extra_headers` are `(name, value)` pairs
    /// appended verbatim (e.g. `Retry-After`).
    pub(crate) fn write_response(
        &mut self,
        status: u16,
        extra_headers: &[(&str, String)],
        body: &str,
    ) -> io::Result<()> {
        self.write_response_typed(status, "application/json", extra_headers, body)
    }

    /// Write a response with an explicit `Content-Type` (the `/metrics`
    /// exporter serves Prometheus text, not JSON).
    pub(crate) fn write_response_typed(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &str,
    ) -> io::Result<()> {
        let reason = reason_phrase(status);
        let mut head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (k, v) in extra_headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()
    }

    /// Non-destructively probe the connection: has the peer closed it?
    /// Uses `peek` with a short timeout so pipelined request bytes are
    /// left untouched. Returns `true` when the peer is gone.
    pub(crate) fn peer_closed(&self) -> bool {
        let mut probe = [0u8; 1];
        let prev = self.stream.read_timeout().ok().flatten();
        if self
            .stream
            .set_read_timeout(Some(Duration::from_millis(1)))
            .is_err()
        {
            return true;
        }
        let gone = matches!(self.stream.peek(&mut probe), Ok(0));
        let _ = self.stream.set_read_timeout(prev);
        gone
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn parses_request_with_body_and_keepalive_pipelining() {
        let (mut client, server) = pair();
        let mut conn = HttpConn::new(server, 1024);
        client
            .write_all(
                b"POST /run/f HTTP/1.1\r\nContent-Length: 4\r\nX-Deadline-Ms: 250\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let r1 = conn.read_request().unwrap();
        assert_eq!(r1.method, "POST");
        assert_eq!(r1.path, "/run/f");
        assert_eq!(r1.body, b"abcd");
        assert_eq!(r1.deadline_ms(), Some(250));
        // the pipelined second request must survive in the buffer
        let r2 = conn.read_request().unwrap();
        assert_eq!(r2.method, "GET");
        assert_eq!(r2.path, "/healthz");
        assert!(r2.body.is_empty());
    }

    #[test]
    fn request_id_is_sanitized_before_echoing() {
        let req = |id: &str| Request {
            method: "POST".to_string(),
            path: "/run/f".to_string(),
            headers: vec![("x-request-id".to_string(), id.to_string())],
            body: Vec::new(),
        };
        assert_eq!(
            req("abc-123_x.y:z").request_id().as_deref(),
            Some("abc-123_x.y:z")
        );
        // header-injection attempts and exotic bytes are stripped
        assert_eq!(
            req("evil\r\nSet-Cookie: x=1").request_id().as_deref(),
            Some("evilSet-Cookie:x1")
        );
        assert_eq!(req("\r\n\"<>{}").request_id(), None);
        // and length is capped
        let long = "a".repeat(200);
        assert_eq!(req(&long).request_id().map(|s| s.len()), Some(64));
        let none = Request {
            method: "POST".to_string(),
            path: "/run/f".to_string(),
            headers: vec![],
            body: Vec::new(),
        };
        assert_eq!(none.request_id(), None);
    }

    #[test]
    fn clean_eof_between_requests_is_closed() {
        let (client, server) = pair();
        let mut conn = HttpConn::new(server, 1024);
        drop(client);
        assert!(matches!(conn.read_request(), Err(ReadError::Closed)));
    }

    #[test]
    fn oversized_body_is_malformed() {
        let (mut client, server) = pair();
        let mut conn = HttpConn::new(server, 8);
        client
            .write_all(b"POST /run/f HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
            .unwrap();
        assert!(matches!(conn.read_request(), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn response_roundtrip() {
        let (mut client, server) = pair();
        let mut conn = HttpConn::new(server, 1024);
        conn.write_response(503, &[("Retry-After", "1".to_string())], "{\"x\":1}")
            .unwrap();
        drop(conn);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("{\"x\":1}"));
    }

    #[test]
    fn peer_closed_detection() {
        let (client, server) = pair();
        let conn = HttpConn::new(server, 1024);
        assert!(!conn.peer_closed());
        drop(client);
        assert!(conn.peer_closed());
    }
}
