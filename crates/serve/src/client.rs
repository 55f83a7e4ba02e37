//! A minimal blocking HTTP/1.1 client with keep-alive — just enough to
//! drive the server from the loadgen and the integration tests without
//! pulling in a real HTTP stack.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header names with values.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to the server.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// `POST /run/<fn>` with a JSON body and optional deadline header.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and protocol violations.
    pub fn run(
        &mut self,
        function: &str,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> io::Result<Response> {
        let extra = deadline_ms
            .map(|ms| format!("X-Deadline-Ms: {ms}\r\n"))
            .unwrap_or_default();
        self.request("POST", &format!("/run/{function}"), &extra, body)
    }

    /// An arbitrary request on the kept-alive connection.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and protocol violations.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &str,
        body: &str,
    ) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: serve\r\nContent-Length: {}\r\n{extra_headers}\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF before response head",
                ));
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line '{status_line}'"),
                )
            })?;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF mid response body",
                ));
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

/// Poll `GET /healthz` until the server answers or `timeout` elapses.
/// Used by tests and `ci.sh` to sequence "server up, start load".
pub fn wait_ready(addr: &str, timeout: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(resp) = c.request("GET", "/healthz", "", "") {
                if resp.status == 200 {
                    return true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}
