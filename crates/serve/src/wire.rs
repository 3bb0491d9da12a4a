//! The socket layer under [`http`](crate::http): every `TcpStream` the
//! workspace opens or accepts is configured, written and read here — one
//! configure step, one framed writer, one framed reader shared by server
//! and client. `docs/ARCHITECTURE.md` ("The wire module") has the design.

use crate::http::HttpResponseParts;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Longest accepted message head (start line + headers), bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Longest accepted message body, bytes.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Longest a started request may take to arrive in full; also a client
/// connection's read timeout when no tighter one is set.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest a keep-alive connection may sit idle between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Granularity of server-side socket reads: each blocking read wakes at
/// least this often so handlers notice server shutdown and enforce the two
/// timeouts above without parking on a dead socket.
const READ_SLICE: Duration = Duration::from_millis(250);
/// Least spare room offered to a read while a head is still arriving.
const HEAD_CHUNK: usize = 4096;

/// `TCP_NODELAY` is unconditional: every message leaves as one write, so
/// Nagle's algorithm has nothing to coalesce and could only hold a segment
/// back for the peer's delayed ACK (40 ms a round trip).
fn configure(stream: &TcpStream, read: Duration, write: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read))?;
    stream.set_write_timeout(write)
}

/// A socket timeout surfaces as `WouldBlock` on Unix; callers are promised
/// the conventional `TimedOut`.
fn typed(error: io::Error) -> io::Error {
    match error.kind() {
        io::ErrorKind::WouldBlock => io::Error::new(io::ErrorKind::TimedOut, error),
        _ => error,
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Why no message came off the wire.
pub(crate) enum Broken {
    /// Nothing to answer: the peer closed (or the server is stopping)
    /// between messages.
    Closed,
    /// The wait ran out, before (`false`) or after (`true`) the message's
    /// first byte arrived.
    TimedOut(bool),
    /// Bytes the framer refuses, with the status that says why. The
    /// connection must close: its inbox no longer starts at a message.
    Reject(u16, String),
    /// Socket-level failure.
    Io(io::Error),
}

impl From<Broken> for io::Error {
    fn from(broken: Broken) -> io::Error {
        use io::ErrorKind::{InvalidData, TimedOut};
        match broken {
            Broken::Closed => io::Error::new(InvalidData, "connection closed before a response"),
            Broken::TimedOut(_) => io::Error::new(TimedOut, "HTTP request timed out"),
            Broken::Reject(_, message) => io::Error::new(InvalidData, message),
            Broken::Io(error) => error,
        }
    }
}

/// The clocks of one message read. A server runs two: the idle phase (no
/// byte of the message yet) is bounded from entry, the message phase from
/// its *first byte* — an almost-idled-out connection that then starts a
/// large upload still gets the full budget.
struct Clock<'a> {
    stop: Option<&'a AtomicBool>,
    idle_since: Instant,
    message_since: Option<Instant>,
}

/// One complete message, lent from the connection's inbox until its next
/// read.
struct Message<'a> {
    start_line: &'a str,
    headers: &'a str,
    body: &'a str,
}

fn header_lines(block: &str) -> impl Iterator<Item = (&str, &str)> {
    block
        .split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim(), value.trim()))
}

/// One parsed request, lent from the connection's inbox.
pub(crate) struct Request<'a> {
    pub(crate) method: &'a str,
    pub(crate) path: &'a str,
    pub(crate) body: &'a str,
    /// Whether the connection may serve another request after this one,
    /// per the request's `Connection:` header and HTTP version defaults.
    pub(crate) keep_alive: bool,
}

/// Vet a request line; answers whether the request is HTTP/1.0.
fn request_line(line: &str) -> Result<bool, String> {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some(_), Some(_), Some(version)) if version.starts_with("HTTP/1.") => {
            Ok(version == "HTTP/1.0")
        }
        (Some(_), Some(_), Some(version)) => Err(format!("unsupported protocol {version:?}")),
        _ => Err(format!("malformed request line {line:?}")),
    }
}

/// Vet a status line; answers the status code.
fn status_line(line: &str) -> Result<u16, String> {
    let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    status.ok_or_else(|| "response without a status".to_string())
}

/// One configured socket with its framed reader and writer.
///
/// The inbox is kept initialised to its full length: unread bytes sit in
/// `inbox[start..end]`, and `inbox[end..]` is spare room that socket reads
/// land in directly. Compaction rule: consuming a message only advances
/// `start`; before a read, an empty unread region resets both cursors for
/// free, a non-empty one is moved to the front only when the tail lacks
/// the room the read wants, and the inbox grows only if it still does
/// after that. Both buffers are therefore bounded by the largest message
/// seen (plus [`HEAD_CHUNK`]), however many messages the connection carries.
pub(crate) struct Connection<S = TcpStream> {
    stream: S,
    inbox: Vec<u8>,
    start: usize,
    end: usize,
    outbox: Vec<u8>,
    /// Longest wait for a message's first byte, and from there for its
    /// last. Both zero on a client: its socket timeout *is* the deadline,
    /// so the first timed-out read fails.
    patience: (Duration, Duration),
}

impl Connection {
    /// The server side of an accepted socket: reads wake every
    /// [`READ_SLICE`] to run the clocks and notice `stop`.
    pub(crate) fn accepted(stream: TcpStream) -> io::Result<Connection> {
        configure(&stream, READ_SLICE, None)?;
        Ok(Connection::over(stream, (IDLE_TIMEOUT, READ_TIMEOUT)))
    }

    /// The client side: connect to `addr`, bounding the connect itself and
    /// every later socket operation by `timeout` when one is given.
    pub(crate) fn connect(addr: &SocketAddr, timeout: Option<Duration>) -> io::Result<Connection> {
        let stream = match timeout {
            Some(timeout) => TcpStream::connect_timeout(addr, timeout).map_err(typed)?,
            None => TcpStream::connect(addr)?,
        };
        let connection = Connection::over(stream, (Duration::ZERO, Duration::ZERO));
        connection.set_timeout(timeout)?;
        Ok(connection)
    }

    /// Bound (or, with `None`, unbound back to the 10 s read default)
    /// every subsequent socket operation.
    pub(crate) fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        let timeout = timeout.filter(|t| !t.is_zero());
        configure(&self.stream, timeout.unwrap_or(READ_TIMEOUT), timeout)
    }
}

impl<S: Read + Write> Connection<S> {
    fn over(stream: S, patience: (Duration, Duration)) -> Connection<S> {
        Connection {
            stream,
            inbox: Vec::new(),
            start: 0,
            end: 0,
            outbox: Vec::new(),
            patience,
        }
    }

    pub(crate) fn write_response(
        &mut self,
        status: u16,
        body: &str,
        close: bool,
        retry_after: Option<u64>,
    ) -> io::Result<()> {
        self.outbox.clear();
        write!(
            self.outbox,
            "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            reason_phrase(status),
            body.len(),
        )?;
        if let Some(secs) = retry_after {
            write!(self.outbox, "Retry-After: {secs}\r\n")?;
        }
        let connection = if close { "close" } else { "keep-alive" };
        write!(self.outbox, "Connection: {connection}\r\n\r\n")?;
        self.emit(body)
    }

    pub(crate) fn write_request(
        &mut self,
        host: &SocketAddr,
        method: &str,
        path: &str,
        body: &str,
        keep_alive: bool,
    ) -> io::Result<()> {
        self.outbox.clear();
        write!(
            self.outbox,
            "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        self.emit(body)
    }

    /// The whole message in exactly one `write_all`.
    fn emit(&mut self, body: &str) -> io::Result<()> {
        self.outbox.extend_from_slice(body.as_bytes());
        self.stream.write_all(&self.outbox).map_err(typed)
    }

    /// One read into at least `want` bytes of spare room.
    fn fill(&mut self, want: usize, clock: &mut Clock) -> Result<(), Broken> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        if self.inbox.len() - self.end < want {
            if self.start > 0 {
                self.inbox.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            let needed = self.end + want;
            if needed > self.inbox.len() {
                self.inbox.reserve_exact(needed - self.inbox.len());
                self.inbox.resize(needed, 0);
            }
        }
        loop {
            match self.stream.read(&mut self.inbox[self.end..]) {
                Ok(0) if clock.message_since.is_none() => return Err(Broken::Closed),
                Ok(0) => {
                    let message = "connection closed mid-message".to_string();
                    return Err(Broken::Reject(400, message));
                }
                Ok(n) => {
                    self.end += n;
                    clock.message_since.get_or_insert_with(Instant::now);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // A read timeout: a wake to look at the clocks.
                    if clock.stop.is_some_and(|stop| stop.load(Ordering::SeqCst)) {
                        return Err(Broken::Closed);
                    }
                    match clock.message_since {
                        Some(since) if since.elapsed() >= self.patience.1 => {
                            return Err(Broken::TimedOut(true))
                        }
                        None if clock.idle_since.elapsed() >= self.patience.0 => {
                            return Err(Broken::TimedOut(false))
                        }
                        _ => {}
                    }
                }
                Err(e) => return Err(Broken::Io(e)),
            }
        }
    }

    /// Read one message, consume it and lend it out. `vet` checks the start
    /// line (a request line or a status line) before any header is looked
    /// at; its answer rides back with the message. Bytes past the message
    /// (a pipelining peer) stay in the inbox for the next call. A head that
    /// carries `Expect: 100-continue` and arrives without its body is
    /// answered with the interim `100 Continue` its sender is waiting for.
    fn read_message<T>(
        &mut self,
        stop: Option<&AtomicBool>,
        vet: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<(T, Message<'_>), Broken> {
        let idle_since = Instant::now();
        let mut clock = Clock {
            stop,
            idle_since,
            // Leftover bytes already belong to this message.
            message_since: (self.start != self.end).then_some(idle_since),
        };
        let head_len = loop {
            let pending = &self.inbox[self.start..self.end];
            if let Some(pos) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            if pending.len() > MAX_HEAD_BYTES {
                let message = format!("request head exceeds {MAX_HEAD_BYTES} bytes");
                return Err(Broken::Reject(413, message));
            }
            self.fill(HEAD_CHUNK, &mut clock)?;
        };
        let reject = |status, message: String| Err(Broken::Reject(status, message));
        let head = &self.inbox[self.start..self.start + head_len - 4];
        let Ok(head) = std::str::from_utf8(head) else {
            return reject(400, "message head is not UTF-8".to_string());
        };
        let (line, headers) = head.split_once("\r\n").unwrap_or((head, ""));
        let vetted = match vet(line) {
            Ok(vetted) => vetted,
            Err(message) => return reject(400, message),
        };
        let mut body_len: Option<usize> = None;
        let mut expects_continue = false;
        for (name, value) in header_lines(headers) {
            if name.eq_ignore_ascii_case("content-length") {
                let Ok(length) = value.parse() else {
                    return reject(400, format!("bad content-length {value:?}"));
                };
                if body_len.is_some_and(|seen| seen != length) {
                    return reject(400, "conflicting content-length headers".to_string());
                }
                body_len = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Only Content-Length framing is implemented; a chunked body
                // taken as empty would be parsed as the next message.
                if !value.eq_ignore_ascii_case("identity") {
                    let message = format!("transfer-encoding {value:?} is not supported");
                    return reject(501, message + "; send Content-Length");
                }
            } else if name.eq_ignore_ascii_case("expect") {
                // HTTP/1.0 peers cannot take an interim reply.
                expects_continue =
                    value.eq_ignore_ascii_case("100-continue") && !line.ends_with("HTTP/1.0");
            }
        }
        let body_len = body_len.unwrap_or(0);
        if body_len > MAX_BODY_BYTES {
            return reject(413, format!("request body exceeds {MAX_BODY_BYTES} bytes"));
        }
        let (line_len, total) = (line.len(), head_len + body_len);
        if expects_continue && self.end - self.start < total {
            let interim = self.stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            interim.map_err(Broken::Io)?;
        }
        // Room for the whole body is reserved by the first fill.
        while self.end - self.start < total {
            self.fill(total - (self.end - self.start), &mut clock)?;
        }
        let message = &self.inbox[self.start..self.start + total];
        self.start += total;
        // The head was validated on its own, so a failure here is the body's.
        let Ok(text) = std::str::from_utf8(message) else {
            return reject(400, "request body is not UTF-8".to_string());
        };
        let message = Message {
            start_line: &text[..line_len],
            headers: &text[line_len..head_len],
            body: &text[head_len..],
        };
        Ok((vetted, message))
    }

    /// Parse one request, giving up quietly once `stop` is set.
    pub(crate) fn read_request(&mut self, stop: &AtomicBool) -> Result<Request<'_>, Broken> {
        let (http10, message) = self.read_message(Some(stop), request_line)?;
        let mut parts = message.start_line.split_whitespace();
        // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
        // `Connection:` header (the last, if several) wins either way.
        let connection = header_lines(message.headers)
            .filter(|(name, _)| name.eq_ignore_ascii_case("connection"))
            .last()
            .map(|(_, value)| value.to_ascii_lowercase());
        Ok(Request {
            method: parts.next().unwrap_or_default(),
            path: parts.next().unwrap_or_default(),
            body: message.body,
            keep_alive: match connection.as_deref() {
                Some(value) if value.contains("close") => false,
                Some(value) if value.contains("keep-alive") => true,
                _ => !http10,
            },
        })
    }

    /// Read one response by its `Content-Length` — mandatory on a
    /// keep-alive connection, where EOF never comes between responses.
    pub(crate) fn read_response(&mut self) -> io::Result<HttpResponseParts> {
        let (status, message) = self.read_message(None, status_line)?;
        let headers = header_lines(message.headers)
            .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
            .collect();
        Ok((status, headers, message.body.to_string()))
    }
}

#[cfg(test)]
impl Connection {
    /// Send pre-rendered bytes as they are — how tests speak malformed,
    /// partial or pipelined HTTP.
    pub(crate) fn write_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Whether the peer has closed and nothing is left to read.
    pub(crate) fn at_eof(&mut self) -> bool {
        self.start == self.end && matches!(self.stream.read(&mut [0u8; 1]), Ok(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Counts `write` calls; accepts every byte offered, offers none.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for CountingWriter {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    #[test]
    fn every_message_is_exactly_one_write() {
        let host: SocketAddr = "127.0.0.1:7878".parse().unwrap();
        let mut connection = Connection::over(CountingWriter::default(), Default::default());
        let sent = |connection: &mut Connection<CountingWriter>, what: &str| {
            let out = std::mem::take(&mut connection.stream);
            assert_eq!(out.writes, 1, "{what}");
            String::from_utf8(out.bytes).unwrap()
        };
        for body in [String::new(), "x".repeat(410), "y".repeat(68_007)] {
            for retry_after in [None, Some(3)] {
                connection
                    .write_response(503, &body, false, retry_after)
                    .unwrap();
                let text = sent(&mut connection, "a response");
                assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
                assert!(text.contains(&format!("Content-Length: {}\r\n", body.len())));
                assert_eq!(text.contains("Retry-After: 3\r\n"), retry_after.is_some());
                assert!(text.ends_with(&format!("Connection: keep-alive\r\n\r\n{body}")));
            }
            connection
                .write_request(&host, "POST", "/v1/models/m/infer", &body, true)
                .unwrap();
            let text = sent(&mut connection, "a request");
            assert!(
                text.starts_with("POST /v1/models/m/infer HTTP/1.1\r\nHost: 127.0.0.1:7878\r\n")
            );
            assert!(text.ends_with(&format!("Connection: keep-alive\r\n\r\n{body}")));
        }
    }

    /// A peer that delivers `bytes` in reads of the scripted sizes (cycled),
    /// then closes; writes are swallowed.
    struct Scripted<'a> {
        bytes: &'a [u8],
        sizes: &'a [usize],
        reads: usize,
    }

    impl Read for Scripted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    impl Write for Scripted<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    type Parsed = (String, String, String, bool);

    /// Every request parsed off `bytes` delivered in `sizes`-byte reads,
    /// until the peer closes; also the inbox's final capacity.
    fn parse_all(bytes: &[u8], sizes: &[usize]) -> (Vec<Parsed>, usize) {
        let stop = AtomicBool::new(false);
        let stream = Scripted {
            bytes,
            sizes,
            reads: 0,
        };
        let mut connection = Connection::over(stream, (IDLE_TIMEOUT, READ_TIMEOUT));
        let mut parsed = Vec::new();
        loop {
            match connection.read_request(&stop) {
                Ok(r) => parsed.push((
                    r.method.to_string(),
                    r.path.to_string(),
                    r.body.to_string(),
                    r.keep_alive,
                )),
                Err(Broken::Closed) => return (parsed, connection.inbox.capacity()),
                Err(Broken::Reject(status, message)) => panic!("rejected {status}: {message}"),
                Err(_) => panic!("a scripted stream neither times out nor fails"),
            }
        }
    }

    fn render(index: usize, body_len: usize, close: bool) -> (Vec<u8>, Parsed) {
        let method = ["GET", "POST", "PUT"][index % 3];
        let path = format!("/v1/models/m{index}/infer");
        let body: String = (0..body_len)
            .map(|i| char::from(b'a' + ((i + index) % 26) as u8))
            .collect();
        let connection = if close { "close" } else { "keep-alive" };
        let message = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {body_len}\r\nConnection: {connection}\r\n\r\n{body}"
        );
        (
            message.into_bytes(),
            (method.to_string(), path, body, !close),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However the byte stream of 1–4 pipelined requests is cut into
        /// reads, the same requests come out, and the buffer never outgrows
        /// the largest of them.
        #[test]
        fn any_split_of_a_pipelined_stream_parses_the_same(
            count in 1usize..5,
            lens in (0usize..9000, 0usize..300, 0usize..70_000, 0usize..2),
            closes in 0usize..16,
            sizes in (1usize..40, 1usize..700, 1usize..5000, 1usize..80_000),
        ) {
            let lens = [lens.0, lens.1, lens.2, lens.3];
            let mut stream = Vec::new();
            let mut expected = Vec::new();
            let mut largest = 0;
            for (index, body_len) in lens.iter().enumerate().take(count) {
                let (bytes, parsed) = render(index, *body_len, closes >> index & 1 == 1);
                largest = largest.max(bytes.len());
                stream.extend_from_slice(&bytes);
                expected.push(parsed);
            }
            let (whole, _) = parse_all(&stream, &[usize::MAX]);
            prop_assert_eq!(&whole, &expected);
            let sizes = [sizes.0, sizes.1, sizes.2, sizes.3];
            let (split, capacity) = parse_all(&stream, &sizes);
            prop_assert_eq!(&split, &expected);
            prop_assert!(
                capacity <= largest + HEAD_CHUNK,
                "buffer grew to {} for a largest message of {}", capacity, largest
            );
        }
    }

    #[test]
    fn ten_thousand_keep_alive_requests_do_not_grow_the_buffer() {
        let (small, _) = render(0, 40, false);
        let (large, _) = render(1, 68_007, false);
        let mut stream = Vec::new();
        for nth in 0..10_000 {
            stream.extend_from_slice(if nth % 1000 == 1 { &large } else { &small });
        }
        // Reads that straddle message boundaries, so remainders are carried.
        let (parsed, capacity) = parse_all(&stream, &[1500, 64 * 1024, 7]);
        assert_eq!(parsed.len(), 10_000);
        assert!(
            capacity <= large.len() + HEAD_CHUNK,
            "buffer grew to {capacity} for a largest message of {}",
            large.len()
        );
    }
}
