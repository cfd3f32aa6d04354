//! Strict HTTP/1.1 request parsing and response writing over `std::io`.
//!
//! The parser mirrors the decoder-hardening discipline of `p3gm-store`:
//! **no input, however malformed, can cause a panic** — every failure is
//! a typed [`HttpError`] that maps to a 4xx/5xx status via
//! [`HttpError::status`]. All reads are bounded by [`Limits`] (head size,
//! header count, body size), every slice access is checked, and a crafted
//! `Content-Length` cannot trigger an unbounded allocation because the
//! body is read incrementally up to the configured cap.
//!
//! Scope is deliberately small: the two methods the service routes
//! (`GET` / `POST`) and `Content-Length` request bodies only (a request
//! `Transfer-Encoding` header is rejected with 501 rather than
//! mis-framed). Connections are persistent: [`RequestReader`] reads a
//! *sequence* of requests from one stream, carrying bytes that arrive
//! past one request's body over to the next (HTTP/1.1 keep-alive and
//! pipelining), and [`Request::keep_alive`] implements the `Connection`
//! header semantics of RFC 7230 §6.3. The reader also tells whether a
//! client that closes was between requests
//! ([`RequestReader::between_requests`]). Responses are either fully
//! buffered with an exact `Content-Length` or streamed with RFC 7230
//! §4.1 chunked `Transfer-Encoding` ([`ResponseBody`]), and one head
//! writer and one chunk framer write them, whether in one blocking call
//! ([`Response::write_to`]) or resumably ([`ResponseWriter`]).
//!
//! [`read_request`] and [`RequestReader`] are generic over [`Read`] so
//! the proptest suite can drive them with arbitrary in-memory bytes —
//! the same code path the TCP socket uses. [`ResponseReader`] is the
//! matching minimal *client* (used by the benches, examples and
//! integration tests): it parses one response per call, de-chunking
//! streamed bodies, and keeps bytes read past a response's end for the
//! next call — which is what lets one reader serve a keep-alive
//! connection.

use std::io::{Read, Write};

/// Request methods the service understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// The HTTP protocol versions the service accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`: connections close by default, chunked responses are
    /// not available (bodies are buffered with a `Content-Length`).
    Http10,
    /// `HTTP/1.1`: connections persist by default, responses may stream
    /// with chunked `Transfer-Encoding`.
    Http11,
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request target exactly as sent (always starts with `/`).
    pub target: String,
    /// The protocol version of the request line.
    pub version: Version,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of the first header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether this request asks for the connection to stay open after
    /// the response (RFC 7230 §6.3): HTTP/1.1 defaults to keep-alive
    /// unless a `Connection` header lists `close`; HTTP/1.0 defaults to
    /// close unless one lists `keep-alive` (and none lists `close`).
    pub fn keep_alive(&self) -> bool {
        let mut close = false;
        let mut keep = false;
        for (name, value) in &self.headers {
            if name == "connection" {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep = true;
                    }
                }
            }
        }
        match self.version {
            Version::Http11 => !close,
            Version::Http10 => keep && !close,
        }
    }
}

/// The value of the first header in `headers` with the given (lowercase)
/// name: the one lookup behind [`Request::header`] and
/// [`ClientResponse::header`].
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Hard input limits enforced while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (before the blank line).
    pub max_head_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum body bytes (`Content-Length` above this is rejected with
    /// 413 before any body byte is read).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Typed request-parse failures. Each maps to a response status via
/// [`HttpError::status`]; none of them is ever a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed (or an in-memory buffer ended) before a
    /// complete request was read.
    Incomplete,
    /// The request line is not `METHOD SP TARGET SP VERSION CRLF` (a
    /// bare LF ends it too early).
    BadRequestLine,
    /// The method is a valid token but not one the service supports.
    UnsupportedMethod,
    /// The HTTP version is not 1.0 or 1.1.
    UnsupportedVersion,
    /// A header line is malformed (missing colon, bad name token,
    /// control bytes, obsolete line folding, a bare LF).
    BadHeader,
    /// Request line + headers exceed [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// More header fields than [`Limits::max_headers`].
    TooManyHeaders,
    /// `Content-Length` is unparsable or two copies disagree.
    BadContentLength,
    /// `Content-Length` exceeds [`Limits::max_body_bytes`], or the
    /// request's end offset would overflow `usize`.
    BodyTooLarge,
    /// A `Transfer-Encoding` header was sent (chunked request bodies are
    /// not implemented; rejecting beats mis-framing).
    UnsupportedTransferEncoding,
    /// An I/O failure while reading (timeouts surface here: `TimedOut` /
    /// `WouldBlock` map to 408, so a stalled or slow-trickling client
    /// gets a typed Request Timeout).
    Io(std::io::ErrorKind),
}

impl HttpError {
    /// The response status this failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Incomplete
            | HttpError::BadRequestLine
            | HttpError::BadHeader
            | HttpError::BadContentLength => 400,
            HttpError::UnsupportedMethod => 405,
            HttpError::UnsupportedVersion => 505,
            HttpError::HeadTooLarge | HttpError::TooManyHeaders => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::UnsupportedTransferEncoding => 501,
            HttpError::Io(kind) => match kind {
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => 408,
                _ => 400,
            },
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Incomplete => write!(f, "connection closed before request completed"),
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::UnsupportedMethod => write!(f, "method not allowed"),
            HttpError::UnsupportedVersion => write!(f, "unsupported HTTP version"),
            HttpError::BadHeader => write!(f, "malformed header"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::TooManyHeaders => write!(f, "too many headers"),
            HttpError::BadContentLength => write!(f, "invalid content-length"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding not supported")
            }
            HttpError::Io(kind) => match kind {
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                    write!(f, "timed out reading request")
                }
                _ => write!(f, "i/o failure reading request: {kind:?}"),
            },
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads a sequence of requests from one connection, enforcing `limits`
/// per request and carrying bytes that arrive past one request's body
/// over to the next (keep-alive and pipelining).
///
/// Generic over [`Read`] so arbitrary byte streams (the proptest sweep)
/// exercise exactly the code path real sockets do.
#[derive(Debug)]
pub struct RequestReader<R> {
    reader: R,
    carry: Vec<u8>,
    /// Whether any byte of the next request has been read or carried
    /// over ([`RequestReader::between_requests`]).
    started: bool,
}

impl<R> RequestReader<R> {
    /// Wraps `reader`.
    pub fn new(reader: R) -> Self {
        RequestReader {
            reader,
            carry: Vec::new(),
            started: false,
        }
    }

    /// Whether no byte of the next request has arrived: none carried
    /// past the last request returned and none read since, an empty line
    /// the parser skips included. A peer closing now has sent nothing to
    /// answer.
    pub fn between_requests(&self) -> bool {
        !self.started
    }
}

impl<R: Read> RequestReader<R> {
    /// Reads once from the underlying reader, at most `max` bytes, into
    /// the carry buffer; the peer closing first leaves the request
    /// [`HttpError::Incomplete`].
    fn read_more(&mut self, max: usize) -> Result<(), HttpError> {
        let mut tmp = [0u8; 1024];
        let want = max.min(tmp.len());
        let n = self
            .reader
            .read(&mut tmp[..want])
            .map_err(|e| HttpError::Io(e.kind()))?;
        if n == 0 {
            return Err(HttpError::Incomplete);
        }
        self.started = true;
        self.carry.extend_from_slice(&tmp[..n]);
        Ok(())
    }

    /// Reads and parses the next request on the connection. Returns a
    /// typed [`HttpError`] on any malformed, oversized, truncated or
    /// unsupported input — never panics. After an error the carried
    /// buffer is unreliable (framing is lost); the connection must be
    /// closed.
    pub fn next_request(&mut self, limits: &Limits) -> Result<Request, HttpError> {
        // Read until the blank line terminating the head, bounded by
        // max_head_bytes (+3 so a terminator straddling the cap parses).
        let head_end = loop {
            // RFC 7230 §3.5 robustness: ignore empty line(s) received
            // prior to the request line (e.g. a client that terminates
            // each request frame with an extra CRLF).
            while self.carry.starts_with(b"\r\n") {
                self.carry.drain(..2);
            }
            if let Some(pos) = find_head_end(&self.carry)? {
                if pos > limits.max_head_bytes {
                    return Err(HttpError::HeadTooLarge);
                }
                break pos;
            }
            if self.carry.len() > limits.max_head_bytes.saturating_add(3) {
                return Err(HttpError::HeadTooLarge);
            }
            self.read_more(usize::MAX)?;
        };
        let mut request = parse_head(&self.carry[..head_end], limits)?;

        if request.header("transfer-encoding").is_some() {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
        let content_length = content_length(&request.headers)?;
        if content_length > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }

        // Read exactly Content-Length body bytes past the head; anything
        // after them stays in the carry buffer as the next request.
        let body_start = head_end + 4;
        // An operator may lift `max_body_bytes` to `usize::MAX`, so the
        // untrusted length can still overflow the frame end.
        let frame_end = body_start
            .checked_add(content_length)
            .ok_or(HttpError::BodyTooLarge)?;
        while self.carry.len() < frame_end {
            self.read_more(frame_end - self.carry.len())?;
        }
        let rest = self.carry.split_off(frame_end);
        let frame = std::mem::replace(&mut self.carry, rest);
        request.body = frame.get(body_start..).unwrap_or(&[]).to_vec();
        self.started = !self.carry.is_empty();
        Ok(request)
    }
}

/// Reads and parses one request from `reader`, enforcing `limits`. The
/// one-shot convenience over [`RequestReader`]; bytes past the request's
/// body are discarded.
pub fn read_request<R: Read>(reader: &mut R, limits: &Limits) -> Result<Request, HttpError> {
    RequestReader::new(reader).next_request(limits)
}

/// Index of the `\r\n\r\n` head terminator, if buffered. A LF without a
/// CR before it, ahead of the terminator, can never end a head: it fails
/// at once, as a [`HttpError::BadRequestLine`] when it ends the request
/// line and a [`HttpError::BadHeader`] after that. Bytes past the
/// terminator (the body) are not scanned.
fn find_head_end(buf: &[u8]) -> Result<Option<usize>, HttpError> {
    let mut line_start = 0;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        if i == 0 || buf[i - 1] != b'\r' {
            return Err(if line_start == 0 {
                HttpError::BadRequestLine
            } else {
                HttpError::BadHeader
            });
        }
        if line_start > 0 && i == line_start + 1 {
            return Ok(Some(line_start - 2));
        }
        line_start = i + 1;
    }
    Ok(None)
}

/// Parses the request line and header lines (everything before the blank
/// line, CRLF separators) into a [`Request`] with an empty body.
fn parse_head(head: &[u8], limits: &Limits) -> Result<Request, HttpError> {
    let mut lines = split_crlf(head);
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    let (method, target, version) = parse_request_line(request_line)?;

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooManyHeaders);
        }
        headers.push(parse_header_line(line)?);
    }
    Ok(Request {
        method,
        target,
        version,
        headers,
        body: Vec::new(),
    })
}

/// Splits on `\r\n` exactly (a bare `\n` or stray `\r` stays inside the
/// line and is rejected by the per-line charset checks).
fn split_crlf(head: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = head;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        match rest.windows(2).position(|w| w == b"\r\n") {
            Some(pos) => {
                let line = &rest[..pos];
                rest = rest.get(pos + 2..).unwrap_or(&[]);
                Some(line)
            }
            None => {
                let line = rest;
                rest = &[];
                Some(line)
            }
        }
    })
}

fn parse_request_line(line: &[u8]) -> Result<(Method, String, Version), HttpError> {
    let mut parts = line.split(|&b| b == b' ');
    let method = parts.next().ok_or(HttpError::BadRequestLine)?;
    let target = parts.next().ok_or(HttpError::BadRequestLine)?;
    let version = parts.next().ok_or(HttpError::BadRequestLine)?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequestLine);
    }

    if method.is_empty() || !method.iter().all(|&b| is_token_byte(b)) {
        return Err(HttpError::BadRequestLine);
    }
    let method = match method {
        b"GET" => Method::Get,
        b"POST" => Method::Post,
        _ => return Err(HttpError::UnsupportedMethod),
    };

    if target.first() != Some(&b'/') || !target.iter().all(|&b| (0x21..=0x7E).contains(&b)) {
        return Err(HttpError::BadRequestLine);
    }
    let target = String::from_utf8(target.to_vec()).map_err(|_| HttpError::BadRequestLine)?;

    match version {
        b"HTTP/1.1" => Ok((method, target, Version::Http11)),
        b"HTTP/1.0" => Ok((method, target, Version::Http10)),
        v if v.starts_with(b"HTTP/") => Err(HttpError::UnsupportedVersion),
        _ => Err(HttpError::BadRequestLine),
    }
}

fn parse_header_line(line: &[u8]) -> Result<(String, String), HttpError> {
    // Obsolete line folding (continuation lines starting with SP/HTAB)
    // is rejected outright, as RFC 7230 recommends for new parsers.
    if matches!(line.first(), Some(b' ' | b'\t')) {
        return Err(HttpError::BadHeader);
    }
    let colon = line
        .iter()
        .position(|&b| b == b':')
        .ok_or(HttpError::BadHeader)?;
    let name = &line[..colon];
    if name.is_empty() || !name.iter().all(|&b| is_token_byte(b)) {
        return Err(HttpError::BadHeader);
    }
    let value = trim_ows(line.get(colon + 1..).unwrap_or(&[]));
    if !value
        .iter()
        .all(|&b| b == b'\t' || (0x20..=0x7E).contains(&b) || b >= 0x80)
    {
        return Err(HttpError::BadHeader);
    }
    let name = String::from_utf8_lossy(name).to_ascii_lowercase();
    let value = String::from_utf8_lossy(value).into_owned();
    Ok((name, value))
}

/// `tchar` from RFC 7230 §3.2.6.
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

fn trim_ows(mut bytes: &[u8]) -> &[u8] {
    while matches!(bytes.first(), Some(b' ' | b'\t')) {
        bytes = &bytes[1..];
    }
    while matches!(bytes.last(), Some(b' ' | b'\t')) {
        bytes = &bytes[..bytes.len() - 1];
    }
    bytes
}

fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut length: Option<usize> = None;
    for (name, value) in headers {
        if name == "content-length" {
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::BadContentLength);
            }
            let parsed: usize = value.parse().map_err(|_| HttpError::BadContentLength)?;
            match length {
                Some(existing) if existing != parsed => {
                    return Err(HttpError::BadContentLength);
                }
                _ => length = Some(parsed),
            }
        }
    }
    Ok(length.unwrap_or(0))
}

/// A pull-based producer of response body chunks: each call yields the
/// next block of bytes, `None` when the body is complete.
pub type ChunkSource = Box<dyn FnMut() -> Option<Vec<u8>> + Send>;

/// How a response body is framed on the wire.
pub enum ResponseBody {
    /// The whole body up front: written with an exact `Content-Length`.
    Buffered(Vec<u8>),
    /// A lazily-produced body: written with RFC 7230 §4.1 chunked
    /// `Transfer-Encoding`, one wire chunk per yielded block, flushed as
    /// produced so the first byte leaves before the last row is
    /// generated. Empty blocks are skipped (a zero-length wire chunk
    /// would terminate the body early).
    Chunked(ChunkSource),
}

impl std::fmt::Debug for ResponseBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResponseBody::Buffered(bytes) => f.debug_tuple("Buffered").field(&bytes.len()).finish(),
            ResponseBody::Chunked(_) => f.debug_tuple("Chunked").field(&"..").finish(),
        }
    }
}

/// One HTTP response. Buffered bodies are written with an exact
/// `Content-Length`; chunked bodies stream with `Transfer-Encoding:
/// chunked`. The `Connection` header is decided at write time by the
/// connection state machine ([`Response::write_to`]'s `keep_alive`).
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Additional response headers (e.g. the privacy-budget trailers).
    pub extra_headers: Vec<(String, String)>,
    /// The response body.
    pub body: ResponseBody,
}

impl Response {
    /// A JSON response from an already-serialized deterministic body.
    pub fn json(status: u16, body: &crate::json::Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: ResponseBody::Buffered(body.to_string().into_bytes()),
        }
    }

    /// A 200 response streaming `source`'s blocks with chunked
    /// `Transfer-Encoding`.
    pub fn chunked(content_type: &'static str, source: ChunkSource) -> Response {
        Response {
            status: 200,
            content_type,
            extra_headers: Vec::new(),
            body: ResponseBody::Chunked(source),
        }
    }

    /// Adds a response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Drains a chunked body into a buffered one (for HTTP/1.0 clients,
    /// which cannot parse chunked `Transfer-Encoding`, and for bodies
    /// that need a `Content-Length`). Buffered bodies are returned
    /// unchanged.
    pub fn into_buffered(mut self) -> Response {
        if let ResponseBody::Chunked(source) = &mut self.body {
            let mut bytes = Vec::new();
            while let Some(block) = source() {
                bytes.extend_from_slice(&block);
            }
            self.body = ResponseBody::Buffered(bytes);
        }
        self
    }

    /// The one head writer: the status line, `Content-Type`, the body's
    /// framing header (`Content-Length` or `Transfer-Encoding: chunked`),
    /// `Connection` (`keep-alive` when the connection will serve another
    /// request, `close` when it won't), the extra headers and the blank
    /// line that ends the head.
    fn write_head<W: Write>(&self, out: &mut W, keep_alive: bool) -> std::io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
        )?;
        match &self.body {
            ResponseBody::Buffered(bytes) => write!(out, "Content-Length: {}\r\n", bytes.len())?,
            ResponseBody::Chunked(_) => out.write_all(b"Transfer-Encoding: chunked\r\n")?,
        }
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(out, "Connection: {connection}\r\n")?;
        for (name, value) in &self.extra_headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.write_all(b"\r\n")
    }

    /// Serializes the status line, headers and body to a blocking
    /// `writer`, leaving a buffered body in place (the same response can
    /// be written again).
    ///
    /// `keep_alive` decides the `Connection` header. A chunked body is
    /// framed per RFC 7230 §4.1 and flushed block by block, so a client
    /// sees the first rows while later ones are still being generated;
    /// any write failure aborts the stream (the framing is unrecoverable
    /// mid-body, so the caller must close the connection).
    pub fn write_to<W: Write>(&mut self, writer: &mut W, keep_alive: bool) -> std::io::Result<()> {
        self.write_head(writer, keep_alive)?;
        match &mut self.body {
            ResponseBody::Buffered(bytes) => writer.write_all(bytes)?,
            ResponseBody::Chunked(source) => {
                writer.flush()?;
                while write_chunk(source, writer)? {
                    writer.flush()?;
                }
            }
        }
        writer.flush()
    }
}

/// The one chunk framer: writes `source`'s next non-empty block to `out`
/// as an RFC 7230 §4.1 chunk (hex size line, data, CRLF) and returns
/// `true`, or, once the source is drained, writes the `0\r\n\r\n`
/// terminator and returns `false`. Empty blocks are skipped: a zero-size
/// chunk would end the body early.
fn write_chunk<W: Write>(source: &mut ChunkSource, out: &mut W) -> std::io::Result<bool> {
    while let Some(block) = source() {
        if !block.is_empty() {
            write!(out, "{:x}\r\n", block.len())?;
            out.write_all(&block)?;
            out.write_all(b"\r\n")?;
            return Ok(true);
        }
    }
    out.write_all(b"0\r\n\r\n")?;
    Ok(false)
}

/// Progress of a resumable response write ([`ResponseWriter::write_some`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// The entire response — head, body and (for chunked bodies) the
    /// terminator — has been written.
    Complete,
    /// The writer returned `WouldBlock`; call
    /// [`ResponseWriter::write_some`] again when the socket is writable.
    Blocked,
}

/// A resumable serializer for one [`Response`] over a nonblocking
/// writer: the reactor's nonblocking counterpart of [`Response::write_to`].
///
/// `write_to` assumes a blocking socket — a slow reader parks the
/// calling thread inside `write`. `ResponseWriter` instead makes
/// incremental progress: [`ResponseWriter::write_some`] writes until the
/// writer reports `WouldBlock`, then returns [`WriteProgress::Blocked`]
/// so the caller can park the *connection* (waiting for `POLLOUT`)
/// rather than a thread. Chunked sources are pulled lazily — the next
/// block is generated only after the previous one has been handed to the
/// socket, preserving the bounded-memory streaming property.
///
/// The wire bytes are identical to what [`Response::write_to`] produces
/// for the same response and `keep_alive` flag by construction: both
/// frame through the same head writer and chunk framer.
pub struct ResponseWriter {
    /// Bytes framed and awaiting the socket (head, then one framed chunk
    /// at a time for chunked bodies).
    pending: Vec<u8>,
    /// How much of `pending` has been written.
    pos: usize,
    /// The remaining chunk source; `None` once the terminator is framed
    /// (or for buffered bodies, from the start).
    source: Option<ChunkSource>,
}

impl std::fmt::Debug for ResponseWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseWriter")
            .field("pending", &self.pending.len())
            .field("pos", &self.pos)
            .field("streaming", &self.source.is_some())
            .finish()
    }
}

impl ResponseWriter {
    /// Frames `response`'s head (and, for buffered bodies, the whole
    /// body) and takes ownership of a chunked body's source.
    pub fn new(response: Response, keep_alive: bool) -> ResponseWriter {
        let mut pending = Vec::with_capacity(256);
        // Writes into a Vec cannot fail; the result is discarded so this
        // stays panic-free on the D4 surface.
        let _ = response.write_head(&mut pending, keep_alive);
        let source = match response.body {
            ResponseBody::Buffered(bytes) => {
                pending.extend_from_slice(&bytes);
                None
            }
            ResponseBody::Chunked(source) => Some(source),
        };
        ResponseWriter {
            pending,
            pos: 0,
            source,
        }
    }

    /// Writes as much of the response as `writer` accepts. Returns
    /// [`WriteProgress::Blocked`] on `WouldBlock` (resume on the next
    /// writability event), [`WriteProgress::Complete`] when the response
    /// has been fully written, or the underlying error (the connection
    /// must then be closed — mid-body framing is unrecoverable).
    pub fn write_some<W: Write>(&mut self, writer: &mut W) -> std::io::Result<WriteProgress> {
        loop {
            while self.pos < self.pending.len() {
                match writer.write(&self.pending[self.pos..]) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WriteZero,
                            "socket accepted no bytes",
                        ));
                    }
                    Ok(n) => self.pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Ok(WriteProgress::Blocked);
                    }
                    Err(e) => return Err(e),
                }
            }
            if !self.pending.is_empty() {
                self.pending.clear();
                self.pos = 0;
                // Mirror write_to's per-block flush (a no-op on raw
                // sockets, meaningful under buffered writers).
                writer.flush()?;
            }
            let Some(source) = &mut self.source else {
                return Ok(WriteProgress::Complete);
            };
            // Frame the next block; a drained source frames the
            // terminator instead and ends the stream.
            if !write_chunk(source, &mut self.pending)? {
                self.source = None;
            }
        }
    }
}

/// The canonical reason phrase for the status codes this service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// Upper bound on a response body the minimal client ([`ResponseReader`])
/// will buffer — the client-side analogue of [`Limits::max_body_bytes`],
/// sized for the largest sampling response the server can emit
/// (`max_rows` rows) with headroom. A `Content-Length` or accumulated
/// chunk total past this is a malformed-response error, so a hostile or
/// buggy server cannot drive unbounded allocation.
pub const MAX_CLIENT_BODY_BYTES: usize = 256 * 1024 * 1024;

/// One response as seen by the minimal client ([`ResponseReader`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The de-framed body: de-chunked when the response streamed, exact
    /// `Content-Length` bytes when it was buffered.
    pub body: Vec<u8>,
    /// Whether the body arrived with chunked `Transfer-Encoding`.
    pub chunked: bool,
}

impl ClientResponse {
    /// The value of the first header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// The minimal framed-response client used by the benches, examples and
/// integration tests: parses one response per call — status line,
/// headers, then a `Content-Length` or chunked body. Bytes read past a
/// response's end (it reads in blocks) stay buffered for the next call,
/// so one reader must serve the whole keep-alive connection; a fresh
/// reader on the same stream would miss them. Malformed responses are
/// [`std::io::ErrorKind::InvalidData`] errors, never panics.
#[derive(Debug)]
pub struct ResponseReader<R> {
    reader: R,
    carry: Vec<u8>,
}

impl<R: Read> ResponseReader<R> {
    /// Wraps `reader`.
    pub fn new(reader: R) -> Self {
        ResponseReader {
            reader,
            carry: Vec::new(),
        }
    }

    /// Reads and parses the next response on the connection. Bodies are
    /// bounded by [`MAX_CLIENT_BODY_BYTES`] — like the request parser,
    /// the client never lets the peer drive unbounded allocation.
    pub fn next_response(&mut self) -> std::io::Result<ClientResponse> {
        let head_end = self.fill_until_terminator()?;
        let head: Vec<u8> = self.carry.drain(..head_end + 4).take(head_end).collect();
        let mut lines = split_crlf(&head);
        let status = lines
            .next()
            .and_then(parse_status_code)
            .ok_or_else(bad_response)?;
        let mut headers = Vec::new();
        for line in lines {
            headers.push(parse_header_line(line).map_err(|_| bad_response())?);
        }

        let chunked = headers.iter().any(|(n, v)| {
            n == "transfer-encoding"
                && v.split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("chunked"))
        });
        let body = if chunked {
            self.read_chunked_body()?
        } else {
            let length = content_length(&headers).map_err(|_| bad_response())?;
            if length > MAX_CLIENT_BODY_BYTES {
                return Err(bad_response());
            }
            self.fill_to(length)?;
            self.carry.drain(..length).collect()
        };
        Ok(ClientResponse {
            status,
            headers,
            body,
            chunked,
        })
    }

    /// Reads once into `tmp` and appends what arrived to the carry
    /// buffer; the peer closing first is an `UnexpectedEof` with
    /// `cut_short` as its message.
    fn read_more(&mut self, tmp: &mut [u8], cut_short: &'static str) -> std::io::Result<()> {
        let n = self.reader.read(tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                cut_short,
            ));
        }
        self.carry.extend_from_slice(&tmp[..n]);
        Ok(())
    }

    /// Reads until the carry buffer holds a `\r\n\r\n`; returns its
    /// index. A bare LF ahead of it is a malformed response.
    fn fill_until_terminator(&mut self) -> std::io::Result<usize> {
        let mut tmp = [0u8; 1024];
        loop {
            if let Some(pos) = find_head_end(&self.carry).map_err(|_| bad_response())? {
                return Ok(pos);
            }
            if self.carry.len() > 1024 * 1024 {
                return Err(bad_response());
            }
            self.read_more(&mut tmp, "connection closed mid-response")?;
        }
    }

    /// Reads until the carry buffer holds at least `len` bytes.
    fn fill_to(&mut self, len: usize) -> std::io::Result<()> {
        let mut tmp = [0u8; 4096];
        while self.carry.len() < len {
            let want = (len - self.carry.len()).min(tmp.len());
            self.read_more(&mut tmp[..want], "connection closed mid-body")?;
        }
        Ok(())
    }

    /// Reads the next CRLF-terminated line from the carry buffer.
    fn read_line(&mut self) -> std::io::Result<Vec<u8>> {
        let mut tmp = [0u8; 256];
        loop {
            if let Some(pos) = self.carry.windows(2).position(|w| w == b"\r\n") {
                let line: Vec<u8> = self.carry.drain(..pos + 2).take(pos).collect();
                return Ok(line);
            }
            if self.carry.len() > 16 * 1024 {
                return Err(bad_response());
            }
            self.read_more(&mut tmp, "connection closed mid-chunk")?;
        }
    }

    /// De-chunks an RFC 7230 §4.1 body: hex size lines, chunk data, a
    /// zero-size terminator (chunk extensions and trailers rejected —
    /// this server never emits them). The accumulated body is bounded
    /// by [`MAX_CLIENT_BODY_BYTES`].
    fn read_chunked_body(&mut self) -> std::io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let size = parse_chunk_size(&self.read_line()?).ok_or_else(bad_response)?;
            if size > MAX_CLIENT_BODY_BYTES.saturating_sub(body.len()) {
                return Err(bad_response());
            }
            if size == 0 {
                // The terminating CRLF after the zero chunk.
                let end = self.read_line()?;
                if !end.is_empty() {
                    return Err(bad_response());
                }
                return Ok(body);
            }
            self.fill_to(size + 2)?;
            body.extend(self.carry.drain(..size));
            let crlf: Vec<u8> = self.carry.drain(..2).collect();
            if crlf != b"\r\n" {
                return Err(bad_response());
            }
        }
    }
}

/// The status code of an `HTTP/1.x SP status-code SP reason` line:
/// exactly three ASCII digits, with no sign or padding.
fn parse_status_code(line: &[u8]) -> Option<u16> {
    let mut parts = line.splitn(3, |&b| b == b' ');
    let (version, code) = (parts.next()?, parts.next()?);
    if !version.starts_with(b"HTTP/1.") || code.len() != 3 || !code.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(code).ok()?.parse().ok()
}

/// A chunk-size line: one or more bare hex digits (no sign, padding or
/// chunk extension) whose value fits a `usize`.
fn parse_chunk_size(line: &[u8]) -> Option<usize> {
    if line.is_empty() || !line.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    usize::from_str_radix(std::str::from_utf8(line).ok()?, 16).ok()
}

fn bad_response() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed http response")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_get_request() {
        let req = parse(b"GET /models HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/models");
        assert_eq!(req.version, Version::Http11);
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /models/m/sample HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"seed\":1}")
                .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.target, "/models/m/sample");
        assert_eq!(req.body, b"{\"seed\":1}");
        // The one-shot helper ignores bytes past Content-Length.
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nokEXTRA").unwrap();
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn empty_lines_before_a_request_line_are_ignored() {
        // RFC 7230 §3.5: a stray CRLF before the request line (e.g. a
        // client terminating each frame with an extra CRLF) must not
        // poison the next keep-alive request.
        let req = parse(b"\r\nGET /models HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.target, "/models");
        let bytes =
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nok\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
                .to_vec();
        let mut reader = RequestReader::new(Cursor::new(bytes));
        assert_eq!(
            reader.next_request(&Limits::default()).unwrap().target,
            "/a"
        );
        assert_eq!(
            reader.next_request(&Limits::default()).unwrap().target,
            "/b"
        );
    }

    #[test]
    fn client_reader_refuses_unbounded_bodies() {
        // A Content-Length past the client cap is rejected before any
        // body byte is buffered.
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_CLIENT_BODY_BYTES + 1
        );
        let err = ResponseReader::new(Cursor::new(wire.into_bytes()))
            .next_response()
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // So is a chunk-size line claiming an absurd chunk.
        let wire =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffff\r\n".to_vec();
        let err = ResponseReader::new(Cursor::new(wire))
            .next_response()
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn request_reader_carries_pipelined_requests_across_calls() {
        let bytes =
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nokGET /b HTTP/1.1\r\n\r\n".to_vec();
        let mut reader = RequestReader::new(Cursor::new(bytes));
        let first = reader.next_request(&Limits::default()).unwrap();
        assert_eq!(
            (first.target.as_str(), first.body.as_slice()),
            ("/a", &b"ok"[..])
        );
        assert!(
            !reader.between_requests(),
            "second request should be buffered"
        );
        let second = reader.next_request(&Limits::default()).unwrap();
        assert_eq!(second.target, "/b");
        assert_eq!(second.method, Method::Get);
        assert!(reader.between_requests());
        assert_eq!(
            reader.next_request(&Limits::default()).unwrap_err(),
            HttpError::Incomplete
        );
    }

    #[test]
    fn keep_alive_follows_rfc_7230_connection_semantics() {
        let ka = |raw: &[u8]| parse(raw).unwrap().keep_alive();
        // HTTP/1.1 defaults to keep-alive; `close` opts out.
        assert!(ka(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(!ka(
            b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"
        ));
        // HTTP/1.0 defaults to close; `keep-alive` opts in.
        assert!(!ka(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
    }

    #[test]
    fn header_names_are_lowercased_and_values_trimmed() {
        let req = parse(b"GET / HTTP/1.1\r\nX-Thing:   spaced value  \r\n\r\n").unwrap();
        assert_eq!(req.header("x-thing"), Some("spaced value"));
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET /\x01 HTTP/1.1\r\n\r\n",
            b"G@T / HTTP/1.1\r\n\r\n",
            b"GET / FTP/1.1\r\n\r\n",
        ] {
            assert_eq!(parse(bad).unwrap_err().status(), 400, "{bad:?}");
        }
        assert_eq!(
            parse(b"PUT / HTTP/1.1\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedMethod
        );
        assert_eq!(
            parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedVersion
        );
    }

    #[test]
    fn malformed_headers_are_rejected() {
        for bad in [
            &b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
            b"GET / HTTP/1.1\r\nA: ok\r\n folded\r\n\r\n",
            b"GET / HTTP/1.1\r\nA: bad\x01byte\r\n\r\n",
        ] {
            assert_eq!(parse(bad).unwrap_err(), HttpError::BadHeader, "{bad:?}");
        }
    }

    #[test]
    fn content_length_abuse_is_rejected() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx")
                .unwrap_err(),
            HttpError::BadContentLength
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n").unwrap_err(),
            HttpError::BadContentLength
        );
        // Over the body cap: rejected before reading any body byte.
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            Limits::default().max_body_bytes + 1
        );
        assert_eq!(parse(huge.as_bytes()).unwrap_err(), HttpError::BodyTooLarge);
        // Duplicate but equal values are fine.
        assert!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok").is_ok()
        );
    }

    #[test]
    fn bare_lf_heads_are_rejected_at_once() {
        // A LF without its CR never completes a head, so the reader answers
        // as soon as one is buffered rather than waiting for more bytes.
        for (head, want) in [
            (
                &b"GET / HTTP/1.1\nHost: t\n\n"[..],
                HttpError::BadRequestLine,
            ),
            (b"GET / HTTP/1.1\n", HttpError::BadRequestLine),
            (b"\nGET / HTTP/1.1\r\n\r\n", HttpError::BadRequestLine),
            (b"GET / HTTP/1.1\r\nHost: t\n\r\n", HttpError::BadHeader),
            (b"GET / HTTP/1.1\r\nHost: t\r\nA: b\n", HttpError::BadHeader),
        ] {
            assert_eq!(parse(head).unwrap_err(), want, "{head:?}");
        }
        // Body bytes are not head bytes.
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\na\nb").unwrap();
        assert_eq!(req.body, b"a\nb");
    }

    #[test]
    fn truncated_requests_are_incomplete() {
        for bad in [
            &b""[..],
            b"GET / HT",
            b"GET / HTTP/1.1\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
        ] {
            assert_eq!(parse(bad).unwrap_err(), HttpError::Incomplete, "{bad:?}");
        }
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let limits = Limits {
            max_head_bytes: 128,
            ..Limits::default()
        };
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(256));
        assert_eq!(
            read_request(&mut Cursor::new(big.into_bytes()), &limits).unwrap_err(),
            HttpError::HeadTooLarge
        );
        // A stream that never terminates its head is also cut off at the cap.
        let endless = vec![b'A'; 4096];
        assert_eq!(
            read_request(&mut Cursor::new(endless), &limits).unwrap_err(),
            HttpError::HeadTooLarge
        );
    }

    #[test]
    fn maximal_operator_limits_do_not_overflow() {
        let limits = Limits {
            max_head_bytes: usize::MAX,
            max_headers: usize::MAX,
            max_body_bytes: usize::MAX,
        };
        // A 2 KB head spans several 1 KB reads before its terminator.
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(2048));
        let req = read_request(&mut Cursor::new(big.into_bytes()), &limits).unwrap();
        assert_eq!(req.header("x-pad").map(str::len), Some(2048));
        // No body cap left to stop it: the frame end itself overflows.
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(
            read_request(&mut Cursor::new(huge.into_bytes()), &limits).unwrap_err(),
            HttpError::BodyTooLarge
        );
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let mut req = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            req.push_str(&format!("H{i}: v\r\n"));
        }
        req.push_str("\r\n");
        assert_eq!(
            parse(req.as_bytes()).unwrap_err(),
            HttpError::TooManyHeaders
        );
    }

    #[test]
    fn transfer_encoding_is_rejected_not_misframed() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            HttpError::UnsupportedTransferEncoding
        );
    }

    #[test]
    fn every_error_maps_to_a_4xx_or_5xx_status() {
        for e in [
            HttpError::Incomplete,
            HttpError::BadRequestLine,
            HttpError::UnsupportedMethod,
            HttpError::UnsupportedVersion,
            HttpError::BadHeader,
            HttpError::HeadTooLarge,
            HttpError::TooManyHeaders,
            HttpError::BadContentLength,
            HttpError::BodyTooLarge,
            HttpError::UnsupportedTransferEncoding,
            HttpError::Io(std::io::ErrorKind::TimedOut),
            HttpError::Io(std::io::ErrorKind::ConnectionReset),
        ] {
            let status = e.status();
            assert!((400..=599).contains(&status), "{e:?} -> {status}");
            assert!(!e.to_string().is_empty());
            assert_ne!(reason_phrase(status), "");
        }
        // The request-timeout path is a typed 408.
        assert_eq!(HttpError::Io(std::io::ErrorKind::TimedOut).status(), 408);
        assert_eq!(HttpError::Io(std::io::ErrorKind::WouldBlock).status(), 408);
    }

    #[test]
    fn every_emitted_status_has_its_reason_phrase() {
        // 413 keeps RFC 7231's phrase, which RFC 9110 renamed "Content
        // Too Large"; 429 and 431 come from RFC 6585.
        for (status, phrase) in [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
            (408, "Request Timeout"),
            (413, "Payload Too Large"),
            (429, "Too Many Requests"),
            (431, "Request Header Fields Too Large"),
            (500, "Internal Server Error"),
            (501, "Not Implemented"),
            (503, "Service Unavailable"),
            (505, "HTTP Version Not Supported"),
        ] {
            assert_eq!(reason_phrase(status), phrase, "{status}");
        }
    }

    #[test]
    fn buffered_responses_serialize_with_exact_framing() {
        let mut resp = Response::json(200, &crate::json::Json::Bool(true))
            .with_header("x-p3gm-privacy", "(1.0, 1e-5)-DP");
        let mut out = Vec::new();
        resp.write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("x-p3gm-privacy: (1.0, 1e-5)-DP\r\n"));
        assert!(text.ends_with("\r\n\r\ntrue"));
        // Keep-alive flips only the Connection header.
        let mut resp = Response::json(200, &crate::json::Json::Bool(true));
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn chunked_responses_frame_blocks_and_terminate() {
        let blocks = vec![b"hello ".to_vec(), Vec::new(), b"world".to_vec()];
        let mut iter = blocks.into_iter();
        let mut resp = Response::chunked("text/csv", Box::new(move || iter.next()));
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Content-Length"));
        // 6-byte and 5-byte chunks; the empty block is skipped, not a
        // premature terminator.
        assert!(
            text.ends_with("6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n"),
            "{text}"
        );
    }

    #[test]
    fn client_reader_parses_buffered_and_chunked_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nTransfer-Encoding: chunked\r\n\
            Connection: keep-alive\r\n\r\n6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n\
            HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno";
        let mut client = ResponseReader::new(Cursor::new(wire.to_vec()));
        let first = client.next_response().unwrap();
        assert_eq!(first.status, 200);
        assert!(first.chunked);
        assert_eq!(first.body, b"hello world");
        assert_eq!(first.header("connection"), Some("keep-alive"));
        // The reader stopped exactly at the first response's end: the
        // second response on the same stream parses cleanly.
        let second = client.next_response().unwrap();
        assert_eq!(second.status, 404);
        assert!(!second.chunked);
        assert_eq!(second.body, b"no");
        assert!(client.next_response().is_err());
    }

    #[test]
    fn client_reader_round_trips_a_written_chunked_response() {
        let payload: Vec<u8> = (0u32..2048).map(|i| (i % 251) as u8).collect();
        let mut blocks = payload
            .chunks(97)
            .map(<[u8]>::to_vec)
            .collect::<Vec<_>>()
            .into_iter();
        let mut resp =
            Response::chunked("application/octet-stream", Box::new(move || blocks.next()));
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        let parsed = ResponseReader::new(Cursor::new(wire))
            .next_response()
            .unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, payload);
    }

    /// A writer that accepts at most `burst` bytes per call and returns
    /// `WouldBlock` on every other call — the worst-case slow reader.
    struct ChokeWriter {
        out: Vec<u8>,
        burst: usize,
        choked: bool,
    }

    impl Write for ChokeWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.choked = !self.choked;
            if self.choked {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "choked",
                ));
            }
            let n = buf.len().min(self.burst);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_chunked_response() -> Response {
        let blocks = vec![b"hello ".to_vec(), Vec::new(), b"world".to_vec()];
        let mut iter = blocks.into_iter();
        Response::chunked("text/csv", Box::new(move || iter.next()))
            .with_header("x-p3gm-privacy", "(1.0, 1e-5)-DP")
    }

    #[test]
    fn resumable_writer_matches_write_to_byte_for_byte() {
        // Buffered.
        let mk =
            || Response::json(429, &crate::json::Json::Bool(false)).with_header("x-extra", "v");
        for keep in [false, true] {
            let mut want = Vec::new();
            mk().write_to(&mut want, keep).unwrap();
            let mut got = Vec::new();
            let mut writer = ResponseWriter::new(mk(), keep);
            assert_eq!(
                writer.write_some(&mut got).unwrap(),
                WriteProgress::Complete
            );
            assert_eq!(got, want);
        }
        // Chunked (empty blocks skipped, terminator appended).
        let mut want = Vec::new();
        sample_chunked_response().write_to(&mut want, true).unwrap();
        let mut got = Vec::new();
        let mut writer = ResponseWriter::new(sample_chunked_response(), true);
        assert_eq!(
            writer.write_some(&mut got).unwrap(),
            WriteProgress::Complete
        );
        assert_eq!(got, want);
    }

    #[test]
    fn resumable_writer_survives_would_block() {
        let mut want = Vec::new();
        sample_chunked_response()
            .write_to(&mut want, false)
            .unwrap();
        let mut writer = ResponseWriter::new(sample_chunked_response(), false);
        let mut sink = ChokeWriter {
            out: Vec::new(),
            burst: 3,
            choked: false,
        };
        let mut blocked = 0usize;
        loop {
            match writer.write_some(&mut sink).unwrap() {
                WriteProgress::Complete => break,
                WriteProgress::Blocked => blocked += 1,
            }
            assert!(blocked < 10_000, "writer made no progress");
        }
        assert!(blocked > 0, "choke writer never blocked");
        assert_eq!(sink.out, want);
        // Resuming a completed writer is a no-op Complete.
        assert_eq!(
            writer.write_some(&mut sink).unwrap(),
            WriteProgress::Complete
        );
    }

    #[test]
    fn into_buffered_drains_a_chunked_body() {
        let mut blocks = vec![b"ab".to_vec(), b"cd".to_vec()].into_iter();
        let resp = Response::chunked("text/csv", Box::new(move || blocks.next()));
        let resp = resp.into_buffered();
        assert!(matches!(&resp.body, ResponseBody::Buffered(b) if b == b"abcd"));
        // A buffered body comes back unchanged.
        let resp = resp.into_buffered();
        assert!(matches!(&resp.body, ResponseBody::Buffered(b) if b == b"abcd"));
    }

    #[test]
    fn write_to_leaves_a_buffered_body_intact() {
        let mut resp = Response::json(200, &crate::json::Json::str("rows"))
            .with_header("x-p3gm-privacy", "(1.0, 1e-5)-DP");
        let (mut first, mut second) = (Vec::new(), Vec::new());
        resp.write_to(&mut first, true).unwrap();
        resp.write_to(&mut second, true).unwrap();
        assert!(first.ends_with(b"\r\n\r\n\"rows\""));
        assert_eq!(first, second);
    }

    #[test]
    fn between_requests_counts_every_byte_of_the_next_request() {
        let limits = Limits::default();
        // Nothing sent: a close here is clean.
        let mut reader = RequestReader::new(Cursor::new(Vec::new()));
        assert_eq!(reader.next_request(&limits), Err(HttpError::Incomplete));
        assert!(reader.between_requests());
        // A lone CRLF is skipped by the parser but still counts.
        let mut reader = RequestReader::new(Cursor::new(b"\r\n".to_vec()));
        assert_eq!(reader.next_request(&limits), Err(HttpError::Incomplete));
        assert!(!reader.between_requests());
        // Bytes carried past a returned request count until parsed, a
        // stray CRLF as much as the pipelined request of
        // `request_reader_carries_pipelined_requests_across_calls`.
        let mut reader = RequestReader::new(Cursor::new(b"GET /a HTTP/1.1\r\n\r\n\r\n".to_vec()));
        reader.next_request(&limits).unwrap();
        assert!(!reader.between_requests());
        assert_eq!(reader.next_request(&limits), Err(HttpError::Incomplete));
    }

    #[test]
    fn client_reader_requires_bare_hex_chunk_sizes() {
        for size in ["+4", " 4 ", "4 ", "-4", "0x4", "4;ext", ""] {
            let wire = format!(
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{size}\r\nabcd\r\n0\r\n\r\n"
            );
            let err = ResponseReader::new(Cursor::new(wire.into_bytes()))
                .next_response()
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{size:?}");
        }
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0004\r\nabcd\r\nA\r\n0123456789\r\n0\r\n\r\n";
        let parsed = ResponseReader::new(Cursor::new(wire.to_vec()))
            .next_response()
            .unwrap();
        assert_eq!(parsed.body, b"abcd0123456789");
    }

    #[test]
    fn client_reader_requires_a_three_digit_status_code() {
        for line in [
            "HTTP/1.1 +200 OK",
            "HTTP/1.1 20 OK",
            "HTTP/1.1 2000 OK",
            "HTTP/1.1  200 OK",
            "HTTP/1.1 2O0 OK",
            "HTTP/2 200 OK",
        ] {
            let wire = format!("{line}\r\nContent-Length: 0\r\n\r\n");
            let err = ResponseReader::new(Cursor::new(wire.into_bytes()))
                .next_response()
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{line:?}");
        }
        for (line, status) in [("HTTP/1.1 200 OK", 200), ("HTTP/1.0 404 Not Found", 404)] {
            let wire = format!("{line}\r\nContent-Length: 0\r\n\r\n");
            let parsed = ResponseReader::new(Cursor::new(wire.into_bytes()))
                .next_response()
                .unwrap();
            assert_eq!(parsed.status, status, "{line:?}");
        }
    }
}
