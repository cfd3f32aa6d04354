//! The benchmark's HTTP client: one request per write, framed reads
//! through the server crate's `ResponseReader`, and timestamps for the
//! first and last response byte.

use p3gm_server::http::{ClientResponse, ResponseReader};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A socket read half that stamps the instant its first byte arrives.
struct Stamped {
    stream: TcpStream,
    first_byte: Rc<Cell<Option<Instant>>>,
}

impl Read for Stamped {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        if n > 0 && self.first_byte.get().is_none() {
            self.first_byte.set(Some(Instant::now()));
        }
        Ok(n)
    }
}

/// One response with its timings, both measured from the moment the
/// request was fully written.
pub struct Timed {
    pub response: ClientResponse,
    pub latency: Duration,
    pub ttfb: Duration,
}

/// A persistent keep-alive connection.
pub struct Client {
    stream: TcpStream,
    reader: ResponseReader<Stamped>,
    first_byte: Rc<Cell<Option<Instant>>>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let first_byte = Rc::new(Cell::new(None));
        let reader = ResponseReader::new(Stamped {
            stream: stream.try_clone()?,
            first_byte: Rc::clone(&first_byte),
        });
        Ok(Client {
            stream,
            reader,
            first_byte,
        })
    }

    /// Sends one complete request and reads its response.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Timed> {
        self.first_byte.set(None);
        self.stream.write_all(request)?;
        let sent = Instant::now();
        let response = self.reader.next_response()?;
        let done = Instant::now();
        let first = self.first_byte.get().unwrap_or(done);
        Ok(Timed {
            response,
            latency: done - sent,
            ttfb: first.saturating_duration_since(sent),
        })
    }
}

/// One request on a fresh connection that the server closes afterwards.
pub fn one_shot(addr: SocketAddr, request: &[u8]) -> std::io::Result<ClientResponse> {
    let head_end = request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("request without a head terminator"))?;
    let mut closing = request[..head_end].to_vec();
    closing.extend_from_slice(b"\r\nConnection: close");
    closing.extend_from_slice(&request[head_end..]);
    Ok(Client::connect(addr)?.send(&closing)?.response)
}

/// `POST /models/{model}/sample` with a JSON body, as one buffer.
pub fn sample_request(model: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /models/{model}/sample HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A bodiless `GET`, as one buffer.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// The server's Prometheus exposition, fetched on a fresh connection.
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let response = one_shot(addr, &get_request("/metrics"))?;
    if response.status != 200 {
        return Err(std::io::Error::other(format!(
            "GET /metrics answered {}",
            response.status
        )));
    }
    String::from_utf8(response.body).map_err(std::io::Error::other)
}
