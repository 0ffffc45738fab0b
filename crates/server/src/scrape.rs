//! A standalone plaintext metrics scrape listener.
//!
//! Serves the telemetry registry in Prometheus text exposition format
//! over minimal HTTP/1.0, so a scraper (or `curl`) can poll the server
//! without speaking the SketchQL wire protocol. One thread accepts, one
//! short-lived thread per scrape, at most `MAX_SCRAPES` at once; every
//! request path answers with the full registry snapshot — there is
//! nothing else to route.
//!
//! The listener is independent of [`Server`](crate::Server): it can run
//! next to a wire server, next to a bare [`Engine`](crate::Engine), or
//! alone in a process that only uses the matcher directly.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sketchql_telemetry as telemetry;

/// How long a scrape connection may dribble its request before we give
/// up on it. Scrapers send one short request line; anything slower is
/// not worth a thread.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Most scrapes served at once. Each holds a thread for up to one
/// [`SCRAPE_TIMEOUT`] reading and one writing, so a connection accepted
/// past the cap is answered `503` and closed: a socket flood costs the
/// process a bounded number of threads.
const MAX_SCRAPES: usize = 32;

/// The reply to a connection past [`MAX_SCRAPES`].
const BUSY_REPLY: &[u8] =
    b"HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";

/// One in-flight scrape's share of the count; gives it back on drop —
/// when the scrape ends, panics, or its thread never spawned.
struct ScrapeSlot(Arc<AtomicUsize>);

impl Drop for ScrapeSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running metrics scrape endpoint.
///
/// Dropping the handle without calling [`MetricsListener::shutdown`]
/// leaves the accept thread running detached until the process exits;
/// call `shutdown` for a clean join.
pub struct MetricsListener {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsListener {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts answering scrapes.
    pub fn start(addr: &str) -> std::io::Result<MetricsListener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let accept_thread = {
            let running = Arc::clone(&running);
            let in_flight = Arc::new(AtomicUsize::new(0));
            std::thread::Builder::new()
                .name("sketchql-scrape".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if !running.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(mut stream) = stream else { continue };
                        // This loop is the only place the count grows, so
                        // a check-then-add cannot overshoot the cap.
                        if in_flight.load(Ordering::SeqCst) >= MAX_SCRAPES {
                            let _ = stream.write_all(BUSY_REPLY);
                            continue; // dropping the stream closes it
                        }
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        let slot = ScrapeSlot(Arc::clone(&in_flight));
                        let _ = std::thread::Builder::new()
                            .name("sketchql-scrape-conn".into())
                            .spawn(move || {
                                let _slot = slot;
                                serve_scrape(stream);
                            });
                    }
                })?
        };
        Ok(MetricsListener {
            local_addr,
            running,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting scrapes and joins the accept thread. In-flight
    /// scrape responses finish on their own threads.
    pub fn shutdown(mut self) {
        self.running.store(false, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it can observe the cleared running flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Answers one scrape: read the request line (and discard headers up to
/// the blank line, HTTP/1.0 style), then write the whole registry. Any
/// method or path gets the metrics — a scrape endpoint has one page.
fn serve_scrape(stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(SCRAPE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SCRAPE_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return;
    }
    // Drain headers so well-behaved HTTP clients see a clean exchange;
    // stop at the blank line or on any read problem.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    let body = telemetry::snapshot_prometheus();
    let mut writer = stream;
    let _ = write!(
        writer,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Instant;

    /// Everything `stream` receives until the listener closes it (or
    /// resets it: a refused scraper that already sent its request may see
    /// a reset instead of the reply, which reads as "not served").
    fn read_reply(mut stream: TcpStream) -> String {
        stream.set_read_timeout(Some(4 * SCRAPE_TIMEOUT)).unwrap();
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        reply
    }

    /// The scrape cap: with [`MAX_SCRAPES`] idle sockets held, the next
    /// connection is answered `503` at once and closed; once the held
    /// sockets time out, a scrape is served again.
    #[test]
    fn a_scrape_past_the_cap_is_answered_503() {
        let listener = MetricsListener::start("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let held: Vec<TcpStream> = (0..MAX_SCRAPES)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();

        let started = Instant::now();
        let reply = read_reply(TcpStream::connect(addr).unwrap());
        assert!(reply.starts_with("HTTP/1.0 503 "), "{reply:?}");
        assert!(
            started.elapsed() < SCRAPE_TIMEOUT,
            "the refusal waited on a scrape timeout"
        );

        let deadline = Instant::now() + 5 * SCRAPE_TIMEOUT;
        loop {
            let mut stream = TcpStream::connect(addr).unwrap();
            let _ = stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
            if read_reply(stream).starts_with("HTTP/1.0 200 OK") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no slot freed by timed-out sockets"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(held);
        listener.shutdown();
    }
}
