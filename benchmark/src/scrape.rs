//! The `live` workload's scrape client: one thread fetching `/metrics` and
//! `/health` alternately on a fixed host-time schedule while the
//! simulation runs, as a Prometheus scraper and a health checker would.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Host time between scrapes.
pub const PERIOD: Duration = Duration::from_millis(10);

/// A reply that takes longer than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(5);

/// What the client saw over one rep.
#[derive(Debug, Clone, Default)]
pub struct ScrapeLog {
    /// Latency of each successful scrape, from when it was due to the last
    /// byte of the reply, in ms (open loop: a late start counts).
    pub latency_ms: Vec<f64>,
    /// How late the client started its most delayed scrape, in ms.
    pub late_ms_max: f64,
    /// Scrapes that failed to connect, timed out or got a non-200 reply.
    pub failures: u64,
    /// Body sizes of the successful `/metrics` scrapes, in bytes.
    pub metrics_bytes: Vec<usize>,
}

impl ScrapeLog {
    /// Scrapes attempted.
    pub fn attempted(&self) -> u64 {
        self.latency_ms.len() as u64 + self.failures
    }
}

/// Scrape `addr` every [`PERIOD`] until `stop` is set. The caller unparks
/// this thread after setting `stop` so a sleeping client returns at once;
/// a scrape already in flight completes first.
pub fn scrape_until(addr: SocketAddr, stop: &AtomicBool) -> ScrapeLog {
    let mut log = ScrapeLog::default();
    let start = Instant::now();
    for tick in 0u32.. {
        let due = start + PERIOD * tick;
        loop {
            if stop.load(Ordering::SeqCst) {
                return log;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::park_timeout(due - now);
        }
        let late = due.elapsed();
        log.late_ms_max = log.late_ms_max.max(late.as_secs_f64() * 1e3);
        let path = if tick % 2 == 0 { "/metrics" } else { "/health" };
        match fetch(addr, path) {
            Some(body) => {
                log.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                if path == "/metrics" {
                    log.metrics_bytes.push(body.len());
                }
            }
            None => log.failures += 1,
        }
    }
    log
}

/// One `GET`; the body of a `200 OK` reply, or `None`.
fn fetch(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).ok()?;
    stream.set_read_timeout(Some(TIMEOUT)).ok()?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: benchmark\r\n\r\n").as_bytes())
        .ok()?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply).ok()?;
    let (head, body) = reply.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200 ").then(|| body.to_string())
}
