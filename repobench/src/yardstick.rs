//! A fixed yardstick of machine speed, timed between requests.
//!
//! The shared 2-core VM this benchmark was tuned on changes speed by
//! ±15–50% over minutes (see `README.md`, "Noise of this machine"), more
//! than the bounds a benchmark can hold. So a run times, every [`EVERY`]
//! of measured time, one chunk of fixed work that no crate of the
//! repository takes part in, and reports its timing metrics at the
//! yardstick's reference speed. A change to the program moves the
//! reported figure exactly as it moves the raw one; a slow spell of the
//! machine slows the program and the yardstick alike, and cancels.
//!
//! A chunk has two parts, because the machine's slow spells hit two
//! kinds of work differently, and the requests of the workloads mix
//! them in different shares:
//!
//! - *compute*: floating-point loops over histogram-sized arrays, then
//!   shortest round-trip formatting and parsing of floats. It scales
//!   the time the server's handler reports (`elapsed_us`).
//! - *wake-ups*: loopback TCP round trips through a second thread, a
//!   syscall and a wake-up each way. It scales the rest of a round trip
//!   (socket, reactor and worker hand-offs), which dominates requests
//!   of half a millisecond.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Measured time between two chunks.
pub const EVERY: Duration = Duration::from_millis(100);

/// Compute and wake-up part times, in ms, that the reported metrics are
/// expressed at: about what they took on the development VM.
pub const REFERENCE_MS: Speed = Speed {
    compute: 3.2,
    wake: 3.4,
};

/// Round trips through the echo thread per chunk.
const PINGS: usize = 100;

/// Reference time over measured time, per part: multiply a time by it to
/// express the time at reference speed.
#[derive(Clone, Copy, Debug)]
pub struct Speed {
    pub compute: f64,
    pub wake: f64,
}

impl Speed {
    /// A round trip of `rtt_s` seconds, of which the handler reported
    /// `handler_s`, at reference speed.
    pub fn round_trip(&self, rtt_s: f64, handler_s: f64) -> f64 {
        let handler_s = handler_s.min(rtt_s);
        handler_s * self.compute + (rtt_s - handler_s) * self.wake
    }
}

/// The echo thread of the wake-up part, and each chunk's part times.
pub struct Yardstick {
    conn: TcpStream,
    echo: Option<JoinHandle<()>>,
    /// Each chunk's compute time, in ms.
    pub compute: Vec<f64>,
    /// Each chunk's wake-up time, in ms.
    pub wake: Vec<f64>,
    last: Instant,
}

impl Yardstick {
    pub fn new() -> Result<Yardstick, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("yardstick bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("yardstick addr: {e}"))?;
        let echo = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut buf = [0u8; 64];
            while s.read_exact(&mut buf).is_ok() {
                if s.write_all(&buf).is_err() {
                    break;
                }
            }
        });
        let conn = TcpStream::connect(addr)
            .and_then(|s| s.set_nodelay(true).map(|()| s))
            .map_err(|e| format!("yardstick connect: {e}"))?;
        let mut y = Yardstick {
            conn,
            echo: Some(echo),
            compute: Vec::new(),
            wake: Vec::new(),
            last: Instant::now(),
        };
        // One untimed chunk: page faults and first-touch costs.
        y.chunk()?;
        y.compute.clear();
        y.wake.clear();
        Ok(y)
    }

    /// Runs a chunk if [`EVERY`] has passed since the last one; returns
    /// the time it took, so callers can leave it out of their wall time.
    pub fn tick(&mut self) -> Result<Duration, String> {
        if self.last.elapsed() < EVERY {
            return Ok(Duration::ZERO);
        }
        let t = Instant::now();
        self.chunk()?;
        let took = t.elapsed();
        self.last = Instant::now();
        Ok(took)
    }

    /// One chunk of fixed work, timed per part.
    fn chunk(&mut self) -> Result<(), String> {
        let started = Instant::now();
        black_box(floats());
        black_box(formatting());
        let woke = Instant::now();
        let mut buf = [0u8; 64];
        for k in 0..PINGS {
            buf[0] = k as u8;
            self.conn
                .write_all(&buf)
                .and_then(|()| self.conn.read_exact(&mut buf))
                .map_err(|e| format!("yardstick ping: {e}"))?;
        }
        self.compute.push((woke - started).as_secs_f64() * 1e3);
        self.wake.push(woke.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    /// Reference over mean part times (1 before any chunk ran). The mean,
    /// not the median: slow spells stretch a share of the requests and
    /// the same share of the chunks, and the mean counts them as sums of
    /// request times (goodput, set-up) and their quantiles meet them.
    pub fn speed(&self) -> Speed {
        let ratio = |reference: f64, times: &[f64]| {
            if times.is_empty() {
                1.0
            } else {
                reference * times.len() as f64 / times.iter().sum::<f64>()
            }
        };
        Speed {
            compute: ratio(REFERENCE_MS.compute, &self.compute),
            wake: ratio(REFERENCE_MS.wake, &self.wake),
        }
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Histogram-style convolutions of two 128-bin arrays.
fn floats() -> f64 {
    let a: Vec<f64> = (0..128).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let b: Vec<f64> = (0..128).map(|i| ((i * 37) % 101) as f64 * 1e-2).collect();
    let mut out = vec![0.0f64; 255];
    for rep in 0..256 {
        out.iter_mut().for_each(|o| *o *= 0.5);
        for (i, x) in a.iter().enumerate() {
            let x = black_box(*x) + rep as f64 * 1e-9;
            for (j, y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
    }
    out.iter().sum()
}

/// Shortest round-trip formatting of floats, then parsing them back.
fn formatting() -> f64 {
    let mut text = String::new();
    for i in 0..3000u32 {
        let v = (i as f64).sqrt() * 1.000_000_1e-3;
        text.push_str(&format!("{v:?},"));
    }
    text.split(',').filter_map(|s| s.parse::<f64>().ok()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scale_part_by_part() {
        let speed = Speed {
            compute: 0.5,
            wake: 2.0,
        };
        // 3 s handler at half, 1 s rest at double.
        assert_eq!(speed.round_trip(4.0, 3.0), 3.5);
        // A handler time past the round trip (clock granularity) is
        // capped: the whole round trip is compute.
        assert_eq!(speed.round_trip(1.0, 1.5), 0.5);
    }

    #[test]
    fn handler_time_is_read_from_the_reply() {
        let ok =
            r#"{"id":1,"ok":true,"cmd":"analyze","cache":"hit","elapsed_us":1250,"result":{}}"#;
        assert_eq!(crate::handler_seconds(ok), Some(1250e-6));
        let refused = r#"{"id":2,"ok":false,"error":"no"}"#;
        assert_eq!(crate::handler_seconds(refused), None);
    }

    #[test]
    fn speed_is_one_before_any_chunk_and_reference_over_mean_time_after() {
        let mut y = Yardstick::new().unwrap();
        let s = y.speed();
        assert_eq!((s.compute, s.wake), (1.0, 1.0));
        y.compute = vec![REFERENCE_MS.compute * 2.0, REFERENCE_MS.compute * 2.0];
        y.wake = vec![
            REFERENCE_MS.wake,
            REFERENCE_MS.wake * 3.0,
            REFERENCE_MS.wake * 8.0,
        ];
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(y.speed().compute, 0.5));
        assert!(close(y.speed().wake, 0.25));
    }
}
