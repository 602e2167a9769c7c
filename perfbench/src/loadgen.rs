//! Single-threaded open-loop load generator for `ftd serve --listen`.
//!
//! Requests arrive on a seeded Poisson schedule regardless of how fast
//! the server answers (independent testers, not callers waiting on a
//! reply). One thread drives one connection through `ppoll(2)`: at each
//! wake-up it queues every request whose scheduled time has passed,
//! writes what the socket accepts, and reads whatever answers arrived.
//! Latency runs from a request's *scheduled* send time to the moment its
//! response frame is read, so a stall also charges the requests queued
//! behind it; lateness is how far the actual write trailed the schedule.
//! Every response line is checked against the expected line for its
//! request.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use ft_serve::net::{decode_frame, decode_response, FRAME_RESPONSE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::{median, quantile};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// How long a run waits for its last answers before it fails.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Latency quantiles are taken per window of schedule, and the median
/// over the windows is reported: a stall of the shared machine then moves
/// the windows it falls in, not the whole figure. A window lasts as long
/// as the offered rate takes to send 1100 requests, so each window's p99
/// has about 10 answers beyond it, and the shorter the windows, the more
/// of them a stall misses.
const WINDOW_ANSWERS: f64 = 1100.0;

/// The request set a run draws from: pre-encoded request frames and the
/// exact response line the oracle expects for each.
pub struct Target<'a> {
    pub frames: &'a [Vec<u8>],
    pub expected: &'a [String],
}

/// One open-loop run at a fixed offered rate.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub offered_rps: f64,
    pub sent: u64,
    pub failed: u64,
    /// Latency of every correct answer in µs, ascending.
    pub latency_us: Vec<f64>,
    /// Per whole window: (answers, p50 µs, p99 µs, answers beyond p99).
    pub windows: Vec<(usize, f64, f64, usize)>,
    /// Answers per second between the first and the last tenth of the
    /// answers: the offered rate below capacity, the server's throughput
    /// well above it.
    pub served_rps: f64,
    /// Send lateness of every request in µs, ascending.
    pub late_us: Vec<f64>,
    /// Pool index of every request, in send order (the replayed stream).
    pub stream: Vec<u32>,
    /// One example of a wrong answer, if any.
    pub mismatch: Option<String>,
}

impl RunStats {
    /// Median over the windows of each window's p50.
    pub fn p50_us(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.1).collect::<Vec<_>>())
    }

    /// Median over the windows of each window's p99.
    pub fn p99_us(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.2).collect::<Vec<_>>())
    }

    /// p99 over every answer of the run.
    pub fn pooled_p99_us(&self) -> f64 {
        quantile(&self.latency_us, 0.99)
    }

    pub fn late_p99_us(&self) -> f64 {
        quantile(&self.late_us, 0.99)
    }

    /// Fewest answers, and fewest answers beyond p99, in any window.
    pub fn window_samples(&self) -> (usize, usize) {
        let fewest = |f: fn(&(usize, f64, f64, usize)) -> usize| {
            self.windows.iter().map(f).min().unwrap_or(0)
        };
        (fewest(|w| w.0), fewest(|w| w.3))
    }

    /// Splits (scheduled ns since start, latency µs) samples into whole
    /// windows and summarises each.
    fn summarise(&mut self, mut samples: Vec<(u64, f64)>, duration_ns: u64) {
        let window = (WINDOW_ANSWERS / self.offered_rps * 1e9) as u64;
        let whole = (duration_ns / window).max(1) as usize;
        let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); whole];
        for (at, latency) in samples.drain(..) {
            if let Some(w) = per_window.get_mut((at / window) as usize) {
                w.push(latency);
            }
        }
        self.windows = per_window
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(|mut w| {
                w.sort_by(f64::total_cmp);
                let p99 = quantile(&w, 0.99);
                let beyond = w.iter().filter(|&&l| l > p99).count();
                (w.len(), quantile(&w, 0.5), p99, beyond)
            })
            .collect();
    }
}

/// The generator: one connection, driven by the calling thread only.
/// The server answers a connection in order and pipelines freely, so one
/// connection is enough for a one-worker server.
pub struct LoadGen {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Bytes queued / written since connect; `marks` maps a request's
    /// last byte to its scheduled time, for lateness.
    queued: u64,
    written: u64,
    marks: VecDeque<(u64, u64)>,
    rbuf: Vec<u8>,
    /// (pool index, scheduled ns) of every request awaiting an answer, in
    /// send order.
    outstanding: VecDeque<(u32, u64)>,
    epoch: Instant,
}

impl LoadGen {
    pub fn connect(addr: &str) -> io::Result<LoadGen> {
        // Wake-ups land on the scheduled nanosecond rather than within the
        // default 50 µs timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
        let stream = ft_serve::net::connect_retry(addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LoadGen {
            stream,
            wbuf: Vec::new(),
            wpos: 0,
            queued: 0,
            written: 0,
            marks: VecDeque::new(),
            rbuf: Vec::new(),
            outstanding: VecDeque::new(),
            epoch: Instant::now(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Offers `rate` requests per second for `duration`, each drawn
    /// uniformly from `target` by a generator seeded with `seed`, then
    /// waits for the last answers.
    ///
    /// # Errors
    ///
    /// Socket errors, or a frame that is not a response.
    pub fn run(
        &mut self,
        target: &Target,
        rate: f64,
        duration: Duration,
        seed: u64,
    ) -> io::Result<RunStats> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = target.frames.len();
        let mut stats = RunStats {
            offered_rps: rate,
            ..RunStats::default()
        };
        let mut arrival = || -> u64 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            (-u.ln() / rate * 1e9) as u64
        };
        let start = self.now_ns() + 100_000;
        let end = start + duration.as_nanos() as u64;
        let mut next_due = start + arrival();
        let mut pick_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut read_buf = vec![0u8; 1 << 16];
        // Scheduled time of each entry of `stats.latency_us`.
        let mut answered_at: Vec<u64> = Vec::new();

        loop {
            let now = self.now_ns();
            // Queue everything that is due.
            while next_due < end && next_due <= now {
                let idx = pick_rng.gen_range(0..pool) as u32;
                let frame = &target.frames[idx as usize];
                self.wbuf.extend_from_slice(frame);
                self.queued += frame.len() as u64;
                self.marks.push_back((self.queued, next_due));
                self.outstanding.push_back((idx, next_due));
                stats.stream.push(idx);
                stats.sent += 1;
                next_due += arrival();
            }
            self.flush(&mut stats.late_us)?;
            self.receive(&mut read_buf, target, &mut stats, &mut answered_at)?;
            let now = self.now_ns();
            if next_due >= end && self.outstanding.is_empty() {
                break;
            }
            if next_due >= end && now > end + DRAIN_TIMEOUT.as_nanos() as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{} requests unanswered after the drain timeout",
                        self.outstanding.len()
                    ),
                ));
            }
            let wait = if next_due < end {
                next_due.saturating_sub(now)
            } else {
                1_000_000
            };
            let mut fd = PollFd {
                fd: self.stream.as_raw_fd(),
                events: if self.wpos < self.wbuf.len() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                },
                revents: 0,
            };
            let ts = Timespec {
                tv_sec: (wait / 1_000_000_000) as i64,
                tv_nsec: (wait % 1_000_000_000) as i64,
            };
            // SAFETY: `fd` is a live pollfd and the count is 1.
            let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
        let samples = stats
            .latency_us
            .iter()
            .zip(&answered_at)
            .map(|(&l, &due)| (due - start, l))
            .collect();
        stats.summarise(samples, end - start);
        let mut done: Vec<f64> = stats
            .latency_us
            .iter()
            .zip(&answered_at)
            .map(|(&l, &due)| due as f64 + l * 1e3)
            .collect();
        done.sort_by(f64::total_cmp);
        let (first, last) = (
            done.len() / 10,
            done.len().saturating_sub(1 + done.len() / 10),
        );
        if last > first {
            stats.served_rps = (last - first) as f64 * 1e9 / (done[last] - done[first]);
        }
        stats.latency_us.sort_by(f64::total_cmp);
        stats.late_us.sort_by(f64::total_cmp);
        Ok(stats)
    }

    /// Writes whatever the socket accepts and records the lateness of every
    /// request whose last byte went out.
    fn flush(&mut self, late_us: &mut Vec<f64>) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "server closed")),
                Ok(n) => {
                    self.wpos += n;
                    self.written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(&(last_byte, due)) = self.marks.front() {
            if last_byte > self.written {
                break;
            }
            late_us.push(now.saturating_sub(due) as f64 / 1e3);
            self.marks.pop_front();
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads every available response and checks it against the oracle.
    fn receive(
        &mut self,
        buf: &mut [u8],
        target: &Target,
        stats: &mut RunStats,
        answered_at: &mut Vec<u64>,
    ) -> io::Result<()> {
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut offset = 0;
        loop {
            let frame = decode_frame(&self.rbuf[offset..])
                .map_err(|(_, e)| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
            let Some((kind, payload, consumed)) = frame else {
                break;
            };
            if kind != FRAME_RESPONSE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame kind {kind}"),
                ));
            }
            let (is_error, line) = decode_response(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
            let (idx, due) = self.outstanding.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "unrequested response")
            })?;
            let expected = &target.expected[idx as usize];
            if is_error || line != *expected {
                stats.failed += 1;
                stats
                    .mismatch
                    .get_or_insert_with(|| format!("got `{line}`, expected `{expected}`"));
            } else {
                stats.latency_us.push(now.saturating_sub(due) as f64 / 1e3);
                answered_at.push(due);
            }
            offset += consumed;
        }
        self.rbuf.drain(..offset);
        Ok(())
    }
}
