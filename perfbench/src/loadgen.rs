//! Open-loop load generator: sends requests over keep-alive HTTP/1.1
//! connections on a fixed arrival schedule, pipelining when the server
//! falls behind, and times every response from its *scheduled* send time,
//! so a stall is charged to every request it delays (no coordinated
//! omission). One thread per connection. Between sends the thread waits
//! for a response or the next send time, whichever comes first, in
//! `ppoll(2)`, whose timeout has nanosecond resolution; a socket read
//! timeout would round up to the kernel's tick and send up to a tick late.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One request of a schedule.
pub struct Request {
    pub method: &'static str,
    pub target: String,
    pub body: String,
    /// When to send it, relative to the phase start.
    pub due: Duration,
}

/// What happened to one request.
pub struct Sample {
    /// Index of the request in its connection's schedule.
    pub index: usize,
    /// How late the generator sent it.
    pub lag: Duration,
    /// Scheduled send to last response byte.
    pub latency: Duration,
    /// HTTP status; 0 when no response arrived.
    pub status: u16,
    pub body: String,
}

/// How long a phase may overrun its last due time before the remaining
/// requests are given up as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

fn render(req: &Request, host: &str) -> Vec<u8> {
    let mut out = format!(
        "{} {} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n",
        req.method,
        req.target,
        req.body.len()
    )
    .into_bytes();
    out.extend_from_slice(req.body.as_bytes());
    out
}

/// Parses one complete response off the front of `buf`, returning
/// `(status, body, bytes consumed)`, or `None` if more bytes are needed.
fn parse_response(buf: &[u8]) -> io::Result<Option<(u16, String, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {head:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status"))?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| bad("no content-length"))?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Ok(Some((status, body, total)))
}

pub use wait::punctual_thread;

/// Plays one connection's schedule, starting at `start`. Requests whose
/// response never arrives (connection error, drain limit) come back with
/// status 0.
pub fn play(addr: &str, reqs: &[Request], start: Instant) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(reqs.len());
    if let Err(e) = play_into(addr, reqs, start, &mut samples) {
        eprintln!("soct-perfbench: connection to {addr}: {e}");
    }
    let answered = samples.len();
    samples.extend((answered..reqs.len()).map(|index| Sample {
        index,
        lag: Duration::ZERO,
        latency: Duration::ZERO,
        status: 0,
        body: String::new(),
    }));
    samples
}

fn play_into(
    addr: &str,
    reqs: &[Request],
    start: Instant,
    samples: &mut Vec<Sample>,
) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let give_up = start + reqs.last().map_or(Duration::ZERO, |r| r.due) + DRAIN_LIMIT;
    let mut next = 0;
    let mut in_flight: VecDeque<(usize, Duration)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    while samples.len() < reqs.len() {
        let now = Instant::now();
        while next < reqs.len() && start + reqs[next].due <= now {
            let lag = Instant::now().saturating_duration_since(start + reqs[next].due);
            stream.write_all(&render(&reqs[next], addr))?;
            in_flight.push_back((next, lag));
            next += 1;
        }
        let wake = if next < reqs.len() {
            start + reqs[next].due
        } else {
            give_up
        };
        let now = Instant::now();
        if now >= give_up {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "server did not drain",
            ));
        }
        if in_flight.is_empty() {
            if wake > now {
                std::thread::sleep(wake - now);
            }
            continue;
        }
        if !wait::readable(&stream, wake.saturating_duration_since(now))? {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let done = Instant::now();
        while let Some((status, body, used)) = parse_response(&buf)? {
            buf.drain(..used);
            let (index, lag) = in_flight.pop_front().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "unsolicited response")
            })?;
            samples.push(Sample {
                index,
                lag,
                latency: done.saturating_duration_since(start + reqs[index].due),
                status,
                body,
            });
        }
    }
    Ok(())
}

#[allow(unsafe_code)] // ppoll(2), prctl(2), sched_setscheduler(2); see below
mod wait {
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// `struct pollfd` (POSIX).
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x001;
    const PR_SET_TIMERSLACK: core::ffi::c_int = 29;
    const SCHED_FIFO: core::ffi::c_int = 1;

    /// `struct sched_param`.
    #[repr(C)]
    struct SchedParam {
        priority: core::ffi::c_int,
    }

    extern "C" {
        /// `prctl(2)` from the libc that `std` already links.
        fn prctl(option: core::ffi::c_int, ...) -> core::ffi::c_int;
        /// `sched_setscheduler(2)`; pid 0 is the calling thread.
        fn sched_setscheduler(
            pid: core::ffi::c_int,
            policy: core::ffi::c_int,
            param: *const SchedParam,
        ) -> core::ffi::c_int;
        /// `ppoll(2)` from the libc that `std` already links.
        fn ppoll(
            fds: *mut PollFd,
            nfds: core::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const core::ffi::c_void,
        ) -> core::ffi::c_int;
    }

    /// Makes the calling thread punctual: a timer slack of 1 ns, so its
    /// sleeps and `ppoll` timeouts end on time instead of up to 50 µs
    /// late, and the lowest real-time priority, so it runs as soon as it
    /// wakes instead of queueing behind the server's busy threads (the
    /// generator stands in for clients on other machines, whose sends
    /// the server's load does not delay). The thread blocks between
    /// sends, so it cannot starve the server. Returns whether the
    /// priority was granted (it needs `CAP_SYS_NICE`); the slack is best
    /// effort.
    pub fn punctual_thread() -> bool {
        let param = SchedParam { priority: 1 };
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes a field of the calling thread. `param` is a live,
        // properly laid-out local for the whole `sched_setscheduler` call,
        // which only reads it.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as core::ffi::c_ulong);
            sched_setscheduler(0, SCHED_FIFO, &param) == 0
        }
    }

    /// Waits up to `timeout` for `stream` to become readable (data, end
    /// of stream or an error to read); `false` on timeout or `EINTR`.
    pub fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
        // whole call, `nfds` is 1 to match the single `pollfd`, and a null
        // signal mask leaves the mask unchanged. The kernel writes only
        // `fd.revents`.
        let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return match e.kind() {
                io::ErrorKind::Interrupted => Ok(false),
                _ => Err(e),
            };
        }
        Ok(n > 0)
    }
}

/// One request on a fresh connection (control traffic: `/metrics`,
/// `/db/stats`); returns `(status, body)`.
pub fn request(
    addr: &str,
    method: &'static str,
    target: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let req = Request {
        method,
        target: target.to_string(),
        body: body.to_string(),
        due: Duration::ZERO,
    };
    stream.write_all(&render(&req, addr))?;
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        if let Some((status, body, _)) = parse_response(&buf)? {
            return Ok((status, body));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A top-level string, number or boolean field of a flat JSON object,
/// as its raw text (quotes stripped).
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = body[body.find(&pat)? + pat.len()..].trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return Some(&s[..s.find('"')?]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 429 Too Many\r\ncontent-length: 0\r\n\r\nHTTP/1.1 2";
        let (s, b, used) = parse_response(two).unwrap().unwrap();
        assert_eq!((s, b.as_str()), (200, "hi"));
        let (s, b, used2) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!((s, b.as_str()), (429, ""));
        assert!(parse_response(&two[used + used2..]).unwrap().is_none());
    }

    #[test]
    fn reads_flat_json_fields() {
        let body = r#"{"verdict":"finite","rules":7,"cached":true}"#;
        assert_eq!(json_field(body, "verdict"), Some("finite"));
        assert_eq!(json_field(body, "rules"), Some("7"));
        assert_eq!(json_field(body, "cached"), Some("true"));
        assert_eq!(json_field(body, "missing"), None);
    }
}
