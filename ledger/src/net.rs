//! The load generator's client side: one thread drives every
//! connection. It writes each request when it is due and reads
//! whatever responses have arrived, waiting in `ppoll(2)` with a
//! nanosecond timeout in between. A read timeout on the socket would
//! round to the kernel tick, which would make the generator itself
//! late by up to a tick.
//!
//! Responses on one connection come back in request order, so each
//! connection keeps a FIFO of the requests it has in flight.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

const POLLIN: c_short = 0x1;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;

/// Wait until one of `fds` is readable or `timeout` passes. Returns
/// which of them may be read without blocking.
fn wait_readable(fds: &[c_int], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut polled: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `polled` is a live, exclusively borrowed array of
    // `polled.len()` `pollfd` records laid out as the C struct; `ts`
    // outlives the call; a null signal mask leaves the mask unchanged.
    let n = unsafe {
        ppoll(
            polled.as_mut_ptr(),
            polled.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(e);
    }
    Ok(polled
        .iter()
        .map(|p| p.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect())
}

/// A request on the wire, waiting for its response.
struct InFlight {
    id: usize,
    due: Instant,
    sent: Instant,
}

/// One answered request.
pub struct Completion {
    /// The caller's id for the request.
    pub id: usize,
    pub conn: usize,
    /// When the request was due: its scheduled time in an open loop,
    /// the time its slot freed up in a closed one.
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub response: String,
}

impl Completion {
    /// Latency from the due time, which counts the wait a stall
    /// imposes on requests scheduled behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    in_flight: VecDeque<InFlight>,
}

/// Up to two client connections to one daemon.
pub struct Client {
    conns: Vec<Conn>,
    chunk: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Client> {
        let conns = (0..n)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                // Our side must not add a Nagle delay of its own: each
                // request goes out in one write, immediately.
                stream.set_nodelay(true)?;
                Ok(Conn {
                    stream,
                    rbuf: Vec::new(),
                    in_flight: VecDeque::new(),
                })
            })
            .collect::<io::Result<Vec<Conn>>>()?;
        Ok(Client {
            conns,
            chunk: vec![0; 1 << 16],
        })
    }

    pub fn conns(&self) -> usize {
        self.conns.len()
    }

    pub fn total_in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.in_flight.len()).sum()
    }

    /// Write one request line (ending in `\n`) on `conn`.
    pub fn send(&mut self, conn: usize, id: usize, line: &[u8], due: Instant) -> io::Result<()> {
        let c = &mut self.conns[conn];
        c.stream.write_all(line)?;
        c.in_flight.push_back(InFlight {
            id,
            due,
            sent: Instant::now(),
        });
        Ok(())
    }

    /// Send one request on the first connection, which must have
    /// nothing else in flight, and wait up to `timeout` for its answer.
    pub fn call(&mut self, id: usize, line: &[u8], timeout: Duration) -> io::Result<Completion> {
        debug_assert_eq!(self.total_in_flight(), 0, "call on a busy connection");
        self.send(0, id, line, Instant::now())?;
        let deadline = Instant::now() + timeout;
        let mut done = Vec::with_capacity(1);
        while done.is_empty() && Instant::now() < deadline {
            self.wait(deadline, &mut done)?;
        }
        done.pop().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no answer within {timeout:?}"),
            )
        })
    }

    /// Block until a response arrives or `until` passes, then collect
    /// every complete response line that has arrived.
    pub fn wait(&mut self, until: Instant, out: &mut Vec<Completion>) -> io::Result<()> {
        let fds: Vec<c_int> = self.conns.iter().map(|c| c.stream.as_raw_fd()).collect();
        let timeout = until.saturating_duration_since(Instant::now());
        let ready = wait_readable(&fds, timeout)?;
        for (i, readable) in ready.into_iter().enumerate() {
            if readable {
                self.read_conn(i, out)?;
            }
        }
        Ok(())
    }

    fn read_conn(&mut self, i: usize, out: &mut Vec<Completion>) -> io::Result<()> {
        let c = &mut self.conns[i];
        let n = c.stream.read(&mut self.chunk)?;
        let done = Instant::now();
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("daemon closed connection {i}"),
            ));
        }
        let scan_from = c.rbuf.len();
        c.rbuf.extend_from_slice(&self.chunk[..n]);
        let mut start = 0;
        let mut pos = scan_from;
        while let Some(nl) = c.rbuf[pos..].iter().position(|&b| b == b'\n') {
            let end = pos + nl;
            let line = String::from_utf8_lossy(&c.rbuf[start..end]).into_owned();
            start = end + 1;
            pos = start;
            let Some(req) = c.in_flight.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsolicited response on connection {i}"),
                ));
            };
            out.push(Completion {
                id: req.id,
                conn: i,
                due: req.due,
                sent: req.sent,
                done,
                response: line,
            });
        }
        c.rbuf.drain(..start);
        Ok(())
    }
}

/// Hand every completion past `seen` to `inspect`, then drop its
/// response text: a phase keeps its timings, not its payloads.
fn inspect_new(out: &mut [Completion], seen: &mut usize, inspect: &mut impl FnMut(&Completion)) {
    for c in &mut out[*seen..] {
        inspect(c);
        c.response = String::new();
    }
    *seen = out.len();
}

/// Send `schedule[k] = (offset, id)` — the request `lines[id]` — at
/// `t0 + offset`, spreading the requests round-robin over the
/// connections. Each response goes to `inspect` as it arrives.
/// Requests still unanswered `drain` after the last one was due are
/// abandoned (the caller counts them as failed).
pub fn open_loop<L: AsRef<[u8]>>(
    client: &mut Client,
    schedule: &[(Duration, usize)],
    lines: &[L],
    drain: Duration,
    mut inspect: impl FnMut(&Completion),
) -> io::Result<Vec<Completion>> {
    let mut out = Vec::with_capacity(schedule.len());
    let mut seen = 0;
    let t0 = Instant::now() + Duration::from_millis(2);
    let last_due = t0 + schedule.last().map_or(Duration::ZERO, |s| s.0);
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < schedule.len() && t0 + schedule[next].0 <= now {
            let (offset, id) = schedule[next];
            let conn = next % client.conns();
            client.send(conn, id, lines[id].as_ref(), t0 + offset)?;
            next += 1;
        }
        if next == schedule.len() && (client.total_in_flight() == 0 || now > last_due + drain) {
            return Ok(out);
        }
        let until = match schedule.get(next) {
            Some(&(offset, _)) => t0 + offset,
            None => last_due + drain,
        };
        client.wait(until, &mut out)?;
        inspect_new(&mut out, &mut seen, &mut inspect);
    }
}

/// Keep `depth` requests in flight on every connection for `span`; the
/// next request is `lines[next(done)]`, where `done` is the completion
/// whose slot it takes (`None` while priming). A request is due when
/// its slot frees up. Each response goes to `inspect` as it arrives,
/// including those that trail `span`, until the pipeline drains or
/// `drain` passes. Returns the completions and the span's start and
/// end.
pub fn closed_loop<L: AsRef<[u8]>>(
    client: &mut Client,
    depth: usize,
    span: Duration,
    drain: Duration,
    lines: &[L],
    mut next: impl FnMut(Option<&Completion>) -> usize,
    mut inspect: impl FnMut(&Completion),
) -> io::Result<(Vec<Completion>, Instant, Instant)> {
    let mut out: Vec<Completion> = Vec::new();
    let start = Instant::now();
    let end = start + span;
    for conn in 0..client.conns() {
        for _ in 0..depth {
            let id = next(None);
            client.send(conn, id, lines[id].as_ref(), Instant::now())?;
        }
    }
    let mut seen = 0;
    loop {
        let now = Instant::now();
        if now >= end && (client.total_in_flight() == 0 || now > end + drain) {
            return Ok((out, start, end));
        }
        client.wait(if now < end { end } else { end + drain }, &mut out)?;
        for c in &out[seen..] {
            if c.done < end {
                let id = next(Some(c));
                client.send(c.conn, id, lines[id].as_ref(), c.done)?;
            }
        }
        inspect_new(&mut out, &mut seen, &mut inspect);
    }
}
