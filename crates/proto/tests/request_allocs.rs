//! What a request costs the daemon, as exact counts: heap allocations,
//! `read` calls and `write` calls per request of the server-side loop
//! ([`serve_stream`]), for a warmed controller with eight instances.
//!
//! The counts are the property the read path's speed rests on — a request
//! is one `read`, one `write`, and the strings its `Request` and
//! `Response` own — so they are pinned exactly: a change that adds an
//! allocation or a system call to the path fails here, and one that
//! removes some lowers the pins.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::sync::Arc;

use harmony_core::{Controller, ControllerConfig};
use harmony_proto::{frame, handle_request, serve_stream, Request, Response, SharedController};
use harmony_resources::Cluster;
use parking_lot::RwLock;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local counter is a `Cell` with no destructor and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What the loop did to the stream, and how much it had allocated by then.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    Read { allocations: u64 },
    Write,
}

/// An in-memory peer in lockstep with the server: each `read` delivers (at
/// most) the next request's frame, as a socket would to a daemon whose
/// client waits for every reply. It allocates nothing while it is served.
struct Peer {
    wire: Vec<u8>,
    /// End offset of each request's frame in `wire`.
    ends: Vec<usize>,
    next: usize,
    at: usize,
    calls: Vec<Call>,
    replies: Vec<u8>,
}

impl Peer {
    fn new(requests: &[String]) -> Self {
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for text in requests {
            wire.extend_from_slice(&frame::encode(text).unwrap());
            ends.push(wire.len());
        }
        Peer {
            wire,
            ends,
            next: 0,
            at: 0,
            calls: Vec::with_capacity(3 * requests.len() + 8),
            replies: Vec::with_capacity(256 * requests.len() + 4096),
        }
    }
}

impl Read for Peer {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls.push(Call::Read { allocations: allocations() });
        let Some(&end) = self.ends.get(self.next) else { return Ok(0) };
        let n = (end - self.at).min(buf.len());
        buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
        self.at += n;
        if self.at == end {
            self.next += 1;
        }
        Ok(n)
    }
}

impl Write for Peer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls.push(Call::Write);
        assert!(self.replies.len() + buf.len() <= self.replies.capacity(), "replies pre-sized");
        self.replies.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Per request: allocations, reads and writes. A request's calls are the
/// reads that deliver it and the writes that answer it; its allocations
/// are counted from its first read to the next request's first read.
fn per_request(calls: &[Call]) -> Vec<(u64, usize, usize)> {
    let allocations_at = |i: usize| match calls[i] {
        Call::Read { allocations } => allocations,
        Call::Write => unreachable!("requests start with a read"),
    };
    let starts: Vec<usize> = (0..calls.len())
        .filter(|&i| calls[i] != Call::Write && (i == 0 || calls[i - 1] == Call::Write))
        .collect();
    // The last start is the read that found the peer gone.
    starts
        .windows(2)
        .map(|w| {
            let writes = calls[w[0]..w[1]].iter().filter(|&&c| c == Call::Write).count();
            (allocations_at(w[1]) - allocations_at(w[0]), w[1] - w[0] - writes, writes)
        })
        .collect()
}

const APP: &str = "bag";
const INSTANCES: u64 = 8;

fn script(id: u64) -> String {
    harmony_rsl::listings::FIG2B_BAG.replacen("bag:1", &format!("{APP}:{id}"), 1)
}

/// Eight registered instances with one bundle each, every series and
/// histogram the measured requests touch already in existence, and every
/// growable buffer on the path (journal ring, series) past its next
/// doubling.
fn warmed_controller() -> SharedController {
    let cluster = Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(16)).unwrap();
    let ctl: SharedController =
        Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())));
    for id in 1..=INSTANCES {
        let registered = handle_request(&ctl, &Request::Startup { app: APP.into() });
        assert_eq!(registered, Response::Registered { app: APP.into(), id });
        let bundle = Request::Bundle { app: APP.into(), id, script: script(id) };
        assert_eq!(handle_request(&ctl, &bundle), Response::Ok);
    }
    let warmup: Vec<String> = (0..5000u64)
        .flat_map(|i| {
            let id = i % INSTANCES + 1;
            [metric(id, i), format!("heartbeat {APP}.{id}"), format!("poll {APP}.{id}")]
        })
        .collect();
    serve_stream(&mut Peer::new(&warmup), &ctl);
    ctl
}

fn metric(id: u64, i: u64) -> String {
    format!("metric {APP}.{id}.response_time {}.5 {}.25", i, 9 + i % 7)
}

/// Serves `requests` on one fresh connection after `lead` requests that
/// warm the connection itself (its buffers, its verb handles); returns the
/// per-request counts of the measured ones and the replies to them.
fn serve(ctl: &SharedController, lead: &[String], requests: &[String]) -> Vec<(u64, usize, usize)> {
    let all: Vec<String> = lead.iter().chain(requests).cloned().collect();
    let mut peer = Peer::new(&all);
    serve_stream(&mut peer, ctl);
    let counts = per_request(&peer.calls);
    assert_eq!(counts.len(), all.len(), "one reply per request: {:?}", peer.calls);
    let mut replies = bytes::BytesMut::from(&peer.replies[..]);
    for (text, count) in all.iter().zip(&counts) {
        let reply = frame::decode(&mut replies).unwrap().expect("a whole reply");
        assert!(!reply.starts_with("error"), "`{text}` answered `{reply}`");
        assert_eq!((count.1, count.2), (1, 1), "`{text}`: one read and one write, {count:?}");
    }
    counts[lead.len()..].to_vec()
}

/// The one exact count every request of `requests` is served with.
fn allocations_of(ctl: &SharedController, lead: &[String], requests: &[String]) -> u64 {
    let counts = serve(ctl, lead, requests);
    let allocations: Vec<u64> = counts.iter().map(|c| c.0).collect();
    assert!(
        allocations.iter().all(|&a| a == allocations[0]),
        "not one steady count: {allocations:?}"
    );
    allocations[0]
}

#[test]
fn a_request_costs_one_read_one_write_and_the_strings_it_keeps() {
    let ctl = warmed_controller();
    let lead: Vec<String> = (1..=INSTANCES)
        .flat_map(|id| [format!("heartbeat {APP}.{id}"), format!("poll {APP}.{id}"), metric(id, 0)])
        .collect();
    let each = |text: &dyn Fn(u64, u64) -> String| -> Vec<String> {
        (0..400u64).map(|i| text(i % INSTANCES + 1, i)).collect()
    };

    // `heartbeat`: the application name the `Request` owns.
    let heartbeat = allocations_of(&ctl, &lead, &each(&|id, _| format!("heartbeat {APP}.{id}")));
    // Empty `poll`: the name in the `Request`, and again in the `Response`.
    let poll = allocations_of(&ctl, &lead, &each(&|id, _| format!("poll {APP}.{id}")));
    // `metric`: the metric name the `Request` owns and the journal entry's
    // detail string, which `format!` grows once — the series, the
    // histogram and the reply cost nothing.
    let metric = allocations_of(&ctl, &lead, &each(&|id, i| metric(id, i)));
    assert_eq!(
        (heartbeat, poll, metric),
        (1, 2, 3),
        "allocations per heartbeat / empty poll / metric (11 / 11 / 18 before buffered frames, \
         the borrowing parser and metric handles)"
    );

    // A `poll` that carries updates: re-registering a bundle is refused,
    // re-attaching replays the chosen values into the poll buffer.
    for id in 1..=INSTANCES {
        let reattach = handle_request(&ctl, &Request::Reattach { app: APP.into(), id });
        assert_eq!(reattach, Response::Registered { app: APP.into(), id });
    }
    let polls: Vec<String> = (1..=INSTANCES).map(|id| format!("poll {APP}.{id}")).collect();
    // The first such reply is in the lead: it grows the connection's reply
    // buffer to the size the others then find.
    let counts = serve(&ctl, &polls[..1], &polls[1..]);
    // The two names as above and the `Vec<VarUpdate>`; then, per update, its
    // path rendered to a string that grows as it is written (the values
    // move out of the buffer, whose replacement is free).
    let carried: Vec<u64> = counts.iter().map(|c| c.0).collect();
    assert_eq!(carried, vec![14; polls.len() - 1], "allocations per poll carrying a choice");
}
