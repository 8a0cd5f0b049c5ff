//! What one request costs the daemon, counted: heap allocations, `read`
//! calls and `write` calls per request of the server-side loop
//! ([`serve_stream`]), for a warmed controller with eight instances.
//!
//! Shared by the `request_path` binary (which adds wall time and writes
//! `results/BENCH_request_path.json`) and by the tests that pin the counts
//! (`crates/proto/tests/request_allocs.rs`, and tier-1's
//! `tests/request_path_counts.rs`). Allocations are counted only in a
//! binary that installs [`CountingAllocator`]:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: CountingAllocator = CountingAllocator;
//! ```

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

/// The system allocator, counting each thread's allocations and
/// reallocations (see [`allocations`]).
#[derive(Debug)]
pub struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local counter is a `Cell` with no destructor and allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by the calling thread so far (0 forever unless
/// [`CountingAllocator`] is the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What the loop did to the stream, and how much it had allocated by then.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    Read { allocations: u64 },
    Write,
}

/// An in-memory peer in lockstep with the server: each `read` delivers (at
/// most) the next request's frame, as a socket does to a daemon whose
/// client waits for every reply. It allocates nothing while it is served.
#[derive(Debug)]
pub struct Peer {
    wire: Vec<u8>,
    /// End offset of each request's frame in `wire`.
    ends: Vec<usize>,
    next: usize,
    at: usize,
    calls: Vec<Call>,
    replies: Vec<u8>,
}

impl Peer {
    /// A peer that will send `requests`, one frame each, then hang up.
    pub fn new(requests: &[String]) -> Self {
        // A `status` reply carries the controller's whole snapshot.
        let reply_bytes: usize =
            requests.iter().map(|text| if text == "status" { 16 << 10 } else { 512 }).sum();
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for text in requests {
            wire.extend_from_slice(&frame::encode(text).expect("requests are small"));
            ends.push(wire.len());
        }
        Peer {
            wire,
            ends,
            next: 0,
            at: 0,
            calls: Vec::with_capacity(3 * requests.len() + 8),
            replies: Vec::with_capacity(reply_bytes + 4096),
        }
    }

    /// The replies received, in order.
    pub fn replies(&self) -> Vec<String> {
        let mut wire = &self.replies[..];
        std::iter::from_fn(|| frame::read_frame(&mut wire).expect("whole replies")).collect()
    }

    /// The cost of each request served: its calls are the reads that
    /// delivered it and the writes that answered it, and its allocations
    /// are counted from its first read to the next request's first read.
    pub fn costs(&self) -> Vec<Cost> {
        let calls = &self.calls;
        let allocations_at = |i: usize| match calls[i] {
            Call::Read { allocations } => allocations,
            Call::Write => unreachable!("a request starts with a read"),
        };
        let starts: Vec<usize> = (0..calls.len())
            .filter(|&i| calls[i] != Call::Write && (i == 0 || calls[i - 1] == Call::Write))
            .collect();
        // The last start is the read that found the peer gone.
        starts
            .windows(2)
            .map(|w| {
                let writes = calls[w[0]..w[1]].iter().filter(|&&c| c == Call::Write).count();
                Cost {
                    allocations: allocations_at(w[1]) - allocations_at(w[0]),
                    reads: w[1] - w[0] - writes,
                    writes,
                }
            })
            .collect()
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

/// What the daemon spent on one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Heap allocations and reallocations.
    pub allocations: u64,
    /// `read` calls on the connection.
    pub reads: usize,
    /// `write` calls on the connection.
    pub writes: usize,
}

/// The application every instance belongs to.
pub const APP: &str = "bag";
/// Standing instances of the warmed controller, ids `1..=INSTANCES`.
pub const INSTANCES: u64 = 8;

/// `heartbeat` of instance `id`.
pub fn heartbeat(id: u64) -> String {
    format!("heartbeat {APP}.{id}")
}

/// `poll` of instance `id`.
pub fn poll(id: u64) -> String {
    format!("poll {APP}.{id}")
}

/// The `i`-th `response_time` report of instance `id`.
pub fn metric(id: u64, i: u64) -> String {
    format!("metric {APP}.{id}.response_time {i}.5 {}.25", 9 + i % 7)
}

/// `count` requests, `text(id, i)` each, round-robin over the instances.
pub fn round_robin(count: u64, text: impl Fn(u64, u64) -> String) -> Vec<String> {
    (0..count).map(|i| text(i % INSTANCES + 1, i)).collect()
}

/// A controller with [`INSTANCES`] registered instances, one Figure 2(b)
/// bundle each, every histogram the three read-path verbs touch in
/// existence, and every growable buffer on their path (the journal ring)
/// past its next doubling.
pub fn warmed_controller() -> SharedController {
    let cluster =
        Cluster::from_rsl(&harmony_rsl::listings::sp2_cluster(16)).expect("sp2 cluster parses");
    let ctl: SharedController =
        Arc::new(RwLock::new(Controller::new(cluster, ControllerConfig::default())));
    for id in 1..=INSTANCES {
        let registered = handle_request(&ctl, &Request::Startup { app: APP.into() });
        assert_eq!(registered, Response::Registered { app: APP.into(), id });
        let script = harmony_rsl::listings::FIG2B_BAG.replacen("bag:1", &format!("{APP}:{id}"), 1);
        let bundle = Request::Bundle { app: APP.into(), id, script };
        assert_eq!(handle_request(&ctl, &bundle), Response::Ok);
    }
    let warmup: Vec<String> = (0..5000u64)
        .flat_map(|i| {
            let id = i % INSTANCES + 1;
            [metric(id, i), heartbeat(id), poll(id)]
        })
        .collect();
    serve_stream(&mut Peer::new(&warmup), &ctl);
    ctl
}

/// Serves `lead` then `requests` on one fresh connection — `lead` warms
/// the connection itself: its buffers, its verb handles — and returns the
/// cost of each of `requests`.
///
/// # Panics
///
/// Panics when a request of either list is answered with an error.
pub fn serve(ctl: &SharedController, lead: &[String], requests: &[String]) -> Vec<Cost> {
    let all: Vec<String> = lead.iter().chain(requests).cloned().collect();
    let mut peer = Peer::new(&all);
    serve_stream(&mut peer, ctl);
    let (costs, replies) = (peer.costs(), peer.replies());
    assert_eq!((costs.len(), replies.len()), (all.len(), all.len()), "one reply per request");
    for (text, reply) in all.iter().zip(&replies) {
        assert!(!reply.starts_with("error"), "`{text}` answered `{reply}`");
    }
    costs[lead.len()..].to_vec()
}

/// A lead that has every instance send each read-path verb once.
pub fn lead() -> Vec<String> {
    (1..=INSTANCES).flat_map(|id| [heartbeat(id), poll(id), metric(id, 0)]).collect()
}
