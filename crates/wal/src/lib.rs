//! Crash-consistent persistence primitives: a length-prefixed,
//! CRC-checked write-ahead log with bounded group commit, and a
//! generation-numbered state directory pairing each WAL with a compacting
//! snapshot.
//!
//! The crate is payload-agnostic: records are byte strings (the
//! controller serializes its events to JSON before appending), so the
//! durability layer has no dependency on — and no opinion about — the
//! schema it carries.
//!
//! ## Record format
//!
//! ```text
//! [ len: u32 LE ][ crc32(payload): u32 LE ][ payload: len bytes ] ...
//! ```
//!
//! A reader walks records until the file ends cleanly, the final record
//! is torn (short header, short payload, or a CRC mismatch at exactly the
//! end of the file — the signature of a crash mid-write), or a record
//! *before* the end fails its CRC (real corruption, never produced by a
//! torn write; see [`WalTail`]).
//!
//! ## Group commit
//!
//! [`WalWriter::append`] copies the encoded record into an in-memory
//! buffer and returns; a background flusher thread writes and fsyncs the
//! buffer every [`WalConfig::flush_interval`]. The hot path therefore
//! never blocks on fsync — the cost is a bounded durability window (at
//! most one flush interval of acknowledged records can be lost to a
//! crash). The buffer is bounded: an appender that finds it past
//! [`WalConfig::max_buffer`] flushes inline, so memory cannot grow
//! without limit under a stalled disk.
//!
//! ## Durable file creation
//!
//! A new file is only as durable as its directory entry, so every file
//! this crate creates — a WAL by [`WalWriter::create`] or
//! [`WalWriter::rotate`], a snapshot by [`StateDir::write_snapshot`] — is
//! followed by an fsync of its directory before anything relies on it.

#![warn(missing_docs)]

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Records longer than this are never produced by a healthy writer; a
/// longer length prefix is treated as damage.
pub const MAX_RECORD: u32 = 64 << 20;

/// Bytes of framing (`len: u32` + `crc: u32`) before each record's
/// payload.
pub const RECORD_HEADER: usize = 8;

const HEADER: usize = RECORD_HEADER;

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected).
// ----------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `data` — the checksum guarding each WAL record.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ----------------------------------------------------------------------
// Record codec.
// ----------------------------------------------------------------------

/// Encodes one record (`[len][crc][payload]`) into `out`.
pub fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// How a WAL file ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends exactly at a record boundary.
    Clean,
    /// The final record is incomplete or fails its CRC with nothing after
    /// it — the expected shape of a crash mid-write. The valid prefix is
    /// returned; the tail is discarded.
    Torn {
        /// Byte offset of the torn record's header.
        offset: u64,
    },
    /// A record *before* the end of the file fails its CRC. Torn writes
    /// cannot produce this; the file is damaged and should not be
    /// replayed past the valid prefix.
    Corrupted {
        /// Index of the damaged record.
        record: usize,
        /// Byte offset of the damaged record's header.
        offset: u64,
    },
}

/// The decoded contents of a WAL file: the valid record prefix plus how
/// the file ended.
#[derive(Debug)]
pub struct WalRead {
    /// Payloads of every record up to the first damage, in append order.
    pub records: Vec<Vec<u8>>,
    /// How the file ended.
    pub tail: WalTail,
}

/// The one walk over a WAL image's records: hands `each` every valid
/// payload with the byte offset just past it, in order, and returns how
/// the image ended (see the module docs for torn/corrupt semantics).
fn walk<'a>(data: &'a [u8], mut each: impl FnMut(&'a [u8], u64)) -> WalTail {
    let mut pos = 0usize;
    let mut record = 0usize;
    loop {
        let rem = data.len() - pos;
        if rem == 0 {
            return WalTail::Clean;
        }
        if rem < HEADER {
            return WalTail::Torn { offset: pos as u64 };
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD || (rem - HEADER) < len as usize {
            // A length that overruns the file: either a torn header or a
            // damaged one — indistinguishable, and either way nothing
            // after it can be trusted as a record boundary.
            return WalTail::Torn { offset: pos as u64 };
        }
        let end = pos + HEADER + len as usize;
        let payload = &data[pos + HEADER..end];
        if crc32(payload) != crc {
            return if end == data.len() {
                WalTail::Torn { offset: pos as u64 }
            } else {
                WalTail::Corrupted { record, offset: pos as u64 }
            };
        }
        each(payload, end as u64);
        record += 1;
        pos = end;
    }
}

/// Decodes a WAL byte image (see the module docs for torn/corrupt
/// semantics).
pub fn decode_records(data: &[u8]) -> WalRead {
    let mut records = Vec::new();
    let tail = walk(data, |payload, _| records.push(payload.to_vec()));
    WalRead { records, tail }
}

/// Reads and decodes a WAL file.
///
/// # Errors
///
/// I/O errors reading the file. Damage inside the file is not an error —
/// it is reported through [`WalRead::tail`].
pub fn read_wal(path: &Path) -> std::io::Result<WalRead> {
    Ok(decode_records(&fs::read(path)?))
}

/// The byte offsets of the valid record boundaries in a WAL image:
/// element `k` is the offset just after the first `k` records, so element
/// 0 is always 0 and every element is a point at which a crash could have
/// cut the file leaving a [`WalTail::Clean`] prefix of exactly `k`
/// records. Crash-point enumeration truncates at each of these (and once
/// mid-record for the torn-tail case) and replays the prefix.
///
/// The walk stops at the first torn or corrupt record — bytes past the
/// damage hold no trustworthy boundaries.
pub fn record_boundaries(data: &[u8]) -> Vec<u64> {
    let mut bounds = vec![0u64];
    walk(data, |_, end| bounds.push(end));
    bounds
}

// ----------------------------------------------------------------------
// The group-commit writer.
// ----------------------------------------------------------------------

/// Tuning knobs for [`WalWriter`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// How often the background flusher writes and fsyncs the buffer —
    /// the durability window of group commit.
    pub flush_interval: Duration,
    /// Buffer high-water mark: an append that finds the buffer past this
    /// size flushes inline (backpressure) instead of growing it further.
    pub max_buffer: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { flush_interval: Duration::from_millis(5), max_buffer: 1 << 20 }
    }
}

struct WriterState {
    file: File,
    buf: Vec<u8>,
    /// The file holds bytes no fsync has covered: a continued WAL's
    /// earlier records. The next flush syncs even with an empty buffer.
    unsynced: bool,
    stop: bool,
    last_error: Option<String>,
}

struct Shared {
    state: Mutex<WriterState>,
    wake: Condvar,
    cfg: WalConfig,
    appended: AtomicU64,
    since_rotate: AtomicU64,
}

/// An append-only record log with background group commit.
///
/// `append` is `&self` and thread-safe, so the controller's concurrent
/// read path (touches, metric reports) can log under a shared borrow.
/// Dropping the writer stops the flusher and flushes the remaining
/// buffer.
pub struct WalWriter {
    shared: Arc<Shared>,
    flusher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter").field("appended", &self.appended()).finish()
    }
}

fn lock_state(shared: &Shared) -> MutexGuard<'_, WriterState> {
    shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn flush_locked(state: &mut WriterState) -> std::io::Result<()> {
    if state.buf.is_empty() && !state.unsynced {
        return Ok(());
    }
    let result = state.file.write_all(&state.buf).and_then(|()| state.file.sync_data());
    // Clear even on error: retrying a partial write would interleave
    // duplicate bytes mid-file, which is worse than a (reader-tolerated)
    // torn tail.
    state.buf.clear();
    match &result {
        Ok(()) => state.unsynced = false,
        Err(e) => state.last_error = Some(e.to_string()),
    }
    result
}

/// Fsyncs directory `dir`, making the entries created or renamed in it
/// durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Creates (truncating) the file at `path` and fsyncs its directory, so
/// the file survives a crash before its first byte is written. A file
/// whose directory fsync fails is removed again.
fn create_durably(path: &Path) -> std::io::Result<File> {
    let file = File::create(path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    if let Err(e) = sync_dir(dir) {
        let _ = fs::remove_file(path);
        return Err(e);
    }
    Ok(file)
}

impl WalWriter {
    /// Creates a fresh WAL at `path` (truncating any existing file), fsyncs
    /// its directory and starts the background flusher.
    ///
    /// # Errors
    ///
    /// I/O errors creating the file or syncing its directory.
    pub fn create(path: &Path, cfg: WalConfig) -> std::io::Result<Self> {
        Ok(Self::start(create_durably(path)?, false, cfg))
    }

    /// Continues the existing WAL at `path` after its first `len` bytes —
    /// the valid record prefix a reader found. Bytes past `len` (a torn
    /// final record) are cut off, and the cut is fsynced before this
    /// returns, so no append can land behind a torn record. The kept bytes
    /// are fsynced by the first group commit, even if nothing is appended.
    ///
    /// # Errors
    ///
    /// I/O errors opening, truncating or syncing the file.
    pub fn resume(path: &Path, len: u64, cfg: WalConfig) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        if file.metadata()?.len() > len {
            file.set_len(len)?;
            file.sync_data()?;
        }
        Ok(Self::start(file, true, cfg))
    }

    /// The one constructor body: wraps `file` (positioned at its end) and
    /// starts the background flusher.
    fn start(file: File, unsynced: bool, cfg: WalConfig) -> Self {
        let state = WriterState { file, buf: Vec::new(), unsynced, stop: false, last_error: None };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            wake: Condvar::new(),
            cfg,
            appended: AtomicU64::new(0),
            since_rotate: AtomicU64::new(0),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("harmony-wal-flush".into())
                .spawn(move || Self::run_flusher(&shared))
                .expect("spawn WAL flusher")
        };
        WalWriter { shared, flusher: Some(flusher) }
    }

    fn run_flusher(shared: &Shared) {
        let mut guard = lock_state(shared);
        loop {
            if guard.stop {
                let _ = flush_locked(&mut guard);
                return;
            }
            let (g, _) = shared
                .wake
                .wait_timeout(guard, shared.cfg.flush_interval)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard = g;
            let _ = flush_locked(&mut guard);
        }
    }

    /// Appends one record (buffered; durable within one flush interval).
    /// Flushes inline when the buffer is past its high-water mark.
    ///
    /// # Errors
    ///
    /// I/O errors from an inline (backpressure) flush, or a previously
    /// recorded flush failure.
    pub fn append(&self, payload: &[u8]) -> std::io::Result<()> {
        let mut state = lock_state(&self.shared);
        if let Some(e) = state.last_error.clone() {
            return Err(std::io::Error::other(e));
        }
        encode_record(payload, &mut state.buf);
        self.shared.appended.fetch_add(1, Ordering::Relaxed);
        self.shared.since_rotate.fetch_add(1, Ordering::Relaxed);
        if state.buf.len() >= self.shared.cfg.max_buffer {
            flush_locked(&mut state)?;
        }
        Ok(())
    }

    /// Flushes and fsyncs everything appended so far.
    ///
    /// # Errors
    ///
    /// I/O errors from the flush.
    pub fn sync(&self) -> std::io::Result<()> {
        flush_locked(&mut lock_state(&self.shared))
    }

    /// Flushes the current file, then atomically switches appends to a
    /// fresh file at `path` (used when a compacting snapshot starts a new
    /// generation). The new file's directory is fsynced before the first
    /// append can reach it.
    ///
    /// # Errors
    ///
    /// I/O errors flushing the old file, or creating the new one or
    /// syncing its directory; appends then keep going to the old file.
    pub fn rotate(&self, path: &Path) -> std::io::Result<()> {
        let mut state = lock_state(&self.shared);
        flush_locked(&mut state)?;
        state.file = create_durably(path)?;
        state.last_error = None;
        self.shared.since_rotate.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Records appended over the writer's lifetime.
    pub fn appended(&self) -> u64 {
        self.shared.appended.load(Ordering::Relaxed)
    }

    /// Records appended since the last [`WalWriter::rotate`].
    pub fn appended_since_rotate(&self) -> u64 {
        self.shared.since_rotate.load(Ordering::Relaxed)
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        lock_state(&self.shared).stop = true;
        self.shared.wake.notify_all();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

// ----------------------------------------------------------------------
// The generation-numbered state directory.
// ----------------------------------------------------------------------

/// A state directory holding `harmony-<gen>.snap` / `harmony-<gen>.wal`
/// pairs: snapshot `N` is the state at the moment WAL `N` started, so
/// recovery is "latest valid snapshot plus every WAL from its generation
/// on".
#[derive(Debug, Clone)]
pub struct StateDir {
    dir: PathBuf,
}

fn parse_generation(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("harmony-")?;
    let gen = rest.strip_suffix(".snap").or_else(|| rest.strip_suffix(".wal"))?;
    gen.parse().ok()
}

impl StateDir {
    /// Opens (creating if needed) the state directory.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(StateDir { dir: dir.to_path_buf() })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Every file of a generation in the directory, with its generation
    /// number: the one reader of the directory's file names.
    fn files(&self) -> std::io::Result<Vec<(u64, PathBuf)>> {
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(gen) = entry.file_name().to_str().and_then(parse_generation) {
                files.push((gen, entry.path()));
            }
        }
        Ok(files)
    }

    /// Every generation number present (from either file of the pair),
    /// ascending.
    ///
    /// # Errors
    ///
    /// I/O errors listing the directory.
    pub fn generations(&self) -> std::io::Result<Vec<u64>> {
        let mut gens: Vec<u64> = self.files()?.into_iter().map(|(gen, _)| gen).collect();
        gens.sort_unstable();
        gens.dedup();
        Ok(gens)
    }

    /// Path of generation `gen`'s snapshot.
    pub fn snapshot_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("harmony-{gen:08}.snap"))
    }

    /// Path of generation `gen`'s WAL.
    pub fn wal_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("harmony-{gen:08}.wal"))
    }

    /// Durably writes generation `gen`'s snapshot: temp file, fsync,
    /// atomic rename, directory fsync. A crash at any point leaves either
    /// the old state or the complete new snapshot, never a partial one.
    ///
    /// # Errors
    ///
    /// I/O errors at any step.
    pub fn write_snapshot(&self, gen: u64, bytes: &[u8]) -> std::io::Result<()> {
        let target = self.snapshot_path(gen);
        let tmp = self.dir.join(format!("harmony-{gen:08}.snap.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &target)?;
        // Persist the rename itself.
        sync_dir(&self.dir)
    }

    /// Removes generation `gen`'s snapshot, if present, and fsyncs the
    /// directory so the removal survives a crash.
    ///
    /// # Errors
    ///
    /// I/O errors removing the file or syncing the directory.
    pub fn remove_snapshot(&self, gen: u64) -> std::io::Result<()> {
        match fs::remove_file(self.snapshot_path(gen)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        sync_dir(&self.dir)
    }

    /// Removes every `harmony-<gen>.snap.tmp` a crash in
    /// [`StateDir::write_snapshot`] left behind: no generation reads one.
    /// Returns how many were removed.
    ///
    /// # Errors
    ///
    /// I/O errors listing the directory (individual remove failures are
    /// ignored, as in [`StateDir::purge_below`]).
    pub fn remove_snapshot_temps(&self) -> std::io::Result<usize> {
        let is_temp = |name: &str| {
            let gen = name.strip_prefix("harmony-").and_then(|n| n.strip_suffix(".snap.tmp"));
            gen.is_some_and(|gen| gen.parse::<u64>().is_ok())
        };
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(is_temp)
                && fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Reads generation `gen`'s snapshot bytes.
    ///
    /// # Errors
    ///
    /// I/O errors (including the file not existing).
    pub fn read_snapshot(&self, gen: u64) -> std::io::Result<Vec<u8>> {
        fs::read(self.snapshot_path(gen))
    }

    /// Deletes every snapshot/WAL pair with generation below `keep`.
    /// Returns how many files were removed.
    ///
    /// # Errors
    ///
    /// I/O errors listing the directory (individual remove failures are
    /// ignored — a leftover old generation is harmless).
    pub fn purge_below(&self, keep: u64) -> std::io::Result<usize> {
        let files = self.files()?.into_iter();
        Ok(files.filter(|(gen, path)| *gen < keep && fs::remove_file(path).is_ok()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "harmony-wal-test-{}-{}-{tag}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").replace("::", "-")
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn records_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("a.wal");
        let w = WalWriter::create(&path, WalConfig::default()).unwrap();
        for i in 0..100 {
            w.append(format!("record-{i}").as_bytes()).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.appended(), 100);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.tail, WalTail::Clean);
        assert_eq!(read.records.len(), 100);
        assert_eq!(read.records[42], b"record-42");
        drop(w);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes_the_buffer() {
        let dir = temp_dir("dropflush");
        let path = dir.join("a.wal");
        {
            let w = WalWriter::create(
                &path,
                WalConfig { flush_interval: Duration::from_secs(3600), max_buffer: 1 << 20 },
            )
            .unwrap();
            w.append(b"buffered").unwrap();
        } // drop: flusher never ticked, the drop path must flush
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![b"buffered".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_tolerated() {
        let dir = temp_dir("torn");
        let path = dir.join("a.wal");
        let w = WalWriter::create(&path, WalConfig::default()).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        w.sync().unwrap();
        drop(w);
        // Chop the file mid-way through the last record.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![b"first".to_vec()]);
        assert!(matches!(read.tail, WalTail::Torn { .. }), "got {:?}", read.tail);
        // Chop into the header of the second record.
        fs::write(&path, &bytes[..bytes.len() - b"second".len() - 2]).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![b"first".to_vec()]);
        assert!(matches!(read.tail, WalTail::Torn { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_final_record_reads_as_torn() {
        // A crash can also overwrite the tail with garbage of the right
        // length; CRC failure at exactly EOF is still a torn write.
        let dir = temp_dir("corrupt-tail");
        let path = dir.join("a.wal");
        let w = WalWriter::create(&path, WalConfig::default()).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        w.sync().unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![b"first".to_vec()]);
        assert!(matches!(read.tail, WalTail::Torn { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_is_reported() {
        let dir = temp_dir("corrupt-mid");
        let path = dir.join("a.wal");
        let w = WalWriter::create(&path, WalConfig::default()).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        w.append(b"third").unwrap();
        w.sync().unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the middle record ("second" starts after
        // first's header+payload plus second's header).
        let offset = HEADER + b"first".len() + HEADER;
        bytes[offset] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records, vec![b"first".to_vec()]);
        assert_eq!(
            read.tail,
            WalTail::Corrupted { record: 1, offset: (HEADER + b"first".len()) as u64 }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_boundaries_enumerate_every_clean_cut() {
        let mut data = Vec::new();
        let payloads: [&[u8]; 3] = [b"one", b"second-record", b""];
        for p in payloads {
            encode_record(p, &mut data);
        }
        let bounds = record_boundaries(&data);
        assert_eq!(bounds.len(), payloads.len() + 1);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), data.len() as u64);
        // Cutting at each boundary leaves a clean prefix of exactly k
        // records; cutting anywhere strictly between two boundaries
        // leaves the same records plus a torn tail.
        for (k, &b) in bounds.iter().enumerate() {
            let read = decode_records(&data[..b as usize]);
            assert_eq!(read.tail, WalTail::Clean, "cut at {b}");
            assert_eq!(read.records.len(), k, "cut at {b}");
        }
        for w in bounds.windows(2) {
            let mid = (w[0] + 1 + (w[1] - w[0]) / 2) as usize;
            let read = decode_records(&data[..mid]);
            assert!(matches!(read.tail, WalTail::Torn { .. }), "cut at {mid}");
        }
    }

    #[test]
    fn record_boundaries_stop_at_damage() {
        let mut data = Vec::new();
        encode_record(b"good", &mut data);
        encode_record(b"bad", &mut data);
        encode_record(b"after", &mut data);
        let full = record_boundaries(&data);
        assert_eq!(full.len(), 4);
        data[(full[1] as usize) + HEADER] ^= 0xff; // corrupt "bad"'s payload
        let bounds = record_boundaries(&data);
        assert_eq!(bounds, full[..2], "no boundary may be reported past the damage");
        assert_eq!(record_boundaries(b""), vec![0]);
    }

    #[test]
    fn oversized_length_prefix_is_damage() {
        let mut data = Vec::new();
        encode_record(b"ok", &mut data);
        data.extend_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        data.extend_from_slice(&[0u8; 40]);
        let read = decode_records(&data);
        assert_eq!(read.records, vec![b"ok".to_vec()]);
        assert!(matches!(read.tail, WalTail::Torn { .. }));
    }

    #[test]
    fn backpressure_flushes_inline() {
        let dir = temp_dir("backpressure");
        let path = dir.join("a.wal");
        let w = WalWriter::create(
            &path,
            WalConfig { flush_interval: Duration::from_secs(3600), max_buffer: 64 },
        )
        .unwrap();
        for _ in 0..8 {
            w.append(&[7u8; 32]).unwrap(); // 40 bytes each: crosses 64 every other append
        }
        // The flusher never ran (1h interval), yet the file already holds
        // most of the data because appends flushed inline.
        let read = read_wal(&path).unwrap();
        assert!(read.records.len() >= 6, "only {} records on disk", read.records.len());
        drop(w);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotate_switches_files_cleanly() {
        let dir = temp_dir("rotate");
        let a = dir.join("a.wal");
        let b = dir.join("b.wal");
        let w = WalWriter::create(&a, WalConfig::default()).unwrap();
        w.append(b"one").unwrap();
        w.rotate(&b).unwrap();
        assert_eq!(w.appended_since_rotate(), 0);
        w.append(b"two").unwrap();
        w.sync().unwrap();
        assert_eq!(read_wal(&a).unwrap().records, vec![b"one".to_vec()]);
        assert_eq!(read_wal(&b).unwrap().records, vec![b"two".to_vec()]);
        assert_eq!(w.appended(), 2);
        drop(w);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_cuts_a_torn_tail_and_appends_after_the_last_record() {
        let dir = temp_dir("resume");
        let path = dir.join("a.wal");
        let w = WalWriter::create(&path, WalConfig::default()).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        drop(w);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 2);
        fs::write(&path, &bytes).unwrap();
        let WalTail::Torn { offset } = read_wal(&path).unwrap().tail else {
            panic!("the cut must read as torn")
        };
        let w = WalWriter::resume(&path, offset, WalConfig::default()).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), offset, "the torn tail is cut at once");
        w.append(b"third").unwrap();
        w.sync().unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.tail, WalTail::Clean);
        assert_eq!(read.records, vec![b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(w.appended(), 1, "the writer counts its own appends");
        drop(w);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_temps_are_removed_and_nothing_else() {
        let dir = temp_dir("temps");
        let sd = StateDir::open(&dir).unwrap();
        sd.write_snapshot(1, b"{}").unwrap();
        fs::write(sd.wal_path(1), b"").unwrap();
        fs::write(dir.join("harmony-00000002.snap.tmp"), b"{ half").unwrap();
        fs::write(dir.join("notes.snap.tmp"), b"x").unwrap();
        assert_eq!(sd.remove_snapshot_temps().unwrap(), 1);
        assert!(!dir.join("harmony-00000002.snap.tmp").exists());
        assert!(dir.join("notes.snap.tmp").exists(), "only a generation's temp is removed");
        assert_eq!(sd.generations().unwrap(), vec![1]);
        sd.remove_snapshot(1).unwrap();
        sd.remove_snapshot(1).unwrap(); // absent: nothing to do
        assert_eq!(sd.generations().unwrap(), vec![1], "the WAL stays");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_dir_generations_and_purge() {
        let dir = temp_dir("statedir");
        let sd = StateDir::open(&dir).unwrap();
        assert!(sd.generations().unwrap().is_empty());
        sd.write_snapshot(1, b"{\"v\":1}").unwrap();
        sd.write_snapshot(3, b"{\"v\":3}").unwrap();
        fs::write(sd.wal_path(3), b"").unwrap();
        fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        assert_eq!(sd.generations().unwrap(), vec![1, 3]);
        assert_eq!(sd.read_snapshot(3).unwrap(), b"{\"v\":3}");
        let removed = sd.purge_below(3).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(sd.generations().unwrap(), vec![3]);
        let _ = fs::remove_dir_all(&dir);
    }
}
