//! Write-ahead-log substrate: checksummed frame codec, append backends,
//! fsync-batched writer, fault-injection shim, and the recovery scanner.
//!
//! This module is deliberately *semantics-free*: a frame carries an opaque
//! payload plus a 32-bit `table_tag` routing hint. The engine layer
//! (`hsd-engine`'s durability module) decides what payloads mean and how to
//! replay them; this layer owns the byte format, the checksums, and the
//! torn-tail/corruption classification that makes recovery safe.
//!
//! # Frame format
//!
//! Every record is one frame: a 16-byte header followed by the payload.
//!
//! ```text
//! offset  size  field
//! 0       4     payload length        (u32, little endian)
//! 4       4     payload CRC-32        (IEEE, over the payload bytes)
//! 8       4     table tag             (routing hint; 0 = global record)
//! 12      4     header CRC-32         (over header bytes 0..12)
//! 16      len   payload
//! ```
//!
//! The header carries its *own* checksum so a scanner can distinguish "the
//! frame boundary itself is garbage" (torn tail — stop and truncate) from
//! "the boundary is sound but the payload is damaged" (interior corruption —
//! skip the record, quarantine the tag, keep scanning). The `table_tag`
//! travels in the separately-checksummed header precisely so interior
//! corruption can still be *attributed* to a table even though the payload
//! is unreadable.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a single payload. A length field that passes the header
/// CRC but exceeds this is treated as corruption rather than an allocation
/// request — a belt-and-suspenders guard against CRC collisions on garbage.
pub const MAX_PAYLOAD_LEN: usize = 1 << 30;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets [`crc32`] fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the checksum used by both frame header and
/// payload, by every segment block, and by callers deriving stable 32-bit
/// tags from names. Segment reads verify a CRC on every statement that
/// touches a disk-resident partition, so this folds eight bytes per step
/// (slicing-by-8) rather than one.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Frame codec

/// Encode one frame (header + payload) ready for appending.
pub fn encode_frame(table_tag: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(&table_tag.to_le_bytes());
    let header_crc = crc32(&buf[..12]);
    buf.extend_from_slice(&header_crc.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// One structurally valid frame with a payload that passed its checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Byte offset of the frame header in the log.
    pub offset: u64,
    /// Routing tag from the header (0 = global record).
    pub table_tag: u32,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// A frame whose header was sound but whose payload failed its checksum —
/// interior corruption, attributable via the header's tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptFrame {
    /// Byte offset of the frame header in the log.
    pub offset: u64,
    /// Routing tag from the (separately checksummed) header.
    pub table_tag: u32,
}

/// Result of scanning a log image: the valid frames, the corrupt interior
/// frames, and where the structurally sound prefix ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Frames whose header and payload both verified, in log order.
    pub frames: Vec<Frame>,
    /// Interior frames with a sound header but a damaged payload.
    pub corrupt: Vec<CorruptFrame>,
    /// End of the last structurally sound frame: the offset appends should
    /// resume from (a torn tail past this point is truncated).
    pub recovered_len: u64,
    /// Total bytes examined.
    pub scanned_len: u64,
    /// Offset of a torn/garbage tail, when one was found. Everything at and
    /// past this offset is not a frame and must be discarded.
    pub torn_tail: Option<u64>,
}

/// Scan a log image into frames.
///
/// Classification rules:
/// * truncated or checksum-failing **header**, oversized length, or payload
///   extending past the image → *torn tail*: scanning stops and
///   [`ScanReport::recovered_len`] marks the truncation point;
/// * sound header, checksum-failing **payload** → *interior corruption*: the
///   frame is reported in [`ScanReport::corrupt`] and scanning continues
///   (the frame's slot stays in the log — later frames remain valid).
pub fn scan_frames(bytes: &[u8]) -> ScanReport {
    let mut report = ScanReport {
        scanned_len: bytes.len() as u64,
        ..ScanReport::default()
    };
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < HEADER_LEN {
            report.torn_tail = Some(off as u64);
            break;
        }
        let stored_header_crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
        if crc32(&rest[..12]) != stored_header_crc {
            report.torn_tail = Some(off as u64);
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let payload_crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let table_tag = u32::from_le_bytes(rest[8..12].try_into().unwrap());
        if len > MAX_PAYLOAD_LEN || rest.len() < HEADER_LEN + len {
            report.torn_tail = Some(off as u64);
            break;
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        if crc32(payload) == payload_crc {
            report.frames.push(Frame {
                offset: off as u64,
                table_tag,
                payload: payload.to_vec(),
            });
        } else {
            report.corrupt.push(CorruptFrame {
                offset: off as u64,
                table_tag,
            });
        }
        off += HEADER_LEN + len;
        report.recovered_len = off as u64;
    }
    report
}

// ---------------------------------------------------------------------------
// Append backends

/// An append-only byte sink the WAL writes through. Implementations may
/// short-write (return `Ok(n)` with `n < buf.len()`) and may fail with
/// transient [`io::ErrorKind::Interrupted`] errors; the [`WalWriter`]
/// retries both with bounded backoff.
pub trait WalBackend: Send + fmt::Debug {
    /// Append up to `buf.len()` bytes, returning how many were written.
    fn append(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Flush appended bytes to durable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Bytes appended so far (the current end of the log).
    fn len(&self) -> u64;
    /// Whether nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// A detachable device-sync half, if the backend can sync concurrently
    /// with appends (a file can: fsync on a duplicated descriptor flushes
    /// the same inode the append path keeps writing). `None` means syncs
    /// must serialize with appends through `&mut self`. Group commit uses
    /// the handle to fsync *outside* the append lock, so one sync covers a
    /// whole batch of concurrently appended records.
    fn sync_handle(&self) -> Option<Box<dyn WalSyncHandle>> {
        None
    }
}

/// Device-sync half of a [`WalBackend`], detached via
/// [`WalBackend::sync_handle`]. A successful [`WalSyncHandle::sync`] makes
/// every byte appended *before the call started* durable; bytes appended
/// concurrently may or may not be covered.
pub trait WalSyncHandle: Send + fmt::Debug {
    /// Flush the backend's appended bytes to durable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// Real-file backend: appends to a [`File`], syncing with `sync_data`.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    len: u64,
}

impl FileBackend {
    /// Open (creating if missing) `path` for appending.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Self::at_end(file, len)
    }

    /// Open `path`, truncate it to `keep_len` bytes (discarding a torn
    /// tail), and position for appending. Used by recovery.
    pub fn open_truncated(path: impl AsRef<Path>, keep_len: u64) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if file.metadata()?.len() != keep_len {
            file.set_len(keep_len)?;
            file.sync_data()?;
        }
        Self::at_end(file, keep_len)
    }

    fn at_end(mut file: File, len: u64) -> io::Result<Self> {
        file.seek(SeekFrom::Start(len))?;
        Ok(FileBackend { file, len })
    }
}

impl WalBackend for FileBackend {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.len += n as u64;
        Ok(n)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn sync_handle(&self) -> Option<Box<dyn WalSyncHandle>> {
        let file = self.file.try_clone().ok()?;
        Some(Box::new(FileSyncHandle { file }))
    }
}

/// `sync_data` on a duplicated descriptor of a [`FileBackend`]'s file.
#[derive(Debug)]
struct FileSyncHandle {
    file: File,
}

impl WalSyncHandle for FileSyncHandle {
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// In-memory backend over shared bytes, so a test harness can snapshot the
/// log image at arbitrary points ("what was on disk at the crash") while a
/// writer keeps appending through the same handle.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemBackend {
    /// Fresh empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// A second handle onto the same bytes (clone is equivalent; this name
    /// documents the intent at call sites).
    pub fn share(&self) -> Self {
        self.clone()
    }

    /// Copy of the current log image.
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

impl WalBackend for MemBackend {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn len(&self) -> u64 {
        self.bytes.lock().unwrap_or_else(|p| p.into_inner()).len() as u64
    }

    fn sync_handle(&self) -> Option<Box<dyn WalSyncHandle>> {
        // Memory is "durable" the moment it is appended.
        Some(Box::new(NoopSyncHandle))
    }
}

#[derive(Debug)]
struct NoopSyncHandle;

impl WalSyncHandle for NoopSyncHandle {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Fault plan for [`FaultFile`]: which I/O pathologies to inject.
///
/// All faults default to off; a default plan is a transparent pass-through.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Simulated media death: bytes past this absolute offset are dropped
    /// and every later append fails. A boundary in the middle of a frame
    /// produces exactly the torn tail a real crash leaves behind.
    pub crash_after_bytes: Option<u64>,
    /// Flip the lowest bit of the byte written at this absolute offset —
    /// silent corruption that checksums must catch.
    pub bit_flip_at: Option<u64>,
    /// Fail this many appends with [`io::ErrorKind::Interrupted`] before
    /// letting writes through (transient `EINTR`-style faults).
    pub transient_failures: u32,
    /// Cap every append at this many bytes (persistent short writes, so
    /// callers must loop).
    pub short_write_cap: Option<usize>,
}

/// Fault-injecting wrapper around any [`WalBackend`] (see [`FaultPlan`]).
#[derive(Debug)]
pub struct FaultFile {
    inner: Box<dyn WalBackend>,
    plan: FaultPlan,
    transient_left: u32,
    /// Appends rejected with an injected transient error so far.
    transient_injected: u32,
}

impl FaultFile {
    /// Wrap `inner` with the given fault plan.
    pub fn new(inner: Box<dyn WalBackend>, plan: FaultPlan) -> Self {
        let transient_left = plan.transient_failures;
        FaultFile {
            inner,
            plan,
            transient_left,
            transient_injected: 0,
        }
    }

    /// How many transient failures have been injected so far.
    pub fn transient_injected(&self) -> u32 {
        self.transient_injected
    }
}

impl WalBackend for FaultFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.transient_left > 0 {
            self.transient_left -= 1;
            self.transient_injected += 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient fault",
            ));
        }
        let pos = self.inner.len();
        let mut allowed = buf.len();
        if let Some(crash) = self.plan.crash_after_bytes {
            if pos >= crash {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected crash: log device is gone",
                ));
            }
            allowed = allowed.min((crash - pos) as usize);
        }
        if let Some(cap) = self.plan.short_write_cap {
            allowed = allowed.min(cap.max(1));
        }
        let mut chunk = buf[..allowed].to_vec();
        if let Some(flip) = self.plan.bit_flip_at {
            if flip >= pos && flip < pos + allowed as u64 {
                chunk[(flip - pos) as usize] ^= 1;
            }
        }
        // Write the (possibly corrupted, possibly truncated) chunk fully
        // into the inner backend; partiality toward the caller is the fault
        // being modeled, not the inner backend's.
        let mut off = 0;
        while off < chunk.len() {
            let n = self.inner.append(&chunk[off..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "inner backend refused bytes",
                ));
            }
            off += n;
        }
        Ok(allowed)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

// ---------------------------------------------------------------------------
// Writer

/// When the writer syncs the backend — the fsync batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every appended record (maximum durability, slowest).
    Always,
    /// Group commit: sync once every `n` appended records. Between syncs,
    /// committed records are in the OS page cache — a crash may lose up to
    /// `n - 1` of the latest records, never corrupt earlier ones.
    EveryN(usize),
    /// Sync only when [`WalWriter::sync`] is called explicitly.
    Manual,
}

/// Bounded retry/backoff for transient append failures.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// How many [`io::ErrorKind::Interrupted`] failures to absorb per
    /// record before giving up.
    pub max_retries: u32,
    /// Sleep between retries (use [`Duration::ZERO`] in tests).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            backoff: Duration::from_micros(50),
        }
    }
}

/// Lifetime counters of a [`WalWriter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Total frame bytes appended (headers + payloads).
    pub frame_bytes: u64,
    /// Payload bytes appended (excluding frame headers).
    pub payload_bytes: u64,
    /// Backend syncs issued.
    pub syncs: u64,
    /// Transient append failures absorbed by retry.
    pub retries: u64,
}

/// Frame-appending WAL writer: encodes records, retries transient faults
/// with bounded backoff, and batches fsyncs per [`SyncPolicy`].
#[derive(Debug)]
pub struct WalWriter {
    backend: Box<dyn WalBackend>,
    sync: SyncPolicy,
    retry: RetryPolicy,
    unsynced: usize,
    stats: WalStats,
}

impl WalWriter {
    /// Writer over `backend` with the given sync policy and default retry.
    pub fn new(backend: Box<dyn WalBackend>, sync: SyncPolicy) -> Self {
        Self::with_retry(backend, sync, RetryPolicy::default())
    }

    /// Writer with an explicit retry policy.
    pub fn with_retry(backend: Box<dyn WalBackend>, sync: SyncPolicy, retry: RetryPolicy) -> Self {
        WalWriter {
            backend,
            sync,
            retry,
            unsynced: 0,
            stats: WalStats::default(),
        }
    }

    /// Append one record, returning the log length after the append. The
    /// record is *committed* (replayable) once this returns `Ok`; it is
    /// *durable* once the next sync per [`SyncPolicy`] lands.
    pub fn append(&mut self, table_tag: u32, payload: &[u8]) -> io::Result<u64> {
        let len = self.append_unsynced(table_tag, payload)?;
        self.sync_if_due()?;
        Ok(len)
    }

    /// Apply the sync policy to the records appended so far: sync under
    /// [`SyncPolicy::Always`] or once a full [`SyncPolicy::EveryN`] batch is
    /// pending. An `Err` here means the records are appended (committed)
    /// but not yet durable; the batch stays pending for the next sync.
    pub fn sync_if_due(&mut self) -> io::Result<()> {
        let due = match self.sync {
            SyncPolicy::Always => self.unsynced > 0,
            SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            SyncPolicy::Manual => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Append one record *without* applying the sync policy: the record is
    /// committed but its durability is the caller's responsibility. This is
    /// the building block of cross-thread group commit — one later
    /// [`WalWriter::sync`] covers every record appended before it, so
    /// concurrent writers coalesce their fsyncs instead of paying one each.
    ///
    /// A payload over [`MAX_PAYLOAD_LEN`] is rejected with
    /// [`io::ErrorKind::InvalidInput`] before a byte is written: the scanner
    /// would classify its frame as a torn tail and drop it, and every record
    /// after it, at the next recovery.
    pub fn append_unsynced(&mut self, table_tag: u32, payload: &[u8]) -> io::Result<u64> {
        let fits = u32::try_from(payload.len()).is_ok_and(|n| n as usize <= MAX_PAYLOAD_LEN);
        if !fits {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "wal payload of {} bytes exceeds the {MAX_PAYLOAD_LEN}-byte frame limit",
                    payload.len()
                ),
            ));
        }
        let frame = encode_frame(table_tag, payload);
        let mut off = 0usize;
        let mut retries = 0u32;
        while off < frame.len() {
            match self.backend.append(&frame[off..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "wal backend accepted no bytes",
                    ));
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    if retries >= self.retry.max_retries {
                        return Err(e);
                    }
                    retries += 1;
                    self.stats.retries += 1;
                    if !self.retry.backoff.is_zero() {
                        std::thread::sleep(self.retry.backoff);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        self.stats.records += 1;
        self.stats.frame_bytes += frame.len() as u64;
        self.stats.payload_bytes += payload.len() as u64;
        self.unsynced += 1;
        Ok(self.backend.len())
    }

    /// The writer's configured sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// Detachable device-sync handle, when the backend supports syncing
    /// concurrently with appends (see [`WalBackend::sync_handle`]).
    pub fn sync_handle(&self) -> Option<Box<dyn WalSyncHandle>> {
        self.backend.sync_handle()
    }

    /// Record that an external [`WalSyncHandle::sync`] completed: count it
    /// and reset the unsynced-record batch (the handle's sync covered every
    /// record appended before it started; treating later concurrent appends
    /// as covered only affects [`SyncPolicy::EveryN`] batch accounting,
    /// and group commit is used with [`SyncPolicy::Always`]).
    pub fn note_external_sync(&mut self) {
        self.stats.syncs += 1;
        self.unsynced = 0;
    }

    /// Sync the backend now (flushes the current fsync batch).
    pub fn sync(&mut self) -> io::Result<()> {
        self.backend.sync()?;
        self.stats.syncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.backend.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // The eight-byte folding agrees with the byte-at-a-time definition
        // at every length and alignment of the tail.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            let bytewise = !data[..len].iter().fold(!0u32, |c, &b| {
                CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
            });
            assert_eq!(crc32(&data[..len]), bytewise, "length {len}");
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(7, b"hello"));
        log.extend_from_slice(&encode_frame(0, b""));
        log.extend_from_slice(&encode_frame(9, b"world!"));
        let report = scan_frames(&log);
        assert_eq!(report.frames.len(), 3);
        assert!(report.corrupt.is_empty());
        assert_eq!(report.torn_tail, None);
        assert_eq!(report.recovered_len, log.len() as u64);
        assert_eq!(report.frames[0].table_tag, 7);
        assert_eq!(report.frames[0].payload, b"hello");
        assert_eq!(report.frames[1].payload, b"");
        assert_eq!(report.frames[2].payload, b"world!");
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(1, b"first record"));
        let keep = log.len();
        log.extend_from_slice(&encode_frame(2, b"second record"));
        for cut in keep + 1..log.len() {
            let report = scan_frames(&log[..cut]);
            assert_eq!(report.frames.len(), 1, "cut at {cut}");
            assert_eq!(report.recovered_len, keep as u64, "cut at {cut}");
            assert_eq!(report.torn_tail, Some(keep as u64), "cut at {cut}");
        }
    }

    #[test]
    fn interior_payload_corruption_is_attributed_and_skipped() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(1, b"aaaa"));
        let second = log.len();
        log.extend_from_slice(&encode_frame(42, b"bbbb"));
        log.extend_from_slice(&encode_frame(3, b"cccc"));
        // Flip a payload byte of the middle frame.
        log[second + HEADER_LEN] ^= 0xFF;
        let report = scan_frames(&log);
        assert_eq!(report.frames.len(), 2);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].table_tag, 42);
        assert_eq!(report.corrupt[0].offset, second as u64);
        assert_eq!(report.torn_tail, None);
        assert_eq!(report.recovered_len, log.len() as u64);
        // Later frames still decode.
        assert_eq!(report.frames[1].payload, b"cccc");
    }

    #[test]
    fn interior_header_corruption_truncates() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(1, b"aaaa"));
        let second = log.len();
        log.extend_from_slice(&encode_frame(2, b"bbbb"));
        log[second + 2] ^= 0xFF; // damage the length field
        let report = scan_frames(&log);
        assert_eq!(report.frames.len(), 1);
        assert_eq!(report.torn_tail, Some(second as u64));
        assert_eq!(report.recovered_len, second as u64);
    }

    #[test]
    fn writer_batches_syncs() {
        let mem = MemBackend::new();
        let mut w = WalWriter::new(Box::new(mem.share()), SyncPolicy::EveryN(3));
        for i in 0..7u8 {
            w.append(1, &[i]).unwrap();
        }
        assert_eq!(w.stats().records, 7);
        assert_eq!(w.stats().syncs, 2, "7 records under every-3 batching");
        w.sync().unwrap();
        assert_eq!(w.stats().syncs, 3);
        let report = scan_frames(&mem.snapshot());
        assert_eq!(report.frames.len(), 7);
    }

    #[test]
    fn oversized_payload_is_rejected_before_writing() {
        let mem = MemBackend::new();
        let mut w = WalWriter::new(Box::new(mem.share()), SyncPolicy::Always);
        w.append(1, b"kept").unwrap();
        let before = w.len();
        // A zeroed allocation is mapped lazily: this costs no resident memory.
        let huge = vec![0u8; MAX_PAYLOAD_LEN + 1];
        let err = w.append(1, &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.len(), before, "not a byte of the frame was written");
        assert_eq!(w.stats().records, 1);
        assert_eq!(scan_frames(&mem.snapshot()).frames.len(), 1);
    }

    #[test]
    fn writer_retries_transient_faults() {
        let mem = MemBackend::new();
        let faulty = FaultFile::new(
            Box::new(mem.share()),
            FaultPlan {
                transient_failures: 3,
                short_write_cap: Some(5),
                ..FaultPlan::default()
            },
        );
        let mut w = WalWriter::with_retry(
            Box::new(faulty),
            SyncPolicy::Always,
            RetryPolicy {
                max_retries: 4,
                backoff: Duration::ZERO,
            },
        );
        w.append(1, b"a payload that takes several short writes")
            .unwrap();
        assert_eq!(w.stats().retries, 3);
        let report = scan_frames(&mem.snapshot());
        assert_eq!(report.frames.len(), 1);
    }

    #[test]
    fn writer_gives_up_after_bounded_retries() {
        let faulty = FaultFile::new(
            Box::new(MemBackend::new()),
            FaultPlan {
                transient_failures: 10,
                ..FaultPlan::default()
            },
        );
        let mut w = WalWriter::with_retry(
            Box::new(faulty),
            SyncPolicy::Manual,
            RetryPolicy {
                max_retries: 2,
                backoff: Duration::ZERO,
            },
        );
        let err = w.append(1, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn crash_fault_leaves_a_torn_tail() {
        let mem = MemBackend::new();
        let mut w = WalWriter::new(Box::new(mem.share()), SyncPolicy::Manual);
        w.append(1, b"committed before the crash").unwrap();
        let committed = w.len();
        let faulty = FaultFile::new(
            Box::new(mem.share()),
            FaultPlan {
                crash_after_bytes: Some(committed + 9),
                ..FaultPlan::default()
            },
        );
        let mut w = WalWriter::new(Box::new(faulty), SyncPolicy::Manual);
        assert!(w.append(1, b"lost in the crash").is_err());
        let report = scan_frames(&mem.snapshot());
        assert_eq!(report.frames.len(), 1, "only the pre-crash record scans");
        assert_eq!(report.torn_tail, Some(committed));
        assert_eq!(report.recovered_len, committed);
    }

    #[test]
    fn bit_flip_fault_corrupts_exactly_one_record() {
        let mem = MemBackend::new();
        let mut w = WalWriter::new(Box::new(mem.share()), SyncPolicy::Manual);
        w.append(1, b"clean").unwrap();
        let start = w.len();
        let faulty = FaultFile::new(
            Box::new(mem.share()),
            FaultPlan {
                bit_flip_at: Some(start + HEADER_LEN as u64 + 2),
                ..FaultPlan::default()
            },
        );
        let mut w = WalWriter::new(Box::new(faulty), SyncPolicy::Manual);
        w.append(2, b"damaged").unwrap();
        w.append(3, b"clean again").unwrap();
        let report = scan_frames(&mem.snapshot());
        assert_eq!(report.frames.len(), 2);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].table_tag, 2);
    }

    #[test]
    fn file_backend_round_trip_and_truncation() {
        let dir = std::env::temp_dir().join(format!("hsd_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::new(
            Box::new(FileBackend::open(&path).unwrap()),
            SyncPolicy::Always,
        );
        w.append(1, b"one").unwrap();
        let keep = w.len();
        w.append(2, b"two").unwrap();
        drop(w);
        // Simulate a torn tail by chopping the file mid-frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..keep as usize + 5]).unwrap();
        let report = scan_frames(&std::fs::read(&path).unwrap());
        assert_eq!(report.frames.len(), 1);
        assert_eq!(report.torn_tail, Some(keep));
        // Recovery-style reopen: truncate the tail, append, rescan.
        let backend = FileBackend::open_truncated(&path, report.recovered_len).unwrap();
        let mut w = WalWriter::new(Box::new(backend), SyncPolicy::Always);
        w.append(3, b"three").unwrap();
        drop(w);
        let report = scan_frames(&std::fs::read(&path).unwrap());
        assert_eq!(report.frames.len(), 2);
        assert_eq!(report.frames[1].payload, b"three");
        let _ = std::fs::remove_file(&path);
    }
}
