//! The Raft persistence seam: [`RaftStorage`] plus its two
//! implementations.
//!
//! Raft's safety argument requires three things to survive a crash: the
//! current term, the vote cast in that term, and every log entry the node
//! has acknowledged (§5.1 of the Raft paper — a node that forgets an
//! acked entry can vote a conflicting leader into power).
//! [`RaftNode`](crate::RaftNode)
//! therefore writes all three through this trait *before* its driver is
//! allowed to flush outgoing messages, and the trait is object-safe so
//! the node can hold any implementation behind one `Box`:
//!
//! * [`MemStorage`] — keeps nothing. Bit-identical to the pre-seam
//!   in-memory node (the `seam_goldens` integration test pins this), so
//!   the simulator and the latency-calibration benches pay nothing.
//! * [`WalStorage`] — a length-prefixed, CRC-32-checksummed, fsync-batched
//!   write-ahead log with torn-tail tolerance on replay. A replica killed
//!   at *any* instruction recovers its hard state and log exactly up to
//!   the last complete record; a torn trailing record (the signature of a
//!   kill mid-append) is discarded, never misread.
//!
//! # WAL format
//!
//! ```text
//! file   := record*
//! record := len:u32le  crc:u32le  body[len]     (crc = CRC-32/IEEE over body)
//! body   := 0x01 term:u64le vote?:u8 voted_for:u64le      -- hard state
//!         | 0x02 term:u64le index:u64le payload           -- log entry
//!         | 0x03 to:u64le                                 -- truncate suffix
//! payload:= 0x00                                          -- noop
//!         | 0x01 len:u32le bytes[len]                     -- command (WalCodec)
//!         | 0x02 n:u32le voter:u64le{n}                   -- membership
//! ```
//!
//! Replay applies records in order: entries append (an entry whose index
//! rewinds the log implicitly truncates first, mirroring the in-memory
//! merge), truncate records drop the conflicting suffix, and the last
//! hard-state record wins. Any torn or corrupt tail ends replay and is
//! physically truncated so the next append starts from a clean boundary.
//!
//! I/O errors are fail-stop by design: a WAL that cannot write can no
//! longer promise durability, and a panicking replica is exactly the
//! failure the §3.2.5 recovery machinery (and the chaos drills) handle.
//!
//! # Flush spacing
//!
//! A thread that comes back from a blocking fsync runs cold, and how cold
//! follows the disk: on the reference box the input after a 170 µs fsync
//! costs about 1.3 µs more than it does warm, after a 500 µs fsync 4 to
//! 5 µs more, and the disk drifts between the two within the hour. With
//! every entry shipped once, a commit on a WAL is three fsyncs and a few µs
//! of processor time between them, so that time followed the disk too: 11
//! to 16 µs a commit on the same code. [`WalStorage`] therefore spends a
//! fixed interval there instead: a thread that has just come back from a
//! physical fsync returns from its next `append_entries` no earlier than
//! [`FLUSH_SPACING`] after it, spinning out the remainder once the entries
//! are written. The time a commit spends outside its fsyncs becomes a
//! constant of the code, which is what lets the perf ledger's `raft-wal`
//! rows be compared from one run to the next; README, "Raft replication
//! pipeline", says what it costs and what replaces it. Nothing waits when
//! syncs are batched and no fsync has just happened, and hard-state and
//! truncate records (rare: elections, conflicts) never wait.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::types::{Entry, EntryPayload, LogIndex, Membership, NodeId, Term};

// ----------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial) — table-driven, no deps.
// ----------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the per-record checksum in the WAL framing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ----------------------------------------------------------------------
// Command codec
// ----------------------------------------------------------------------

/// Byte codec for the application command a WAL-backed log persists.
///
/// `encode` must be deterministic (the chaos drills compare recovered
/// state *byte for byte*) and `decode` must accept exactly what `encode`
/// produced. The blanket impls cover the command types the repo's
/// protocols use (`String` for SMR deltas and cell source, unsigned ints
/// for test payloads, raw `Vec<u8>` for anything pre-serialized).
pub trait WalCodec: Sized {
    /// Appends this value's byte encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value from exactly `bytes`; `None` on malformed input.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

impl WalCodec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        std::str::from_utf8(bytes).ok().map(str::to_string)
    }
}

impl WalCodec for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl WalCodec for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl WalCodec for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

/// Canonical bytes of a committed command sequence: each command's
/// [`WalCodec`] encoding behind a u32 length prefix. The chaos drill's
/// byte-for-byte state comparison and the recovery proptests both hash
/// this exact encoding.
pub fn encode_commands<C: WalCodec>(commands: &[C]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut scratch = Vec::new();
    for c in commands {
        scratch.clear();
        c.encode(&mut scratch);
        buf.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
        buf.extend_from_slice(&scratch);
    }
    buf
}

// ----------------------------------------------------------------------
// The trait
// ----------------------------------------------------------------------

/// What a crashed replica got back from disk: the persisted hard state
/// plus the durable log, ready to rebuild a [`crate::RaftLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredState<C> {
    /// Last persisted term (0 when none was recorded).
    pub term: Term,
    /// Last persisted vote in that term.
    pub voted_for: Option<NodeId>,
    /// The durable log, ascending and contiguous from index 1.
    pub entries: Vec<Entry<C>>,
}

impl<C> Default for RecoveredState<C> {
    fn default() -> Self {
        RecoveredState {
            term: 0,
            voted_for: None,
            entries: Vec::new(),
        }
    }
}

/// The object-safe persistence seam under [`crate::RaftNode`].
///
/// The node calls the mutators as state changes happen and [`sync`] once
/// per processed input, *before* returning control to the driver — so by
/// the time any `Output::Send` leaves the process, everything it implies
/// is durable (group commit per input event). Implementations decide what
/// "durable" costs: [`MemStorage`] nothing, [`WalStorage`] an fsync per
/// batch.
///
/// [`sync`]: RaftStorage::sync
pub trait RaftStorage<C>: std::fmt::Debug + Send {
    /// Reads back everything persisted before a crash. Called once by
    /// [`crate::RaftNode::with_storage`] before the node starts.
    fn replay(&mut self) -> RecoveredState<C>;

    /// Persists the Raft hard state (current term + vote).
    fn persist_hard_state(&mut self, term: Term, voted_for: Option<NodeId>);

    /// Persists freshly appended log entries (leader appends and
    /// follower merges alike).
    fn append_entries(&mut self, entries: &[Entry<C>]);

    /// Persists a conflicting-suffix truncation: entries with index
    /// greater than `to` are no longer part of the log.
    fn truncate_suffix(&mut self, to: LogIndex);

    /// Makes everything persisted so far durable. Called once per
    /// processed input, before the driver flushes outputs.
    fn sync(&mut self);

    /// Highest log index this storage has made durable (0 when empty).
    fn durable_index(&self) -> LogIndex;
}

// ----------------------------------------------------------------------
// MemStorage
// ----------------------------------------------------------------------

/// The no-durability implementation: every operation is O(1) bookkeeping,
/// and a restart recovers nothing — exactly the pre-seam in-memory node.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    term: Term,
    voted_for: Option<NodeId>,
    last_index: LogIndex,
}

impl MemStorage {
    /// Creates an empty in-memory storage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<C> RaftStorage<C> for MemStorage {
    fn replay(&mut self) -> RecoveredState<C> {
        RecoveredState {
            term: 0,
            voted_for: None,
            entries: Vec::new(),
        }
    }

    fn persist_hard_state(&mut self, term: Term, voted_for: Option<NodeId>) {
        self.term = term;
        self.voted_for = voted_for;
    }

    fn append_entries(&mut self, entries: &[Entry<C>]) {
        if let Some(last) = entries.last() {
            self.last_index = last.index;
        }
    }

    fn truncate_suffix(&mut self, to: LogIndex) {
        self.last_index = self.last_index.min(to);
    }

    fn sync(&mut self) {}

    fn durable_index(&self) -> LogIndex {
        self.last_index
    }
}

// ----------------------------------------------------------------------
// WalStorage
// ----------------------------------------------------------------------

/// Durability knobs for [`WalStorage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// How many [`RaftStorage::sync`] calls share one physical fsync.
    /// `1` (the default) fsyncs on every processed input — full Raft
    /// durability. Larger batches amortize the fsync across inputs, and
    /// give up more than a window of acked-but-volatile entries: a vote
    /// or a term change (`persist_hard_state`) is also answered before it
    /// is on disk, and election safety rests on it being there, so a
    /// machine crash can let a node vote twice in one term. The chaos
    /// drill cannot show that loss: its `kill` drops the `WalStorage`
    /// while the written bytes stay in the OS page cache, so it exercises
    /// the batched code path, not crash durability.
    pub fsync_batch: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { fsync_batch: 1 }
    }
}

/// Replay/IO counters, exposed for the chaos-drill report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Complete records recovered on open.
    pub replayed_records: u64,
    /// Torn/corrupt trailing bytes discarded on open.
    pub torn_bytes_dropped: u64,
    /// Records appended since open.
    pub appends: u64,
    /// Physical fsyncs issued since open.
    pub fsyncs: u64,
}

/// The least time between a thread's return from a physical fsync and its
/// return from the next `append_entries`; see "Flush spacing" in the module
/// docs.
pub const FLUSH_SPACING: Duration = Duration::from_micros(15);

thread_local! {
    /// When this thread came back from its last physical fsync, until it
    /// next appends entries. Per thread, not per WAL: what runs cold is the
    /// core, whichever of the thread's logs did the waiting.
    static LAST_FSYNC: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Spins out what is left of [`FLUSH_SPACING`] since this thread's last
/// physical fsync, once per fsync.
fn wait_out_flush_spacing() {
    if let Some(back) = LAST_FSYNC.take() {
        while back.elapsed() < FLUSH_SPACING {
            std::hint::spin_loop();
        }
    }
}

/// Record type tags.
const TAG_HARD_STATE: u8 = 0x01;
const TAG_ENTRY: u8 = 0x02;
const TAG_TRUNCATE: u8 = 0x03;

/// Payload tags inside an entry record.
const PAYLOAD_NOOP: u8 = 0x00;
const PAYLOAD_COMMAND: u8 = 0x01;
const PAYLOAD_CONFIG: u8 = 0x02;

/// The write-ahead log. See the module docs for the on-disk format.
pub struct WalStorage<C> {
    file: File,
    path: PathBuf,
    /// State recovered by `open`, handed out once via `replay`.
    recovered: Option<RecoveredState<C>>,
    /// Highest entry index written (post-truncate), fsynced or not.
    written_index: LogIndex,
    /// Highest entry index covered by the last physical fsync.
    synced_index: LogIndex,
    /// `sync()` calls since the last physical fsync.
    pending_syncs: usize,
    /// Whether anything was written since the last physical fsync.
    dirty: bool,
    options: WalOptions,
    stats: WalStats,
    scratch: Vec<u8>,
    _marker: PhantomData<fn() -> C>,
}

impl<C> std::fmt::Debug for WalStorage<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalStorage")
            .field("path", &self.path)
            .field("written_index", &self.written_index)
            .field("synced_index", &self.synced_index)
            .field("options", &self.options)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<C: WalCodec> WalStorage<C> {
    /// Opens (or creates) the WAL at `path` with default options,
    /// recovering all durable state and truncating any torn tail.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors opening, reading, or truncating the file.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with(path, WalOptions::default())
    }

    /// [`WalStorage::open`] with explicit durability options.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors opening, reading, or truncating the file.
    pub fn open_with(path: impl AsRef<Path>, options: WalOptions) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut state = RecoveredState::default();
        let mut stats = WalStats::default();
        let mut offset = 0usize;
        while let Some((body, next)) = next_record(&bytes, offset) {
            let Some(()) = apply_record::<C>(body, &mut state) else {
                // A complete record that fails to decode is corruption,
                // not interruption — but past the checksum that can only
                // mean a codec mismatch; treat it like a torn tail so
                // recovery still yields the longest valid prefix.
                break;
            };
            stats.replayed_records += 1;
            offset = next;
        }
        if offset < bytes.len() {
            stats.torn_bytes_dropped = (bytes.len() - offset) as u64;
            file.set_len(offset as u64)?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;

        let written_index = state.entries.last().map_or(0, |e| e.index);
        Ok(WalStorage {
            file,
            path,
            recovered: Some(state),
            written_index,
            synced_index: written_index,
            pending_syncs: 0,
            dirty: false,
            options,
            stats,
            scratch: Vec::new(),
            _marker: PhantomData,
        })
    }

    /// Replay/IO counters since open.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Highest entry index written to the OS (fsynced or not).
    pub fn written_index(&self) -> LogIndex {
        self.written_index
    }

    fn write_record(&mut self, body_start: usize) {
        let body_len = self.scratch.len() - body_start;
        let crc = crc32(&self.scratch[body_start..]);
        let mut frame = [0u8; 8];
        frame[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        frame[4..].copy_from_slice(&crc.to_le_bytes());
        // Insert the frame header before the body we just encoded.
        let body = self.scratch.split_off(body_start);
        self.scratch.extend_from_slice(&frame);
        self.scratch.extend_from_slice(&body);
    }

    fn flush_scratch(&mut self) {
        if self.scratch.is_empty() {
            return;
        }
        self.file
            .write_all(&self.scratch)
            .expect("WAL append failed (fail-stop)");
        self.scratch.clear();
        self.dirty = true;
    }
}

/// Parses the record starting at `offset`; `None` for a clean end or a
/// torn/corrupt tail (caller truncates there).
fn next_record(bytes: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let header = bytes.get(offset..offset + 8)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let body = bytes.get(offset + 8..offset + 8 + len)?;
    if crc32(body) != crc {
        return None;
    }
    Some((body, offset + 8 + len))
}

/// Applies one decoded record body to the recovery state; `None` on a
/// malformed body (treated as end-of-valid-prefix by the caller).
fn apply_record<C: WalCodec>(body: &[u8], state: &mut RecoveredState<C>) -> Option<()> {
    let (&tag, rest) = body.split_first()?;
    match tag {
        TAG_HARD_STATE => {
            let term = read_u64(rest, 0)?;
            let flag = *rest.get(8)?;
            let vote = read_u64(rest, 9)?;
            state.term = term;
            state.voted_for = (flag == 1).then_some(vote);
        }
        TAG_ENTRY => {
            let term = read_u64(rest, 0)?;
            let index = read_u64(rest, 8)?;
            let payload = decode_payload::<C>(&rest[16..])?;
            // An entry that rewinds the log implicitly truncates first —
            // the durable mirror of `RaftLog::merge`'s conflict rule.
            state.entries.truncate(index.saturating_sub(1) as usize);
            if state.entries.last().map_or(1, |e| e.index + 1) != index {
                return None; // non-contiguous: corrupt
            }
            state.entries.push(Entry {
                term,
                index,
                payload,
            });
        }
        TAG_TRUNCATE => {
            let to = read_u64(rest, 0)?;
            state.entries.truncate(to as usize);
        }
        _ => return None,
    }
    Some(())
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        bytes.get(at..at + 8)?.try_into().expect("8 bytes"),
    ))
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        bytes.get(at..at + 4)?.try_into().expect("4 bytes"),
    ))
}

fn encode_payload<C: WalCodec>(payload: &EntryPayload<C>, buf: &mut Vec<u8>) {
    match payload {
        EntryPayload::Noop => buf.push(PAYLOAD_NOOP),
        EntryPayload::Command(c) => {
            buf.push(PAYLOAD_COMMAND);
            let len_at = buf.len();
            buf.extend_from_slice(&[0u8; 4]);
            c.encode(buf);
            let len = (buf.len() - len_at - 4) as u32;
            buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        }
        EntryPayload::Config(m) => {
            buf.push(PAYLOAD_CONFIG);
            buf.extend_from_slice(&(m.voters().len() as u32).to_le_bytes());
            for &v in m.voters() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

fn decode_payload<C: WalCodec>(bytes: &[u8]) -> Option<EntryPayload<C>> {
    let (&tag, rest) = bytes.split_first()?;
    match tag {
        PAYLOAD_NOOP => rest.is_empty().then_some(EntryPayload::Noop),
        PAYLOAD_COMMAND => {
            let len = read_u32(rest, 0)? as usize;
            let body = rest.get(4..4 + len)?;
            if rest.len() != 4 + len {
                return None;
            }
            Some(EntryPayload::Command(C::decode(body)?))
        }
        PAYLOAD_CONFIG => {
            let n = read_u32(rest, 0)? as usize;
            if n == 0 || rest.len() != 4 + n * 8 {
                return None;
            }
            let voters = (0..n)
                .map(|i| read_u64(rest, 4 + i * 8))
                .collect::<Option<Vec<_>>>()?;
            Some(EntryPayload::Config(Membership::new(voters)))
        }
        _ => None,
    }
}

impl<C: WalCodec + Send> RaftStorage<C> for WalStorage<C> {
    fn replay(&mut self) -> RecoveredState<C> {
        self.recovered.take().unwrap_or_default()
    }

    fn persist_hard_state(&mut self, term: Term, voted_for: Option<NodeId>) {
        let start = self.scratch.len();
        self.scratch.push(TAG_HARD_STATE);
        self.scratch.extend_from_slice(&term.to_le_bytes());
        self.scratch.push(u8::from(voted_for.is_some()));
        self.scratch
            .extend_from_slice(&voted_for.unwrap_or(0).to_le_bytes());
        self.write_record(start);
        self.stats.appends += 1;
        self.flush_scratch();
    }

    fn append_entries(&mut self, entries: &[Entry<C>]) {
        for entry in entries {
            let start = self.scratch.len();
            self.scratch.push(TAG_ENTRY);
            self.scratch.extend_from_slice(&entry.term.to_le_bytes());
            self.scratch.extend_from_slice(&entry.index.to_le_bytes());
            encode_payload(&entry.payload, &mut self.scratch);
            self.write_record(start);
            self.stats.appends += 1;
            self.written_index = entry.index;
        }
        self.flush_scratch();
        // Last: the write runs as cold as the rest, so it is covered too.
        wait_out_flush_spacing();
    }

    fn truncate_suffix(&mut self, to: LogIndex) {
        if to >= self.written_index {
            return;
        }
        let start = self.scratch.len();
        self.scratch.push(TAG_TRUNCATE);
        self.scratch.extend_from_slice(&to.to_le_bytes());
        self.write_record(start);
        self.stats.appends += 1;
        self.written_index = to;
        self.synced_index = self.synced_index.min(to);
        self.flush_scratch();
    }

    fn sync(&mut self) {
        if !self.dirty {
            return;
        }
        self.pending_syncs += 1;
        if self.pending_syncs >= self.options.fsync_batch {
            self.file.sync_data().expect("WAL fsync failed (fail-stop)");
            self.stats.fsyncs += 1;
            self.pending_syncs = 0;
            self.dirty = false;
            self.synced_index = self.written_index;
            LAST_FSYNC.set(Some(Instant::now()));
        }
    }

    fn durable_index(&self) -> LogIndex {
        self.synced_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("notebookos-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn entry(term: Term, index: LogIndex, cmd: &str) -> Entry<String> {
        Entry {
            term,
            index,
            payload: EntryPayload::Command(cmd.to_string()),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_round_trips_hard_state_and_entries() {
        let dir = tempdir("roundtrip");
        let path = dir.join("node.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            assert_eq!(wal.replay(), RecoveredState::default());
            wal.persist_hard_state(3, Some(2));
            wal.append_entries(&[entry(1, 1, "a"), entry(2, 2, "b")]);
            wal.append_entries(&[Entry {
                term: 3,
                index: 3,
                payload: EntryPayload::Config(Membership::new(vec![1, 2, 3])),
            }]);
            RaftStorage::<String>::sync(&mut wal);
            assert_eq!(RaftStorage::<String>::durable_index(&wal), 3);
        }
        let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
        let state = wal.replay();
        assert_eq!(state.term, 3);
        assert_eq!(state.voted_for, Some(2));
        assert_eq!(state.entries.len(), 3);
        assert_eq!(state.entries[0], entry(1, 1, "a"));
        assert_eq!(state.entries[1], entry(2, 2, "b"));
        assert!(matches!(
            state.entries[2].payload,
            EntryPayload::Config(ref m) if m.voters() == [1, 2, 3]
        ));
        assert_eq!(wal.stats().replayed_records, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_record_drops_the_suffix_on_replay() {
        let dir = tempdir("truncate");
        let path = dir.join("node.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            wal.append_entries(&[entry(1, 1, "a"), entry(1, 2, "b"), entry(1, 3, "c")]);
            wal.truncate_suffix(1);
            wal.append_entries(&[entry(2, 2, "B")]);
            RaftStorage::<String>::sync(&mut wal);
        }
        let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
        let state = wal.replay();
        assert_eq!(state.entries.len(), 2);
        assert_eq!(state.entries[1], entry(2, 2, "B"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewinding_entry_implicitly_truncates() {
        let dir = tempdir("rewind");
        let path = dir.join("node.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            wal.append_entries(&[entry(1, 1, "a"), entry(1, 2, "b"), entry(1, 3, "c")]);
            // Overwrite at index 2 without an explicit truncate record.
            wal.append_entries(&[entry(2, 2, "B")]);
            RaftStorage::<String>::sync(&mut wal);
        }
        let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
        let state = wal.replay();
        assert_eq!(state.entries.len(), 2);
        assert_eq!(state.entries[1], entry(2, 2, "B"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_not_misread() {
        let dir = tempdir("torn");
        let path = dir.join("node.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            wal.append_entries(&[entry(1, 1, "a"), entry(1, 2, "b")]);
            RaftStorage::<String>::sync(&mut wal);
        }
        let full = std::fs::read(&path).unwrap();
        for cut in [full.len() - 1, full.len() - 5, full.len() / 2 + 9] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            let state = wal.replay();
            assert!(state.entries.len() <= 2);
            for (i, e) in state.entries.iter().enumerate() {
                assert_eq!(e.index, (i + 1) as LogIndex);
            }
            assert!(wal.stats().torn_bytes_dropped > 0);
            // The torn tail is physically gone: reopening is clean.
            drop(wal);
            let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            assert_eq!(wal.stats().torn_bytes_dropped, 0);
            let _ = wal.replay();
        }
        // Corrupt a byte mid-record: the checksum rejects from there on.
        let mut corrupt = full.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
        let state = wal.replay();
        assert!(state.entries.len() < 2, "corrupt suffix must not replay");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_after_torn_tail_recovery_are_clean() {
        let dir = tempdir("resume");
        let path = dir.join("node.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            wal.append_entries(&[entry(1, 1, "a"), entry(1, 2, "b")]);
            RaftStorage::<String>::sync(&mut wal);
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        {
            let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            let state = wal.replay();
            assert_eq!(state.entries.len(), 1);
            wal.append_entries(&[entry(2, 2, "B2")]);
            RaftStorage::<String>::sync(&mut wal);
        }
        let mut wal: WalStorage<String> = WalStorage::open(&path).unwrap();
        let state = wal.replay();
        assert_eq!(state.entries.len(), 2);
        assert_eq!(state.entries[1], entry(2, 2, "B2"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_batching_defers_durable_index() {
        let dir = tempdir("batch");
        let path = dir.join("node.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal: WalStorage<String> =
            WalStorage::open_with(&path, WalOptions { fsync_batch: 3 }).unwrap();
        for i in 1..=2u64 {
            wal.append_entries(&[entry(1, i, "x")]);
            RaftStorage::<String>::sync(&mut wal);
        }
        assert_eq!(
            RaftStorage::<String>::durable_index(&wal),
            0,
            "two of three batch slots used: nothing fsynced yet"
        );
        assert_eq!(wal.written_index(), 2);
        wal.append_entries(&[entry(1, 3, "x")]);
        RaftStorage::<String>::sync(&mut wal);
        assert_eq!(RaftStorage::<String>::durable_index(&wal), 3);
        assert_eq!(wal.stats().fsyncs, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_storage_tracks_but_never_recovers() {
        let mut mem = MemStorage::new();
        RaftStorage::<String>::persist_hard_state(&mut mem, 4, Some(1));
        RaftStorage::<String>::append_entries(&mut mem, &[entry(1, 1, "a"), entry(1, 2, "b")]);
        assert_eq!(RaftStorage::<String>::durable_index(&mem), 2);
        RaftStorage::<String>::truncate_suffix(&mut mem, 1);
        assert_eq!(RaftStorage::<String>::durable_index(&mem), 1);
        let state: RecoveredState<String> = mem.replay();
        assert_eq!(state, RecoveredState::default());
    }

    #[test]
    fn entries_after_an_fsync_keep_the_flush_spacing() {
        let back = Instant::now();
        LAST_FSYNC.set(Some(back));
        wait_out_flush_spacing();
        assert!(back.elapsed() >= FLUSH_SPACING);
        assert!(LAST_FSYNC.get().is_none(), "once per fsync");

        // Through the WAL: a physical fsync arms the wait, the next entries
        // spend it, and a batched sync that did not fsync arms nothing.
        let dir = tempdir("spacing");
        let mut wal: WalStorage<String> = WalStorage::open(dir.join("each.wal")).unwrap();
        wal.append_entries(&[entry(1, 1, "a")]);
        RaftStorage::<String>::sync(&mut wal);
        let back = LAST_FSYNC.get().expect("armed by the fsync");
        wal.persist_hard_state(2, None);
        assert!(LAST_FSYNC.get().is_some(), "hard state does not wait");
        wal.append_entries(&[entry(1, 2, "b")]);
        assert!(back.elapsed() >= FLUSH_SPACING);
        assert!(LAST_FSYNC.get().is_none());

        let mut batched: WalStorage<String> =
            WalStorage::open_with(dir.join("batched.wal"), WalOptions { fsync_batch: 8 }).unwrap();
        batched.append_entries(&[entry(1, 1, "a")]);
        RaftStorage::<String>::sync(&mut batched);
        assert!(LAST_FSYNC.get().is_none(), "no fsync, no wait");
    }

    #[test]
    fn encode_commands_is_length_prefixed() {
        let bytes = encode_commands(&["ab".to_string(), "c".to_string()]);
        assert_eq!(bytes, vec![2, 0, 0, 0, b'a', b'b', 1, 0, 0, 0, b'c']);
    }
}
