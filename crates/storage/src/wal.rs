//! Write-ahead logging and crash recovery for the storage engine.
//!
//! The live database of §5.3/§5.4 became a resident writable engine in
//! the serve tier; this module makes it durable. Every write batch is
//! appended to a segment-rotated, length-prefixed, checksummed log
//! *before* it is applied to the engine, so an acknowledged write
//! survives a crash, and an unacknowledged one is at worst a torn tail
//! that recovery truncates at the first bad checksum.
//!
//! On-disk layout inside the durable directory:
//! ```text
//! wal-0000000001.soctwal        append-only record segments
//! wal-0000000002.soctwal
//! snapshot-0000000002.soctdb    checkpoint image (engine + vocabulary)
//! ```
//! A snapshot with sequence number `S` captures everything appended to
//! segments `< S`; recovery loads the newest parseable snapshot and
//! replays only segments `>= S`.
//!
//! Record framing (little endian):
//! ```text
//! u32 payload_len | u64 fnv1a64(payload) | payload
//! payload = u8 kind | body
//! ```
//! Three record kinds keep the log self-contained: tuple batches
//! (`REC_OPS`, each op carries predicate id, table name, arity, and
//! the packed row), interned-constant batches (`REC_SYMBOLS`), and
//! predicate-declaration batches (`REC_PREDICATES`) — the latter two
//! let recovery rebuild the `Interner`/`Schema` with the exact dense
//! ids the writer assigned, which the tuple rows and cache keys depend
//! on.
//!
//! The ack contract: [`Wal::append_ops`] returns `Ok` only after the
//! record is in the file *and* the configured [`SyncPolicy`] has been
//! honoured (`always` fsyncs per record; `batch` every
//! [`BATCH_SYNC_EVERY`] records; `off` never, except on
//! [`Wal::flush`]/checkpoint). Callers apply the batch to the engine
//! and acknowledge the client only on `Ok` — on `Err` nothing was
//! applied, so the in-memory state never runs ahead of what a
//! restarted process can recover.
//!
//! All write-path file I/O goes through the injectable [`WalIo`]
//! trait. [`RealIo`] is the production implementation; [`FaultyIo`]
//! injects crashes (partial write then everything fails), silent bit
//! flips, and failing writes/fsyncs, driving the crash-point
//! differential proptests at the bottom of this file.

use crate::engine::StorageEngine;
use crate::persist;
use bytes::{Buf, BufMut, BytesMut};
use soct_model::{Interner, PredId, Schema, SymbolId, MAX_ARITY};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Record kind: a batch of tuple inserts/deletes.
const REC_OPS: u8 = 1;
/// Record kind: newly interned constants `(id, name)`.
const REC_SYMBOLS: u8 = 2;
/// Record kind: newly declared predicates `(id, name, arity)`.
const REC_PREDICATES: u8 = 3;

/// Bytes of record framing before the payload (`u32` length + `u64`
/// checksum).
const REC_HEADER: usize = 12;

/// Segment rotation threshold (bytes). Rotation bounds the size of any
/// single file replay reads; checkpoints are what actually reclaim
/// space.
const DEFAULT_ROTATE_BYTES: u64 = 8 << 20;

/// Under [`SyncPolicy::Batch`], fsync once per this many records.
pub const BATCH_SYNC_EVERY: u64 = 32;

/// Magic prefix of a checkpoint snapshot file.
const SNAP_MAGIC: &[u8; 8] = b"SOCTSNP1";

/// FNV-1a 64-bit — the dependency-free checksum guarding every record
/// and snapshot. One flipped bit anywhere in the payload changes the
/// digest, which is all torn-tail detection needs.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// When appended records are forced to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record — an acked write survives `kill -9`.
    Always,
    /// fsync every [`BATCH_SYNC_EVERY`] records — bounded loss window,
    /// much higher throughput.
    Batch,
    /// Never fsync on the write path (the OS flushes eventually);
    /// [`Wal::flush`] and checkpoints still sync.
    Off,
}

impl FromStr for SyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "batch" => Ok(SyncPolicy::Batch),
            "off" => Ok(SyncPolicy::Off),
            other => Err(format!("wal-sync expects always|batch|off, got `{other}`")),
        }
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Batch => "batch",
            SyncPolicy::Off => "off",
        })
    }
}

/// One logged tuple write, self-contained for replay: the table name
/// and arity ride along so recovery can recreate tables without any
/// out-of-band catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalEntry {
    /// `true` = insert, `false` = delete (first match).
    pub insert: bool,
    /// Dense predicate slot the row belongs to.
    pub pred: PredId,
    /// Table name (for on-the-fly table creation during replay).
    pub name: String,
    /// The packed row; its length is the arity.
    pub row: Vec<u64>,
}

/// The write-path file I/O surface, injectable for fault testing. The
/// implementation owns at most one open segment at a time;
/// [`WalIo::open_append`] switches to (creating if needed) a new one.
pub trait WalIo: Send + Sync {
    /// Opens `path` for appending, creating it if absent. Replaces the
    /// previously open segment.
    fn open_append(&mut self, path: &Path) -> io::Result<()>;
    /// Appends bytes to the open segment.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Forces the open segment to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Atomically replaces `path` with `bytes` (write temp, fsync,
    /// rename).
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Removes a file; a missing file is not an error.
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;
}

/// Production [`WalIo`]: plain `File` appends, `sync_data` fsyncs, and
/// temp+rename whole-file writes.
#[derive(Debug, Default)]
pub struct RealIo {
    file: Option<File>,
}

impl RealIo {
    /// A fresh I/O backend with no open segment.
    pub fn new() -> Self {
        RealIo::default()
    }
}

impl WalIo for RealIo {
    fn open_append(&mut self, path: &Path) -> io::Result<()> {
        self.file = Some(OpenOptions::new().create(true).append(true).open(path)?);
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| io::Error::other("no open segment"))?;
        file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| io::Error::other("no open segment"))?;
        file.sync_data()
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// One injected failure mode for [`FaultyIo`]. Faults target segment
/// appends and fsyncs — the write path the ack contract depends on.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    /// Crash mid-append: once cumulative appended bytes would pass
    /// `byte`, write only the prefix up to it, return an error, and
    /// fail every later operation — a partial write followed by
    /// `kill -9`.
    TruncateAt {
        /// Global append offset (bytes across all appends) of the cut.
        byte: u64,
    },
    /// Silent media corruption: flip bit `bit` of the byte at global
    /// append offset `byte`, reporting success.
    FlipBit {
        /// Global append offset of the corrupted byte.
        byte: u64,
        /// Which bit (0–7) to flip.
        bit: u8,
    },
    /// Every `k`-th append call fails cleanly (nothing written).
    FailWriteEvery {
        /// Period of the failure (1 = every write fails).
        k: u64,
    },
    /// Every `k`-th fsync fails (the appended bytes stay in the file).
    FailSyncEvery {
        /// Period of the failure.
        k: u64,
    },
}

/// A [`WalIo`] that injects one [`Fault`] into otherwise real file
/// I/O, so recovery reads genuine on-disk state left behind by the
/// failure.
#[derive(Debug)]
pub struct FaultyIo {
    inner: RealIo,
    fault: Fault,
    appended: u64,
    writes: u64,
    syncs: u64,
    dead: bool,
}

impl FaultyIo {
    /// Wraps real file I/O with the given fault.
    pub fn new(fault: Fault) -> Self {
        FaultyIo {
            inner: RealIo::new(),
            fault,
            appended: 0,
            writes: 0,
            syncs: 0,
            dead: true, // set false on first open_append
        }
    }

    /// Whether a crash-style fault has fired (all operations fail).
    pub fn crashed(&self) -> bool {
        self.dead && self.writes > 0
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.dead && self.writes + self.syncs > 0 {
            return Err(io::Error::other("injected crash: process is gone"));
        }
        Ok(())
    }
}

impl WalIo for FaultyIo {
    fn open_append(&mut self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.dead = false;
        self.inner.open_append(path)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("injected crash: process is gone"));
        }
        self.writes += 1;
        match self.fault {
            Fault::TruncateAt { byte } => {
                if self.appended + bytes.len() as u64 > byte {
                    let keep = byte.saturating_sub(self.appended) as usize;
                    let _ = self.inner.append(&bytes[..keep]);
                    self.dead = true;
                    return Err(io::Error::other("injected crash during append"));
                }
                self.appended += bytes.len() as u64;
                self.inner.append(bytes)
            }
            Fault::FlipBit { byte, bit } => {
                let start = self.appended;
                self.appended += bytes.len() as u64;
                if (start..self.appended).contains(&byte) {
                    let mut corrupt = bytes.to_vec();
                    corrupt[(byte - start) as usize] ^= 1 << (bit % 8);
                    self.inner.append(&corrupt)
                } else {
                    self.inner.append(bytes)
                }
            }
            Fault::FailWriteEvery { k } => {
                if k > 0 && self.writes % k == 0 {
                    return Err(io::Error::other("injected write failure"));
                }
                self.appended += bytes.len() as u64;
                self.inner.append(bytes)
            }
            Fault::FailSyncEvery { .. } => {
                self.appended += bytes.len() as u64;
                self.inner.append(bytes)
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("injected crash: process is gone"));
        }
        self.syncs += 1;
        if let Fault::FailSyncEvery { k } = self.fault {
            if k > 0 && self.syncs % k == 0 {
                return Err(io::Error::other("injected fsync failure"));
            }
        }
        self.inner.sync()
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("injected crash: process is gone"));
        }
        self.inner.write_file(path, bytes)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("injected crash: process is gone"));
        }
        self.inner.remove_file(path)
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:010}.soctwal"))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:010}.soctdb"))
}

/// Parses `prefix-<seq>.<suffix>` file names back to sequence numbers.
fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Sorted (segments, snapshots) sequence numbers present in `dir`.
fn list_dir(dir: &Path) -> io::Result<(Vec<u64>, Vec<u64>)> {
    let mut segs = Vec::new();
    let mut snaps = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(s) = parse_seq(name, "wal-", ".soctwal") {
            segs.push(s);
        } else if let Some(s) = parse_seq(name, "snapshot-", ".soctdb") {
            snaps.push(s);
        }
    }
    segs.sort_unstable();
    snaps.sort_unstable();
    Ok((segs, snaps))
}

/// Frames a payload as one record: length, checksum, payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads the record at the head of `bytes`. `Ok((payload, consumed))`
/// on a checksum-valid record; `None` on a torn/corrupt head (too
/// short, implausible length, or checksum mismatch).
fn read_record(bytes: &[u8]) -> Option<(&[u8], usize)> {
    if bytes.len() < REC_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let sum = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    if len == 0 || len > bytes.len() - REC_HEADER {
        return None;
    }
    let payload = &bytes[REC_HEADER..REC_HEADER + len];
    if fnv1a64(payload) != sum {
        return None;
    }
    Some((payload, REC_HEADER + len))
}

fn encode_ops(entries: &[WalEntry]) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u8(REC_OPS);
    out.put_u32_le(entries.len() as u32);
    for e in entries {
        out.put_u8(u8::from(!e.insert));
        out.put_u32_le(e.pred.0);
        out.put_u16_le(e.name.len() as u16);
        out.put_slice(e.name.as_bytes());
        out.put_u16_le(e.row.len() as u16);
        for &v in &e.row {
            out.put_u64_le(v);
        }
    }
    out.to_vec()
}

fn encode_symbols(syms: &[(u32, &str)]) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u8(REC_SYMBOLS);
    out.put_u32_le(syms.len() as u32);
    for (id, name) in syms {
        out.put_u32_le(*id);
        out.put_u16_le(name.len() as u16);
        out.put_slice(name.as_bytes());
    }
    out.to_vec()
}

fn encode_predicates(preds: &[(u32, &str, usize)]) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u8(REC_PREDICATES);
    out.put_u32_le(preds.len() as u32);
    for (id, name, arity) in preds {
        out.put_u32_le(*id);
        out.put_u16_le(name.len() as u16);
        out.put_slice(name.as_bytes());
        out.put_u16_le(*arity as u16);
    }
    out.to_vec()
}

fn inv(m: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.to_string())
}

fn take_str(data: &mut &[u8]) -> io::Result<String> {
    if data.remaining() < 2 {
        return Err(inv("truncated string length"));
    }
    let len = data.get_u16_le() as usize;
    if data.remaining() < len {
        return Err(inv("truncated string"));
    }
    let s = std::str::from_utf8(&data[..len])
        .map_err(|_| inv("string not UTF-8"))?
        .to_string();
    data.advance(len);
    Ok(s)
}

/// Decodes and applies one checksum-valid record payload onto the
/// recovering state. Errors here mean the record decodes to something
/// logically inconsistent with the state built so far (e.g. a
/// vocabulary id out of order) — detected corruption, reported as
/// `Err`, never a panic.
fn apply_payload(
    mut data: &[u8],
    engine: &mut StorageEngine,
    schema: &mut Schema,
    symbols: &mut Interner,
) -> io::Result<()> {
    if data.is_empty() {
        return Err(inv("empty record payload"));
    }
    let kind = data.get_u8();
    match kind {
        REC_OPS => {
            if data.remaining() < 4 {
                return Err(inv("truncated op count"));
            }
            let count = data.get_u32_le();
            for _ in 0..count {
                if data.remaining() < 5 {
                    return Err(inv("truncated op header"));
                }
                let tag = data.get_u8();
                let pred = PredId(data.get_u32_le());
                let name = take_str(&mut data)?;
                if data.remaining() < 2 {
                    return Err(inv("truncated arity"));
                }
                let arity = data.get_u16_le() as usize;
                if arity == 0 || arity > MAX_ARITY {
                    return Err(inv("implausible arity"));
                }
                if data.remaining() < arity * 8 {
                    return Err(inv("truncated row"));
                }
                let mut row = [0u64; MAX_ARITY];
                for slot in row.iter_mut().take(arity) {
                    *slot = data.get_u64_le();
                }
                engine.create_table(pred, &name, arity);
                if engine.table(pred).map(crate::table::Table::arity) != Some(arity) {
                    return Err(inv("replayed arity disagrees with existing table"));
                }
                match tag {
                    0 => engine.insert_packed(pred, &row[..arity]),
                    1 => {
                        // A miss replays exactly as it applied originally
                        // (deletes are logged before the engine decides).
                        engine.delete_packed(pred, &row[..arity]);
                    }
                    _ => return Err(inv("unknown op tag")),
                }
            }
        }
        REC_SYMBOLS => {
            if data.remaining() < 4 {
                return Err(inv("truncated symbol count"));
            }
            let count = data.get_u32_le();
            for _ in 0..count {
                if data.remaining() < 4 {
                    return Err(inv("truncated symbol id"));
                }
                let id = data.get_u32_le();
                let name = take_str(&mut data)?;
                if symbols.intern(&name).0 != id {
                    return Err(inv("symbol record out of order"));
                }
            }
        }
        REC_PREDICATES => {
            if data.remaining() < 4 {
                return Err(inv("truncated predicate count"));
            }
            let count = data.get_u32_le();
            for _ in 0..count {
                if data.remaining() < 4 {
                    return Err(inv("truncated predicate id"));
                }
                let id = data.get_u32_le();
                let name = take_str(&mut data)?;
                if data.remaining() < 2 {
                    return Err(inv("truncated predicate arity"));
                }
                let arity = data.get_u16_le() as usize;
                let got = schema
                    .add_predicate(&name, arity)
                    .map_err(|e| inv(&format!("predicate record invalid: {e}")))?;
                if got.0 != id {
                    return Err(inv("predicate record out of order"));
                }
            }
        }
        _ => return Err(inv("unknown record kind")),
    }
    if data.remaining() > 0 {
        return Err(inv("trailing bytes in record payload"));
    }
    Ok(())
}

/// Serialises a checkpoint: the engine image in the `persist` format
/// plus the ordered vocabulary (constants, then predicates), the whole
/// body guarded by one checksum.
fn encode_snapshot(engine: &StorageEngine, schema: &Schema, symbols: &Interner) -> Vec<u8> {
    let mut body = BytesMut::new();
    let image = persist::to_bytes(engine);
    body.put_u32_le(image.len() as u32);
    body.put_slice(&image);
    body.put_u32_le(symbols.len() as u32);
    for i in 0..symbols.len() {
        let name = symbols.resolve(SymbolId(i as u32));
        body.put_u16_le(name.len() as u16);
        body.put_slice(name.as_bytes());
    }
    body.put_u32_le(schema.len() as u32);
    for p in schema.predicates() {
        let name = schema.name(p);
        body.put_u16_le(name.len() as u16);
        body.put_slice(name.as_bytes());
        body.put_u16_le(schema.arity(p) as u16);
    }
    let mut out = Vec::with_capacity(16 + body.len());
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn load_snapshot(path: &Path) -> io::Result<(StorageEngine, Schema, Interner)> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 16 || &bytes[..8] != SNAP_MAGIC {
        return Err(inv("bad snapshot magic"));
    }
    let sum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut body = &bytes[16..];
    if fnv1a64(body) != sum {
        return Err(inv("snapshot checksum mismatch"));
    }
    if body.remaining() < 4 {
        return Err(inv("truncated snapshot"));
    }
    let image_len = body.get_u32_le() as usize;
    if body.remaining() < image_len {
        return Err(inv("truncated engine image"));
    }
    let engine = persist::from_bytes(&body[..image_len])?;
    body.advance(image_len);
    if body.remaining() < 4 {
        return Err(inv("truncated symbol section"));
    }
    let sym_count = body.get_u32_le();
    let mut symbols = Interner::new();
    for i in 0..sym_count {
        let name = take_str(&mut body)?;
        if symbols.intern(&name).0 != i {
            return Err(inv("snapshot symbols out of order"));
        }
    }
    if body.remaining() < 4 {
        return Err(inv("truncated predicate section"));
    }
    let pred_count = body.get_u32_le();
    let mut schema = Schema::new();
    for i in 0..pred_count {
        let name = take_str(&mut body)?;
        if body.remaining() < 2 {
            return Err(inv("truncated predicate arity"));
        }
        let arity = body.get_u16_le() as usize;
        let got = schema
            .add_predicate(&name, arity)
            .map_err(|e| inv(&format!("snapshot predicate invalid: {e}")))?;
        if got.0 != i {
            return Err(inv("snapshot predicates out of order"));
        }
    }
    if body.remaining() > 0 {
        return Err(inv("trailing bytes in snapshot"));
    }
    Ok((engine, schema, symbols))
}

/// What recovery found and did; surfaced on `/db/stats` and in logs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the snapshot recovery started from, if any.
    pub snapshot_seq: Option<u64>,
    /// Snapshot files that failed to parse and were skipped.
    pub corrupt_snapshots: u64,
    /// Segments visited during replay.
    pub segments_replayed: u64,
    /// Checksum-valid records replayed.
    pub replayed_records: u64,
    /// Torn tails truncated at the first bad checksum (0 or 1).
    pub torn_truncations: u64,
}

/// A recovered durable database: the engine (shape tracking enabled),
/// the vocabulary it was written with, the open [`Wal`] continuing the
/// log, and what recovery observed.
pub struct DurableDb {
    /// The recovered engine, shape tracking already enabled.
    pub engine: StorageEngine,
    /// Predicate vocabulary, dense ids identical to the writing process.
    pub schema: Schema,
    /// Constant vocabulary, dense ids identical to the writing process.
    pub symbols: Interner,
    /// The log, positioned to append after the recovered state.
    pub wal: Wal,
    /// What recovery found (snapshot used, records replayed, torn tail).
    pub report: RecoveryReport,
}

impl fmt::Debug for DurableDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableDb")
            .field("engine", &self.engine)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// The write-ahead log: an open segment plus rotation/checkpoint
/// bookkeeping. Obtained from [`open_durable`]; single-writer by
/// construction (`&mut self` everywhere).
pub struct Wal {
    dir: PathBuf,
    io: Box<dyn WalIo>,
    policy: SyncPolicy,
    seq: u64,
    seg_bytes: u64,
    rotate_bytes: u64,
    /// Records appended since the last fsync.
    pending: u64,
    /// Bytes appended since the last checkpoint.
    since_checkpoint: u64,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("seq", &self.seq)
            .field("seg_bytes", &self.seg_bytes)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// The configured sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Current segment sequence number.
    pub fn segment_seq(&self) -> u64 {
        self.seq
    }

    /// Bytes appended since the last checkpoint — the replay debt a
    /// restart would pay. Callers checkpoint when this grows large.
    pub fn bytes_since_checkpoint(&self) -> u64 {
        self.since_checkpoint
    }

    /// Overrides the segment rotation threshold (tests use tiny values
    /// to force multi-segment replay).
    pub fn set_rotate_bytes(&mut self, bytes: u64) {
        self.rotate_bytes = bytes.max(1);
    }

    fn sync_now(&mut self) -> io::Result<()> {
        self.io.sync()?;
        self.pending = 0;
        soct_obs::global().wal_fsyncs.inc();
        Ok(())
    }

    fn append_record(&mut self, payload: &[u8]) -> io::Result<()> {
        let rec = frame(payload);
        self.io.append(&rec)?;
        self.seg_bytes += rec.len() as u64;
        self.since_checkpoint += rec.len() as u64;
        self.pending += 1;
        soct_obs::global().wal_appends.inc();
        match self.policy {
            SyncPolicy::Always => self.sync_now()?,
            SyncPolicy::Batch => {
                if self.pending >= BATCH_SYNC_EVERY {
                    self.sync_now()?;
                }
            }
            SyncPolicy::Off => {}
        }
        if self.seg_bytes >= self.rotate_bytes {
            self.roll()?;
        }
        Ok(())
    }

    /// Rotates to a fresh segment (flushing the old one first unless
    /// the policy is `off`).
    fn roll(&mut self) -> io::Result<()> {
        if self.pending > 0 && self.policy != SyncPolicy::Off {
            self.sync_now()?;
        }
        self.seq += 1;
        self.io.open_append(&segment_path(&self.dir, self.seq))?;
        self.seg_bytes = 0;
        Ok(())
    }

    /// Appends one batch of tuple writes as a single record, honouring
    /// the sync policy. `Ok` means the batch is as durable as the
    /// policy promises — only then may the caller apply it to the
    /// engine and acknowledge the client.
    pub fn append_ops(&mut self, entries: &[WalEntry]) -> io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        self.append_record(&encode_ops(entries))
    }

    /// Logs newly interned constants `(dense id, name)`. Ids must be
    /// appended in interning order.
    pub fn append_symbols(&mut self, syms: &[(u32, &str)]) -> io::Result<()> {
        if syms.is_empty() {
            return Ok(());
        }
        self.append_record(&encode_symbols(syms))
    }

    /// Logs newly declared predicates `(dense id, name, arity)`.
    pub fn append_predicates(&mut self, preds: &[(u32, &str, usize)]) -> io::Result<()> {
        if preds.is_empty() {
            return Ok(());
        }
        self.append_record(&encode_predicates(preds))
    }

    /// Forces everything appended so far to stable storage, regardless
    /// of policy. Clean-shutdown durability for `batch`/`off`.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending > 0 {
            self.sync_now()?;
        }
        Ok(())
    }

    /// Takes a checkpoint: rolls to a fresh segment, writes a snapshot
    /// of the current state atomically, then deletes the segments and
    /// snapshots the new image supersedes. If the snapshot write fails
    /// the old snapshot and all segments survive, so recovery is never
    /// worse off for having tried.
    pub fn checkpoint(
        &mut self,
        engine: &StorageEngine,
        schema: &Schema,
        symbols: &Interner,
    ) -> io::Result<()> {
        if self.pending > 0 {
            self.sync_now()?;
        }
        self.seq += 1;
        self.io.open_append(&segment_path(&self.dir, self.seq))?;
        self.seg_bytes = 0;
        self.pending = 0;
        let snap = encode_snapshot(engine, schema, symbols);
        self.io
            .write_file(&snapshot_path(&self.dir, self.seq), &snap)?;
        // The snapshot is durable: everything older is garbage now.
        let (segs, snaps) = list_dir(&self.dir)?;
        for s in segs.into_iter().filter(|&s| s < self.seq) {
            self.io.remove_file(&segment_path(&self.dir, s))?;
        }
        for s in snaps.into_iter().filter(|&s| s < self.seq) {
            self.io.remove_file(&snapshot_path(&self.dir, s))?;
        }
        self.since_checkpoint = 0;
        soct_obs::global().wal_checkpoints.inc();
        soct_obs::log_debug!("storage", "event=wal_checkpoint seq={}", self.seq);
        Ok(())
    }
}

/// Opens (or creates) a durable database directory: loads the newest
/// parseable snapshot, replays the log — truncating a torn tail at the
/// first bad checksum — enables shape tracking, and returns the
/// recovered state with an open [`Wal`].
///
/// The recovered catalog and fingerprints are bit-identical to those
/// of an engine that applied the same acknowledged writes and never
/// crashed (the differential proptests below hold this).
pub fn open_durable(
    dir: impl AsRef<Path>,
    policy: SyncPolicy,
    mut io: Box<dyn WalIo>,
) -> io::Result<DurableDb> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let (segs, snaps) = list_dir(dir)?;

    let mut engine = StorageEngine::new();
    let mut schema = Schema::new();
    let mut symbols = Interner::new();
    let mut report = RecoveryReport::default();
    let mut base_seq = 0u64;
    for &s in snaps.iter().rev() {
        match load_snapshot(&snapshot_path(dir, s)) {
            Ok((e, sc, sy)) => {
                engine = e;
                schema = sc;
                symbols = sy;
                base_seq = s;
                report.snapshot_seq = Some(s);
                break;
            }
            Err(e) => {
                report.corrupt_snapshots += 1;
                soct_obs::log_warn!("storage", "event=wal_snapshot_corrupt seq={s} error={e}");
            }
        }
    }

    let mut open_seq = base_seq.max(1);
    let mut seg_bytes = 0u64;
    let live_segs: Vec<u64> = segs.iter().copied().filter(|&s| s >= base_seq).collect();
    'segs: for (i, &s) in live_segs.iter().enumerate() {
        report.segments_replayed += 1;
        open_seq = s;
        let path = segment_path(dir, s);
        let bytes = std::fs::read(&path)?;
        let mut off = 0usize;
        while off < bytes.len() {
            match read_record(&bytes[off..]) {
                Some((payload, consumed)) => {
                    apply_payload(payload, &mut engine, &mut schema, &mut symbols)?;
                    report.replayed_records += 1;
                    soct_obs::global().wal_replayed_records.inc();
                    off += consumed;
                }
                None => {
                    // Torn tail: drop it and everything after — later
                    // bytes were never acknowledged as durable.
                    OpenOptions::new()
                        .write(true)
                        .open(&path)?
                        .set_len(off as u64)?;
                    report.torn_truncations += 1;
                    soct_obs::global().wal_torn_truncations.inc();
                    soct_obs::log_warn!("storage", "event=wal_torn_tail seq={s} valid_bytes={off}");
                    for &later in &live_segs[i + 1..] {
                        let _ = std::fs::remove_file(segment_path(dir, later));
                    }
                    seg_bytes = off as u64;
                    break 'segs;
                }
            }
        }
        seg_bytes = bytes.len() as u64;
    }

    io.open_append(&segment_path(dir, open_seq))?;
    engine.enable_shape_tracking();
    soct_obs::log_info!(
        "storage",
        "event=wal_recovered seq={open_seq} records={} torn={} snapshot={:?}",
        report.replayed_records,
        report.torn_truncations,
        report.snapshot_seq
    );
    Ok(DurableDb {
        engine,
        schema,
        symbols,
        wal: Wal {
            dir: dir.to_path_buf(),
            io,
            policy,
            seq: open_seq,
            seg_bytes,
            rotate_bytes: DEFAULT_ROTATE_BYTES,
            pending: 0,
            since_checkpoint: seg_bytes,
        },
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TupleSource;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use soct_model::{ConstId, Term};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Fresh per-test directory; unique across the test binary.
    fn test_dir(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "soct_wal_{}_{}_{}",
            name,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn k(i: u32) -> u64 {
        Term::Const(ConstId(i)).pack()
    }

    fn ins(pred: u32, name: &str, row: &[u64]) -> WalEntry {
        WalEntry {
            insert: true,
            pred: PredId(pred),
            name: name.to_string(),
            row: row.to_vec(),
        }
    }

    fn del(pred: u32, name: &str, row: &[u64]) -> WalEntry {
        WalEntry {
            insert: false,
            ..ins(pred, name, row)
        }
    }

    /// Applies entries the way the serve tier does after a successful
    /// append: create the table, then insert/delete.
    fn apply(engine: &mut StorageEngine, entries: &[WalEntry]) {
        for e in entries {
            engine.create_table(e.pred, &e.name, e.row.len());
            if e.insert {
                engine.insert_packed(e.pred, &e.row);
            } else {
                engine.delete_packed(e.pred, &e.row);
            }
        }
    }

    /// The state an engine that never crashed would hold after the
    /// given batches, tracking enabled.
    fn expected_engine(batches: &[Vec<WalEntry>]) -> StorageEngine {
        let mut e = StorageEngine::new();
        for b in batches {
            apply(&mut e, b);
        }
        e.enable_shape_tracking();
        e
    }

    /// Bit-identical state: same serialised tables, same maintained
    /// fingerprints.
    fn assert_same_state(got: &StorageEngine, want: &StorageEngine) {
        assert_eq!(persist::to_bytes(got), persist::to_bytes(want));
        assert_eq!(got.shape_fingerprint(), want.shape_fingerprint());
        assert_eq!(got.predicate_fingerprint(), want.predicate_fingerprint());
    }

    fn reopen(dir: &Path) -> DurableDb {
        open_durable(dir, SyncPolicy::Always, Box::new(RealIo::new())).unwrap()
    }

    #[test]
    fn empty_dir_opens_empty() {
        let dir = test_dir("empty");
        let d = reopen(&dir);
        assert_eq!(d.engine.total_rows(), 0);
        assert_eq!(d.schema.len(), 0);
        assert_eq!(d.symbols.len(), 0);
        assert_eq!(d.report, RecoveryReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = test_dir("basic");
        let batches = vec![
            vec![ins(0, "r", &[k(1), k(2)]), ins(0, "r", &[k(2), k(2)])],
            vec![ins(1, "s", &[k(7)]), del(0, "r", &[k(1), k(2)])],
            vec![del(0, "r", &[k(9), k(9)])], // miss: replays as a miss
        ];
        {
            let mut d = reopen(&dir);
            d.wal.append_symbols(&[(0, "alpha"), (1, "beta")]).unwrap();
            d.wal
                .append_predicates(&[(0, "r", 2), (1, "s", 1)])
                .unwrap();
            for b in &batches {
                d.wal.append_ops(b).unwrap();
                apply(&mut d.engine, b);
            }
        }
        let d = reopen(&dir);
        assert_same_state(&d.engine, &expected_engine(&batches));
        assert_eq!(d.symbols.resolve(SymbolId(1)), "beta");
        assert_eq!(d.schema.name(PredId(1)), "s");
        assert_eq!(d.schema.arity(PredId(0)), 2);
        assert_eq!(d.report.replayed_records, 5);
        assert_eq!(d.report.torn_truncations, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_usable() {
        let dir = test_dir("torn");
        let b1 = vec![ins(0, "r", &[k(1), k(2)])];
        let b2 = vec![ins(0, "r", &[k(3), k(4)])];
        {
            let mut d = reopen(&dir);
            d.wal.append_ops(&b1).unwrap();
            d.wal.append_ops(&b2).unwrap();
        }
        // Chop the file mid-record: keep the first record and 5 bytes
        // of the second, then append garbage after the cut too.
        let seg = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        let first_len = REC_HEADER + encode_ops(&b1).len();
        let mut cut = bytes[..first_len + 5].to_vec();
        cut.extend_from_slice(&[0xAB; 3]);
        std::fs::write(&seg, &cut).unwrap();

        let mut d = reopen(&dir);
        assert_same_state(&d.engine, &expected_engine(std::slice::from_ref(&b1)));
        assert_eq!(d.report.torn_truncations, 1);
        assert_eq!(d.report.replayed_records, 1);
        // Physically truncated to the valid prefix.
        assert_eq!(std::fs::metadata(&seg).unwrap().len() as usize, first_len);

        // The log keeps working: append after recovery, reopen again.
        d.wal.append_ops(&b2).unwrap();
        apply(&mut d.engine, &b2);
        let d2 = reopen(&dir);
        assert_same_state(&d2.engine, &expected_engine(&[b1, b2]));
        assert_eq!(d2.report.torn_truncations, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_the_middle_is_detected_not_panicking() {
        let dir = test_dir("flip");
        let batches: Vec<Vec<WalEntry>> = (0..5)
            .map(|i| vec![ins(0, "r", &[k(i), k(i + 1)])])
            .collect();
        {
            let mut d = reopen(&dir);
            for b in &batches {
                d.wal.append_ops(b).unwrap();
            }
        }
        // Flip one bit inside the third record's payload.
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        let rec_len = REC_HEADER + encode_ops(&batches[0]).len();
        bytes[2 * rec_len + REC_HEADER + 3] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();

        let d = reopen(&dir);
        assert_same_state(&d.engine, &expected_engine(&batches[..2]));
        assert_eq!(d.report.torn_truncations, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_preserves_vocabulary() {
        let dir = test_dir("ckpt");
        let batches: Vec<Vec<WalEntry>> = (0..10)
            .map(|i| vec![ins(0, "r", &[k(i % 3), k(i)])])
            .collect();
        {
            let mut d = reopen(&dir);
            // Mutate the vocabulary first, then log the delta — the
            // order the serve tier uses; checkpoint snapshots the
            // in-memory state, so the two must agree.
            d.symbols.intern("c0");
            d.symbols.intern("c1");
            d.schema.add_predicate("r", 2).unwrap();
            d.wal.append_symbols(&[(0, "c0"), (1, "c1")]).unwrap();
            d.wal.append_predicates(&[(0, "r", 2)]).unwrap();
            for b in &batches {
                d.wal.append_ops(b).unwrap();
                apply(&mut d.engine, b);
            }
            assert!(d.wal.bytes_since_checkpoint() > 0);
            d.wal.checkpoint(&d.engine, &d.schema, &d.symbols).unwrap();
            assert_eq!(d.wal.bytes_since_checkpoint(), 0);
        }
        // Old segment gone, snapshot + fresh segment present.
        let (segs, snaps) = list_dir(&dir).unwrap();
        assert_eq!(segs, vec![2]);
        assert_eq!(snaps, vec![2]);

        let d = reopen(&dir);
        assert_eq!(d.report.snapshot_seq, Some(2));
        assert_eq!(d.report.replayed_records, 0, "snapshot carries it all");
        assert_same_state(&d.engine, &expected_engine(&batches));
        assert_eq!(d.symbols.len(), 2);
        assert_eq!(d.schema.len(), 1);
        assert_eq!(d.schema.name(PredId(0)), "r");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_after_checkpoint_replay_on_top_of_the_snapshot() {
        let dir = test_dir("ckpt_tail");
        let before = vec![ins(0, "r", &[k(1), k(1)])];
        let after = vec![ins(1, "s", &[k(2)]), del(0, "r", &[k(1), k(1)])];
        {
            let mut d = reopen(&dir);
            d.wal.append_ops(&before).unwrap();
            apply(&mut d.engine, &before);
            d.wal.checkpoint(&d.engine, &d.schema, &d.symbols).unwrap();
            d.wal.append_ops(&after).unwrap();
            apply(&mut d.engine, &after);
        }
        let d = reopen(&dir);
        assert_eq!(d.report.snapshot_seq, Some(2));
        assert_eq!(d.report.replayed_records, 1);
        assert_same_state(&d.engine, &expected_engine(&[before, after]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_replays_across_segments() {
        let dir = test_dir("rotate");
        let batches: Vec<Vec<WalEntry>> = (0..40)
            .map(|i| vec![ins(0, "rel", &[k(i), k(i * 2)])])
            .collect();
        {
            let mut d = reopen(&dir);
            d.wal.set_rotate_bytes(64); // force a roll almost every record
            for b in &batches {
                d.wal.append_ops(b).unwrap();
                apply(&mut d.engine, b);
            }
        }
        let (segs, _) = list_dir(&dir).unwrap();
        assert!(segs.len() > 3, "expected many segments, got {segs:?}");
        let d = reopen(&dir);
        assert_eq!(d.report.replayed_records, 40);
        assert!(d.report.segments_replayed > 3);
        assert_same_state(&d.engine, &expected_engine(&batches));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_falls_back_without_panicking() {
        let dir = test_dir("snapcorrupt");
        let b = vec![ins(0, "r", &[k(1), k(2)])];
        {
            let mut d = reopen(&dir);
            d.wal.append_ops(&b).unwrap();
            apply(&mut d.engine, &b);
            d.wal.checkpoint(&d.engine, &d.schema, &d.symbols).unwrap();
        }
        // Corrupt the snapshot body; the checkpoint deleted the old
        // segments, so recovery falls back to an empty base and replays
        // the (empty) current segment: detected, degraded, no panic.
        let snap = snapshot_path(&dir, 2);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        let d = reopen(&dir);
        assert_eq!(d.report.corrupt_snapshots, 1);
        assert_eq!(d.report.snapshot_seq, None);
        assert_eq!(d.engine.total_rows(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// [`RealIo`] plus a shared fsync counter, so policy tests count
    /// *this* log's syncs without racing the process-global metrics.
    struct CountingIo {
        inner: RealIo,
        syncs: std::sync::Arc<AtomicU64>,
    }

    impl WalIo for CountingIo {
        fn open_append(&mut self, path: &Path) -> io::Result<()> {
            self.inner.open_append(path)
        }
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.inner.sync()
        }
        fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.inner.write_file(path, bytes)
        }
        fn remove_file(&mut self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }
    }

    #[test]
    fn sync_policies_fsync_when_promised() {
        for (policy, appends, want_syncs) in [
            (SyncPolicy::Always, 5u64, 5u64),
            (SyncPolicy::Batch, BATCH_SYNC_EVERY + 3, 1),
            (SyncPolicy::Off, 5, 0),
        ] {
            let dir = test_dir("policy");
            let syncs = std::sync::Arc::new(AtomicU64::new(0));
            let io = CountingIo {
                inner: RealIo::new(),
                syncs: syncs.clone(),
            };
            let mut d = open_durable(&dir, policy, Box::new(io)).unwrap();
            for i in 0..appends {
                d.wal
                    .append_ops(&[ins(0, "r", &[k(i as u32), k(0)])])
                    .unwrap();
            }
            assert_eq!(syncs.load(Ordering::Relaxed), want_syncs, "{policy}");
            // flush() forces durability for every policy.
            d.wal.flush().unwrap();
            if policy != SyncPolicy::Always {
                assert_eq!(syncs.load(Ordering::Relaxed), want_syncs + 1, "{policy}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn failed_append_is_not_on_disk() {
        let dir = test_dir("failwrite");
        let mut d = open_durable(
            &dir,
            SyncPolicy::Always,
            Box::new(FaultyIo::new(Fault::FailWriteEvery { k: 2 })),
        )
        .unwrap();
        let mut acked = Vec::new();
        for i in 0..6u32 {
            let b = vec![ins(0, "r", &[k(i), k(i)])];
            if d.wal.append_ops(&b).is_ok() {
                apply(&mut d.engine, &b);
                acked.push(b);
            }
        }
        assert_eq!(acked.len(), 3, "every 2nd append failed");
        drop(d);
        let r = reopen(&dir);
        assert_same_state(&r.engine, &expected_engine(&acked));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_blocks_the_ack_but_state_stays_a_prefix() {
        let dir = test_dir("failsync");
        let mut d = open_durable(
            &dir,
            SyncPolicy::Always,
            Box::new(FaultyIo::new(Fault::FailSyncEvery { k: 3 })),
        )
        .unwrap();
        let mut attempted = Vec::new();
        let mut acked = 0usize;
        for i in 0..7u32 {
            let b = vec![ins(0, "r", &[k(i), k(i + 1)])];
            if d.wal.append_ops(&b).is_ok() {
                acked += 1;
            }
            attempted.push(b);
        }
        assert!(acked < attempted.len());
        drop(d);
        // The appends all landed even where the fsync failed: recovery
        // sees the full attempted stream — a superset of the acked
        // writes, never a divergence.
        let r = reopen(&dir);
        assert_same_state(&r.engine, &expected_engine(&attempted));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Random batches over a few tables: small constants so deletes hit
    /// sometimes, mixed arities, occasional new predicates.
    fn random_batches(rng: &mut StdRng) -> Vec<Vec<WalEntry>> {
        let preds: [(u32, &str, usize); 4] =
            [(0, "p0", 2), (1, "p1", 1), (2, "p2", 3), (5, "sparse", 2)];
        let n_batches = rng.random_range(1usize..16);
        (0..n_batches)
            .map(|_| {
                let n = rng.random_range(1usize..6);
                (0..n)
                    .map(|_| {
                        let (id, name, arity) = preds[rng.random_range(0usize..preds.len())];
                        let row: Vec<u64> =
                            (0..arity).map(|_| k(rng.random_range(0u32..6))).collect();
                        if rng.random_range(0u32..4) == 0 {
                            del(id, name, &row)
                        } else {
                            ins(id, name, &row)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Framed size of one ops batch on disk.
    fn batch_bytes(b: &[WalEntry]) -> usize {
        REC_HEADER + encode_ops(b).len()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// The tentpole differential: crash (partial write, then every
        /// later operation fails) at an arbitrary byte of a random
        /// write stream under `sync=always`. Recovery must equal an
        /// engine that applied exactly the acknowledged batches and
        /// never crashed — tables, catalog, and fingerprints
        /// bit-identical — with the torn tail truncated, never a panic.
        #[test]
        fn crash_recovers_exactly_the_acked_prefix(seed in proptest::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let batches = random_batches(&mut rng);
            let total: usize = batches.iter().map(|b| batch_bytes(b)).sum();
            // Sometimes past the end: then nothing crashes at all.
            let cut = rng.random_range(0u64..(total as u64 + 40));
            let dir = test_dir(&format!("crash{seed}"));

            let mut d = open_durable(
                &dir,
                SyncPolicy::Always,
                Box::new(FaultyIo::new(Fault::TruncateAt { byte: cut })),
            ).unwrap();
            let mut acked: Vec<Vec<WalEntry>> = Vec::new();
            for b in &batches {
                match d.wal.append_ops(b) {
                    Ok(()) => {
                        apply(&mut d.engine, b);
                        acked.push(b.clone());
                    }
                    // Crash: the process is gone from here on.
                    Err(_) => break,
                }
            }
            let live_state = persist::to_bytes(&d.engine);
            drop(d);

            let r = reopen(&dir);
            let want = expected_engine(&acked);
            // Recovered state == exactly the acknowledged prefix…
            proptest::prop_assert_eq!(persist::to_bytes(&r.engine), persist::to_bytes(&want));
            // …which is also what the live engine held at crash time.
            proptest::prop_assert_eq!(persist::to_bytes(&want), live_state);
            proptest::prop_assert_eq!(r.engine.shape_fingerprint(), want.shape_fingerprint());
            proptest::prop_assert_eq!(
                r.engine.predicate_fingerprint(),
                want.predicate_fingerprint()
            );
            // A mid-record cut leaves a torn tail; a cut on a record
            // boundary (or past the end) leaves none.
            proptest::prop_assert!(r.report.torn_truncations <= 1);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// A silently flipped bit anywhere in the stream: recovery
        /// detects it at the checksum, truncates there, and lands on
        /// exactly the batches wholly before the corruption.
        #[test]
        fn bit_flip_recovers_the_prefix_before_the_corruption(seed in proptest::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let batches = random_batches(&mut rng);
            let sizes: Vec<usize> = batches.iter().map(|b| batch_bytes(b)).collect();
            let total: usize = sizes.iter().sum();
            let byte = rng.random_range(0u64..total as u64);
            let bit = rng.random_range(0u8..8);
            let dir = test_dir(&format!("flipprop{seed}"));

            let mut d = open_durable(
                &dir,
                SyncPolicy::Always,
                Box::new(FaultyIo::new(Fault::FlipBit { byte, bit })),
            ).unwrap();
            for b in &batches {
                // Silent corruption: every append reports success.
                d.wal.append_ops(b).unwrap();
            }
            drop(d);

            // Batches wholly before the flipped byte survive.
            let mut end = 0usize;
            let mut intact = 0usize;
            for s in &sizes {
                if (end + s) as u64 <= byte {
                    end += s;
                    intact += 1;
                } else {
                    break;
                }
            }
            let r = reopen(&dir);
            let want = expected_engine(&batches[..intact]);
            proptest::prop_assert_eq!(persist::to_bytes(&r.engine), persist::to_bytes(&want));
            proptest::prop_assert_eq!(r.report.torn_truncations, 1);
            proptest::prop_assert_eq!(r.report.replayed_records as usize, intact);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Crash at an arbitrary point in a stream that also rotates
        /// segments and checkpoints mid-way: multi-file recovery obeys
        /// the same acked-prefix contract.
        #[test]
        fn crash_with_rotation_and_checkpoints_recovers_acked(seed in proptest::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let batches = random_batches(&mut rng);
            let total: usize = batches.iter().map(|b| batch_bytes(b)).sum();
            let cut = rng.random_range(0u64..(total as u64 + 40));
            let ckpt_every = rng.random_range(2usize..6);
            let dir = test_dir(&format!("crashrot{seed}"));

            let mut d = open_durable(
                &dir,
                SyncPolicy::Always,
                Box::new(FaultyIo::new(Fault::TruncateAt { byte: cut })),
            ).unwrap();
            d.wal.set_rotate_bytes(96);
            let mut acked: Vec<Vec<WalEntry>> = Vec::new();
            for (i, b) in batches.iter().enumerate() {
                match d.wal.append_ops(b) {
                    Ok(()) => {
                        apply(&mut d.engine, b);
                        acked.push(b.clone());
                    }
                    Err(_) => break,
                }
                if (i + 1) % ckpt_every == 0
                    && d.wal.checkpoint(&d.engine, &d.schema, &d.symbols).is_err()
                {
                    // Crash during the checkpoint itself: stop writing.
                    break;
                }
            }
            drop(d);

            let r = reopen(&dir);
            let want = expected_engine(&acked);
            proptest::prop_assert_eq!(persist::to_bytes(&r.engine), persist::to_bytes(&want));
            proptest::prop_assert_eq!(r.engine.shape_fingerprint(), want.shape_fingerprint());
            proptest::prop_assert_eq!(
                r.engine.predicate_fingerprint(),
                want.predicate_fingerprint()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The database behind `testdata/snapshot_golden.soctsnp`: three
    /// tables (one empty, one of `MAX_ARITY` columns spanning two pages),
    /// a constant vocabulary, and their schema.
    fn golden_db() -> (StorageEngine, Schema, Interner) {
        let mut schema = Schema::new();
        let mut symbols = Interner::new();
        let mut engine = StorageEngine::new();
        let r = schema.add_predicate("r", 3).unwrap();
        let wide = schema.add_predicate("wide", MAX_ARITY).unwrap();
        let empty = schema.add_predicate("empty", 2).unwrap();
        for p in [r, wide, empty] {
            engine.create_table(p, schema.name(p), schema.arity(p));
        }
        let c = |i: u64| Term::Const(ConstId(i as u32)).pack();
        for i in 0..11u64 {
            symbols.intern(&format!("c{i}"));
        }
        for i in 0..5u64 {
            engine.insert_packed(r, &[c(i), c(i + 1), c(i % 2)]);
        }
        for j in 0..17u64 {
            let row: Vec<u64> = (0..MAX_ARITY as u64).map(|k| c((j * 7 + k) % 11)).collect();
            engine.insert_packed(wide, &row);
        }
        (engine, schema, symbols)
    }

    /// A `SOCTSNP1` snapshot written by the byte-buffer page layout this
    /// engine used before pages held `u64` words: it must decode, and both
    /// re-encoding it and encoding the same database afresh must give the
    /// file back byte for byte.
    #[test]
    fn golden_snapshot_decodes_and_re_encodes_byte_for_byte() {
        let golden: &[u8] = include_bytes!("../testdata/snapshot_golden.soctsnp");
        let (engine, schema, symbols) = golden_db();
        assert_eq!(encode_snapshot(&engine, &schema, &symbols), golden);
        let dir = test_dir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.soctsnp");
        std::fs::write(&path, golden).unwrap();
        let (e, s, y) = load_snapshot(&path).unwrap();
        assert_eq!(e.table(PredId(1)).unwrap().page_count(), 2);
        assert_eq!(encode_snapshot(&e, &s, &y), golden);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
