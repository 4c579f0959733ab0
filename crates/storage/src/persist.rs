//! Binary persistence for storage engines.
//!
//! Format (little endian):
//! ```text
//! magic "SOCTDB1\0"
//! u32 table_count
//! per table:
//!   u32 pred_id,  u16 name_len, name bytes (UTF-8),  u16 arity,
//!   u32 page_count,  per page: u32 byte_len, raw page bytes
//! ```
//! Databases in the experiments are generated once and re-read by many runs
//! (the paper's `D★` is built once, §8.1); persistence makes that cheap.

use crate::engine::StorageEngine;
use crate::page::Page;
use crate::table::Table;
use bytes::{Buf, BufMut};
use soct_model::{PredId, MAX_ARITY};
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"SOCTDB1\0";

/// Highest predicate slot `from_bytes` accepts. Predicate ids are dense
/// interner indices in practice; a corrupt header with a huge id would
/// otherwise drive a `resize_with` allocation of that many table slots
/// and abort the process instead of returning `Err`.
const MAX_PRED_SLOT: usize = 1 << 22;

/// Serialises the engine to bytes.
pub fn to_bytes(engine: &StorageEngine) -> Vec<u8> {
    let tables: Vec<(PredId, &Table)> = engine.tables().collect();
    let mut out = Vec::new();
    out.put_slice(MAGIC);
    out.put_u32_le(tables.len() as u32);
    for (pred, table) in tables {
        out.put_u32_le(pred.0);
        let name = table.name().as_bytes();
        out.put_u16_le(name.len() as u16);
        out.put_slice(name);
        out.put_u16_le(table.arity() as u16);
        out.put_u32_le(table.pages().len() as u32);
        for page in table.pages() {
            out.put_u32_le(page.byte_len() as u32);
            page.write_le(&mut out);
        }
    }
    out
}

/// Deserialises an engine from bytes.
pub fn from_bytes(mut data: &[u8]) -> io::Result<StorageEngine> {
    let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    if data.len() < 12 || &data[..8] != MAGIC {
        return Err(err("bad magic"));
    }
    data.advance(8);
    let table_count = data.get_u32_le() as usize;
    // Every table needs ≥ 12 header bytes, so a count the remaining data
    // cannot possibly hold is corruption — reject before trusting it.
    if table_count > data.remaining() / 12 {
        return Err(err("implausible table count"));
    }
    let mut engine = StorageEngine::new();
    for _ in 0..table_count {
        if data.remaining() < 6 {
            return Err(err("truncated table header"));
        }
        let pred = PredId(data.get_u32_le());
        let name_len = data.get_u16_le() as usize;
        if data.remaining() < name_len {
            return Err(err("truncated name"));
        }
        let name = std::str::from_utf8(&data[..name_len])
            .map_err(|_| err("name not UTF-8"))?
            .to_string();
        data.advance(name_len);
        if data.remaining() < 6 {
            return Err(err("truncated table header"));
        }
        let arity = data.get_u16_le() as usize;
        if arity == 0 {
            return Err(err("zero arity"));
        }
        // `Table::new` never creates wider tables, and the row code relies
        // on it (rows are copied through `[u64; MAX_ARITY]` buffers).
        if arity > MAX_ARITY {
            return Err(err("arity exceeds MAX_ARITY"));
        }
        let page_count = data.get_u32_le() as usize;
        // Each page carries a 4-byte length header; don't size the vec
        // from a count the data cannot back.
        if page_count > data.remaining() / 4 {
            return Err(err("implausible page count"));
        }
        let mut pages = Vec::with_capacity(page_count);
        for _ in 0..page_count {
            if data.remaining() < 4 {
                return Err(err("truncated page header"));
            }
            let len = data.get_u32_le() as usize;
            // Tables never keep an empty page; a restored one would leave
            // swap-remove deletes without a last row to move.
            if data.remaining() < len || len == 0 || len % (arity * 8) != 0 {
                return Err(err("corrupt page"));
            }
            pages.push(Page::from_le_bytes(arity, &data[..len]));
            data.advance(len);
        }
        let table = Table::from_pages(name, arity, pages);
        let slot = pred.index();
        if slot > MAX_PRED_SLOT {
            return Err(err("implausible predicate id"));
        }
        let tables = engine.tables_mut_for_load();
        if slot >= tables.len() {
            tables.resize_with(slot + 1, || None);
        }
        tables[slot] = Some(table);
    }
    Ok(engine)
}

/// Writes the engine to a file.
pub fn save(engine: &StorageEngine, path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, to_bytes(engine))
}

/// Reads an engine from a file.
pub fn load(path: impl AsRef<Path>) -> io::Result<StorageEngine> {
    from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TupleSource;
    use soct_model::{ConstId, Term};

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    fn sample() -> StorageEngine {
        let mut e = StorageEngine::new();
        e.create_table(PredId(0), "r", 2);
        e.create_table(PredId(2), "s", 3);
        for i in 0..2000 {
            e.insert(PredId(0), &[c(i), c(i + 1)]);
        }
        e.insert(PredId(2), &[c(1), c(1), c(2)]);
        e
    }

    #[test]
    fn round_trip_preserves_rows() {
        let e = sample();
        let bytes = to_bytes(&e);
        let e2 = from_bytes(&bytes).unwrap();
        assert_eq!(e2.row_count(PredId(0)), 2000);
        assert_eq!(e2.row_count(PredId(2)), 1);
        assert_eq!(e2.table(PredId(0)).unwrap().name(), "r");
        assert_eq!(e2.arity_of(PredId(2)), 3);
        // Spot-check data content.
        let mut last = Vec::new();
        e2.scan(PredId(0), &mut |row| {
            last = row.to_vec();
            true
        });
        assert_eq!(Term::unpack(last[1]), Some(c(2000)));
    }

    #[test]
    fn corrupt_data_is_rejected() {
        assert!(from_bytes(b"garbage").is_err());
        let mut bytes = to_bytes(&sample());
        bytes[3] = b'X';
        assert!(from_bytes(&bytes).is_err());
        // Truncation.
        let good = to_bytes(&sample());
        assert!(from_bytes(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_headers_are_rejected_not_panics() {
        // Magic alone, or magic plus a count promising tables that never
        // arrive: every truncation point must yield Err, never a panic.
        assert!(from_bytes(MAGIC).is_err());
        let mut claims_five = MAGIC.to_vec();
        claims_five.extend_from_slice(&5u32.to_le_bytes());
        assert!(from_bytes(&claims_five).is_err());
        // A table header cut off inside the name, the arity, and the page
        // length field respectively.
        let good = to_bytes(&sample());
        for cut in [13, 14, 15, 16, 17, 18, 19, 20, 21] {
            assert!(from_bytes(&good[..cut]).is_err(), "cut at {cut} bytes");
        }
        // A name length pointing past the end of the buffer.
        let mut bad_name_len = good.clone();
        bad_name_len[16] = 0xFF;
        bad_name_len[17] = 0xFF;
        assert!(from_bytes(&bad_name_len).is_err());
        // Counts and ids the data cannot back must be rejected before any
        // allocation is sized from them (a flipped high byte would
        // otherwise abort the process, not return Err).
        let table = |pred: u32, pages: u32| {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&pred.to_le_bytes());
            b.extend_from_slice(&1u16.to_le_bytes());
            b.push(b'r');
            b.extend_from_slice(&1u16.to_le_bytes());
            b.extend_from_slice(&pages.to_le_bytes());
            b
        };
        assert!(from_bytes(&table(u32::MAX, 0)).is_err(), "huge pred id");
        assert!(from_bytes(&table(0, u32::MAX)).is_err(), "huge page count");
        // A table wider than MAX_ARITY, with one well-formed row.
        let wide = MAX_ARITY as u16 + 1;
        let mut too_wide = MAGIC.to_vec();
        too_wide.extend_from_slice(&1u32.to_le_bytes());
        too_wide.extend_from_slice(&0u32.to_le_bytes());
        too_wide.extend_from_slice(&1u16.to_le_bytes());
        too_wide.push(b'r');
        too_wide.extend_from_slice(&wide.to_le_bytes());
        too_wide.extend_from_slice(&1u32.to_le_bytes());
        too_wide.extend_from_slice(&(u32::from(wide) * 8).to_le_bytes());
        too_wide.resize(too_wide.len() + usize::from(wide) * 8, 0);
        assert!(from_bytes(&too_wide).is_err(), "arity above MAX_ARITY");
    }

    #[test]
    fn empty_pages_are_rejected() {
        // One row of `r/1`, then a zero-length page.
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&1u32.to_le_bytes());
        image.extend_from_slice(&0u32.to_le_bytes());
        image.extend_from_slice(&1u16.to_le_bytes());
        image.push(b'r');
        image.extend_from_slice(&1u16.to_le_bytes());
        image.extend_from_slice(&2u32.to_le_bytes());
        image.extend_from_slice(&8u32.to_le_bytes());
        image.extend_from_slice(&7u64.to_le_bytes());
        image.extend_from_slice(&0u32.to_le_bytes());
        assert!(from_bytes(&image).is_err());
        // Without the empty page the same image loads.
        image.truncate(image.len() - 4);
        image[21..25].copy_from_slice(&1u32.to_le_bytes());
        let mut engine = from_bytes(&image).unwrap();
        assert!(engine.delete_packed(PredId(0), &[7]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// `to_bytes`/`from_bytes` round-trips an arbitrary engine
        /// bit-identically: same serialised bytes, same tables (names,
        /// arities, row data), and the same derived shape catalog.
        #[test]
        fn round_trip_is_bit_identical(seed in proptest::any::<u64>()) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut engine = StorageEngine::new();
            let n_tables = rng.random_range(0usize..5);
            for t in 0..n_tables {
                // Sparse, unordered predicate ids exercise the slot map.
                let pred = PredId((t * 3 + rng.random_range(0u32..3) as usize) as u32);
                let arity = rng.random_range(1usize..=4);
                let name_len = rng.random_range(1usize..8);
                let name: String = (0..name_len)
                    .map(|_| (b'a' + rng.random_range(0u8..26)) as char)
                    .collect();
                engine.create_table(pred, &name, arity);
                // Enough rows to spill across pages sometimes.
                for _ in 0..rng.random_range(0usize..600) {
                    let row: Vec<Term> = (0..arity)
                        .map(|_| c(rng.random_range(0u32..50)))
                        .collect();
                    engine.insert(pred, &row);
                }
            }

            let bytes = to_bytes(&engine);
            let mut restored = from_bytes(&bytes).expect("round trip must parse");
            // Bit-identical re-serialisation.
            proptest::prop_assert_eq!(to_bytes(&restored), bytes);
            // Tables and data agree.
            let orig: Vec<(PredId, String, usize, u64)> = engine
                .tables()
                .map(|(p, t)| (p, t.name().to_string(), t.arity(), t.row_count()))
                .collect();
            let back: Vec<(PredId, String, usize, u64)> = restored
                .tables()
                .map(|(p, t)| (p, t.name().to_string(), t.arity(), t.row_count()))
                .collect();
            proptest::prop_assert_eq!(&orig, &back);
            for (pred, _, _, _) in &orig {
                let mut rows_a = Vec::new();
                engine.scan(*pred, &mut |r| { rows_a.push(r.to_vec()); true });
                let mut rows_b = Vec::new();
                restored.scan(*pred, &mut |r| { rows_b.push(r.to_vec()); true });
                proptest::prop_assert_eq!(&rows_a, &rows_b);
            }
            // The shape catalog is derived state: building it on both
            // sides from scratch must agree exactly.
            engine.enable_shape_tracking();
            restored.enable_shape_tracking();
            proptest::prop_assert_eq!(
                engine.shape_catalog().unwrap().shapes(),
                restored.shape_catalog().unwrap().shapes()
            );
        }

        /// Arbitrary mutations of a valid image either parse to the same
        /// bytes or fail cleanly — `from_bytes` never panics.
        #[test]
        fn corrupted_bytes_never_panic(seed in proptest::any::<u64>()) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let good = to_bytes(&sample());
            let mut bytes = good.clone();
            match rng.random_range(0u8..3) {
                // Truncate at a random point.
                0 => bytes.truncate(rng.random_range(0usize..bytes.len())),
                // Flip one random byte.
                1 => {
                    let i = rng.random_range(0usize..bytes.len());
                    bytes[i] ^= 1 << rng.random_range(0u8..8);
                }
                // Append garbage (ignored by the current format).
                _ => bytes.extend_from_slice(&[0xAB; 7]),
            }
            if let Ok(engine) = from_bytes(&bytes) {
                // A surviving image must still round-trip cleanly.
                proptest::prop_assert!(from_bytes(&to_bytes(&engine)).is_ok());
            } // Err: clean rejection is the expected path.
        }
    }

    #[test]
    fn wal_checkpoint_round_trips_the_persist_image() {
        use crate::wal::{open_durable, RealIo, SyncPolicy, WalEntry};
        let dir = std::env::temp_dir().join(format!("soct_persist_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let want = sample();
        {
            let mut d = open_durable(&dir, SyncPolicy::Batch, Box::new(RealIo::new())).unwrap();
            for (pred, table) in want.tables() {
                let mut rows = Vec::new();
                want.scan(pred, &mut |r| {
                    rows.push(r.to_vec());
                    true
                });
                for row in rows {
                    let e = WalEntry {
                        insert: true,
                        pred,
                        name: table.name().to_string(),
                        row,
                    };
                    d.wal.append_ops(std::slice::from_ref(&e)).unwrap();
                    d.engine.create_table(pred, &e.name, e.row.len());
                    d.engine.insert_packed(pred, &e.row);
                }
            }
            // The checkpoint snapshot embeds the persist-format image.
            d.wal.checkpoint(&d.engine, &d.schema, &d.symbols).unwrap();
            assert_eq!(to_bytes(&d.engine), to_bytes(&want));
        }
        let r =
            crate::wal::open_durable(&dir, SyncPolicy::Always, Box::new(RealIo::new())).unwrap();
        assert_eq!(r.report.replayed_records, 0, "snapshot carries it all");
        assert_eq!(to_bytes(&r.engine), to_bytes(&want));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("soct_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.soct");
        let e = sample();
        save(&e, &path).unwrap();
        let e2 = load(&path).unwrap();
        assert_eq!(e2.total_rows(), e.total_rows());
        std::fs::remove_file(&path).ok();
    }
}
