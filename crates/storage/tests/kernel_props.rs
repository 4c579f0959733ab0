//! The EXISTS/COUNT kernel against a reference scan.
//!
//! `query::exists` and `query::count` run one loop over rows borrowed from
//! the table's pages. The reference here copies every row out through
//! `Table::row` (first checked against a `Vec` model of the inserts and
//! deletes), applies the row limit by slicing, and evaluates the
//! conditions with its own `match`; the kernel must agree with it on every
//! table, condition list and limit.

use proptest::{any, prop_assert_eq, proptest, ProptestConfig, TestCaseError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use soct_model::MAX_ARITY;
use soct_storage::query::{count, exists};
use soct_storage::{ColumnCondition, Table, PAGE_SIZE};

/// `cond` on `row`, written independently of `ColumnCondition::eval`.
fn reference_eval(cond: &ColumnCondition, row: &[u64]) -> bool {
    match *cond {
        ColumnCondition::Eq(i, j) => row[usize::from(i)] == row[usize::from(j)],
        ColumnCondition::Ne(i, j) => row[usize::from(i)] != row[usize::from(j)],
    }
}

/// A random table of `arity` columns spanning up to three pages and then
/// thinned by `delete_first_match`; values come from a small domain so
/// equality conditions find witnesses. Also returns the rows the table
/// must hold, in order, kept by a plain `Vec` model of the same
/// swap-remove (the last row moves into the deleted row's slot).
fn random_table(rng: &mut StdRng, arity: usize) -> (Table, Vec<Vec<u64>>) {
    let per_page = PAGE_SIZE / (arity * 8);
    let domain = rng.random_range(1u64..=4);
    let mut table = Table::new("r", arity);
    let mut model: Vec<Vec<u64>> = Vec::new();
    for _ in 0..rng.random_range(0usize..=3 * per_page + 1) {
        let row: Vec<u64> = (0..arity).map(|_| rng.random_range(0..domain)).collect();
        table.insert_packed(&row);
        model.push(row);
    }
    for _ in 0..rng.random_range(0usize..=per_page) {
        // Half the deletes name a stored row, half a random (maybe absent) one.
        let row = match model.len() {
            n if n > 0 && rng.random_range(0u8..2) == 0 => model[rng.random_range(0..n)].clone(),
            _ => (0..arity).map(|_| rng.random_range(0..domain)).collect(),
        };
        let hit = model.iter().position(|r| *r == row);
        assert_eq!(table.delete_first_match(&row), hit.is_some());
        if let Some(i) = hit {
            model.swap_remove(i);
        }
    }
    (table, model)
}

fn kernel_agrees(seed: u64, arity: usize) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (table, model) = random_table(&mut rng, arity);
    let rows: Vec<Vec<u64>> = (0..table.row_count())
        .map(|i| table.row(i).unwrap())
        .collect();
    prop_assert_eq!(&rows, &model);
    let col = |rng: &mut StdRng| rng.random_range(0..arity as u16);
    for _ in 0..8 {
        let conds: Vec<ColumnCondition> = (0..rng.random_range(0usize..=4))
            .map(|_| {
                let (i, j) = (col(&mut rng), col(&mut rng));
                if rng.random_range(0u8..2) == 0 {
                    ColumnCondition::Eq(i, j)
                } else {
                    ColumnCondition::Ne(i, j)
                }
            })
            .collect();
        let limit = match rng.random_range(0u8..4) {
            0 => u64::MAX,
            1 => 0,
            _ => rng.random_range(0..=rows.len() as u64 + 2),
        };
        let visible = &rows[..rows.len().min(usize::try_from(limit).unwrap_or(usize::MAX))];
        let want = visible
            .iter()
            .filter(|r| conds.iter().all(|c| reference_eval(c, r)))
            .count() as u64;
        prop_assert_eq!(
            count(&table, &conds, limit),
            want,
            "{:?} limit {}",
            conds,
            limit
        );
        prop_assert_eq!(
            exists(&table, &conds, limit),
            want > 0,
            "{:?} limit {}",
            conds,
            limit
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arities 1–8 over tables of up to three pages.
    #[test]
    fn kernel_matches_reference_scan(seed in any::<u64>(), arity in 1usize..=8) {
        kernel_agrees(seed, arity)?;
    }

    /// The widest rows the schema admits (`MAX_ARITY` = 64 columns, 16
    /// rows per page).
    #[test]
    fn kernel_matches_reference_scan_at_max_arity(seed in any::<u64>()) {
        kernel_agrees(seed, MAX_ARITY)?;
    }
}
