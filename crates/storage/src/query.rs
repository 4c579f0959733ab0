//! Column conditions and the Boolean EXISTS queries of §5.4.
//!
//! The in-database `FindShapes` translates every shape into a query
//!
//! ```sql
//! SELECT CASE WHEN EXISTS
//!   (SELECT * FROM R WHERE Equality_Conditions AND Disequality_Conditions)
//! THEN 1 ELSE 0 END
//! ```
//!
//! Our engine evaluates the inner `EXISTS` as an early-exit sequential scan,
//! which is also what a row-store without a suitable index does; the SQL
//! rendering is kept for logs and tests.
//!
//! [`exists`] and [`count`] share one kernel, `count_matches`: a loop over
//! the `&[u64]` rows the table's pages lend out, with the conditions
//! evaluated inline on each borrowed row. No row is copied or decoded, the
//! predicate is not called through a trait object, and a query allocates
//! nothing. The loop honours a row `limit` (the first-k-rows views of
//! §8.1) and stops after a given number of matches (1 for `EXISTS`).

use crate::table::Table;
use std::fmt;

/// A column-to-column comparison, 0-based.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColumnCondition {
    /// `a{i} = a{j}`
    Eq(u16, u16),
    /// `a{i} != a{j}`
    Ne(u16, u16),
}

impl ColumnCondition {
    /// Evaluates the condition on a row of packed values.
    #[inline]
    pub fn eval(&self, row: &[u64]) -> bool {
        match *self {
            ColumnCondition::Eq(i, j) => row[i as usize] == row[j as usize],
            ColumnCondition::Ne(i, j) => row[i as usize] != row[j as usize],
        }
    }
}

impl fmt::Display for ColumnCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ColumnCondition::Eq(i, j) => write!(f, "a{}=a{}", i + 1, j + 1),
            ColumnCondition::Ne(i, j) => write!(f, "a{}!=a{}", i + 1, j + 1),
        }
    }
}

/// Evaluates all conditions on a row.
#[inline]
pub fn eval_all(conds: &[ColumnCondition], row: &[u64]) -> bool {
    conds.iter().all(|c| c.eval(row))
}

/// Rows among the first `limit` of `table` that satisfy every condition,
/// counting at most `stop` of them: the one scan loop behind [`exists`]
/// (`stop` = 1) and [`count`] (`stop` = `u64::MAX`).
#[inline]
fn count_matches(table: &Table, conds: &[ColumnCondition], limit: u64, stop: u64) -> u64 {
    let mut n = 0u64;
    table.for_each_row_limited(limit, |row| {
        n += u64::from(eval_all(conds, row));
        n < stop
    });
    n
}

/// `EXISTS (SELECT * FROM table WHERE conds)` over at most `limit` rows
/// (`u64::MAX` = whole table), with early exit on the first witness.
pub fn exists(table: &Table, conds: &[ColumnCondition], limit: u64) -> bool {
    count_matches(table, conds, limit, 1) > 0
}

/// `SELECT COUNT(*) FROM table WHERE conds` over at most `limit` rows.
pub fn count(table: &Table, conds: &[ColumnCondition], limit: u64) -> u64 {
    count_matches(table, conds, limit, u64::MAX)
}

/// Renders the §5.4 query for logging (`SELECT CASE WHEN EXISTS …`).
pub fn render_exists_sql(table: &Table, conds: &[ColumnCondition]) -> String {
    let mut out = String::from("SELECT CASE WHEN EXISTS (SELECT * FROM ");
    out.push_str(table.name());
    if !conds.is_empty() {
        out.push_str(" WHERE ");
        for (i, c) in conds.iter().enumerate() {
            if i > 0 {
                out.push_str(" AND ");
            }
            out.push_str(&c.to_string());
        }
    }
    out.push_str(") THEN 1 ELSE 0 END");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("R", 3);
        t.insert_packed(&[1, 1, 2]);
        t.insert_packed(&[3, 4, 5]);
        t.insert_packed(&[6, 6, 6]);
        t
    }

    #[test]
    fn eq_and_ne_evaluate() {
        let c_eq = ColumnCondition::Eq(0, 1);
        let c_ne = ColumnCondition::Ne(1, 2);
        assert!(c_eq.eval(&[1, 1, 2]));
        assert!(!c_eq.eval(&[1, 2, 2]));
        assert!(c_ne.eval(&[1, 1, 2]));
        assert!(!c_ne.eval(&[1, 2, 2]));
    }

    #[test]
    fn exists_early_exits() {
        let t = table();
        // Shape (1,1,2): a1=a2 AND a2!=a3.
        assert!(exists(
            &t,
            &[ColumnCondition::Eq(0, 1), ColumnCondition::Ne(1, 2)],
            u64::MAX
        ));
        // Shape (1,1,1): a1=a2=a3.
        assert!(exists(
            &t,
            &[ColumnCondition::Eq(0, 1), ColumnCondition::Eq(1, 2)],
            u64::MAX
        ));
        // Shape (1,2,1): no witness.
        assert!(!exists(
            &t,
            &[ColumnCondition::Ne(0, 1), ColumnCondition::Eq(0, 2),],
            u64::MAX
        ));
    }

    #[test]
    fn limit_restricts_the_view() {
        let t = table();
        // (1,1,1) only appears in row 3; a 2-row view misses it.
        let conds = [ColumnCondition::Eq(0, 1), ColumnCondition::Eq(1, 2)];
        assert!(!exists(&t, &conds, 2));
        assert!(exists(&t, &conds, 3));
    }

    #[test]
    fn count_matches() {
        let t = table();
        assert_eq!(count(&t, &[ColumnCondition::Eq(0, 1)], u64::MAX), 2);
        assert_eq!(count(&t, &[], u64::MAX), 3);
    }

    #[test]
    fn sql_rendering_matches_paper_example() {
        let t = table();
        let sql = render_exists_sql(&t, &[ColumnCondition::Eq(0, 1), ColumnCondition::Ne(1, 2)]);
        assert_eq!(
            sql,
            "SELECT CASE WHEN EXISTS (SELECT * FROM R WHERE a1=a2 AND a2!=a3) THEN 1 ELSE 0 END"
        );
    }
}
