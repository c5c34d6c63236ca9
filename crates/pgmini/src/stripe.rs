//! A columnar stripe: the rows of one columnar write, stored column by
//! column, typed and immutable.
//!
//! Numbers and timestamps are `i64` / `f64` arrays and booleans a `bool`
//! array, each with a validity bitmap (absent when the column holds no NULL).
//! Text is a per-stripe dictionary: each distinct string once, as the shared
//! payload the write brought, and a `u32` code per row. JSON keeps one entry
//! per value, indexed the same way. A stripe is built once, in an `Arc`, and
//! never changes: the table's store and the WAL record that logged it hold
//! the same image, and so do a replica that redoes the record and a shard
//! move that copies it.

use crate::error::{PgError, PgResult};
use crate::types::{Datum, DatumRef, Json, Row};
use sqlparse::ast::TypeName;
use std::collections::HashMap;
use std::sync::Arc;

/// One columnar write's rows, column by column.
#[derive(Debug, PartialEq)]
pub struct Stripe {
    rows: usize,
    columns: Vec<Column>,
}

/// One column of a stripe.
#[derive(Debug, PartialEq)]
pub struct Column {
    /// Bit `r` is set when row `r` is not NULL; `None` when no row is NULL.
    /// A NULL row's slot in `values` holds a zero (code 0 for a dictionary).
    valid: Option<Vec<u64>>,
    values: Values,
}

/// A column's values, by declared type.
#[derive(Debug, PartialEq)]
enum Values {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Timestamp(Vec<i64>),
    Text { dict: Vec<Arc<str>>, codes: Vec<u32> },
    Json { dict: Vec<Arc<Json>>, codes: Vec<u32> },
}

impl Stripe {
    /// The stripe of `rows`, whose values the table's write path has already
    /// cast to the column `types`. A text value equal to one seen before in
    /// its column shares that entry, and the duplicate is dropped with the
    /// rows.
    pub fn from_rows(rows: Vec<Row>, types: &[TypeName]) -> PgResult<Stripe> {
        let mut columns: Vec<Builder> =
            types.iter().map(|ty| Builder::new(*ty, rows.len())).collect();
        for (r, row) in rows.iter().enumerate() {
            if row.len() != types.len() {
                return Err(PgError::internal("columnar append: row arity mismatch"));
            }
            for (column, d) in columns.iter_mut().zip(row) {
                column.push(r, d)?;
            }
        }
        Ok(Stripe { rows: rows.len(), columns: columns.into_iter().map(Builder::finish).collect() })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The declared type of each column.
    pub fn types(&self) -> Vec<TypeName> {
        self.columns.iter().map(Column::type_name).collect()
    }

    /// Row `r` as a row of datums.
    pub fn row(&self, r: usize) -> Row {
        self.columns.iter().map(|c| c.get(r).to_datum()).collect()
    }

    /// Every row, in order: for the readers that want rows (logical decoding,
    /// a full-table copy).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows).map(|r| self.row(r)).collect()
    }
}

/// A column of a stripe being built, one row at a time.
struct Builder {
    ty: TypeName,
    valid: Vec<u64>,
    nulls: bool,
    values: Values,
    /// A text column's dictionary codes by value.
    seen: HashMap<Arc<str>, u32>,
}

impl Builder {
    fn new(ty: TypeName, rows: usize) -> Builder {
        let values = match ty {
            TypeName::Bool => Values::Bool(Vec::with_capacity(rows)),
            TypeName::Int => Values::Int(Vec::with_capacity(rows)),
            TypeName::Float => Values::Float(Vec::with_capacity(rows)),
            TypeName::Timestamp => Values::Timestamp(Vec::with_capacity(rows)),
            TypeName::Text => Values::Text { dict: Vec::new(), codes: Vec::with_capacity(rows) },
            TypeName::Json => Values::Json { dict: Vec::new(), codes: Vec::with_capacity(rows) },
        };
        let valid = vec![0u64; rows.div_ceil(64)];
        Builder { ty, valid, nulls: false, values, seen: HashMap::new() }
    }

    /// Append row `r`'s value: the zero of the column's type when it is NULL.
    fn push(&mut self, r: usize, d: &Datum) -> PgResult<()> {
        if d.is_null() {
            self.nulls = true;
        } else {
            self.valid[r / 64] |= 1 << (r % 64);
        }
        match (&mut self.values, d) {
            (Values::Bool(v), Datum::Bool(b)) => v.push(*b),
            (Values::Bool(v), Datum::Null) => v.push(false),
            (Values::Int(v), Datum::Int(x)) => v.push(*x),
            (Values::Float(v), Datum::Float(x)) => v.push(*x),
            (Values::Int(v) | Values::Timestamp(v), Datum::Null) => v.push(0),
            (Values::Float(v), Datum::Null) => v.push(0.0),
            (Values::Timestamp(v), Datum::Timestamp(t)) => v.push(*t),
            (Values::Text { dict, codes }, Datum::Text(s)) => {
                let code = match self.seen.get(&**s) {
                    Some(&code) => code,
                    None => {
                        dict.push(s.clone());
                        let code = (dict.len() - 1) as u32;
                        self.seen.insert(s.clone(), code);
                        code
                    }
                };
                codes.push(code);
            }
            (Values::Json { dict, codes }, Datum::Json(j)) => {
                dict.push(j.clone());
                codes.push((dict.len() - 1) as u32);
            }
            (Values::Text { codes, .. } | Values::Json { codes, .. }, Datum::Null) => codes.push(0),
            (_, d) => {
                return Err(PgError::internal(format!(
                    "columnar append: {:?} value in a {} column",
                    d.type_name(),
                    self.ty.as_str()
                )))
            }
        }
        Ok(())
    }

    fn finish(self) -> Column {
        Column { valid: self.nulls.then_some(self.valid), values: self.values }
    }
}

impl Column {
    fn type_name(&self) -> TypeName {
        match self.values {
            Values::Bool(_) => TypeName::Bool,
            Values::Int(_) => TypeName::Int,
            Values::Float(_) => TypeName::Float,
            Values::Timestamp(_) => TypeName::Timestamp,
            Values::Text { .. } => TypeName::Text,
            Values::Json { .. } => TypeName::Json,
        }
    }

    /// The value of row `r`.
    pub fn get(&self, r: usize) -> DatumRef<'_> {
        self.slice(0, r + 1).get(r)
    }

    /// Rows `[lo, lo + len)` as typed slices.
    pub fn slice(&self, lo: usize, len: usize) -> ColumnSlice<'_> {
        let hi = lo + len;
        let values = match &self.values {
            Values::Bool(v) => Slice::Bool(&v[lo..hi]),
            Values::Int(v) => Slice::Int(&v[lo..hi]),
            Values::Float(v) => Slice::Float(&v[lo..hi]),
            Values::Timestamp(v) => Slice::Timestamp(&v[lo..hi]),
            Values::Text { dict, codes } => Slice::Text(dict, &codes[lo..hi]),
            Values::Json { dict, codes } => Slice::Json(dict, &codes[lo..hi]),
        };
        ColumnSlice { valid: self.valid.as_deref(), lo, values }
    }
}

/// A run of a column's rows: typed value slices indexed from the run's first
/// row, and the column's validity bitmap.
#[derive(Debug, Clone, Copy)]
pub struct ColumnSlice<'s> {
    valid: Option<&'s [u64]>,
    /// The run's first row, where its bits start in `valid`.
    lo: usize,
    pub values: Slice<'s>,
}

/// The values of a [`ColumnSlice`]: a text or JSON run is its codes, read
/// through the stripe's dictionary.
#[derive(Debug, Clone, Copy)]
pub enum Slice<'s> {
    Bool(&'s [bool]),
    Int(&'s [i64]),
    Float(&'s [f64]),
    Timestamp(&'s [i64]),
    Text(&'s [Arc<str>], &'s [u32]),
    Json(&'s [Arc<Json>], &'s [u32]),
}

impl<'s> ColumnSlice<'s> {
    /// Whether no row of the run is NULL.
    pub fn all_valid(&self) -> bool {
        self.valid.is_none()
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        let r = self.lo + i;
        self.valid.is_some_and(|bits| bits[r / 64] >> (r % 64) & 1 == 0)
    }

    /// The value of the run's row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> DatumRef<'s> {
        if self.is_null(i) {
            return DatumRef::Null;
        }
        match self.values {
            Slice::Bool(v) => DatumRef::Bool(v[i]),
            Slice::Int(v) => DatumRef::Int(v[i]),
            Slice::Float(v) => DatumRef::Float(v[i]),
            Slice::Timestamp(v) => DatumRef::Timestamp(v[i]),
            Slice::Text(dict, codes) => DatumRef::Text(&dict[codes[i] as usize]),
            Slice::Json(dict, codes) => DatumRef::Json(&dict[codes[i] as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_come_back_as_written() {
        let rows = vec![
            vec![Datum::Int(i64::MIN), Datum::from_text("a"), Datum::Null, Datum::Float(-0.0)],
            vec![Datum::Null, Datum::from_text("b"), Datum::Timestamp(7), Datum::Float(f64::NAN)],
            vec![Datum::Int(i64::MAX), Datum::from_text("a"), Datum::Timestamp(-1), Datum::Null],
        ];
        let types = [TypeName::Int, TypeName::Text, TypeName::Timestamp, TypeName::Float];
        let stripe = Stripe::from_rows(rows.clone(), &types).unwrap();
        assert_eq!(stripe.rows(), 3);
        assert_eq!(stripe.types(), types);
        let back = stripe.to_rows();
        assert_eq!(format!("{back:?}"), format!("{rows:?}"));
        assert!(matches!(back[0][3], Datum::Float(z) if z == 0.0 && z.is_sign_negative()));
        // the repeated text is one dictionary entry, shared by both rows
        let Values::Text { dict, codes } = &stripe.columns[1].values else { unreachable!() };
        assert_eq!((dict.len(), codes.as_slice()), (2, &[0, 1, 0][..]));
        let (Datum::Text(a), Datum::Text(b)) = (&back[0][1], &back[2][1]) else { unreachable!() };
        assert!(Arc::ptr_eq(a, b));
        // a column without NULLs keeps no bitmap
        assert!(stripe.columns[1].valid.is_none() && stripe.columns[0].valid.is_some());
    }

    #[test]
    fn a_slice_reads_from_its_first_row() {
        let rows: Vec<Row> =
            (0..200).map(|i| vec![if i % 3 == 0 { Datum::Null } else { Datum::Int(i) }]).collect();
        let stripe = Stripe::from_rows(rows, &[TypeName::Int]).unwrap();
        let run = stripe.columns()[0].slice(128, 10);
        for i in 0..10 {
            let r = 128 + i as i64;
            let want = if r % 3 == 0 { Datum::Null } else { Datum::Int(r) };
            assert_eq!(run.get(i).to_datum(), want);
        }
    }

    /// A column of many repeated texts keeps each distinct one once.
    #[test]
    fn a_large_dictionary_keeps_each_text_once() {
        let rows: Vec<Row> =
            (0..200).map(|i| vec![Datum::from_text(&format!("v{}", i * 7 % 40))]).collect();
        let stripe = Stripe::from_rows(rows.clone(), &[TypeName::Text]).unwrap();
        assert_eq!(stripe.to_rows(), rows);
        let Values::Text { dict, .. } = &stripe.columns[0].values else { unreachable!() };
        assert_eq!(dict.len(), 40);
    }

    #[test]
    fn a_value_of_another_type_is_refused() {
        let err = Stripe::from_rows(vec![vec![Datum::from_text("x")]], &[TypeName::Int]);
        assert!(err.is_err());
        assert!(Stripe::from_rows(vec![vec![Datum::Int(1)]], &[]).is_err());
    }
}
