//! Runtime values (`Datum`), rows, their total order, and the hash function
//! that places rows on shards.

use super::json::Json;
use super::time;
use crate::error::{ErrorCode, PgError, PgResult};
use sqlparse::ast::TypeName;
use std::cmp::Ordering;
use std::sync::Arc;

/// A runtime value. `Timestamp` is microseconds since the Unix epoch.
///
/// The two variable-size payloads are reference-counted and immutable, so
/// cloning a `Datum` never copies string bytes or a JSON tree: a heap
/// version, its WAL image, a decoded change and a result row all point at
/// the one allocation made when the value was first built.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    Json(Arc<Json>),
    Timestamp(i64),
}

/// A tuple of datums.
pub type Row = Vec<Datum>;

impl Datum {
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The normalised type of this value, or `None` for NULL.
    pub fn type_name(&self) -> Option<TypeName> {
        Some(match self {
            Datum::Null => return None,
            Datum::Bool(_) => TypeName::Bool,
            Datum::Int(_) => TypeName::Int,
            Datum::Float(_) => TypeName::Float,
            Datum::Text(_) => TypeName::Text,
            Datum::Json(_) => TypeName::Json,
            Datum::Timestamp(_) => TypeName::Timestamp,
        })
    }

    /// A text value from anything that converts to the shared payload
    /// (`&str`, `String`, an existing `Arc<str>`).
    pub fn text<S: Into<Arc<str>>>(s: S) -> Datum {
        Datum::Text(s.into())
    }

    pub fn from_text(s: &str) -> Datum {
        Datum::text(s)
    }

    pub fn json(j: Json) -> Datum {
        Datum::Json(Arc::new(j))
    }

    /// SQL-style text rendering (no quotes), as `::text` would produce.
    pub fn to_text(&self) -> String {
        match self {
            Datum::Null => String::new(),
            Datum::Bool(true) => "t".to_string(),
            Datum::Bool(false) => "f".to_string(),
            Datum::Int(v) => v.to_string(),
            Datum::Float(v) => format!("{v}"),
            Datum::Text(s) => s.to_string(),
            Datum::Json(j) => j.to_string(),
            Datum::Timestamp(t) => time::format_timestamp(*t),
        }
    }

    /// Numeric view for arithmetic; errors on non-numeric types.
    pub fn as_f64(&self) -> PgResult<f64> {
        match self {
            Datum::Int(v) => Ok(*v as f64),
            Datum::Float(v) => Ok(*v),
            Datum::Bool(b) => Ok(*b as i64 as f64),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("value is not numeric: {}", other.to_text()),
            )),
        }
    }

    pub fn as_i64(&self) -> PgResult<i64> {
        match self {
            Datum::Int(v) => Ok(*v),
            Datum::Float(v) => Ok(*v as i64),
            Datum::Bool(b) => Ok(*b as i64),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("value is not an integer: {}", other.to_text()),
            )),
        }
    }

    pub fn as_bool(&self) -> PgResult<bool> {
        match self {
            Datum::Bool(b) => Ok(*b),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("value is not boolean: {}", other.to_text()),
            )),
        }
    }

    pub fn as_str(&self) -> PgResult<&str> {
        match self {
            Datum::Text(s) => Ok(s),
            other => Err(PgError::new(
                ErrorCode::InvalidText,
                format!("value is not text: {}", other.to_text()),
            )),
        }
    }

    /// Cast to `ty` following PostgreSQL's conversion rules for the types we
    /// support. NULL casts to NULL of any type.
    pub fn cast_to(&self, ty: TypeName) -> PgResult<Datum> {
        if self.is_null() {
            return Ok(Datum::Null);
        }
        let bad = |from: &Datum| {
            PgError::new(
                ErrorCode::InvalidText,
                format!("cannot cast {} to {}", from.to_text(), ty.as_str()),
            )
        };
        Ok(match ty {
            TypeName::Int => match self {
                Datum::Int(v) => Datum::Int(*v),
                Datum::Float(v) => Datum::Int(v.round() as i64),
                Datum::Bool(b) => Datum::Int(*b as i64),
                Datum::Text(s) => Datum::Int(
                    s.trim().parse::<i64>().map_err(|_| bad(self))?,
                ),
                Datum::Json(j) => match **j {
                    Json::Number(n) => Datum::Int(n.round() as i64),
                    _ => return Err(bad(self)),
                },
                _ => return Err(bad(self)),
            },
            TypeName::Float => match self {
                Datum::Int(v) => Datum::Float(*v as f64),
                Datum::Float(v) => Datum::Float(*v),
                Datum::Text(s) => {
                    Datum::Float(s.trim().parse::<f64>().map_err(|_| bad(self))?)
                }
                Datum::Json(j) => match **j {
                    Json::Number(n) => Datum::Float(n),
                    _ => return Err(bad(self)),
                },
                _ => return Err(bad(self)),
            },
            TypeName::Text => match self {
                Datum::Text(_) => self.clone(),
                other => Datum::text(other.to_text()),
            },
            TypeName::Bool => match self {
                Datum::Bool(b) => Datum::Bool(*b),
                Datum::Int(v) => Datum::Bool(*v != 0),
                Datum::Text(s) => match s.trim() {
                    "t" | "true" | "on" | "1" => Datum::Bool(true),
                    "f" | "false" | "off" | "0" => Datum::Bool(false),
                    _ => return Err(bad(self)),
                },
                _ => return Err(bad(self)),
            },
            TypeName::Json => match self {
                Datum::Json(_) => self.clone(),
                Datum::Text(s) => Datum::json(Json::parse(s)?),
                Datum::Int(v) => Datum::json(Json::Number(*v as f64)),
                Datum::Float(v) => Datum::json(Json::Number(*v)),
                Datum::Bool(b) => Datum::json(Json::Bool(*b)),
                _ => return Err(bad(self)),
            },
            TypeName::Timestamp => match self {
                Datum::Timestamp(t) => Datum::Timestamp(*t),
                Datum::Text(s) => {
                    Datum::Timestamp(time::parse_timestamp(s).ok_or_else(|| bad(self))?)
                }
                Datum::Int(v) => Datum::Timestamp(*v),
                _ => return Err(bad(self)),
            },
        })
    }

    /// SQL comparison: NULL compares as unknown (`None`); numerics compare
    /// across Int/Float, NaN as PostgreSQL orders it (`float_cmp`).
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        // the pairs index and grouping keys compare most, without the view
        match (self, other) {
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Text(a), Datum::Text(b)) => Some(a.cmp(b)),
            _ => self.view().sql_cmp(other.view()),
        }
    }

    /// This value as a [`DatumRef`], its payload borrowed.
    #[inline]
    pub fn view(&self) -> DatumRef<'_> {
        match self {
            Datum::Null => DatumRef::Null,
            Datum::Bool(b) => DatumRef::Bool(*b),
            Datum::Int(v) => DatumRef::Int(*v),
            Datum::Float(v) => DatumRef::Float(*v),
            Datum::Text(s) => DatumRef::Text(s),
            Datum::Json(j) => DatumRef::Json(j),
            Datum::Timestamp(t) => DatumRef::Timestamp(*t),
        }
    }

    /// Total order for sorting and B-tree keys: NULLs sort last (PostgreSQL's
    /// default for ascending order), cross-type falls back to type rank.
    pub fn total_cmp(&self, other: &Datum) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
        self.sql_cmp(other).unwrap_or_else(|| self.type_rank().cmp(&other.type_rank()))
    }

    fn type_rank(&self) -> u8 {
        match self {
            Datum::Null => 7,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 2,
            Datum::Float(_) => 3,
            Datum::Timestamp(_) => 4,
            Datum::Text(_) => 5,
            Datum::Json(_) => 6,
        }
    }

    /// 64-bit hash used for hash partitioning of distributed tables, so it
    /// places every row on its shard and must never change. Int and Float
    /// of equal value hash identically, mirroring how co-location requires
    /// hash compatibility within a distribution-column type class. The
    /// executor's keyed operators hash with [`super::KeyTable`]'s own hash.
    pub fn hash64(&self) -> u64 {
        match self {
            Datum::Null => 0,
            Datum::Bool(b) => splitmix64(2 + *b as u64),
            Datum::Int(v) => splitmix64(*v as u64 ^ 0x9E37_79B9_7F4A_7C15),
            Datum::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 9.0e18 {
                    // hash like the equal integer
                    splitmix64((*v as i64) as u64 ^ 0x9E37_79B9_7F4A_7C15)
                } else {
                    splitmix64(v.to_bits())
                }
            }
            Datum::Text(s) => hash_bytes(s.as_bytes()),
            Datum::Timestamp(t) => splitmix64(*t as u64 ^ 0x2545_F491_4F6C_DD1D),
            Datum::Json(j) => {
                let mut repr = String::new();
                j.hash_repr(&mut repr);
                hash_bytes(repr.as_bytes())
            }
        }
    }
}

/// A value lent without building a [`Datum`]: what a typed columnar stripe
/// hands its readers, and a `Datum` seen through [`Datum::view`]. Comparing
/// two of them is [`Datum::sql_cmp`] itself, so a kernel reading typed
/// columns compares exactly as the row-at-a-time interpreter does.
#[derive(Debug, Clone, Copy)]
pub enum DatumRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a Arc<str>),
    Json(&'a Arc<Json>),
    Timestamp(i64),
}

impl DatumRef<'_> {
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, DatumRef::Null)
    }

    /// The owned value: a text or JSON payload is shared, not copied.
    #[inline]
    pub fn to_datum(self) -> Datum {
        match self {
            DatumRef::Null => Datum::Null,
            DatumRef::Bool(b) => Datum::Bool(b),
            DatumRef::Int(v) => Datum::Int(v),
            DatumRef::Float(v) => Datum::Float(v),
            DatumRef::Text(s) => Datum::Text(s.clone()),
            DatumRef::Json(j) => Datum::Json(j.clone()),
            DatumRef::Timestamp(t) => Datum::Timestamp(t),
        }
    }

    /// [`Datum::sql_cmp`] over borrowed values.
    #[inline]
    pub fn sql_cmp(self, other: DatumRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (DatumRef::Null, _) | (_, DatumRef::Null) => None,
            (DatumRef::Int(a), DatumRef::Int(b)) => Some(a.cmp(&b)),
            (DatumRef::Int(a), DatumRef::Float(b)) => Some(float_cmp(a as f64, b)),
            (DatumRef::Float(a), DatumRef::Int(b)) => Some(float_cmp(a, b as f64)),
            (DatumRef::Float(a), DatumRef::Float(b)) => Some(float_cmp(a, b)),
            (DatumRef::Bool(a), DatumRef::Bool(b)) => Some(a.cmp(&b)),
            (DatumRef::Text(a), DatumRef::Text(b)) => Some(a.cmp(b)),
            (DatumRef::Timestamp(a), DatumRef::Timestamp(b)) => Some(a.cmp(&b)),
            (DatumRef::Timestamp(a), DatumRef::Text(b)) => {
                time::parse_timestamp(b).map(|bt| a.cmp(&bt))
            }
            (DatumRef::Text(a), DatumRef::Timestamp(b)) => {
                time::parse_timestamp(a).map(|at| at.cmp(&b))
            }
            (DatumRef::Json(a), DatumRef::Json(b)) => {
                if a == b {
                    Some(Ordering::Equal)
                } else {
                    Some(a.to_string().cmp(&b.to_string()))
                }
            }
            _ => None,
        }
    }
}

/// PostgreSQL's float order: NaN equals NaN and sorts above every number;
/// `-0.0` equals `0.0`.
pub(crate) fn float_cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Finaliser from the splitmix64 generator; good avalanche, deterministic.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over bytes, finished with splitmix64 for avalanche.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(h)
}

/// Hash a multi-column key.
pub fn hash_row(values: &[Datum]) -> u64 {
    let mut h = 0xA076_1D64_78BD_642F_u64;
    for v in values {
        h = splitmix64(h ^ v.hash64());
    }
    h
}

/// Wrapper giving rows a total order for B-tree keys and sort operators.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey(pub Vec<Datum>);

impl Eq for SortKey {}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_rows(&self.0, &other.0)
    }
}

/// Lexicographic [`Datum::total_cmp`] order of two rows, a prefix first.
pub(crate) fn cmp_rows(a: &[Datum], b: &[Datum]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            non_eq => return non_eq,
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Datum::Int(3).sql_cmp(&Datum::Float(3.0)), Some(Ordering::Equal));
        assert_eq!(Datum::Float(2.5).sql_cmp(&Datum::Int(3)), Some(Ordering::Less));
    }

    #[test]
    fn nan_equals_nan_and_sorts_above_every_number() {
        let nan = Datum::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&Datum::Float(f64::NAN)), Ordering::Equal);
        assert_eq!(nan.total_cmp(&Datum::Float(f64::INFINITY)), Ordering::Greater);
        assert_eq!(Datum::Int(i64::MAX).total_cmp(&nan), Ordering::Less);
        assert_eq!(nan.total_cmp(&Datum::Null), Ordering::Less, "NULL still sorts last");
        assert_eq!(nan.sql_cmp(&Datum::Float(1.0)), Some(Ordering::Greater));
    }

    #[test]
    fn null_compares_unknown_but_sorts_last() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Null.total_cmp(&Datum::Int(1)), Ordering::Greater);
        assert_eq!(Datum::Null.total_cmp(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn int_float_hash_compat() {
        assert_eq!(Datum::Int(42).hash64(), Datum::Float(42.0).hash64());
        assert_ne!(Datum::Int(42).hash64(), Datum::Int(43).hash64());
    }

    #[test]
    fn hash_is_well_distributed_over_buckets() {
        let mut buckets = [0u32; 32];
        for i in 0..32_000 {
            let h = Datum::Int(i).hash64();
            buckets[(h % 32) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "skewed bucket: {b}");
        }
    }

    #[test]
    fn text_and_json_hashing() {
        assert_eq!(Datum::from_text("abc").hash64(), Datum::from_text("abc").hash64());
        assert_ne!(Datum::from_text("abc").hash64(), Datum::from_text("abd").hash64());
        let j1 = Datum::json(Json::parse(r#"{"a":1,"b":2}"#).unwrap());
        let j2 = Datum::json(Json::parse(r#"{"b":2,"a":1}"#).unwrap());
        assert_eq!(j1.hash64(), j2.hash64());
    }

    #[test]
    fn casts() {
        assert_eq!(Datum::from_text("42").cast_to(TypeName::Int).unwrap(), Datum::Int(42));
        assert_eq!(Datum::Int(1).cast_to(TypeName::Bool).unwrap(), Datum::Bool(true));
        assert_eq!(
            Datum::from_text("2020-01-01").cast_to(TypeName::Timestamp).unwrap(),
            Datum::Timestamp(time::parse_timestamp("2020-01-01").unwrap())
        );
        assert_eq!(Datum::Null.cast_to(TypeName::Int).unwrap(), Datum::Null);
        assert!(Datum::from_text("xyz").cast_to(TypeName::Int).is_err());
        let j = Datum::from_text(r#"{"k": 1}"#).cast_to(TypeName::Json).unwrap();
        assert!(matches!(j, Datum::Json(_)));
    }

    #[test]
    fn timestamp_text_comparison() {
        let t = Datum::Timestamp(time::parse_timestamp("2020-06-01").unwrap());
        assert_eq!(t.sql_cmp(&Datum::from_text("2020-06-01")), Some(Ordering::Equal));
        assert_eq!(t.sql_cmp(&Datum::from_text("2021-01-01")), Some(Ordering::Less));
    }

    #[test]
    fn sort_key_ordering() {
        let a = SortKey(vec![Datum::Int(1), Datum::from_text("b")]);
        let b = SortKey(vec![Datum::Int(1), Datum::from_text("c")]);
        let c = SortKey(vec![Datum::Int(2)]);
        assert!(a < b);
        assert!(b < c);
        let with_null = SortKey(vec![Datum::Null]);
        assert!(a < with_null, "nulls sort last");
    }

    #[test]
    fn a_clone_shares_the_payload() {
        assert_eq!(std::mem::size_of::<Datum>(), 24);
        let t = Datum::text("abc");
        let j = Datum::json(Json::parse("[1]").unwrap());
        match (&t, &t.clone(), &j, &j.clone()) {
            (Datum::Text(a), Datum::Text(b), Datum::Json(c), Datum::Json(d)) => {
                assert!(Arc::ptr_eq(a, b) && Arc::ptr_eq(c, d));
            }
            _ => unreachable!(),
        }
        // a cast to the type a value already has is the value itself
        let Datum::Text(cast) = t.cast_to(TypeName::Text).unwrap() else { unreachable!() };
        assert!(matches!(&t, Datum::Text(orig) if Arc::ptr_eq(orig, &cast)));
    }

    #[test]
    fn row_hash_order_sensitive() {
        let a = hash_row(&[Datum::Int(1), Datum::Int(2)]);
        let b = hash_row(&[Datum::Int(2), Datum::Int(1)]);
        assert_ne!(a, b);
    }
}
