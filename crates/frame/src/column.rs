//! Typed columns.
//!
//! Five physical types cover the analysis: `f64` (measurements; `NaN` is the
//! missing value), `i64` (counts, years), `str` (names, labels), `bool`
//! (flags) and `sym` (dictionary-encoded categoricals: 4-byte interned
//! [`Sym`] tokens for the vendor/OS-style columns whose values repeat, so
//! group-bys compare tokens instead of hashing strings). Columns are plain
//! `Vec`s — the dataset is hundreds to thousands of rows, so simplicity
//! beats compression.

use std::fmt;

use spec_intern::Sym;

/// The data type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DType {
    /// 64-bit float; `NaN` encodes missing.
    F64,
    /// 64-bit signed integer.
    I64,
    /// Owned UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Interned categorical string (4-byte token).
    Sym,
}

impl DType {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DType::F64 => "f64",
            DType::I64 => "i64",
            DType::Str => "str",
            DType::Bool => "bool",
            DType::Sym => "sym",
        }
    }

    /// Bytes one cell occupies in its column's buffer (a `Str` cell's
    /// `String` header; its contents live in a separate allocation).
    pub fn cell_bytes(self) -> usize {
        match self {
            DType::F64 => std::mem::size_of::<f64>(),
            DType::I64 => std::mem::size_of::<i64>(),
            DType::Str => std::mem::size_of::<String>(),
            DType::Bool => std::mem::size_of::<bool>(),
            DType::Sym => std::mem::size_of::<Sym>(),
        }
    }
}

/// A dynamically typed cell value, used at API boundaries (group keys,
/// display, CSV).
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Float cell.
    F64(f64),
    /// Integer cell.
    I64(i64),
    /// String cell.
    Str(String),
    /// Boolean cell.
    Bool(bool),
    /// Interned categorical cell.
    Sym(Sym),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F64(x) => {
                if x.is_nan() {
                    f.write_str("")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::I64(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Sym(s) => f.write_str(s.resolve()),
        }
    }
}

/// A group-by key cell: like [`Value`] but hashable/ordered, so floats are
/// excluded (group keys must be discrete).
///
/// `Sym` keys hash and compare for equality on the 4-byte token (sound:
/// the interner is injective), but *order* by the resolved string — so a
/// dictionary-encoded column groups fast yet sorts exactly like the owned
/// `Str` column it replaced.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum KeyValue {
    /// Integer key.
    I64(i64),
    /// String key.
    Str(String),
    /// Boolean key.
    Bool(bool),
    /// Interned categorical key.
    Sym(Sym),
}

impl KeyValue {
    /// Variant rank for cross-type comparisons (declaration order, matching
    /// the previously derived `Ord`).
    fn rank(&self) -> u8 {
        match self {
            KeyValue::I64(_) => 0,
            KeyValue::Str(_) => 1,
            KeyValue::Bool(_) => 2,
            KeyValue::Sym(_) => 3,
        }
    }
}

impl Ord for KeyValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (KeyValue::I64(a), KeyValue::I64(b)) => a.cmp(b),
            (KeyValue::Str(a), KeyValue::Str(b)) => a.cmp(b),
            (KeyValue::Bool(a), KeyValue::Bool(b)) => a.cmp(b),
            // Token order is allocation order, not string order: resolve.
            (KeyValue::Sym(a), KeyValue::Sym(b)) => a.resolve().cmp(b.resolve()),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for KeyValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyValue::I64(x) => write!(f, "{x}"),
            KeyValue::Str(s) => f.write_str(s),
            KeyValue::Bool(b) => write!(f, "{b}"),
            KeyValue::Sym(s) => f.write_str(s.resolve()),
        }
    }
}

/// A typed column of values.
#[derive(Clone, PartialEq, Debug)]
pub enum Column {
    /// Float data.
    F64(Vec<f64>),
    /// Integer data.
    I64(Vec<i64>),
    /// String data.
    Str(Vec<String>),
    /// Boolean data.
    Bool(Vec<bool>),
    /// Dictionary-encoded categorical data (interned tokens).
    Sym(Vec<Sym>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Sym(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn dtype(&self) -> DType {
        match self {
            Column::F64(_) => DType::F64,
            Column::I64(_) => DType::I64,
            Column::Str(_) => DType::Str,
            Column::Bool(_) => DType::Bool,
            Column::Sym(_) => DType::Sym,
        }
    }

    /// Dynamic cell access; `None` when out of range.
    pub fn get(&self, i: usize) -> Option<Value> {
        match self {
            Column::F64(v) => v.get(i).map(|&x| Value::F64(x)),
            Column::I64(v) => v.get(i).map(|&x| Value::I64(x)),
            Column::Str(v) => v.get(i).map(|s| Value::Str(s.clone())),
            Column::Bool(v) => v.get(i).map(|&x| Value::Bool(x)),
            Column::Sym(v) => v.get(i).map(|&s| Value::Sym(s)),
        }
    }

    /// Group-key cell access; floats are rejected (`None`).
    pub fn key(&self, i: usize) -> Option<KeyValue> {
        match self {
            Column::F64(_) => None,
            Column::I64(v) => v.get(i).map(|&x| KeyValue::I64(x)),
            Column::Str(v) => v.get(i).map(|s| KeyValue::Str(s.clone())),
            Column::Bool(v) => v.get(i).map(|&x| KeyValue::Bool(x)),
            Column::Sym(v) => v.get(i).map(|&s| KeyValue::Sym(s)),
        }
    }

    /// Rows selected by `mask` (`mask.len()` must equal `self.len()`).
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        fn pick<T: Clone>(v: &[T], mask: &[bool]) -> Vec<T> {
            v.iter()
                .zip(mask)
                .filter(|(_, &keep)| keep)
                .map(|(x, _)| x.clone())
                .collect()
        }
        match self {
            Column::F64(v) => Column::F64(pick(v, mask)),
            Column::I64(v) => Column::I64(pick(v, mask)),
            Column::Str(v) => Column::Str(pick(v, mask)),
            Column::Bool(v) => Column::Bool(pick(v, mask)),
            Column::Sym(v) => Column::Sym(pick(v, mask)),
        }
    }

    /// Rows in the order given by `indices` (each index must be in range).
    pub fn take(&self, indices: &[usize]) -> Column {
        fn pick<T: Clone>(v: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| v[i].clone()).collect()
        }
        match self {
            Column::F64(v) => Column::F64(pick(v, indices)),
            Column::I64(v) => Column::I64(pick(v, indices)),
            Column::Str(v) => Column::Str(pick(v, indices)),
            Column::Bool(v) => Column::Bool(pick(v, indices)),
            Column::Sym(v) => Column::Sym(pick(v, indices)),
        }
    }

    /// View as `&[f64]`, if that is the physical type.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// View as `&[i64]`, if that is the physical type.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::I64(v) => Some(v),
            _ => None,
        }
    }

    /// View as `&[String]`, if that is the physical type.
    pub fn as_str(&self) -> Option<&[String]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// View as `&[bool]`, if that is the physical type.
    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// View as `&[Sym]`, if that is the physical type.
    pub fn as_sym(&self) -> Option<&[Sym]> {
        match self {
            Column::Sym(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view: `f64` as-is, `i64` lossily converted; `None` otherwise.
    pub fn to_f64_vec(&self) -> Option<Vec<f64>> {
        match self {
            Column::F64(v) => Some(v.clone()),
            Column::I64(v) => Some(v.iter().map(|&x| x as f64).collect()),
            _ => None,
        }
    }

    /// Contiguous row range `[start, end)` as a new column.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        match self {
            Column::F64(v) => Column::F64(v[start..end].to_vec()),
            Column::I64(v) => Column::I64(v[start..end].to_vec()),
            Column::Str(v) => Column::Str(v[start..end].to_vec()),
            Column::Bool(v) => Column::Bool(v[start..end].to_vec()),
            Column::Sym(v) => Column::Sym(v[start..end].to_vec()),
        }
    }

    /// Heap bytes this column's buffers hold — the segmented store's
    /// resident-set accounting. Charged by capacity, not length, so a
    /// column grown by `extend` carries its growth slack into the count;
    /// string cells add their own buffer capacity.
    pub fn heap_bytes(&self) -> usize {
        let cells = self.capacity() * self.dtype().cell_bytes();
        match self {
            Column::Str(v) => cells + v.iter().map(String::capacity).sum::<usize>(),
            _ => cells,
        }
    }

    /// Rows the column can hold without reallocating.
    pub fn capacity(&self) -> usize {
        match self {
            Column::F64(v) => v.capacity(),
            Column::I64(v) => v.capacity(),
            Column::Str(v) => v.capacity(),
            Column::Bool(v) => v.capacity(),
            Column::Sym(v) => v.capacity(),
        }
    }

    /// Release capacity beyond `len()`.
    pub fn shrink_to_fit(&mut self) {
        match self {
            Column::F64(v) => v.shrink_to_fit(),
            Column::I64(v) => v.shrink_to_fit(),
            Column::Str(v) => v.shrink_to_fit(),
            Column::Bool(v) => v.shrink_to_fit(),
            Column::Sym(v) => v.shrink_to_fit(),
        }
    }

    /// Comparison of two cells within the same column, NaN last.
    pub fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self {
            Column::F64(v) => match (v[a].is_nan(), v[b].is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => v[a].partial_cmp(&v[b]).expect("non-NaN"),
            },
            Column::I64(v) => v[a].cmp(&v[b]),
            Column::Str(v) => v[a].cmp(&v[b]),
            Column::Bool(v) => v[a].cmp(&v[b]),
            // Sort order follows the resolved strings, exactly like `Str`.
            Column::Sym(v) => v[a].resolve().cmp(v[b].resolve()),
        }
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::F64(v)
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::I64(v)
    }
}

impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Self {
        Column::Str(v)
    }
}

impl From<Vec<&str>> for Column {
    fn from(v: Vec<&str>) -> Self {
        Column::Str(v.into_iter().map(str::to_owned).collect())
    }
}

impl From<Vec<bool>> for Column {
    fn from(v: Vec<bool>) -> Self {
        Column::Bool(v)
    }
}

impl From<Vec<Sym>> for Column {
    fn from(v: Vec<Sym>) -> Self {
        Column::Sym(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_and_len() {
        let c: Column = vec![1.0, 2.0].into();
        assert_eq!(c.dtype(), DType::F64);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(DType::Str.name(), "str");
    }

    #[test]
    fn dynamic_access() {
        let c: Column = vec!["a", "b"].into();
        assert_eq!(c.get(0), Some(Value::Str("a".into())));
        assert_eq!(c.get(5), None);
        assert_eq!(c.key(1), Some(KeyValue::Str("b".into())));
    }

    #[test]
    fn float_columns_have_no_key() {
        let c: Column = vec![1.0].into();
        assert_eq!(c.key(0), None);
    }

    #[test]
    fn filter_and_take() {
        let c: Column = vec![10i64, 20, 30, 40].into();
        assert_eq!(
            c.filter(&[true, false, true, false]),
            Column::I64(vec![10, 30])
        );
        assert_eq!(c.take(&[3, 0, 0]), Column::I64(vec![40, 10, 10]));
    }

    #[test]
    fn typed_views() {
        let c: Column = vec![true, false].into();
        assert_eq!(c.as_bool(), Some(&[true, false][..]));
        assert_eq!(c.as_f64(), None);
    }

    #[test]
    fn numeric_promotion() {
        let c: Column = vec![1i64, 2, 3].into();
        assert_eq!(c.to_f64_vec(), Some(vec![1.0, 2.0, 3.0]));
        let s: Column = vec!["x"].into();
        assert_eq!(s.to_f64_vec(), None);
    }

    #[test]
    fn nan_sorts_last() {
        use std::cmp::Ordering;
        let c: Column = vec![1.0, f64::NAN, 0.5].into();
        assert_eq!(c.cmp_rows(0, 2), Ordering::Greater);
        assert_eq!(c.cmp_rows(0, 1), Ordering::Less);
        assert_eq!(c.cmp_rows(1, 1), Ordering::Equal);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::F64(1.5).to_string(), "1.5");
        assert_eq!(Value::F64(f64::NAN).to_string(), "");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(KeyValue::I64(7).to_string(), "7");
    }

    #[test]
    fn sym_columns_behave_like_str() {
        let a = spec_intern::intern("AMD");
        let b = spec_intern::intern("Intel");
        let c: Column = vec![a, b, a].into();
        assert_eq!(c.dtype(), DType::Sym);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(1), Some(Value::Sym(b)));
        assert_eq!(c.get(1).map(|v| v.to_string()), Some("Intel".to_string()));
        assert_eq!(c.key(0), Some(KeyValue::Sym(a)));
        assert_eq!(c.as_sym(), Some(&[a, b, a][..]));
        assert_eq!(c.to_f64_vec(), None);
        assert_eq!(
            c.filter(&[true, false, true]),
            Column::Sym(vec![a, a])
        );
        assert_eq!(c.take(&[1, 1]), Column::Sym(vec![b, b]));
    }

    #[test]
    fn sym_keys_order_by_resolved_string() {
        use std::cmp::Ordering;
        // Intern in reverse-alphabetical order so token order disagrees
        // with string order.
        let z = spec_intern::intern("zeta-vendor");
        let a = spec_intern::intern("alpha-vendor");
        assert_eq!(KeyValue::Sym(a).cmp(&KeyValue::Sym(z)), Ordering::Less);
        assert_eq!(KeyValue::Sym(z).cmp(&KeyValue::Sym(a)), Ordering::Greater);
        assert_eq!(KeyValue::Sym(a).cmp(&KeyValue::Sym(a)), Ordering::Equal);
        let col: Column = vec![z, a].into();
        assert_eq!(col.cmp_rows(1, 0), Ordering::Less);
        // Cross-variant comparisons keep the declared rank order.
        assert!(KeyValue::I64(1) < KeyValue::Str("x".into()));
        assert!(KeyValue::Bool(true) < KeyValue::Sym(a));
    }
}
