//! Typed column storage: the cells of one table column, densely packed.
//!
//! A table is one [`Column`] per schema column, all of the same length
//! (the table's slot count). An `Int` or `Float` cell is its eight bytes,
//! a `Text` cell a `Box<str>`; NULLs live in a bitmap beside the cells
//! that stays unallocated until the column holds its first NULL — keys
//! and most attributes never do. The table validates a row against its
//! schema before any cell is pushed, so the typed arms here never see a
//! value of another type.

use crate::value::{Value, ValueRef, ValueType};

#[derive(Debug)]
enum Cells {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(Vec<Box<str>>),
}

/// One column's cells plus its NULL bitmap.
#[derive(Debug)]
pub(crate) struct Column {
    cells: Cells,
    /// Bit `i` set = cell `i` is NULL (its slot in `cells` holds a
    /// placeholder). Only grown to reach a NULL: a missing word means
    /// sixty-four non-NULL cells.
    nulls: Vec<u64>,
}

impl Column {
    pub(crate) fn new(ty: ValueType) -> Self {
        let cells = match ty {
            ValueType::Int => Cells::Int(Vec::new()),
            ValueType::Float => Cells::Float(Vec::new()),
            ValueType::Text => Cells::Text(Vec::new()),
        };
        Column { cells, nulls: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        match &self.cells {
            Cells::Int(c) => c.len(),
            Cells::Float(c) => c.len(),
            Cells::Text(c) => c.len(),
        }
    }

    fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    fn set_null(&mut self, i: usize, null: bool) {
        if null {
            if self.nulls.len() <= i / 64 {
                self.nulls.resize(i / 64 + 1, 0);
            }
            self.nulls[i / 64] |= 1 << (i % 64);
        } else if let Some(w) = self.nulls.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// Appends one cell (a value the table has validated against this
    /// column's type).
    pub(crate) fn push(&mut self, v: Value) {
        let i = self.len();
        match &mut self.cells {
            Cells::Int(c) => c.push(0),
            Cells::Float(c) => c.push(0.0),
            Cells::Text(c) => c.push(Box::default()),
        }
        self.set(i, v);
    }

    /// Overwrites cell `i` (same contract as [`Self::push`]).
    pub(crate) fn set(&mut self, i: usize, v: Value) {
        self.set_null(i, matches!(v, Value::Null));
        match (&mut self.cells, v) {
            (Cells::Int(c), Value::Int(v)) => c[i] = v,
            (Cells::Float(c), Value::Float(v)) => c[i] = v,
            (Cells::Text(c), Value::Text(v)) => c[i] = v.into_boxed_str(),
            // The placeholder under a NULL bit is never read; dropping a
            // replaced text frees its bytes.
            (Cells::Text(c), Value::Null) => c[i] = Box::default(),
            (_, Value::Null) => {}
            _ => unreachable!("the table validates cell types before storing"),
        }
    }

    /// The cell at `i`.
    pub(crate) fn get(&self, i: usize) -> ValueRef<'_> {
        if self.is_null(i) {
            return ValueRef::Null;
        }
        match &self.cells {
            Cells::Int(c) => ValueRef::Int(c[i]),
            Cells::Float(c) => ValueRef::Float(c[i]),
            Cells::Text(c) => ValueRef::Text(&c[i]),
        }
    }

    /// Releases push-doubling slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        match &mut self.cells {
            Cells::Int(c) => c.shrink_to_fit(),
            Cells::Float(c) => c.shrink_to_fit(),
            Cells::Text(c) => c.shrink_to_fit(),
        }
        self.nulls.shrink_to_fit();
    }

    /// Bytes held: the cell and bitmap vectors at their capacity, plus
    /// every text's bytes.
    pub(crate) fn value_bytes(&self) -> usize {
        let cells = match &self.cells {
            Cells::Int(c) => c.capacity() * 8,
            Cells::Float(c) => c.capacity() * 8,
            Cells::Text(c) => {
                c.capacity() * std::mem::size_of::<Box<str>>()
                    + c.iter().map(|s| s.len()).sum::<usize>()
            }
        };
        cells + self.nulls.capacity() * 8
    }
}
