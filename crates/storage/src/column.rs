//! Typed column storage: the cells of one table column, densely packed.
//!
//! A table is one [`Column`] per schema column, all of the same length
//! (the table's slot count). An `Int` cell is four bytes until a value
//! outside `i32` widens its column, once and for good, to eight; a
//! `Float` cell is eight. A `Text` column is one string arena plus a
//! `(start, len)` span a cell: an overwrite or a NULL appends, and the
//! arena repacks once the bytes no span covers outnumber the live ones.
//! NULLs live in a bitmap beside the cells that stays unallocated until
//! the column holds its first NULL — keys and most attributes never do.
//! The table validates a row against its schema before any cell is
//! pushed, so the typed arms here never see a value of another type.

use crate::value::{Value, ValueRef, ValueType};

#[derive(Debug)]
enum Cells {
    /// Every value the column has held fits in `i32`.
    Narrow(Vec<i32>),
    /// Widened by a value outside `i32`; never narrows again.
    Wide(Vec<i64>),
    Float(Vec<f64>),
    Text(TextCells),
}

/// The cells of a text column.
#[derive(Debug, Default)]
struct TextCells {
    arena: String,
    /// `(start, len)` of each cell's bytes in `arena`.
    spans: Vec<(u32, u32)>,
    /// Arena bytes no span covers: overwritten and NULLed texts.
    garbage: usize,
}

impl TextCells {
    fn get(&self, i: usize) -> &str {
        let (start, len) = self.spans[i];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// Points cell `i` at a copy of `s` appended to the arena (`""` for
    /// a NULL).
    fn set(&mut self, i: usize, s: &str) {
        self.garbage += self.spans[i].1 as usize;
        let start = self.arena.len() as u32;
        self.arena.push_str(s);
        let end = u32::try_from(self.arena.len()).expect("a text column holds under 4 GiB");
        self.spans[i] = (start, end - start);
        if self.garbage > self.arena.len() - self.garbage {
            self.repack();
        }
    }

    /// Copies the live texts, in slot order, into an exactly sized arena.
    fn repack(&mut self) {
        let mut arena = String::with_capacity(self.arena.len() - self.garbage);
        for span in &mut self.spans {
            let start = arena.len() as u32;
            arena.push_str(&self.arena[span.0 as usize..(span.0 + span.1) as usize]);
            span.0 = start;
        }
        self.arena = arena;
        self.garbage = 0;
    }
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
            ValueType::Int => Cells::Narrow(Vec::new()),
            ValueType::Float => Cells::Float(Vec::new()),
            ValueType::Text => Cells::Text(TextCells::default()),
        };
        Column { cells, nulls: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        match &self.cells {
            Cells::Narrow(c) => c.len(),
            Cells::Wide(c) => c.len(),
            Cells::Float(c) => c.len(),
            Cells::Text(c) => c.spans.len(),
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
            Cells::Narrow(c) => c.push(0),
            Cells::Wide(c) => c.push(0),
            Cells::Float(c) => c.push(0.0),
            Cells::Text(c) => c.spans.push((0, 0)),
        }
        self.set(i, v);
    }

    /// Overwrites cell `i` (same contract as [`Self::push`]).
    pub(crate) fn set(&mut self, i: usize, v: Value) {
        self.set_null(i, matches!(v, Value::Null));
        match (&mut self.cells, v) {
            (Cells::Narrow(c), Value::Int(v)) if i32::try_from(v).is_ok() => c[i] = v as i32,
            (Cells::Narrow(c), Value::Int(v)) => {
                self.cells = Cells::Wide(c.iter().map(|&v| v.into()).collect());
                self.set(i, Value::Int(v));
            }
            (Cells::Wide(c), Value::Int(v)) => c[i] = v,
            (Cells::Float(c), Value::Float(v)) => c[i] = v,
            (Cells::Text(c), Value::Text(v)) => c.set(i, &v),
            // The placeholder under a NULL bit is never read; a replaced
            // text's bytes become garbage.
            (Cells::Text(c), Value::Null) => c.set(i, ""),
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
            Cells::Narrow(c) => ValueRef::Int(c[i].into()),
            Cells::Wide(c) => ValueRef::Int(c[i]),
            Cells::Float(c) => ValueRef::Float(c[i]),
            Cells::Text(c) => ValueRef::Text(c.get(i)),
        }
    }

    /// Makes room for `additional` more cells (a text column's spans, not
    /// its bytes).
    pub(crate) fn reserve(&mut self, additional: usize) {
        match &mut self.cells {
            Cells::Narrow(c) => c.reserve_exact(additional),
            Cells::Wide(c) => c.reserve_exact(additional),
            Cells::Float(c) => c.reserve_exact(additional),
            Cells::Text(c) => c.spans.reserve_exact(additional),
        }
    }

    /// Releases push-doubling slack and a text arena's garbage.
    pub(crate) fn shrink_to_fit(&mut self) {
        match &mut self.cells {
            Cells::Narrow(c) => c.shrink_to_fit(),
            Cells::Wide(c) => c.shrink_to_fit(),
            Cells::Float(c) => c.shrink_to_fit(),
            Cells::Text(c) => {
                if c.garbage > 0 {
                    c.repack();
                } else {
                    c.arena.shrink_to_fit();
                }
                c.spans.shrink_to_fit();
            }
        }
        self.nulls.shrink_to_fit();
    }

    /// Bytes held: the cell, span, arena and bitmap vectors at their
    /// capacity.
    pub(crate) fn value_bytes(&self) -> usize {
        let cells = match &self.cells {
            Cells::Narrow(c) => c.capacity() * 4,
            Cells::Wide(c) => c.capacity() * 8,
            Cells::Float(c) => c.capacity() * 8,
            Cells::Text(c) => c.spans.capacity() * 8 + c.arena.capacity(),
        };
        cells + self.nulls.capacity() * 8
    }
}
