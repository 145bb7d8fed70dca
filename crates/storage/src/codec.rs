//! The byte codec every serialised form in the workspace is built from:
//! the wire payloads (DESIGN.md §9.2), the WAL batch record (§10.3) and
//! the segment directory all write through the `put_*` functions below
//! and read back through the one bounds-checked [`Reader`].
//!
//! Every multi-byte scalar is little-endian; floats travel as their IEEE
//! 754 bit patterns (`f64::to_bits`), so encoding is **deterministic and
//! total**: the same in-process value always produces the same bytes
//! (NaN payloads and the sign of zero included). Variable-length fields
//! are `u32` counts followed by that many elements; strings are `u32`
//! byte lengths followed by UTF-8.
//!
//! Decoding is defensive: every read is bounds-checked, a length or
//! count is validated against the remaining bytes *before* anything is
//! allocated for it, and a buffer that decodes must also be fully
//! consumed ([`Reader::finish`]) — trailing garbage is malformed input,
//! not ignorable padding.
//!
//! A [`Value`] is one tag byte and its body:
//!
//! ```text
//! [0] null | [1][i64] int | [2][f64 bits] float | [3][u32 len][utf-8] text
//! ```

use crate::value::{Value, ValueRef};

/// Bytes that do not decode: truncated, over-long, or carrying an
/// unknown tag. The message names the first offending field.
#[derive(Debug)]
pub struct CodecError(pub String);

type Result<T> = std::result::Result<T, CodecError>;

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a `u32` byte length and the UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one value: an owned [`Value`] by reference, or a stored cell's
/// [`ValueRef`] — the two encode identically.
pub fn put_value<'a>(buf: &mut Vec<u8>, v: impl Into<ValueRef<'a>>) {
    match v.into() {
        ValueRef::Null => put_u8(buf, 0),
        ValueRef::Int(i) => {
            put_u8(buf, 1);
            put_i64(buf, i);
        }
        ValueRef::Float(f) => {
            put_u8(buf, 2);
            put_f64(buf, f);
        }
        ValueRef::Text(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
    }
}

/// A bounds-checked cursor over received or stored bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CodecError(format!("need {n} bytes at offset {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        // Validate against the remaining bytes before allocating: a
        // 4-byte length field must not size a buffer unchecked. UTF-8
        // is checked on the borrowed slice so only the final `String`
        // allocates (no intermediate `Vec` copy).
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| CodecError(format!("invalid utf-8: {e}")))
    }

    /// Reads a `u32` element count, sanity-capped by what the remaining
    /// bytes could possibly hold (each element is at least
    /// `min_elem_size` bytes).
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n > remaining / min_elem_size.max(1) {
            return Err(CodecError(format!("count {n} cannot fit in {remaining} remaining bytes")));
        }
        Ok(n)
    }

    /// Reads one [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Text(self.str()?),
            other => return Err(CodecError(format!("unknown value tag {other}"))),
        })
    }

    /// Decoding must consume the whole buffer.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(CodecError(format!(
                "{} trailing bytes after a complete value",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_bit_for_bit() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Float(f64::from_bits(0x7ff8_dead_beef_0001)),
            Value::Text(String::new()),
            Value::Text("Chai Tea".into()),
        ];
        let mut buf = Vec::new();
        for v in &values {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            let back = r.value().unwrap();
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, back),
            }
        }
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_lying_lengths_and_trailing_bytes_are_errors() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Text("abc".into()));
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).value().is_err(), "prefix {cut}");
        }
        // A length past the end is rejected before any allocation.
        buf[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Reader::new(&buf).value().is_err());
        assert!(Reader::new(&[9]).value().is_err(), "unknown tag");
        // A count is capped by what the remaining bytes could hold.
        let mut counted = Vec::new();
        put_u32(&mut counted, 3);
        counted.extend_from_slice(&[0; 5]);
        assert_eq!(Reader::new(&counted).count(1).unwrap(), 3);
        assert!(Reader::new(&counted).count(2).is_err());
        let mut r = Reader::new(&[0, 0]);
        r.u8().unwrap();
        assert!(r.finish().is_err(), "one byte left over");
    }
}
