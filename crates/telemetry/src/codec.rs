//! The one byte layer: every binary format in the workspace is written
//! with these `put_*` primitives and read back through one bounds-checked
//! [`Reader`].
//!
//! Two families share the module:
//!
//! * **Fixed-width little-endian** — `u8`, `u32`, `u64`, `i32`, and `f64`
//!   as its raw bits (exact round trip), plus strings and counted
//!   sequences with a `u64` length prefix. The master journal and
//!   snapshots and the gateway image use only these.
//! * **Varint** — LEB128 `u64`s, zigzag for signed deltas, and byte
//!   strings with a varint length prefix. The telemetry wire and the
//!   Perfetto (protobuf) export are built from these.
//!
//! Decoding never panics: running out of input is
//! [`Error::Truncated`], an impossible field is [`Error::Corrupt`], both
//! carrying the byte offset. Each format converts these into its own
//! public error type. The varint decoder is strict: a tenth byte above 1
//! (bits beyond 64) is corrupt rather than silently dropped.

/// Why a read failed, with the byte offset it failed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// Input ended inside a field that starts at this offset.
    Truncated { at: usize },
    /// The field starting at this offset decodes to an impossible value.
    Corrupt { at: usize, what: &'static str },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated { at } => write!(f, "truncated at byte {at}"),
            Error::Corrupt { at, what } => write!(f, "corrupt {what} at byte {at}"),
        }
    }
}

impl std::error::Error for Error {}

#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A string with a fixed-width `u64` length prefix.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A `u64` count, then each item as `put` writes it.
#[inline]
pub fn put_seq<I>(out: &mut Vec<u8>, items: I, mut put: impl FnMut(&mut Vec<u8>, I::Item))
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
{
    let items = items.into_iter();
    put_u64(out, items.len() as u64);
    for item in items {
        put(out, item);
    }
}

#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes with a varint length prefix (a protobuf length-delimited field
/// body).
#[inline]
pub fn put_varint_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Map a signed value to an unsigned one with small magnitudes near zero.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a 64-bit hash (archive checksums and byte-format pins).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let at = self.pos;
        if n > self.remaining() {
            return Err(Error::Truncated { at });
        }
        self.pos += n;
        Ok(&self.buf[at..self.pos])
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.take(N)?.try_into().unwrap())
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        Ok(self.u8()? != 0)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn i32(&mut self) -> Result<i32, Error> {
        self.array().map(i32::from_le_bytes)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.array().map(f64::from_le_bytes)
    }

    /// A sequence written by [`put_seq`], each item read by `get`. Items
    /// are pushed one by one with nothing reserved up front, and each
    /// consumes input, so a corrupt count runs out of bytes
    /// ([`Error::Truncated`]) instead of sizing an allocation.
    pub fn seq<T, E: From<Error>>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.u64()?;
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// A string written by [`put_str`].
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, Error> {
        let at = self.pos;
        let len = self.u64()?;
        let bytes = self.take(usize::try_from(len).unwrap_or(usize::MAX))?;
        std::str::from_utf8(bytes).map_err(|_| Error::Corrupt { at, what: "utf-8" })
    }

    /// A strict LEB128 varint: at most ten bytes, and the tenth may only
    /// carry the 64th bit.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, Error> {
        let at = self.pos;
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(Error::Corrupt {
                    at,
                    what: "varint overflow",
                });
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Bytes written by [`put_varint_bytes`].
    #[inline]
    pub fn varint_bytes(&mut self) -> Result<&'a [u8], Error> {
        let len = self.varint()?;
        self.take(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Require that every byte was consumed.
    pub fn finish(&self) -> Result<(), Error> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Error::Corrupt {
                at: self.pos,
                what: "trailing bytes",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_round_trips() {
        let mut b = Vec::new();
        put_u8(&mut b, 7);
        put_bool(&mut b, true);
        put_u32(&mut b, 0xdead_beef);
        put_u64(&mut b, u64::MAX - 1);
        put_i32(&mut b, -5);
        put_f64(&mut b, -0.1);
        put_str(&mut b, "héllo");
        let mut r = Reader::new(&b);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i32(), Ok(-5));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.1f64).to_bits()));
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err(Error::Truncated { at: b.len() }));
    }

    #[test]
    fn varints_round_trip_and_reject_overflow() {
        for v in [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut r = Reader::new(&b);
            assert_eq!(r.varint(), Ok(v));
            assert!(r.is_empty());
        }
        for v in [0, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut overflow = vec![0xff; 9];
        overflow.push(0x02);
        assert_eq!(
            Reader::new(&overflow).varint(),
            Err(Error::Corrupt {
                at: 0,
                what: "varint overflow"
            })
        );
        assert_eq!(
            Reader::new(&[0x80, 0x80]).varint(),
            Err(Error::Truncated { at: 2 })
        );
    }

    #[test]
    fn lengths_and_sequences_are_bounded_by_the_input() {
        let mut b = Vec::new();
        put_u64(&mut b, u64::MAX);
        put_u8(&mut b, 1);
        let seq: Result<Vec<u8>, Error> = Reader::new(&b).seq(|r| r.u8());
        assert_eq!(seq, Err(Error::Truncated { at: 9 }));
        assert_eq!(Reader::new(&b).str(), Err(Error::Truncated { at: 8 }));
        let mut b = Vec::new();
        put_seq(&mut b, [3u32, 4], put_u32);
        let seq: Result<Vec<u32>, Error> = Reader::new(&b).seq(|r| r.u32());
        assert_eq!(seq, Ok(vec![3, 4]));
        let mut b = Vec::new();
        put_varint_bytes(&mut b, b"abc");
        let mut r = Reader::new(&b[..3]);
        assert_eq!(r.varint_bytes(), Err(Error::Truncated { at: 1 }));
        assert_eq!(Reader::new(&b).varint_bytes(), Ok(&b"abc"[..]));
        let r = Reader::new(&b);
        assert!(matches!(r.finish(), Err(Error::Corrupt { at: 0, .. })));
    }
}
