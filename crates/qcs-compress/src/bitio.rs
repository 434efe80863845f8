//! Bit-level I/O primitives shared by every entropy coder in this crate.
//!
//! Bits are packed LSB-first within each byte: the first bit written becomes
//! bit 0 of byte 0. This matches the convention used by the Huffman and
//! bit-plane coders here, and keeps the reader branch-free on the hot path.

/// Append-only bit writer backed by a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in the final byte of `buf` (0 means byte-aligned).
    bit_pos: u32,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with capacity for roughly `bits` bits.
    pub fn with_bit_capacity(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits / 8 + 1),
            bit_pos: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        if self.bit_pos == 0 {
            self.buf.push(0);
        }
        if bit {
            let last = self.buf.len() - 1;
            self.buf[last] |= 1 << self.bit_pos;
        }
        self.bit_pos = (self.bit_pos + 1) % 8;
    }

    /// Write the low `count` bits of `value`, LSB-first. `count <= 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        debug_assert!(count <= 64);
        debug_assert!(count == 64 || value < (1u64 << count) || count == 0);
        let mut remaining = count;
        let mut v = value;
        while remaining > 0 {
            if self.bit_pos == 0 {
                self.buf.push(0);
            }
            let free = 8 - self.bit_pos;
            let take = free.min(remaining);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            let chunk = (v & mask) as u8;
            let last = self.buf.len() - 1;
            self.buf[last] |= chunk << self.bit_pos;
            self.bit_pos = (self.bit_pos + take) % 8;
            v >>= take;
            remaining -= take;
        }
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        self.bit_pos = 0;
    }

    /// Consume the writer, returning the packed bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the packed bytes written so far (final byte may be partial).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Sequential bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    byte_pos: usize,
    bit_pos: u32,
}

/// Error returned when a reader runs past the end of its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitReadError;

impl std::fmt::Display for BitReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit reader ran out of input")
    }
}

impl std::error::Error for BitReadError {}

impl<'a> BitReader<'a> {
    /// Create a reader positioned at the first bit of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            byte_pos: 0,
            bit_pos: 0,
        }
    }

    /// Number of bits consumed so far.
    pub fn bits_read(&self) -> usize {
        self.byte_pos * 8 + self.bit_pos as usize
    }

    /// Number of bits remaining.
    pub fn bits_remaining(&self) -> usize {
        self.buf.len() * 8 - self.bits_read()
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, BitReadError> {
        if self.byte_pos >= self.buf.len() {
            return Err(BitReadError);
        }
        let bit = (self.buf[self.byte_pos] >> self.bit_pos) & 1 == 1;
        self.bit_pos += 1;
        if self.bit_pos == 8 {
            self.bit_pos = 0;
            self.byte_pos += 1;
        }
        Ok(bit)
    }

    /// Read `count` bits, LSB-first. `count <= 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64, BitReadError> {
        debug_assert!(count <= 64);
        let mut out = 0u64;
        let mut got = 0u32;
        while got < count {
            if self.byte_pos >= self.buf.len() {
                return Err(BitReadError);
            }
            let avail = 8 - self.bit_pos;
            let take = avail.min(count - got);
            let mask = ((1u16 << take) - 1) as u8;
            let chunk = (self.buf[self.byte_pos] >> self.bit_pos) & mask;
            out |= (chunk as u64) << got;
            self.bit_pos += take;
            if self.bit_pos == 8 {
                self.bit_pos = 0;
                self.byte_pos += 1;
            }
            got += take;
        }
        Ok(out)
    }

    /// Skip to the next byte boundary.
    pub fn align(&mut self) {
        if self.bit_pos != 0 {
            self.bit_pos = 0;
            self.byte_pos += 1;
        }
    }
}

/// Little-endian byte-level helpers used by codec headers.
pub mod bytes {
    /// Append a `u64` in little-endian order.
    #[inline]
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` in little-endian order.
    #[inline]
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` in little-endian order.
    #[inline]
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Read a `u64` at `pos`, advancing `pos`.
    #[inline]
    pub fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let bytes = buf.get(*pos..*pos + 8)?;
        *pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Read a `u32` at `pos`, advancing `pos`.
    #[inline]
    pub fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
        let bytes = buf.get(*pos..*pos + 4)?;
        *pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Read an `f64` at `pos`, advancing `pos`.
    #[inline]
    pub fn get_f64(buf: &[u8], pos: &mut usize) -> Option<f64> {
        let bytes = buf.get(*pos..*pos + 8)?;
        *pos += 8;
        Some(f64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Borrow `len` bytes at `pos`, advancing `pos`. `None` when the range
    /// runs past the end of `buf` or `pos + len` overflows, as it does for
    /// a hostile length field near `usize::MAX`.
    #[inline]
    pub fn get_slice<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
        let bytes = buf.get(*pos..pos.checked_add(len)?)?;
        *pos += len;
        Some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(0, 0);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0x3F, 7);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(7).unwrap(), 0x3F);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align();
        w.write_bits(0xAB, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        r.align();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0, 9);
        assert_eq!(w.bit_len(), 11);
    }

    #[test]
    fn reader_detects_exhaustion() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bit(), Err(BitReadError));
        assert_eq!(r.read_bits(1), Err(BitReadError));
    }

    #[test]
    fn bits_remaining_is_consistent() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits_remaining(), 32);
        r.read_bits(5).unwrap();
        assert_eq!(r.bits_remaining(), 27);
        assert_eq!(r.bits_read(), 5);
    }

    #[test]
    fn header_bytes_round_trip() {
        let mut buf = Vec::new();
        bytes::put_u64(&mut buf, 42);
        bytes::put_u32(&mut buf, 7);
        bytes::put_f64(&mut buf, -1.5e-7);
        let mut pos = 0;
        assert_eq!(bytes::get_u64(&buf, &mut pos), Some(42));
        assert_eq!(bytes::get_u32(&buf, &mut pos), Some(7));
        assert_eq!(bytes::get_f64(&buf, &mut pos), Some(-1.5e-7));
        assert_eq!(pos, buf.len());
        assert_eq!(bytes::get_u64(&buf, &mut pos), None);
    }
}
