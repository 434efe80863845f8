//! Canonical Huffman coding over an arbitrary symbol alphabet.
//!
//! Used in two places, mirroring the paper's pipelines: as the entropy stage
//! of `qzstd` (byte alphabet) and as the quantization-code coder inside the
//! SZ-style compressors (alphabet up to 65,537 symbols).
//!
//! Code lengths are limited to [`MAX_CODE_LEN`] bits by iteratively halving
//! symbol frequencies, which keeps the decoder table small and bounded.

use crate::bitio::{bytes, BitReader, BitWriter};

/// Maximum admissible code length in bits.
pub const MAX_CODE_LEN: u32 = 24;

/// Errors produced by the Huffman coder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The compressed stream is truncated or malformed.
    Corrupt(&'static str),
    /// A symbol outside the declared alphabet was encountered while encoding.
    SymbolOutOfRange {
        /// The offending symbol.
        symbol: u32,
        /// The declared alphabet size.
        alphabet: u32,
    },
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::Corrupt(msg) => write!(f, "corrupt huffman stream: {msg}"),
            HuffmanError::SymbolOutOfRange { symbol, alphabet } => {
                write!(f, "symbol {symbol} out of alphabet range {alphabet}")
            }
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Compute Huffman code lengths for `freqs` (one entry per symbol).
///
/// Returns one length per symbol; zero-frequency symbols get length 0.
/// Lengths are guaranteed `<= MAX_CODE_LEN`.
fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let mut freqs: Vec<u64> = freqs.to_vec();
    loop {
        let lens = unrestricted_code_lengths(&freqs);
        let max = lens.iter().copied().max().unwrap_or(0);
        if max <= MAX_CODE_LEN {
            return lens;
        }
        // Flatten the distribution and retry; convergence is guaranteed
        // because all nonzero frequencies head toward 1.
        for f in freqs.iter_mut() {
            if *f > 1 {
                *f = (*f).div_ceil(2);
            }
        }
    }
}

/// Classic two-queue Huffman construction returning code lengths.
fn unrestricted_code_lengths(freqs: &[u64]) -> Vec<u32> {
    #[derive(Clone, Copy)]
    struct Node {
        // Indices into the nodes arena; leaves are 0..n.
        left: usize,
        right: usize,
    }
    const LEAF: usize = usize::MAX;

    let n = freqs.len();
    let mut lens = vec![0u32; n];
    let live: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match live.len() {
        0 => return lens,
        1 => {
            // A single distinct symbol still needs one bit on the wire.
            lens[live[0]] = 1;
            return lens;
        }
        _ => {}
    }

    let mut arena: Vec<Node> = (0..n)
        .map(|_| Node {
            left: LEAF,
            right: LEAF,
        })
        .collect();

    // Min-heap of (freq, arena index). BinaryHeap is a max-heap, so use Reverse.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        live.iter().map(|&i| Reverse((freqs[i], i))).collect();

    while heap.len() > 1 {
        let Reverse((fa, a)) = heap.pop().unwrap();
        let Reverse((fb, b)) = heap.pop().unwrap();
        let idx = arena.len();
        arena.push(Node { left: a, right: b });
        heap.push(Reverse((fa + fb, idx)));
    }
    let root = heap.pop().unwrap().0 .1;

    // Iterative depth-first traversal assigning depths to leaves.
    let mut stack = vec![(root, 0u32)];
    while let Some((idx, depth)) = stack.pop() {
        let node = arena[idx];
        if node.left == LEAF {
            lens[idx] = depth.max(1);
        } else {
            stack.push((node.left, depth + 1));
            stack.push((node.right, depth + 1));
        }
    }
    lens
}

/// Assign canonical codes given code lengths (shorter codes first,
/// ties broken by symbol order). Returns `(code, len)` per symbol.
fn canonical_codes(lens: &[u32]) -> Vec<(u32, u32)> {
    let max_len = lens.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; max_len as usize + 1];
    for &l in lens {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; max_len as usize + 2];
    let mut code = 0u32;
    for bits in 1..=max_len {
        code = (code + bl_count[bits as usize - 1]) << 1;
        next_code[bits as usize] = code;
    }
    lens.iter()
        .map(|&l| {
            if l == 0 {
                (0, 0)
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                (c, l)
            }
        })
        .collect()
}

/// Encode `symbols` (each `< alphabet`) into a self-describing byte stream.
pub fn encode(symbols: &[u32], alphabet: u32) -> Result<Vec<u8>, HuffmanError> {
    let mut out = Vec::new();
    encode_into(symbols, alphabet, &mut out)?;
    Ok(out)
}

/// [`encode`], *appending* the stream to `out`.
pub fn encode_into(symbols: &[u32], alphabet: u32, out: &mut Vec<u8>) -> Result<(), HuffmanError> {
    let mut freqs = vec![0u64; alphabet as usize];
    for &s in symbols {
        let slot = freqs
            .get_mut(s as usize)
            .ok_or(HuffmanError::SymbolOutOfRange {
                symbol: s,
                alphabet,
            })?;
        *slot += 1;
    }
    let lens = code_lengths(&freqs);
    let codes = canonical_codes(&lens);

    bytes::put_u32(out, alphabet);
    bytes::put_u64(out, symbols.len() as u64);

    // Header: code lengths, run-length encoded as (len: u8, run: u16) pairs,
    // assembled in a pooled buffer (it grows to ~3 bytes per symbol run).
    let mut header = crate::scratch::take_bytes();
    let mut i = 0usize;
    while i < lens.len() {
        let l = lens[i];
        let mut run = 1usize;
        while i + run < lens.len() && lens[i + run] == l && run < u16::MAX as usize {
            run += 1;
        }
        header.push(l as u8);
        header.extend_from_slice(&(run as u16).to_le_bytes());
        i += run;
    }
    bytes::put_u32(out, header.len() as u32);
    out.extend_from_slice(&header);
    crate::scratch::put_bytes(header);

    // Payload: codes MSB-first within the LSB-first bit writer, so we reverse
    // bits here and read naturally on decode via table lookups.
    let mut w = BitWriter::with_bit_capacity(symbols.len() * 8);
    for &s in symbols {
        let (code, len) = codes[s as usize];
        debug_assert!(len > 0, "encoding a symbol with zero frequency");
        // Emit MSB-first so canonical prefix decoding works.
        for bit in (0..len).rev() {
            w.write_bit((code >> bit) & 1 == 1);
        }
    }
    let payload = w.into_bytes();
    bytes::put_u64(out, payload.len() as u64);
    out.extend_from_slice(&payload);
    Ok(())
}

/// Decoder table built from canonical code lengths.
struct Decoder {
    /// `(first_code, first_symbol_index)` per length.
    first_code: Vec<u32>,
    first_index: Vec<u32>,
    count: Vec<u32>,
    /// Symbols ordered canonically (by length, then symbol value).
    symbols: Vec<u32>,
    max_len: u32,
}

impl Decoder {
    fn from_lens(lens: &[u32]) -> Self {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let mut count = vec![0u32; max_len as usize + 1];
        for &l in lens {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut symbols = Vec::new();
        for target in 1..=max_len {
            for (sym, &l) in lens.iter().enumerate() {
                if l == target {
                    symbols.push(sym as u32);
                }
            }
        }
        let mut first_code = vec![0u32; max_len as usize + 2];
        let mut first_index = vec![0u32; max_len as usize + 2];
        let mut code = 0u32;
        let mut index = 0u32;
        for bits in 1..=max_len {
            code = (code
                + if bits >= 2 {
                    count[bits as usize - 1]
                } else {
                    0
                })
                << 1;
            // Mirror the canonical assignment in `canonical_codes`.
            first_code[bits as usize] = code;
            first_index[bits as usize] = index;
            index += count[bits as usize];
        }
        Self {
            first_code,
            first_index,
            count,
            symbols,
            max_len,
        }
    }

    fn decode_one(&self, r: &mut BitReader<'_>) -> Result<u32, HuffmanError> {
        let mut code = 0u32;
        for len in 1..=self.max_len {
            code = (code << 1)
                | r.read_bit()
                    .map_err(|_| HuffmanError::Corrupt("truncated payload"))?
                    as u32;
            let cnt = self.count[len as usize];
            if cnt > 0 {
                let first = self.first_code[len as usize];
                if code < first + cnt && code >= first {
                    let idx = self.first_index[len as usize] + (code - first);
                    return Ok(self.symbols[idx as usize]);
                }
            }
        }
        Err(HuffmanError::Corrupt("code exceeds max length"))
    }
}

/// Decode a stream produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u32>, HuffmanError> {
    let mut out = Vec::new();
    decode_into(data, &mut out)?;
    Ok(out)
}

/// [`decode`], *appending* the symbols to `out`.
pub fn decode_into(data: &[u8], out: &mut Vec<u32>) -> Result<(), HuffmanError> {
    let mut pos = 0usize;
    let alphabet =
        bytes::get_u32(data, &mut pos).ok_or(HuffmanError::Corrupt("missing alphabet"))?;
    let n = bytes::get_u64(data, &mut pos).ok_or(HuffmanError::Corrupt("missing count"))? as usize;
    let header_len =
        bytes::get_u32(data, &mut pos).ok_or(HuffmanError::Corrupt("missing header len"))? as usize;
    let header = bytes::get_slice(data, &mut pos, header_len)
        .ok_or(HuffmanError::Corrupt("truncated header"))?;

    let mut lens = Vec::with_capacity(alphabet as usize);
    let mut h = 0usize;
    while h + 3 <= header.len() {
        let l = header[h] as u32;
        let run = u16::from_le_bytes([header[h + 1], header[h + 2]]) as usize;
        for _ in 0..run {
            lens.push(l);
        }
        h += 3;
    }
    if lens.len() != alphabet as usize {
        return Err(HuffmanError::Corrupt("header length mismatch"));
    }

    let payload_len = bytes::get_u64(data, &mut pos)
        .ok_or(HuffmanError::Corrupt("missing payload len"))? as usize;
    let payload = bytes::get_slice(data, &mut pos, payload_len)
        .ok_or(HuffmanError::Corrupt("truncated payload"))?;

    let decoder = Decoder::from_lens(&lens);
    let mut r = BitReader::new(payload);
    out.reserve(n);
    for _ in 0..n {
        out.push(decoder.decode_one(&mut r)?);
    }
    Ok(())
}

/// Convenience wrapper for byte-alphabet payloads.
pub fn encode_bytes(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_bytes_into(data, &mut out);
    out
}

/// [`encode_bytes`], *appending* the stream to `out`; the widened symbols
/// are staged through the [`crate::scratch`] pool.
pub fn encode_bytes_into(data: &[u8], out: &mut Vec<u8>) {
    let mut symbols = crate::scratch::take_u32s();
    symbols.reserve(data.len());
    symbols.extend(data.iter().map(|&b| b as u32));
    encode_into(&symbols, 256, out).expect("byte symbols are always in range");
    crate::scratch::put_u32s(symbols);
}

/// Inverse of [`encode_bytes`].
pub fn decode_bytes(data: &[u8]) -> Result<Vec<u8>, HuffmanError> {
    let mut out = Vec::new();
    decode_bytes_into(data, &mut out)?;
    Ok(out)
}

/// [`decode_bytes`], *appending* the bytes to `out`; the decoded symbols
/// are staged through the [`crate::scratch`] pool.
pub fn decode_bytes_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), HuffmanError> {
    let mut symbols = crate::scratch::take_u32s();
    let res = decode_into(data, &mut symbols);
    let res = res.and_then(|()| {
        out.reserve(symbols.len());
        for &s in &symbols {
            out.push(
                u8::try_from(s).map_err(|_| HuffmanError::Corrupt("symbol exceeds byte range"))?,
            );
        }
        Ok(())
    });
    crate::scratch::put_u32s(symbols);
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bytes() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let enc = encode_bytes(&data);
        let dec = decode_bytes(&enc).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn round_trip_empty() {
        let enc = encode_bytes(&[]);
        assert_eq!(decode_bytes(&enc).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn round_trip_single_symbol() {
        let data = vec![42u8; 1000];
        let enc = encode_bytes(&data);
        assert_eq!(decode_bytes(&enc).unwrap(), data);
        // One distinct symbol compresses to roughly n/8 payload bytes.
        assert!(enc.len() < 400, "got {}", enc.len());
    }

    #[test]
    fn round_trip_large_alphabet() {
        let symbols: Vec<u32> = (0..50_000u32).map(|i| (i * i) % 65_537).collect();
        let enc = encode(&symbols, 65_537).unwrap();
        assert_eq!(decode(&enc).unwrap(), symbols);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% zeros, 5% spread: entropy coding should be well below 8 bits/sym.
        let mut data = vec![0u8; 95_000];
        data.extend((0..5_000u32).map(|i| (i % 255 + 1) as u8));
        let enc = encode_bytes(&data);
        assert!(
            enc.len() < data.len() / 2,
            "expected <50% of input, got {} / {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn symbol_out_of_range_is_an_error() {
        let err = encode(&[5], 4).unwrap_err();
        assert_eq!(
            err,
            HuffmanError::SymbolOutOfRange {
                symbol: 5,
                alphabet: 4
            }
        );
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        let data: Vec<u8> = (0..100).collect();
        let mut enc = encode_bytes(&data);
        enc.truncate(enc.len() - 4);
        assert!(decode_bytes(&enc).is_err());
    }

    #[test]
    fn lengths_respect_limit_on_pathological_input() {
        // Fibonacci-like frequencies drive unrestricted Huffman depths deep.
        let mut freqs = vec![0u64; 64];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
        // And the resulting canonical code must still round-trip.
        let mut symbols = Vec::new();
        for (s, &f) in freqs.iter().enumerate() {
            for _ in 0..(f.min(3)) {
                symbols.push(s as u32);
            }
        }
        let enc = encode(&symbols, 64).unwrap();
        assert_eq!(decode(&enc).unwrap(), symbols);
    }
}
