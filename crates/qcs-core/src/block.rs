//! Compressed amplitude blocks (paper §3.1: "Each block is stored in
//! compressed format on the memory").
//!
//! This module is also the codec seam of the simulation hot path: every
//! wave decodes blocks through [`BlockCodec::decompress`] and re-encodes
//! them through [`BlockCodec::compress`]. Scratch buffers on both sides
//! (decoded amplitudes, encoded output) come from the process-wide
//! [`qcs_compress::scratch`] pool, the same pool the codec stages use, so
//! only the shared payload copy of each encoded block is new storage.

use qcs_compress::{scratch, Codec, CodecError, CodecId, ErrorBound, PartialCodec, QzstdCodec};
use std::sync::Arc;

/// One compressed block of `block_amps` complex amplitudes
/// (`2 * block_amps` doubles, interleaved re/im).
#[derive(Debug, Clone)]
pub struct CompressedBlock {
    /// Codec that produced `bytes`.
    pub codec: CodecId,
    /// Error bound `bytes` was compressed under. Metadata only (the codec
    /// stream is self-contained), but it makes a block self-describing when
    /// written to a persistent tier as a frame.
    pub bound: ErrorBound,
    /// Compressed payload, shared with the block cache.
    pub bytes: Arc<[u8]>,
}

impl CompressedBlock {
    /// Compressed size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload is empty (never for valid blocks).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// FNV-1a hash of the payload, used as the cache-line tag (the same
    /// hash the frame format uses as its checksum).
    pub fn content_hash(&self) -> u64 {
        qcs_compress::frame::fnv1a(&self.bytes)
    }
}

/// Compressor front-end that picks lossless vs lossy per the active ladder
/// level and stamps blocks with their codec id.
///
/// Codec instances are built once and shared across worker threads, so no
/// per-block call constructs a codec.
pub struct BlockCodec {
    lossy_id: CodecId,
    lossy: Box<dyn Codec>,
    lossless: QzstdCodec,
}

impl std::fmt::Debug for BlockCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCodec")
            .field("lossy_id", &self.lossy_id)
            .finish()
    }
}

impl BlockCodec {
    /// Codec front-end using `lossy_id` for lossy levels.
    pub fn new(lossy_id: CodecId) -> Self {
        Self {
            lossy_id,
            lossy: lossy_id.build(),
            lossless: QzstdCodec::default(),
        }
    }

    /// The configured lossy codec id.
    pub fn lossy_id(&self) -> CodecId {
        self.lossy_id
    }

    /// The resident (pre-built, shared) codec instance for `id`, if this
    /// front-end holds one. `None` for foreign ids — blocks produced by a
    /// differently-configured engine.
    fn resident_codec(&self, id: CodecId) -> Option<&dyn Codec> {
        if id == self.lossy_id {
            Some(&*self.lossy)
        } else if id == CodecId::Qzstd {
            Some(&self.lossless)
        } else {
            None
        }
    }

    /// Compress `data` under `bound`.
    ///
    /// `ErrorBound::Lossless` uses the qzstd codec (the paper's Zstd leg);
    /// lossy bounds use the configured lossy codec (Solution C by default).
    /// The codec writes into a [`scratch`] buffer and only the shared
    /// payload copy (`Arc<[u8]>`, storage rather than scratch) is new.
    pub fn compress(&self, data: &[f64], bound: ErrorBound) -> Result<CompressedBlock, CodecError> {
        let (id, codec): (CodecId, &dyn Codec) = if bound.is_lossy() {
            (self.lossy_id, &*self.lossy)
        } else {
            (CodecId::Qzstd, &self.lossless)
        };
        let mut buf = scratch::take_bytes();
        let block = codec
            .compress_into(data, bound, &mut buf)
            .map(|()| CompressedBlock {
                codec: id,
                bound,
                bytes: Arc::from(&buf[..]),
            });
        scratch::put_bytes(buf);
        block
    }

    /// Segment-addressable view of the codec that produced `block`, when
    /// that codec supports partial decode/encode. `None` for lossless
    /// (qzstd) blocks and for whole-stream lossy codecs.
    pub fn partial_for(&self, block: &CompressedBlock) -> Option<&dyn PartialCodec> {
        (block.codec == self.lossy_id)
            .then(|| self.lossy.as_partial())
            .flatten()
            .filter(|p| p.supports_partial())
    }

    /// The lossy codec's partial capability independent of any particular
    /// block — used to pre-qualify a wave before blocks are fetched.
    pub fn partial_codec(&self) -> Option<&dyn PartialCodec> {
        self.lossy.as_partial().filter(|p| p.supports_partial())
    }

    /// Decompress into `out` (cleared first).
    ///
    /// Blocks from the resident codecs decode through the shared instances
    /// (no per-call codec construction); only foreign codec ids fall back
    /// to building a codec.
    pub fn decompress(
        &self,
        block: &CompressedBlock,
        out: &mut Vec<f64>,
    ) -> Result<(), CodecError> {
        match self.resident_codec(block.codec) {
            Some(codec) => codec.decompress_into(&block.bytes, out),
            None => block.codec.build().decompress_into(&block.bytes, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amps(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.21).sin() * 1e-3).collect()
    }

    #[test]
    fn lossless_level_round_trips_exactly() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = amps(2048);
        let blk = bc.compress(&data, ErrorBound::Lossless).unwrap();
        assert_eq!(blk.codec, CodecId::Qzstd);
        let mut out = Vec::new();
        bc.decompress(&blk, &mut out).unwrap();
        assert_eq!(out.len(), data.len());
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lossy_level_uses_configured_codec() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = amps(2048);
        let blk = bc
            .compress(&data, ErrorBound::PointwiseRelative(1e-3))
            .unwrap();
        assert_eq!(blk.codec, CodecId::SolutionC);
        let mut out = Vec::new();
        bc.decompress(&blk, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-3 * a.abs());
        }
    }

    #[test]
    fn content_hash_distinguishes_blocks() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let b1 = bc.compress(&amps(512), ErrorBound::Lossless).unwrap();
        let mut other = amps(512);
        other[100] = 0.5;
        let b2 = bc.compress(&other, ErrorBound::Lossless).unwrap();
        assert_ne!(b1.content_hash(), b2.content_hash());
        assert_eq!(b1.content_hash(), b1.clone().content_hash());
    }

    #[test]
    fn zero_block_is_tiny() {
        let bc = BlockCodec::new(CodecId::SolutionC);
        let data = vec![0.0f64; 1 << 14];
        let blk = bc.compress(&data, ErrorBound::Lossless).unwrap();
        assert!(blk.len() < 32, "all-zero block: {} bytes", blk.len());
    }

    #[test]
    fn lossless_blocks_decode_through_the_shared_instance() {
        // The paper's hot loop decodes lossless blocks constantly while the
        // state is sparse; each decode must reuse `self.lossless` rather
        // than building a boxed codec per call.
        let bc = BlockCodec::new(CodecId::SolutionC);
        let resident = bc
            .resident_codec(CodecId::Qzstd)
            .expect("qzstd is always resident");
        assert!(std::ptr::eq(
            resident as *const dyn Codec as *const u8,
            &bc.lossless as *const QzstdCodec as *const u8,
        ));
        let lossy = bc
            .resident_codec(CodecId::SolutionC)
            .expect("configured lossy codec is resident");
        assert!(std::ptr::eq(
            lossy as *const dyn Codec as *const u8,
            &*bc.lossy as *const dyn Codec as *const u8,
        ));
        // A foreign id (not configured on this front-end) has no resident
        // instance and takes the build() fallback.
        assert!(bc.resident_codec(CodecId::SolutionD).is_none());

        // And a qzstd block round-trips through that shared instance.
        let data = amps(1024);
        let blk = bc.compress(&data, ErrorBound::Lossless).unwrap();
        let mut out = Vec::new();
        bc.decompress(&blk, &mut out).unwrap();
        assert_eq!(out.len(), data.len());
    }
}
