//! Failure-injection tests: decoders must never panic on corrupt input —
//! they return `Err` (or, for bit-flips inside a valid container, possibly
//! a wrong-but-well-formed result; lengths are always validated).
//!
//! This matters for the checkpoint path (§3.5): a truncated or bit-rotted
//! checkpoint file must surface as an error, not undefined behavior.

use proptest::prelude::*;
use qcsim::compress::{CodecId, ErrorBound};

fn valid_payload(id: CodecId) -> Vec<u8> {
    let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.17).sin() * 1e-4).collect();
    let codec = id.build();
    let bound = if codec.supports(ErrorBound::PointwiseRelative(1e-3)) {
        ErrorBound::PointwiseRelative(1e-3)
    } else {
        ErrorBound::Absolute(1e-6)
    };
    codec.compress(&data, bound).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decoders_survive_random_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        pick in 0usize..7,
    ) {
        let codec = CodecId::ALL[pick].build();
        // Must not panic; Err is the expected outcome for garbage.
        let _ = codec.decompress(&bytes);
    }

    #[test]
    fn decoders_survive_truncation(
        frac in 0.0f64..1.0,
        pick in 0usize..7,
    ) {
        let id = CodecId::ALL[pick];
        let payload = valid_payload(id);
        let cut = ((payload.len() as f64) * frac) as usize;
        let codec = id.build();
        let _ = codec.decompress(&payload[..cut]);
    }

    #[test]
    fn decoders_survive_single_bit_flips(
        bit in 0usize..64,
        byte_frac in 0.0f64..1.0,
        pick in 0usize..7,
    ) {
        let id = CodecId::ALL[pick];
        let mut payload = valid_payload(id);
        let pos = ((payload.len() - 1) as f64 * byte_frac) as usize;
        payload[pos] ^= 1 << (bit % 8);
        let codec = id.build();
        // May decode to different values, but must not panic and, on Ok,
        // must return finite-length output.
        if let Ok(out) = codec.decompress(&payload) {
            prop_assert!(out.len() <= 1 << 24, "absurd length {}", out.len());
        }
    }
}

/// A valid segmented Solution C stream with several segments, for
/// index-corruption tests.
fn segmented_payload() -> Vec<u8> {
    use qcsim::compress::Codec as _;
    let data: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.17).sin() * 1e-4).collect();
    qcsim::compress::trunc::SolutionC {
        segment_values: Some(512),
        ..Default::default()
    }
    .compress(&data, ErrorBound::PointwiseRelative(1e-6))
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The segment index is parsed from attacker-controllable bytes (a
    // spilled frame's prefix): corrupting any prefix byte must yield
    // Err/None or a still-bounded index, never a panic, and partial
    // decodes through a corrupt index must fail cleanly too.
    #[test]
    fn segment_index_survives_prefix_corruption(
        byte_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        use qcsim::compress::{Codec as _, PartialCodec as _, SegmentIndex};
        let mut payload = segmented_payload();
        let index = SegmentIndex::parse(&payload).unwrap().unwrap();
        let prefix_len = index.prefix_len();
        let pos = ((prefix_len - 1) as f64 * byte_frac) as usize;
        payload[pos] ^= 1 << bit;
        if let Ok(Some(bad)) = SegmentIndex::parse(&payload) {
            // A surviving index must still bound every claimed range, and
            // decoding through it must return Err or data — not panic.
            let c = qcsim::compress::trunc::SolutionC::default();
            for s in 0..bad.n_segs().min(64) {
                let range = bad.byte_range(s);
                if let Some(body) = payload.get(range) {
                    let mut out = Vec::new();
                    let _ = c.decompress_segment(&bad, s, body, &mut out);
                }
            }
            let _ = c.decompress(&payload);
        }
    }

    // Truncating a segmented stream anywhere — inside the index or inside
    // a body — must produce Err from both the whole-stream and the
    // range decoders.
    #[test]
    fn segmented_stream_survives_truncation(frac in 0.0f64..1.0) {
        use qcsim::compress::{Codec as _, PartialCodec as _, SegmentIndex};
        let payload = segmented_payload();
        let cut = ((payload.len() - 1) as f64 * frac) as usize;
        let c = qcsim::compress::trunc::SolutionC::default();
        prop_assert!(c.decompress(&payload[..cut]).is_err());
        if let Ok(Some(index)) = SegmentIndex::parse(&payload[..cut]) {
            // Prefix survived the cut: range decodes must notice the
            // missing body bytes rather than panic.
            let mut out = Vec::new();
            let _ = c.decompress_range(&payload[..cut], 0..index.n_segs(), &mut out);
        }
    }
}

#[test]
fn checkpoint_loader_survives_corruption() {
    use qcsim::core::checkpoint;
    use qcsim::{CompressedSimulator, SimConfig};
    use rand::SeedableRng;

    let cfg = SimConfig::default().with_block_log2(4).with_ranks_log2(1);
    let mut sim = CompressedSimulator::new(8, cfg.clone()).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut c = qcsim::Circuit::new(8);
    c.h(0).cx(0, 7);
    sim.run(&c, &mut rng).unwrap();

    let path = std::env::temp_dir().join(format!("qcsim-robust-{}.ckpt", std::process::id()));
    checkpoint::save(&sim, &path).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Truncations at every 13th byte boundary must error, never panic.
    for cut in (0..good.len()).step_by(13) {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(checkpoint::load(&path, cfg.clone()).is_err(), "cut {cut}");
    }
    // Header bit flips must error or load; never panic.
    for pos in 0..32.min(good.len()) {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let _ = checkpoint::load(&path, cfg.clone());
    }
    std::fs::remove_file(&path).ok();
}

// --- hostile length fields ------------------------------------------------
//
// Random bytes almost never form a valid header followed by a length near
// `usize::MAX`, so each decoder gets one hand-built stream with such a
// length field. In the Huffman, Solution C, SZ and fpzip decoders the length
// is added to a stream position, and an unchecked `pos + len` overflows
// (debug builds, what `cargo test` runs, panic on it); Solution D and zfp
// are covered for the same shape of input. A decoder must return `Err`.

/// A length field at the edge of the address space.
const HOSTILE: u64 = u64::MAX;

fn le32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn le64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Wrap a pre-backend body the way the codecs do: one fast qzstd pass.
fn backend(body: &[u8]) -> Vec<u8> {
    qcsim::compress::qzstd::compress(body, qcsim::compress::qzstd::Level::Fast)
}

#[test]
fn huffman_rejects_a_hostile_payload_length() {
    use qcsim::compress::huffman;
    let mut enc = huffman::encode(&[1, 2, 3, 1], 4).unwrap();
    // alphabet u32 | count u64 | header_len u32 | header | payload_len u64
    let header_len = u32::from_le_bytes(enc[12..16].try_into().unwrap()) as usize;
    let at = 16 + header_len;
    enc[at..at + 8].copy_from_slice(&HOSTILE.to_le_bytes());
    assert!(huffman::decode(&enc).is_err());
}

#[test]
fn solution_c_rejects_hostile_codes_and_suffix_lengths() {
    use qcsim::compress::trunc::SolutionC;
    use qcsim::compress::Codec as _;
    // magic | n u64 | m u8 | codes_len u64 | codes | suffix_len u64 | ...
    let head = |body: &mut Vec<u8>| {
        le32(body, 0x5143_5343);
        le64(body, 1);
        body.push(52);
    };
    let mut codes = Vec::new();
    head(&mut codes);
    le64(&mut codes, HOSTILE);
    let mut suffix = Vec::new();
    head(&mut suffix);
    le64(&mut suffix, 1);
    suffix.push(0);
    le64(&mut suffix, HOSTILE);
    for body in [codes, suffix] {
        assert!(SolutionC::whole_stream()
            .decompress(&backend(&body))
            .is_err());
    }
}

#[test]
fn solution_d_rejects_hostile_half_stream_lengths() {
    use qcsim::compress::trunc::SolutionD;
    use qcsim::compress::Codec as _;
    // magic | even_len u64 | even | odd_len u64 | odd
    let mut even = Vec::new();
    le32(&mut even, 0x5143_5344);
    le64(&mut even, HOSTILE);
    let mut odd = Vec::new();
    le32(&mut odd, 0x5143_5344);
    le64(&mut odd, 0);
    le64(&mut odd, HOSTILE);
    for stream in [even, odd] {
        assert!(SolutionD::whole_stream().decompress(&stream).is_err());
    }
}

#[test]
fn sz_rejects_hostile_stream_lengths() {
    use qcsim::compress::huffman;
    // magic | mode u8 | bound f64 | backend(body)
    let stream = |mode: u8, body: &[u8]| {
        let mut s = Vec::new();
        le32(&mut s, 0x5143_535A);
        s.push(mode);
        s.extend_from_slice(&1e-3f64.to_le_bytes());
        s.extend_from_slice(&backend(body));
        s
    };
    // Absolute mode: n u64 | huff_len u64 | huff | outlier_len u64 | ...
    let mut huff_len = Vec::new();
    le64(&mut huff_len, 0);
    le64(&mut huff_len, HOSTILE);
    let empty = huffman::encode(&[], 4).unwrap();
    let mut outlier_len = Vec::new();
    le64(&mut outlier_len, 0);
    le64(&mut outlier_len, empty.len() as u64);
    outlier_len.extend_from_slice(&empty);
    le64(&mut outlier_len, HOSTILE);
    // Relative mode: n u64 | log_bound f64 | signs | zeros | n_exc u64
    // | exceptions | inner_len u64 | inner
    let mut inner_len = Vec::new();
    le64(&mut inner_len, 0);
    inner_len.extend_from_slice(&1e-3f64.to_le_bytes());
    le64(&mut inner_len, 0);
    le64(&mut inner_len, HOSTILE);
    let mut bitmaps = Vec::new();
    le64(&mut bitmaps, HOSTILE);
    bitmaps.extend_from_slice(&1e-3f64.to_le_bytes());
    for id in [CodecId::SolutionA, CodecId::SolutionB] {
        let codec = id.build();
        for s in [
            stream(0, &huff_len),
            stream(0, &outlier_len),
            stream(1, &inner_len),
            stream(1, &bitmaps),
        ] {
            assert!(codec.decompress(&s).is_err(), "{id}");
        }
    }
}

#[test]
fn fpzip_rejects_hostile_lens_and_payload_lengths() {
    // backend(magic | n u64 | precision u8 | lens_len u64 | lens
    //         | payload_len u64 | payload | ...)
    let head = |body: &mut Vec<u8>| {
        le32(body, 0x5143_465A);
        le64(body, 0);
        body.push(64);
    };
    let mut lens = Vec::new();
    head(&mut lens);
    le64(&mut lens, HOSTILE);
    let mut payload = Vec::new();
    head(&mut payload);
    le64(&mut payload, 0);
    le64(&mut payload, HOSTILE);
    let codec = CodecId::Fpzip.build();
    for body in [lens, payload] {
        assert!(codec.decompress(&backend(&body)).is_err());
    }
}

/// The value count sizes the sign and zero bitmaps, which would run far
/// past the end of the stream: a truncated-bitmap rejection (the bitmap
/// length, `n / 8`, is too small to overflow a position).
#[test]
fn zfp_rejects_a_hostile_value_count() {
    // magic | mode u8 | n u64 | bound f64 | n_logs u64 | signs | zeros | ...
    let mut s = Vec::new();
    le32(&mut s, 0x5143_5A46);
    s.push(1);
    le64(&mut s, HOSTILE);
    s.extend_from_slice(&1e-3f64.to_le_bytes());
    le64(&mut s, 0);
    assert!(CodecId::Zfp.build().decompress(&s).is_err());
}
