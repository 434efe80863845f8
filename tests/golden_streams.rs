//! Golden encoded streams: the committed bytes under `tests/golden/` were
//! produced by earlier builds of every codec from one fixed 512-value
//! input. Each codec must still encode that input to exactly those bytes
//! (so a rewrite of an encode body cannot silently change a format) and
//! must still decode the committed bytes (so old streams stay readable).

use qcsim::compress::frame::{encode_frame, read_frame, write_frame};
use qcsim::compress::qzstd::{self, Level};
use qcsim::compress::trunc::{SolutionC, SolutionD};
use qcsim::compress::{Codec, CodecId, ErrorBound, QzstdCodec};

/// The fixed input: a run of values from a small set (compressible by the
/// dictionary stage), short-mantissa spiky values, signed zeros, and one
/// subnormal per 64 values (a Solution C/D exception).
fn input() -> Vec<f64> {
    (0..512)
        .map(|i| {
            let x = i as f64;
            match i % 64 {
                0 => 0.0,
                17 => -0.0,
                33 => f64::MIN_POSITIVE / 8.0,
                _ if i < 256 => [0.0, 0.125, -0.125, 0.25][(i * i / 3) % 4],
                _ => ((x * 0.377).sin() * 4096.0).round() / 4096.0 * 2f64.powi(-((i % 5) as i32)),
            }
        })
        .collect()
}

/// 2 KiB of pseudo-random bytes over an 8-letter alphabet: few LZ matches
/// but skewed literals, so qzstd High picks its LZ + Huffman mode.
fn text() -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..2048)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b"abcdefgh"[(x % 8) as usize]
        })
        .collect()
}

const REL: ErrorBound = ErrorBound::PointwiseRelative(1e-3);
const ABS: ErrorBound = ErrorBound::Absolute(1e-6);

/// A golden stream: its name, the codec and bound that wrote it, and the
/// committed bytes.
type Case = (&'static str, Box<dyn Codec>, ErrorBound, &'static [u8]);

fn cases() -> Vec<Case> {
    vec![
        (
            "qzstd_fast",
            Box::new(QzstdCodec { level: Level::Fast }),
            ErrorBound::Lossless,
            include_bytes!("golden/qzstd_fast.bin"),
        ),
        (
            "qzstd_high",
            Box::new(QzstdCodec { level: Level::High }),
            ErrorBound::Lossless,
            include_bytes!("golden/qzstd_high.bin"),
        ),
        (
            "sol_a",
            CodecId::SolutionA.build(),
            ABS,
            include_bytes!("golden/sol_a.bin"),
        ),
        (
            "sol_b",
            CodecId::SolutionB.build(),
            REL,
            include_bytes!("golden/sol_b.bin"),
        ),
        (
            "sol_c_seg",
            Box::new(SolutionC::default()),
            REL,
            include_bytes!("golden/sol_c_seg.bin"),
        ),
        (
            "sol_c_whole",
            Box::new(SolutionC::whole_stream()),
            REL,
            include_bytes!("golden/sol_c_whole.bin"),
        ),
        (
            "sol_d_seg",
            Box::new(SolutionD::default()),
            REL,
            include_bytes!("golden/sol_d_seg.bin"),
        ),
        (
            "sol_d_whole",
            Box::new(SolutionD::whole_stream()),
            REL,
            include_bytes!("golden/sol_d_whole.bin"),
        ),
        (
            "zfp",
            CodecId::Zfp.build(),
            ABS,
            include_bytes!("golden/zfp.bin"),
        ),
        (
            "fpzip",
            CodecId::Fpzip.build(),
            REL,
            include_bytes!("golden/fpzip.bin"),
        ),
    ]
}

#[test]
fn every_codec_encodes_the_golden_bytes() {
    let data = input();
    for (name, codec, bound, golden) in cases() {
        let enc = codec.compress(&data, bound).unwrap();
        assert!(enc == golden, "{name}: encoding changed");
        let mut into = vec![0xAB; 7];
        codec.compress_into(&data, bound, &mut into).unwrap();
        assert!(into == golden, "{name}: compress_into differs");
    }
    let text = text();
    let golden: &[u8] = include_bytes!("golden/qzstd_text_high.bin");
    assert_eq!(golden[0], 2, "the text golden exercises the Huffman mode");
    assert!(qzstd::compress(&text, Level::High) == golden);
}

#[test]
fn every_codec_decodes_the_golden_bytes() {
    let data = input();
    for (name, codec, bound, golden) in cases() {
        let dec = codec.decompress(golden).unwrap();
        assert_eq!(dec.len(), data.len(), "{name}");
        for (i, (a, b)) in data.iter().zip(&dec).enumerate() {
            let ok = match bound {
                ErrorBound::Lossless => a.to_bits() == b.to_bits(),
                ErrorBound::Absolute(e) => (a - b).abs() <= e,
                // Zeros of either sign decode within a relative bound of 0.
                ErrorBound::PointwiseRelative(eps) => (a - b).abs() <= eps * a.abs(),
            };
            assert!(ok, "{name}: value {i}: {a} decoded as {b}");
        }
    }
    assert_eq!(
        qzstd::decompress(include_bytes!("golden/qzstd_text_high.bin")).unwrap(),
        text()
    );
}

#[test]
fn frame_versions_one_and_two_are_stable() {
    let data = input();
    let v1: &[u8] = include_bytes!("golden/frame_v1.bin");
    let v2: &[u8] = include_bytes!("golden/frame_v2.bin");
    let qz = QzstdCodec::default()
        .compress(&data, ErrorBound::Lossless)
        .unwrap();
    let sc = SolutionC::default().compress(&data, REL).unwrap();
    for (golden, codec, bound, payload) in [
        (v1, CodecId::Qzstd, ErrorBound::Lossless, &qz),
        (v2, CodecId::SolutionC, REL, &sc),
    ] {
        assert!(encode_frame(codec, bound, payload).unwrap() == golden);
        let mut written = Vec::new();
        write_frame(&mut written, codec, bound, payload).unwrap();
        assert!(written == golden);
        let frame = read_frame(&mut &golden[..]).unwrap();
        assert_eq!((frame.codec, frame.bound), (codec, bound));
        assert!(&frame.payload == payload);
    }
    assert_eq!(&v1[..4], b"QCF1");
    assert_eq!(&v2[..4], b"QCF2");
}
