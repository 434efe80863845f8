//! Per-layer probes that replay one layer's work outside the simulation:
//! codec stages on the final state's blocks, a loopback frame round trip
//! and a checkpoint round trip.

use crate::trace::Tracer;
use qcs_compress::qzstd::{self, Level};
use qcs_compress::{huffman, lz77, CodecId, ErrorBound};
use qcs_core::{checkpoint, CompressedSimulator, SimConfig, SimError};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Per-block medians of each codec stage, in microseconds, and ratios.
pub struct CodecReplay {
    pub lz77_us: f64,
    pub huffman_us: f64,
    pub qzstd_compress_us: f64,
    pub qzstd_decompress_us: f64,
    pub qzstd_ratio: f64,
    pub solc_compress_us: f64,
    pub solc_decompress_us: f64,
    pub solc_ratio: f64,
}

/// Replay every codec stage on each block of `state` (interleaved re/im
/// f64s, `block_f64s` per block). Solution C runs at `bound`, the rung the
/// run ended on. Fails if a stage does not round-trip.
pub fn replay_codecs(
    tracer: &mut Tracer,
    state: &[f64],
    block_f64s: usize,
    bound: ErrorBound,
) -> Result<CodecReplay, String> {
    let solc = CodecId::SolutionC.build();
    let mut us = [const { Vec::new() }; 6];
    let (mut raw, mut qz_bytes, mut solc_bytes) = (0usize, 0usize, 0usize);
    let mut time = |tracer: &mut Tracer, slot: usize, name: &'static str, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        let end = Instant::now();
        tracer.record(name, None, start, end);
        us[slot].push((end - start).as_secs_f64() * 1e6);
    };
    for block in state.chunks(block_f64s) {
        let bytes = qcs_compress::f64s_to_bytes(block);
        raw += bytes.len();
        let mut lz = Vec::new();
        time(tracer, 0, "codec.lz77", &mut || {
            lz = lz77::compress(black_box(&bytes))
        });
        time(tracer, 1, "codec.huffman", &mut || {
            black_box(huffman::encode_bytes(black_box(&lz)));
        });
        let mut qz = Vec::new();
        time(tracer, 2, "codec.qzstd_compress", &mut || {
            qz = qzstd::compress(black_box(&bytes), Level::High)
        });
        qz_bytes += qz.len();
        let mut back = Ok(Vec::new());
        time(tracer, 3, "codec.qzstd_decompress", &mut || {
            back = qzstd::decompress(black_box(&qz))
        });
        if back.as_deref() != Ok(&bytes[..]) {
            return Err("qzstd replay did not round-trip".into());
        }
        let mut enc = Ok(Vec::new());
        time(tracer, 4, "codec.solc_compress", &mut || {
            enc = solc.compress(black_box(block), bound)
        });
        let enc = enc.map_err(|e| format!("solution C replay: {e}"))?;
        solc_bytes += enc.len();
        let mut dec = Ok(Vec::new());
        time(tracer, 5, "codec.solc_decompress", &mut || {
            dec = solc.decompress(black_box(&enc))
        });
        let dec = dec.map_err(|e| format!("solution C replay: {e}"))?;
        if dec.len() != block.len() {
            return Err("solution C replay changed the block length".into());
        }
    }
    let [lz77_us, huffman_us, qc, qd, sc, sd] = us.map(|v| crate::median(&v));
    Ok(CodecReplay {
        lz77_us,
        huffman_us,
        qzstd_compress_us: qc,
        qzstd_decompress_us: qd,
        qzstd_ratio: raw as f64 / qz_bytes as f64,
        solc_compress_us: sc,
        solc_decompress_us: sd,
        solc_ratio: raw as f64 / solc_bytes as f64,
    })
}

/// Median round trip, in microseconds, of a `payload`-byte frame sent with
/// `qcs_net::send_frame` to a loopback echo thread and read back with
/// `qcs_net::recv_frame`.
pub fn frame_rtt_us(tracer: &mut Tracer, payload: usize, trips: usize) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        for _ in 0..trips {
            let (kind, body) = qcs_net::recv_frame(&mut stream).map_err(|e| e.to_string())?;
            qcs_net::send_frame(&mut stream, kind, &body).map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let result = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let body: Vec<u8> = (0..payload).map(|i| i as u8).collect();
        let mut rtts = Vec::with_capacity(trips);
        for _ in 0..trips {
            let start = Instant::now();
            qcs_net::send_frame(&mut stream, 1, &body).map_err(|e| e.to_string())?;
            let (_, back) = qcs_net::recv_frame(&mut stream).map_err(|e| e.to_string())?;
            let end = Instant::now();
            tracer.record("wire.frame_rtt", None, start, end);
            if back != body {
                return Err("echoed frame differs".to_string());
            }
            rtts.push((end - start).as_secs_f64() * 1e6);
        }
        Ok(crate::median(&rtts))
    })();
    let echoed = echo
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    let rtt = result?;
    echoed?;
    Ok(rtt)
}

pub struct CheckpointTrip {
    pub save_s: f64,
    pub load_s: f64,
    pub mib: f64,
    /// Whether the reloaded state matched the saved one bit for bit.
    pub identical: bool,
}

/// Save `sim` to `path`, load it back under `cfg` and compare amplitudes.
/// The file is removed afterwards.
pub fn checkpoint_trip(
    tracer: &mut Tracer,
    sim: &CompressedSimulator,
    cfg: SimConfig,
    path: &Path,
) -> Result<CheckpointTrip, SimError> {
    let start = Instant::now();
    let saved = checkpoint::save(sim, path);
    let mid = Instant::now();
    tracer.record("checkpoint.save", None, start, mid);
    let loaded = saved.and_then(|()| checkpoint::load(path, cfg));
    let end = Instant::now();
    tracer.record("checkpoint.load", None, mid, end);
    let mib = std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / (1 << 20) as f64);
    let _ = std::fs::remove_file(path);
    let loaded = loaded?;
    let identical = bits(&sim.snapshot_f64()?) == bits(&loaded.snapshot_f64()?);
    Ok(CheckpointTrip {
        save_s: (mid - start).as_secs_f64(),
        load_s: (end - mid).as_secs_f64(),
        mib,
        identical,
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}
