//! The repository benchmark: time to solution, memory reduction and
//! fidelity of the compressed-state simulator on three workloads, with a
//! separate traced run for per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <qft-lossless|qaoa-lossy|grover-spill-remote> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs one simulation at a time in a closed loop for
//! `--seconds`. Every run's output is checked against a dense state-vector
//! reference built once per circuit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. The traced run's spans are written to
//! `benchmark/out/trace-<workload>-<seed>.jsonl`.

mod layers;
mod probe;
mod trace;
mod workload;

use probe::{AllocCount, AllocWindow};
use qcs_circuits::Circuit;
use qcs_core::{CompressedSimulator, SimReport, WaveControl};
use qcs_statevec::StateVector;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Where spill segments, checkpoints and trace files go.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// After every untraced run, set-ups are timed for this long (besides the
/// one each run makes): set-up takes microseconds to milliseconds, so a
/// steady median needs hundreds of them, spread over the measuring window
/// as the runs are rather than taken in one burst.
const SETUP_SLICE: Duration = Duration::from_millis(200);
/// At most this many set-ups are timed per slice.
const SETUP_SLICE_REPS: usize = 200;
/// Pause before each of those set-ups, so it does not overlap the deferred
/// work of the tear-down before it (thread exits, spill-file deletion):
/// back to back, half the remote workload's set-ups took 3 ms and half
/// 10 ms, and the median jumped between the two.
const SETUP_PAUSE: Duration = Duration::from_millis(5);
/// Frame round trips timed for `wire.frame_rtt_us`.
const WIRE_TRIPS: usize = 400;
/// Lossless runs must match the dense reference this closely, per amplitude.
const LOSSLESS_TOL: f64 = 1e-10;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("mem_reduction", "ratio"),
    ("fidelity", "fidelity"),
    ("fidelity_bound", "fidelity"),
    ("pass_share", "share"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 46] = [
    ("schedule.build_ms", "ms"),
    ("schedule.items", "count"),
    ("schedule.gates_per_item", "ratio"),
    ("engine.wave_p50_ms", "ms"),
    ("engine.wave_p99_ms", "ms"),
    ("engine.escalations", "count"),
    ("engine.final_rung", "index"),
    ("engine.block_touches", "count"),
    ("engine.gates_per_touch", "ratio"),
    ("compress.thread_s", "s"),
    ("decompress.thread_s", "s"),
    ("codec.lz77_us", "us"),
    ("codec.huffman_us", "us"),
    ("codec.qzstd_compress_us", "us"),
    ("codec.qzstd_decompress_us", "us"),
    ("codec.qzstd_ratio", "ratio"),
    ("codec.solc_compress_us", "us"),
    ("codec.solc_decompress_us", "us"),
    ("codec.solc_ratio", "ratio"),
    ("kernel.thread_s", "s"),
    ("kernel.bytes_moved", "bytes_computed"),
    ("statevec.dense_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "share"),
    ("store.spills", "count"),
    ("store.fetches", "count"),
    ("store.spill_mib", "MiB"),
    ("store.fetch_mib", "MiB"),
    ("store.io_thread_s", "s"),
    ("store.prefetch_hit_rate", "share"),
    ("store.fetches_per_touch", "ratio"),
    ("partial.decodes", "count"),
    ("partial.segment_share", "share"),
    ("exchange.count", "count"),
    ("exchange.mib", "MiB"),
    ("exchange.thread_s", "s"),
    ("wire.frame_rtt_us", "us"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("checkpoint.mib", "MiB"),
    ("alloc.count", "count"),
    ("alloc.bytes", "bytes"),
    ("alloc.per_touch", "ratio"),
    ("trace.overhead", "share"),
    ("trace.gap_share", "share"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <qft-lossless|qaoa-lossy|grover-spill-remote> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(result) => {
            result.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (NaN when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Everything one process measures for one workload and seed.
struct Bench {
    workload: Workload,
    seed: u64,
    /// The circuit instance the current run simulates, and its circuit.
    instance: u64,
    circuit: Circuit,
    num_qubits: u32,
    spill_dir: PathBuf,
    reference: Option<StateVector>,
    /// Seconds each dense reference took to build.
    dense_s: Vec<f64>,
    tracer: Tracer,
    /// The first traced run's final state, interleaved re/im, for the
    /// codec replay.
    final_state: Vec<f64>,
    attempted: u64,
    /// Runs that erred or failed a check.
    failed: u64,
    /// Every error and failed check, in order.
    failures: Vec<String>,
}

/// One finished simulation run.
struct Run {
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    report: SimReport,
    fidelity: f64,
    traced: Option<Traced>,
}

/// What a traced run adds to a [`Run`].
struct Traced {
    build_s: f64,
    /// Wall seconds of each schedule item, timed from the observer.
    items: Vec<f64>,
    alloc: AllocCount,
    gates: usize,
}

/// What only the first run of a process measures.
#[derive(Default)]
struct First {
    peak_rss_mib: f64,
    checkpoint: Option<layers::CheckpointTrip>,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Result<Self, String> {
        let circuit = workload.circuit(seed, 0);
        let spill_dir = workload::spill_root(Path::new(OUT_DIR));
        std::fs::create_dir_all(&spill_dir).map_err(|e| format!("create {spill_dir:?}: {e}"))?;
        Ok(Self {
            workload,
            seed,
            num_qubits: circuit.num_qubits() as u32,
            instance: 0,
            circuit,
            spill_dir,
            reference: None,
            dense_s: Vec::new(),
            tracer: Tracer::new(),
            final_state: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        })
    }

    fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.failures.push(why);
    }

    /// Time one set-up of the simulator (and its daemons), then tear it down.
    fn time_setup(&self) -> Result<f64, String> {
        std::thread::sleep(SETUP_PAUSE);
        let start = Instant::now();
        let session = self
            .workload
            .setup(self.num_qubits, &self.spill_dir)
            .map_err(|e| format!("setup: {e}"))?;
        let setup_s = start.elapsed().as_secs_f64();
        session.finish();
        Ok(setup_s)
    }

    /// Build the dense reference state (timed) unless it exists.
    fn build_reference(&mut self) {
        if self.reference.is_none() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            let start = Instant::now();
            let state = self.circuit.simulate_dense(&mut rng);
            self.dense_s.push(start.elapsed().as_secs_f64());
            self.reference = Some(state);
        }
    }

    /// Check a finished run's state against the reference and return the
    /// measured fidelity. A failed check is recorded, not returned.
    fn check_output(&mut self, state: &StateVector, report: &SimReport) -> f64 {
        self.build_reference();
        let reference = self.reference.as_ref().expect("reference built above");
        let fidelity = reference.fidelity(state);
        let max_diff = reference
            .amplitudes()
            .iter()
            .zip(state.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            // Unlike `f64::max`, keeps a NaN difference.
            .fold(0.0f64, |m, d| if d > m || d.is_nan() { d } else { m });
        let matches = max_diff <= LOSSLESS_TOL;
        let within_bound = fidelity >= report.fidelity_lower_bound;
        if self.workload.lossless() && !matches {
            self.fail(format!(
                "lossless run differs from the dense reference by {max_diff:e} (> {LOSSLESS_TOL:e})"
            ));
        }
        if !self.workload.lossless() && !within_bound {
            self.fail(format!(
                "fidelity {fidelity} is below the Eq. 11 bound {}",
                report.fidelity_lower_bound
            ));
        }
        fidelity
    }

    /// After a session is torn down no spill segment directory may remain.
    fn check_spill_cleanup(&mut self) {
        let left = std::fs::read_dir(&self.spill_dir).map_or(0, |d| d.count());
        if left > 0 {
            self.fail(format!("{left} spill entries left in {:?}", self.spill_dir));
            let _ = std::fs::remove_dir_all(&self.spill_dir);
            let _ = std::fs::create_dir_all(&self.spill_dir);
        }
    }

    /// One simulation from set-up to checked output, counted in
    /// `attempted` and, if it errs or fails a check, in `failed`. The
    /// traced and untraced runs of one `round` simulate the same circuit.
    fn run(&mut self, round: u64, traced: bool, first: Option<&mut First>) -> Option<Run> {
        let instance = self.workload.instance(round);
        if instance != self.instance {
            self.instance = instance;
            self.circuit = self.workload.circuit(self.seed, instance);
            self.reference = None;
        }
        self.counted(|b| b.run_checked(traced, first))
    }

    /// Make one checked run with `f`, counted in `attempted` and, if it
    /// errs or fails a check, in `failed`.
    fn counted<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let before = self.failures.len();
        let run = f(self);
        if let Err(e) = &run {
            self.fail(e.clone());
        }
        if self.failures.len() > before {
            self.failed += 1;
        }
        run.ok()
    }

    /// Run the current circuit once, untimed, with every rank in-process,
    /// check it like any run and return its report. Daemon-hosted ranks
    /// keep their caches to themselves (`SimReport.cache_hits/misses` stay
    /// 0/0), so the remote workload's `cache.*` come from this run.
    fn run_in_process_checked(&mut self) -> Result<SimReport, String> {
        let cfg = self.workload.config(self.num_qubits, &self.spill_dir);
        let mut sim = CompressedSimulator::new(self.num_qubits, cfg)
            .map_err(|e| format!("in-process setup: {e}"))?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        sim.run(&self.circuit, &mut rng)
            .map_err(|e| format!("in-process run: {e}"))?;
        let report = sim.report();
        let state = sim
            .snapshot_dense()
            .map_err(|e| format!("in-process snapshot: {e}"))?;
        self.check_output(&state, &report);
        drop(sim);
        self.check_spill_cleanup();
        Ok(report)
    }

    /// [`Bench::run`] without the bookkeeping. A traced run goes through
    /// `schedule_circuit` + `run_schedule_observed` under spans; an
    /// untraced one through `run`. `first` also reads peak RSS, before the
    /// dense reference exists, and makes the checkpoint round trip.
    fn run_checked(&mut self, traced: bool, mut first: Option<&mut First>) -> Result<Run, String> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        if traced {
            self.tracer.next_run();
        }
        let setup_start = Instant::now();
        let mut session = self
            .workload
            .setup(self.num_qubits, &self.spill_dir)
            .map_err(|e| format!("setup: {e}"))?;
        let setup_end = Instant::now();
        self.span(traced, "setup", setup_start);
        let cpu0 = probe::process_cpu_s();
        let (run_s, trace) = if traced {
            let (run_s, t) = traced_run(
                &mut self.tracer,
                &mut session.sim,
                &session.cfg,
                &self.circuit,
                &mut rng,
            )?;
            (run_s, Some(t))
        } else {
            let start = Instant::now();
            session
                .sim
                .run(&self.circuit, &mut rng)
                .map_err(|e| format!("run: {e}"))?;
            (start.elapsed().as_secs_f64(), None)
        };
        let cpu_s = probe::process_cpu_s() - cpu0;
        let start = Instant::now();
        let report = session.sim.report();
        self.span(traced, "report", start);
        if let Some(first) = first.as_deref_mut() {
            first.peak_rss_mib = probe::peak_rss_mib();
        }
        let start = Instant::now();
        let state = session
            .sim
            .snapshot_dense()
            .map_err(|e| format!("snapshot: {e}"))?;
        self.span(traced, "snapshot_dense", start);
        let fidelity = self.check_output(&state, &report);
        if traced && self.final_state.is_empty() {
            let start = Instant::now();
            let state = session.sim.snapshot_f64();
            self.span(traced, "snapshot_f64", start);
            self.final_state = state.map_err(|e| format!("snapshot: {e}"))?;
        }
        if let Some(first) = first {
            // Reload in-process: the daemons serve one connection each.
            let mut cfg = session.cfg.clone();
            cfg.remote = None;
            let path = Path::new(OUT_DIR).join(format!("checkpoint-{}.qcs", std::process::id()));
            let trip = layers::checkpoint_trip(&mut self.tracer, &session.sim, cfg, &path)
                .map_err(|e| format!("checkpoint round trip: {e}"))?;
            if !trip.identical {
                self.fail("checkpoint reload changed the amplitudes".into());
            }
            first.checkpoint = Some(trip);
        }
        session.finish();
        self.check_spill_cleanup();
        Ok(Run {
            setup_s: (setup_end - setup_start).as_secs_f64(),
            run_s,
            cpu_s,
            report,
            fidelity,
            traced: trace,
        })
    }

    /// Record a span from `start` to now, in a traced run only.
    fn span(&mut self, traced: bool, name: &'static str, start: Instant) {
        if traced {
            self.tracer.record(name, None, start, Instant::now());
        }
    }
}

/// Run `circuit` as `CompressedSimulator::run` does, under spans: the
/// schedule build, then every schedule item timed between observer calls.
/// Allocations are counted over the whole run. Returns the run's wall
/// seconds.
fn traced_run(
    tracer: &mut Tracer,
    sim: &mut CompressedSimulator,
    cfg: &qcs_core::SimConfig,
    circuit: &Circuit,
    rng: &mut rand::rngs::StdRng,
) -> Result<(f64, Traced), String> {
    let policy = cfg.fusion_policy();
    let mut item_times: Vec<(Instant, Instant)> = Vec::with_capacity(circuit.gate_count() + 1);
    let window = AllocWindow::open();
    let run_start = Instant::now();
    let schedule = qcs_circuits::schedule_circuit(circuit, &policy);
    let built = Instant::now();
    let mut last = built;
    let outcome = sim.run_schedule_observed(&schedule, rng, 0, &mut |_| {
        let now = Instant::now();
        item_times.push((last, now));
        last = Instant::now();
        WaveControl::Continue
    });
    let run_end = Instant::now();
    let alloc = window.close();
    match outcome {
        Ok(qcs_core::RunOutcome::Completed) => {}
        Ok(other) => return Err(format!("run ended early: {other:?}")),
        Err(e) => return Err(format!("run: {e}")),
    }
    let run = tracer.record("run", None, run_start, run_end);
    tracer.record("schedule.build", Some(run), run_start, built);
    let observed = tracer.record("engine.run_schedule_observed", Some(run), built, run_end);
    for &(start, end) in &item_times {
        tracer.record("engine.item", Some(observed), start, end);
    }
    Ok((
        (run_end - run_start).as_secs_f64(),
        Traced {
            build_s: (built - run_start).as_secs_f64(),
            items: item_times
                .iter()
                .map(|(s, e)| (*e - *s).as_secs_f64())
                .collect(),
            alloc,
            gates: circuit.gate_count(),
        },
    ))
}

/// The benchmark's result: printed as a table, then as one JSON line.
struct Output {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Output {
    /// Fails on a value that is not a finite number, which the JSON line
    /// could not carry.
    fn new(
        b: &Bench,
        table: &[(&'static str, &'static str)],
        mut values: BTreeMap<&str, f64>,
    ) -> Result<Self, String> {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .remove(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                if value.is_finite() {
                    Ok((name, value, unit))
                } else {
                    Err(format!("metric {name} is {value}, not a finite number"))
                }
            })
            .collect::<Result<_, _>>()?;
        assert!(values.is_empty(), "unlisted metrics {:?}", values.keys());
        Ok(Self {
            attempted: b.attempted,
            failed: b.failed,
            metrics,
            notes: Vec::new(),
        })
    }

    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("machine: nproc={nproc} cpu={cpu}")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const MIB: f64 = (1u64 << 20) as f64;

fn bench(args: &Args) -> Result<Output, String> {
    let mut b = Bench::new(args.workload, args.seed)?;
    let mut first = First::default();
    // The first run also reads peak RSS, builds the dense reference and
    // makes the checkpoint round trip, so the measuring window opens after
    // it. Then rounds start until the next one would end past `--seconds`.
    let mut runs = vec![b
        .run(0, false, Some(&mut first))
        .ok_or("the first run failed; see the errors above")?];
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();
    let mut traced_runs = Vec::new();
    for round in 1.. {
        let round_start = Instant::now();
        if args.trace {
            // Alternate which run of the pair goes first, so that
            // `trace.overhead` carries no order effect.
            let traced_first = round % 2 == 1;
            if traced_first {
                traced_runs.extend(b.run(round, true, None));
            }
            runs.extend(b.run(round, false, None));
            if !traced_first {
                traced_runs.extend(b.run(round, true, None));
            }
        } else {
            runs.extend(b.run(round, false, None));
            let slice = Instant::now();
            for _ in 0..SETUP_SLICE_REPS {
                if slice.elapsed() >= SETUP_SLICE {
                    break;
                }
                setups.push(b.time_setup()?);
            }
        }
        if start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    let in_process = if args.trace && b.workload == Workload::GroverSpillRemote {
        Some(
            b.counted(Bench::run_in_process_checked)
                .ok_or("the in-process run failed; see the errors above")?,
        )
    } else {
        None
    };
    let _ = std::fs::remove_dir(&b.spill_dir);
    if args.trace && traced_runs.is_empty() {
        return Err("no traced run completed; see the errors above".into());
    }
    let run_s: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    let mut notes = vec![
        machine(),
        format!(
            "workload={} seed={} qubits={} gates={} untraced runs={} traced runs={}",
            b.workload.name(),
            b.seed,
            b.num_qubits,
            b.circuit.gate_count(),
            runs.len(),
            traced_runs.len()
        ),
    ];
    if !args.trace {
        notes.push(format!(
            "setup_s: {} timed set-ups",
            setups.len() + runs.len()
        ));
    }
    notes.push(tail_note(&run_s));
    notes.push(format!("run_s samples: {run_s:.3?}"));
    notes.extend(b.failures.iter().map(|f| format!("failed: {f}")));

    let mut values = BTreeMap::new();
    if !args.trace {
        let med = |f: &dyn Fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        setups.extend(runs.iter().map(|r| r.setup_s));
        values.insert("setup_s", median(&setups));
        values.insert("run_s", median(&run_s));
        values.insert("cpu_s", med(&|r| r.cpu_s));
        values.insert("peak_rss_mib", first.peak_rss_mib);
        values.insert(
            "mem_reduction",
            med(&|r| r.report.uncompressed_bytes as f64 / r.report.peak_memory_bytes as f64),
        );
        values.insert("fidelity", med(&|r| r.fidelity));
        values.insert("fidelity_bound", med(&|r| r.report.fidelity_lower_bound));
        values.insert("pass_share", 1.0 - b.failed as f64 / b.attempted as f64);
        let mut out = Output::new(&b, &END_TO_END, values)?;
        out.notes = notes;
        return Ok(out);
    }

    let cfg = b.workload.config(b.num_qubits, &b.spill_dir);
    let block_f64s = 2usize << cfg.block_log2;
    // Per-run values come from the first traced run, whose circuit the
    // seed fixes, so the exact counts repeat for a seed.
    let first_traced = &traced_runs[0];
    values.extend(layer_values(first_traced, &cfg.ladder, block_f64s));
    if let Some(report) = &in_process {
        let (hits, misses) = (report.cache_hits as f64, report.cache_misses as f64);
        values.insert("cache.hits", hits);
        values.insert("cache.misses", misses);
        values.insert("cache.hit_rate", ratio(hits, hits + misses));
        notes.push(
            "cache.*: from one in-process run of the same circuit; \
             the daemon-hosted ranks do not report their caches"
                .into(),
        );
    }
    let items: Vec<f64> = traced_runs
        .iter()
        .flat_map(|r| r.traced.as_ref().expect("traced run").items.iter().copied())
        .collect();
    values.insert("engine.wave_p50_ms", quantile(&items, 0.50) * 1e3);
    values.insert("engine.wave_p99_ms", quantile(&items, 0.99) * 1e3);
    notes.push(format!(
        "engine.wave_*: {} schedule items pooled over traced runs",
        items.len()
    ));

    let codec = layers::replay_codecs(
        &mut b.tracer,
        &b.final_state,
        block_f64s,
        first_traced.report.current_bound,
    )?;
    values.insert("codec.lz77_us", codec.lz77_us);
    values.insert("codec.huffman_us", codec.huffman_us);
    values.insert("codec.qzstd_compress_us", codec.qzstd_compress_us);
    values.insert("codec.qzstd_decompress_us", codec.qzstd_decompress_us);
    values.insert("codec.qzstd_ratio", codec.qzstd_ratio);
    values.insert("codec.solc_compress_us", codec.solc_compress_us);
    values.insert("codec.solc_decompress_us", codec.solc_decompress_us);
    values.insert("codec.solc_ratio", codec.solc_ratio);

    let payload = ratio(
        first_traced.report.bytes_exchanged as f64,
        first_traced.report.exchanges as f64,
    ) as usize;
    values.insert(
        "wire.frame_rtt_us",
        layers::frame_rtt_us(&mut b.tracer, payload, WIRE_TRIPS)?,
    );
    notes.push(format!("wire.frame_rtt_us: {payload}-byte frames"));

    values.insert("statevec.dense_s", median(&b.dense_s));
    let ckpt = first
        .checkpoint
        .as_ref()
        .expect("first run made the checkpoint trip");
    values.insert("checkpoint.save_s", ckpt.save_s);
    values.insert("checkpoint.load_s", ckpt.load_s);
    values.insert("checkpoint.mib", ckpt.mib);
    let traced_s: Vec<f64> = traced_runs.iter().map(|r| r.run_s).collect();
    // Against the untraced runs of the same rounds, not the first run.
    values.insert(
        "trace.overhead",
        median(&traced_s) / median(&run_s[1..]) - 1.0,
    );

    let trace_path =
        Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", b.workload.name(), b.seed));
    b.tracer
        .write(&trace_path)
        .map_err(|e| format!("write {trace_path:?}: {e}"))?;
    notes.push(format!("spans: {}", trace_path.display()));
    let mut out = Output::new(&b, &PER_LAYER, values)?;
    out.notes = notes;
    Ok(out)
}

/// The run-time tail: the highest percentile with at least ten samples
/// beyond it, when there are enough samples for one.
fn tail_note(run_s: &[f64]) -> String {
    let n = run_s.len();
    if n < 11 {
        return format!("run_s: {n} samples, too few for a tail percentile (needs 11)");
    }
    let mut v = run_s.to_vec();
    v.sort_by(f64::total_cmp);
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    format!("run_s: p{pct:.0} = {} s over {n} samples", v[n - 11])
}

/// Per-layer values of one traced run, from the program's own report and
/// the spans around it.
fn layer_values(
    run: &Run,
    ladder: &[qcs_compress::ErrorBound],
    block_f64s: usize,
) -> BTreeMap<&'static str, f64> {
    let r = &run.report;
    let bd = &r.breakdown;
    let t = run.traced.as_ref().expect("traced run");
    let touches = bd.block_touches as f64;
    let mut v = BTreeMap::new();
    v.insert("schedule.build_ms", t.build_s * 1e3);
    v.insert("schedule.items", t.items.len() as f64);
    v.insert(
        "schedule.gates_per_item",
        ratio(t.gates as f64, t.items.len() as f64),
    );
    v.insert("engine.escalations", r.escalations as f64);
    let rung = ladder.iter().position(|b| *b == r.current_bound);
    v.insert("engine.final_rung", rung.map_or(f64::NAN, |i| i as f64));
    v.insert("engine.block_touches", touches);
    v.insert(
        "engine.gates_per_touch",
        ratio(bd.batched_gate_applications as f64, touches),
    );
    v.insert("compress.thread_s", bd.compression.as_secs_f64());
    v.insert("decompress.thread_s", bd.decompression.as_secs_f64());
    v.insert("kernel.thread_s", bd.computation.as_secs_f64());
    // Computed, not measured: every gate application reads and writes the
    // whole decompressed block once.
    v.insert(
        "kernel.bytes_moved",
        bd.batched_gate_applications as f64 * 2.0 * 8.0 * block_f64s as f64,
    );
    let (hits, misses) = (r.cache_hits as f64, r.cache_misses as f64);
    v.insert("cache.hits", hits);
    v.insert("cache.misses", misses);
    v.insert("cache.hit_rate", ratio(hits, hits + misses));
    v.insert("store.spills", r.spills as f64);
    v.insert("store.fetches", r.fetches as f64);
    v.insert("store.spill_mib", r.spill_bytes as f64 / MIB);
    v.insert("store.fetch_mib", r.fetch_bytes as f64 / MIB);
    v.insert(
        "store.io_thread_s",
        (bd.spill_io + bd.prefetch + bd.write_behind).as_secs_f64(),
    );
    v.insert("store.prefetch_hit_rate", r.prefetch_hit_rate());
    v.insert("store.fetches_per_touch", ratio(r.fetches as f64, touches));
    v.insert("partial.decodes", r.partial_decodes as f64);
    v.insert(
        "partial.segment_share",
        ratio(r.segments_decoded as f64, r.segments_full as f64),
    );
    v.insert("exchange.count", r.exchanges as f64);
    v.insert("exchange.mib", r.bytes_exchanged as f64 / MIB);
    v.insert("exchange.thread_s", bd.communication.as_secs_f64());
    v.insert("alloc.count", t.alloc.count as f64);
    v.insert("alloc.bytes", t.alloc.bytes as f64);
    v.insert("alloc.per_touch", ratio(t.alloc.count as f64, touches));
    let spanned = t.build_s + t.items.iter().sum::<f64>();
    v.insert("trace.gap_share", 1.0 - spanned / run.run_s);
    v
}
