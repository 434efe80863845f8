//! Time-breakdown and communication accounting (paper Table 2 rows:
//! compression / decompression / communication / computation time), plus
//! the out-of-core tier's spill/fetch traffic and I/O time.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Phases instrumented by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Compressing state blocks.
    Compression,
    /// Decompressing state blocks.
    Decompression,
    /// Exchanging blocks between ranks.
    Communication,
    /// Applying gate arithmetic.
    Computation,
    /// Reading/writing spilled blocks on the out-of-core tier, *on the
    /// critical path* (blocking seeks and reads the wave waited for).
    SpillIo,
    /// Background prefetch I/O: spilled frames read by a store's fetch
    /// thread while the compute chunk runs. Time here is off the wave's
    /// critical path — the overlap the prefetch pipeline buys.
    Prefetch,
    /// Background write-behind I/O: evicted frames appended to segment
    /// files by a store's writer thread while the compute chunk runs.
    /// Time here is off the wave's critical path — the overlap the
    /// asynchronous spill tier buys on the eviction side.
    WriteBehind,
}

impl Phase {
    /// All phases in report order.
    pub const ALL: [Phase; 7] = [
        Phase::Compression,
        Phase::Decompression,
        Phase::Communication,
        Phase::Computation,
        Phase::SpillIo,
        Phase::Prefetch,
        Phase::WriteBehind,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Compression => "compression",
            Phase::Decompression => "decompression",
            Phase::Communication => "communication",
            Phase::Computation => "computation",
            Phase::SpillIo => "spill i/o",
            Phase::Prefetch => "prefetch",
            Phase::WriteBehind => "write-behind",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    durations: [Duration; 7],
    comm_bytes: u64,
    exchanges: u64,
    block_touches: u64,
    batched_gate_applications: u64,
    spills: u64,
    fetches: u64,
    spill_bytes: u64,
    fetch_bytes: u64,
    prefetch_hits: u64,
    prefetch_misses: u64,
    blocking_fetch_bytes: u64,
    overlapped_fetch_bytes: u64,
    write_behind_spills: u64,
    write_behind_bytes: u64,
    partial_decodes: u64,
    segments_decoded: u64,
    segments_full: u64,
    segment_bytes_read: u64,
    segment_bytes_full: u64,
}

/// Thread-safe accumulator of per-phase wall time and communication volume.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Inner>>,
}

impl Metrics {
    /// Fresh metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `d` to `phase`.
    pub fn add(&self, phase: Phase, d: Duration) {
        self.inner.lock().durations[phase as usize] += d;
    }

    /// Time a closure, attributing its wall time to `phase`.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Record `bytes` of rank-to-rank traffic.
    pub fn add_comm_bytes(&self, bytes: u64) {
        self.inner.lock().comm_bytes += bytes;
    }

    /// Total bytes exchanged between ranks.
    pub fn comm_bytes(&self) -> u64 {
        self.inner.lock().comm_bytes
    }

    /// Record one inter-rank block-pair exchange (a compressed payload
    /// crossing to the partner rank and its replacement coming back).
    pub fn add_exchange(&self) {
        self.inner.lock().exchanges += 1;
    }

    /// Total inter-rank block-pair exchanges performed.
    pub fn exchanges(&self) -> u64 {
        self.inner.lock().exchanges
    }

    /// Record one block evicted from residency and written to the spill
    /// tier (`bytes` = the frame's on-disk footprint).
    pub fn add_spill(&self, bytes: u64) {
        let mut inner = self.inner.lock();
        inner.spills += 1;
        inner.spill_bytes += bytes;
    }

    /// Record one block read back from the spill tier on the critical
    /// path — the wave blocked, either on its own synchronous read or
    /// waiting for a background read still in flight (`bytes` = the
    /// frame's on-disk footprint). Counted as a prefetch *miss*: an
    /// overlap that finished too late is still a stall.
    pub fn add_fetch_blocking(&self, bytes: u64) {
        let mut inner = self.inner.lock();
        inner.fetches += 1;
        inner.fetch_bytes += bytes;
        inner.prefetch_misses += 1;
        inner.blocking_fetch_bytes += bytes;
    }

    /// Record one block read back from the spill tier that was served
    /// from the prefetch staging buffer — the disk read happened in the
    /// background, overlapped with compute (`bytes` = the frame's
    /// on-disk footprint). Counted as a prefetch *hit*.
    pub fn add_fetch_overlapped(&self, bytes: u64) {
        let mut inner = self.inner.lock();
        inner.fetches += 1;
        inner.fetch_bytes += bytes;
        inner.prefetch_hits += 1;
        inner.overlapped_fetch_bytes += bytes;
    }

    /// Record one block evicted from residency and written to the spill
    /// tier by the background write-behind thread (`bytes` = the frame's
    /// on-disk footprint). Counted as a spill, with the asynchronous
    /// share tracked separately so reports can show how much eviction
    /// traffic left the critical path.
    pub fn add_spill_write_behind(&self, bytes: u64) {
        let mut inner = self.inner.lock();
        inner.spills += 1;
        inner.spill_bytes += bytes;
        inner.write_behind_spills += 1;
        inner.write_behind_bytes += bytes;
    }

    /// Total blocks written to the spill tier.
    pub fn spills(&self) -> u64 {
        self.inner.lock().spills
    }

    /// Total blocks read back from the spill tier.
    pub fn fetches(&self) -> u64 {
        self.inner.lock().fetches
    }

    /// Total bytes written to the spill tier.
    pub fn spill_bytes(&self) -> u64 {
        self.inner.lock().spill_bytes
    }

    /// Total bytes read back from the spill tier.
    pub fn fetch_bytes(&self) -> u64 {
        self.inner.lock().fetch_bytes
    }

    /// Spilled fetches served from the prefetch staging buffer.
    pub fn prefetch_hits(&self) -> u64 {
        self.inner.lock().prefetch_hits
    }

    /// Spilled fetches that blocked on a critical-path disk read.
    pub fn prefetch_misses(&self) -> u64 {
        self.inner.lock().prefetch_misses
    }

    /// Spill-tier bytes read on the critical path.
    pub fn blocking_fetch_bytes(&self) -> u64 {
        self.inner.lock().blocking_fetch_bytes
    }

    /// Spill-tier bytes read in the background, overlapped with compute.
    pub fn overlapped_fetch_bytes(&self) -> u64 {
        self.inner.lock().overlapped_fetch_bytes
    }

    /// Spill-tier blocks written by the background write-behind thread.
    pub fn write_behind_spills(&self) -> u64 {
        self.inner.lock().write_behind_spills
    }

    /// Spill-tier bytes written by the background write-behind thread.
    pub fn write_behind_bytes(&self) -> u64 {
        self.inner.lock().write_behind_bytes
    }

    /// Record one block operation served by the segment-addressable fast
    /// path: it decoded `segments` of the block's `segments_full` segments
    /// and read `bytes` of the `bytes_full` a whole-block decode would
    /// have touched. The `*_full` arguments accumulate the full-decode
    /// *equivalents*, so `segments_decoded / segments_full` (and the byte
    /// ratio) is exactly the fraction of codec/I/O work the partial path
    /// paid relative to routing the same operations through whole-block
    /// decodes.
    pub fn add_partial_decode(
        &self,
        segments: u64,
        segments_full: u64,
        bytes: u64,
        bytes_full: u64,
    ) {
        let mut inner = self.inner.lock();
        inner.partial_decodes += 1;
        inner.segments_decoded += segments;
        inner.segments_full += segments_full;
        inner.segment_bytes_read += bytes;
        inner.segment_bytes_full += bytes_full;
    }

    /// Block operations served by the segment-addressable fast path.
    pub fn partial_decodes(&self) -> u64 {
        self.inner.lock().partial_decodes
    }

    /// Segments actually decoded by partial-path operations.
    pub fn segments_decoded(&self) -> u64 {
        self.inner.lock().segments_decoded
    }

    /// Segments a whole-block decode would have touched for the same
    /// operations.
    pub fn segments_full(&self) -> u64 {
        self.inner.lock().segments_full
    }

    /// Compressed bytes the partial path actually read.
    pub fn segment_bytes_read(&self) -> u64 {
        self.inner.lock().segment_bytes_read
    }

    /// Compressed bytes a whole-block decode would have read for the same
    /// operations.
    pub fn segment_bytes_full(&self) -> u64 {
        self.inner.lock().segment_bytes_full
    }

    /// Record one block-touch (a decompress → compute → recompress cycle of
    /// one work unit) that applied `gates` gate kernels to the scratch.
    ///
    /// With the batch scheduler a touch carries several fused gates; the
    /// gates-per-touch ratio is the amortization factor the scheduler buys.
    pub fn add_block_touch(&self, gates: u64) {
        let mut inner = self.inner.lock();
        inner.block_touches += 1;
        inner.batched_gate_applications += gates;
    }

    /// Total decompress → compute → recompress cycles performed.
    pub fn block_touches(&self) -> u64 {
        self.inner.lock().block_touches
    }

    /// Total gate kernels applied across all block touches.
    pub fn batched_gate_applications(&self) -> u64 {
        self.inner.lock().batched_gate_applications
    }

    /// Average gates applied per block touch (0 when nothing ran). Values
    /// above 1 mean decompress/recompress cycles are being amortized.
    pub fn gates_per_block_touch(&self) -> f64 {
        let inner = self.inner.lock();
        if inner.block_touches == 0 {
            0.0
        } else {
            inner.batched_gate_applications as f64 / inner.block_touches as f64
        }
    }

    /// Accumulated time for a phase.
    pub fn duration(&self, phase: Phase) -> Duration {
        self.inner.lock().durations[phase as usize]
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        let inner = self.inner.lock();
        inner.durations.iter().sum()
    }

    /// Snapshot as a [`TimeBreakdown`].
    pub fn breakdown(&self) -> TimeBreakdown {
        let inner = self.inner.lock();
        TimeBreakdown {
            compression: inner.durations[Phase::Compression as usize],
            decompression: inner.durations[Phase::Decompression as usize],
            communication: inner.durations[Phase::Communication as usize],
            computation: inner.durations[Phase::Computation as usize],
            spill_io: inner.durations[Phase::SpillIo as usize],
            prefetch: inner.durations[Phase::Prefetch as usize],
            write_behind: inner.durations[Phase::WriteBehind as usize],
            comm_bytes: inner.comm_bytes,
            exchanges: inner.exchanges,
            block_touches: inner.block_touches,
            batched_gate_applications: inner.batched_gate_applications,
            spills: inner.spills,
            fetches: inner.fetches,
            spill_bytes: inner.spill_bytes,
            fetch_bytes: inner.fetch_bytes,
            prefetch_hits: inner.prefetch_hits,
            prefetch_misses: inner.prefetch_misses,
            blocking_fetch_bytes: inner.blocking_fetch_bytes,
            overlapped_fetch_bytes: inner.overlapped_fetch_bytes,
            write_behind_spills: inner.write_behind_spills,
            write_behind_bytes: inner.write_behind_bytes,
            partial_decodes: inner.partial_decodes,
            segments_decoded: inner.segments_decoded,
            segments_full: inner.segments_full,
            segment_bytes_read: inner.segment_bytes_read,
            segment_bytes_full: inner.segment_bytes_full,
        }
    }

    /// Streaming seam: the breakdown delta accumulated since `since`,
    /// advancing `since` to the current totals. Calling this once per
    /// wave yields per-wave metric deltas suitable for streaming to a
    /// monitoring client (each snapshot-and-advance is one lock
    /// acquisition, so concurrent recorders never land in two deltas).
    pub fn delta_since(&self, since: &mut TimeBreakdown) -> TimeBreakdown {
        let now = self.breakdown();
        let delta = now.delta(since);
        *since = now;
        delta
    }

    /// Reset all counters.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        *inner = Inner::default();
    }

    /// Fold a remote worker's [`TimeBreakdown`] delta into this
    /// accumulator. A socket transport keeps one `Metrics` per daemon-side
    /// worker and ships `breakdown` *differences* with each response; the
    /// coordinator absorbs them here so `bytes_exchanged`, `comm_ns`, and
    /// the rest of the Table 2 rows flow through a wire hop unchanged.
    pub fn absorb(&self, d: &TimeBreakdown) {
        let mut inner = self.inner.lock();
        inner.durations[Phase::Compression as usize] += d.compression;
        inner.durations[Phase::Decompression as usize] += d.decompression;
        inner.durations[Phase::Communication as usize] += d.communication;
        inner.durations[Phase::Computation as usize] += d.computation;
        inner.durations[Phase::SpillIo as usize] += d.spill_io;
        inner.durations[Phase::Prefetch as usize] += d.prefetch;
        inner.durations[Phase::WriteBehind as usize] += d.write_behind;
        inner.comm_bytes += d.comm_bytes;
        inner.exchanges += d.exchanges;
        inner.block_touches += d.block_touches;
        inner.batched_gate_applications += d.batched_gate_applications;
        inner.spills += d.spills;
        inner.fetches += d.fetches;
        inner.spill_bytes += d.spill_bytes;
        inner.fetch_bytes += d.fetch_bytes;
        inner.prefetch_hits += d.prefetch_hits;
        inner.prefetch_misses += d.prefetch_misses;
        inner.blocking_fetch_bytes += d.blocking_fetch_bytes;
        inner.overlapped_fetch_bytes += d.overlapped_fetch_bytes;
        inner.write_behind_spills += d.write_behind_spills;
        inner.write_behind_bytes += d.write_behind_bytes;
        inner.partial_decodes += d.partial_decodes;
        inner.segments_decoded += d.segments_decoded;
        inner.segments_full += d.segments_full;
        inner.segment_bytes_read += d.segment_bytes_read;
        inner.segment_bytes_full += d.segment_bytes_full;
    }
}

/// Immutable snapshot of the phase timings (Table 2 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Time spent compressing.
    pub compression: Duration,
    /// Time spent decompressing.
    pub decompression: Duration,
    /// Time spent exchanging blocks between ranks.
    pub communication: Duration,
    /// Time spent in gate arithmetic.
    pub computation: Duration,
    /// Time spent reading/writing spilled blocks on the out-of-core
    /// tier's critical path (blocking I/O the waves waited for).
    pub spill_io: Duration,
    /// Time the background prefetch threads spent reading spilled frames
    /// (overlapped with compute — not on any wave's critical path).
    pub prefetch: Duration,
    /// Time the background write-behind threads spent appending evicted
    /// frames (overlapped with compute — not on any wave's critical path).
    pub write_behind: Duration,
    /// Bytes exchanged between ranks.
    pub comm_bytes: u64,
    /// Inter-rank block-pair exchanges performed.
    pub exchanges: u64,
    /// Decompress → compute → recompress cycles performed.
    pub block_touches: u64,
    /// Gate kernels applied across all block touches.
    pub batched_gate_applications: u64,
    /// Blocks written to the spill tier.
    pub spills: u64,
    /// Blocks read back from the spill tier.
    pub fetches: u64,
    /// Bytes written to the spill tier.
    pub spill_bytes: u64,
    /// Bytes read back from the spill tier.
    pub fetch_bytes: u64,
    /// Spilled fetches served from the prefetch staging buffer.
    pub prefetch_hits: u64,
    /// Spilled fetches that blocked on a critical-path disk read.
    pub prefetch_misses: u64,
    /// Spill-tier bytes read on the critical path.
    pub blocking_fetch_bytes: u64,
    /// Spill-tier bytes read in the background, overlapped with compute.
    pub overlapped_fetch_bytes: u64,
    /// Spill-tier blocks written by the background write-behind thread.
    pub write_behind_spills: u64,
    /// Spill-tier bytes written by the background write-behind thread.
    pub write_behind_bytes: u64,
    /// Block operations served by the segment-addressable fast path.
    pub partial_decodes: u64,
    /// Segments actually decoded by partial-path operations.
    pub segments_decoded: u64,
    /// Segments a whole-block decode would have touched for the same
    /// operations.
    pub segments_full: u64,
    /// Compressed bytes the partial path actually read.
    pub segment_bytes_read: u64,
    /// Compressed bytes a whole-block decode would have read for the same
    /// operations.
    pub segment_bytes_full: u64,
}

impl TimeBreakdown {
    /// What happened since `earlier`: the field-wise difference between
    /// two snapshots of the same monotonically growing accumulator
    /// (saturating, so a reset in between degrades to zeros rather than
    /// wrapping). This is the unit a remote worker ships per response —
    /// see [`Metrics::absorb`].
    pub fn delta(&self, earlier: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            compression: self.compression.saturating_sub(earlier.compression),
            decompression: self.decompression.saturating_sub(earlier.decompression),
            communication: self.communication.saturating_sub(earlier.communication),
            computation: self.computation.saturating_sub(earlier.computation),
            spill_io: self.spill_io.saturating_sub(earlier.spill_io),
            prefetch: self.prefetch.saturating_sub(earlier.prefetch),
            write_behind: self.write_behind.saturating_sub(earlier.write_behind),
            comm_bytes: self.comm_bytes.saturating_sub(earlier.comm_bytes),
            exchanges: self.exchanges.saturating_sub(earlier.exchanges),
            block_touches: self.block_touches.saturating_sub(earlier.block_touches),
            batched_gate_applications: self
                .batched_gate_applications
                .saturating_sub(earlier.batched_gate_applications),
            spills: self.spills.saturating_sub(earlier.spills),
            fetches: self.fetches.saturating_sub(earlier.fetches),
            spill_bytes: self.spill_bytes.saturating_sub(earlier.spill_bytes),
            fetch_bytes: self.fetch_bytes.saturating_sub(earlier.fetch_bytes),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            prefetch_misses: self.prefetch_misses.saturating_sub(earlier.prefetch_misses),
            blocking_fetch_bytes: self
                .blocking_fetch_bytes
                .saturating_sub(earlier.blocking_fetch_bytes),
            overlapped_fetch_bytes: self
                .overlapped_fetch_bytes
                .saturating_sub(earlier.overlapped_fetch_bytes),
            write_behind_spills: self
                .write_behind_spills
                .saturating_sub(earlier.write_behind_spills),
            write_behind_bytes: self
                .write_behind_bytes
                .saturating_sub(earlier.write_behind_bytes),
            partial_decodes: self.partial_decodes.saturating_sub(earlier.partial_decodes),
            segments_decoded: self
                .segments_decoded
                .saturating_sub(earlier.segments_decoded),
            segments_full: self.segments_full.saturating_sub(earlier.segments_full),
            segment_bytes_read: self
                .segment_bytes_read
                .saturating_sub(earlier.segment_bytes_read),
            segment_bytes_full: self
                .segment_bytes_full
                .saturating_sub(earlier.segment_bytes_full),
        }
    }

    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.compression
            + self.decompression
            + self.communication
            + self.computation
            + self.spill_io
            + self.prefetch
            + self.write_behind
    }

    /// Communication time in nanoseconds (saturating; the Table 2 row the
    /// repro harness prints directly).
    pub fn comm_ns(&self) -> u64 {
        u64::try_from(self.communication.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spill-tier I/O time in nanoseconds (saturating).
    pub fn spill_io_ns(&self) -> u64 {
        u64::try_from(self.spill_io.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Background prefetch I/O time in nanoseconds (saturating).
    pub fn prefetch_ns(&self) -> u64 {
        u64::try_from(self.prefetch.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Background write-behind I/O time in nanoseconds (saturating).
    pub fn write_behind_ns(&self) -> u64 {
        u64::try_from(self.write_behind.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Fraction of spilled fetches served from the prefetch staging
    /// buffer (0 when nothing was fetched).
    pub fn prefetch_hit_rate(&self) -> f64 {
        let total = self.prefetch_hits + self.prefetch_misses;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }

    /// Average gate kernels per block touch (0 when nothing ran).
    pub fn gates_per_block_touch(&self) -> f64 {
        if self.block_touches == 0 {
            0.0
        } else {
            self.batched_gate_applications as f64 / self.block_touches as f64
        }
    }

    /// Percentage of total for each phase, in [`Phase::ALL`] order.
    /// Returns zeros when nothing was recorded.
    pub fn percentages(&self) -> [f64; 7] {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return [0.0; 7];
        }
        [
            self.compression.as_secs_f64() / total * 100.0,
            self.decompression.as_secs_f64() / total * 100.0,
            self.communication.as_secs_f64() / total * 100.0,
            self.computation.as_secs_f64() / total * 100.0,
            self.spill_io.as_secs_f64() / total * 100.0,
            self.prefetch.as_secs_f64() / total * 100.0,
            self.write_behind.as_secs_f64() / total * 100.0,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase() {
        let m = Metrics::new();
        m.add(Phase::Compression, Duration::from_millis(10));
        m.add(Phase::Compression, Duration::from_millis(5));
        m.add(Phase::Computation, Duration::from_millis(85));
        assert_eq!(m.duration(Phase::Compression), Duration::from_millis(15));
        assert_eq!(m.total(), Duration::from_millis(100));
        let pct = m.breakdown().percentages();
        assert!((pct[0] - 15.0).abs() < 1e-9);
        assert!((pct[3] - 85.0).abs() < 1e-9);
    }

    #[test]
    fn time_closure_attributes_wall_time() {
        let m = Metrics::new();
        let v = m.time(Phase::Decompression, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(m.duration(Phase::Decompression) >= Duration::from_millis(4));
    }

    #[test]
    fn comm_bytes_accumulate() {
        let m = Metrics::new();
        m.add_comm_bytes(1024);
        m.add_comm_bytes(512);
        assert_eq!(m.comm_bytes(), 1536);
    }

    #[test]
    fn reset_clears() {
        let m = Metrics::new();
        m.add(Phase::Computation, Duration::from_millis(1));
        m.add_comm_bytes(9);
        m.reset();
        assert_eq!(m.total(), Duration::ZERO);
        assert_eq!(m.comm_bytes(), 0);
    }

    #[test]
    fn empty_percentages_are_zero() {
        assert_eq!(TimeBreakdown::default().percentages(), [0.0; 7]);
    }

    #[test]
    fn spill_traffic_accumulates_and_resets() {
        let m = Metrics::new();
        m.add_spill(100);
        m.add_spill(40);
        m.add_fetch_blocking(100);
        m.add(Phase::SpillIo, Duration::from_millis(3));
        assert_eq!(m.spills(), 2);
        assert_eq!(m.fetches(), 1);
        assert_eq!(m.spill_bytes(), 140);
        assert_eq!(m.fetch_bytes(), 100);
        let b = m.breakdown();
        assert_eq!(b.spills, 2);
        assert_eq!(b.fetches, 1);
        assert_eq!(b.spill_bytes, 140);
        assert_eq!(b.fetch_bytes, 100);
        assert_eq!(b.spill_io, Duration::from_millis(3));
        assert_eq!(b.spill_io_ns(), 3_000_000);
        assert!(b.percentages()[4] > 99.0, "only spill i/o was recorded");
        m.reset();
        assert_eq!(m.spills(), 0);
        assert_eq!(m.spill_bytes(), 0);
    }

    #[test]
    fn prefetch_accounting_splits_blocking_from_overlapped() {
        let m = Metrics::new();
        m.add_fetch_blocking(100);
        m.add_fetch_overlapped(60);
        m.add_fetch_overlapped(40);
        m.add(Phase::Prefetch, Duration::from_millis(2));
        // Hits and misses partition the fetch total.
        assert_eq!(m.fetches(), 3);
        assert_eq!(m.prefetch_hits(), 2);
        assert_eq!(m.prefetch_misses(), 1);
        assert_eq!(m.fetch_bytes(), 200);
        assert_eq!(m.blocking_fetch_bytes(), 100);
        assert_eq!(m.overlapped_fetch_bytes(), 100);
        let b = m.breakdown();
        assert_eq!(b.prefetch_hits + b.prefetch_misses, b.fetches);
        assert_eq!(
            b.blocking_fetch_bytes + b.overlapped_fetch_bytes,
            b.fetch_bytes
        );
        assert!((b.prefetch_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(b.prefetch, Duration::from_millis(2));
        assert_eq!(b.prefetch_ns(), 2_000_000);
        assert!(b.percentages()[5] > 99.0, "only prefetch i/o was recorded");
        m.reset();
        assert_eq!(m.prefetch_hits(), 0);
        assert_eq!(m.blocking_fetch_bytes(), 0);
        assert_eq!(TimeBreakdown::default().prefetch_hit_rate(), 0.0);
    }

    #[test]
    fn write_behind_accounting_splits_async_spills() {
        let m = Metrics::new();
        m.add_spill(100);
        m.add_spill_write_behind(60);
        m.add_spill_write_behind(40);
        m.add(Phase::WriteBehind, Duration::from_millis(4));
        // Write-behind spills count toward the spill totals, with the
        // asynchronous share tracked separately.
        assert_eq!(m.spills(), 3);
        assert_eq!(m.spill_bytes(), 200);
        assert_eq!(m.write_behind_spills(), 2);
        assert_eq!(m.write_behind_bytes(), 100);
        let b = m.breakdown();
        assert_eq!(b.spills, 3);
        assert_eq!(b.write_behind_spills, 2);
        assert_eq!(b.write_behind_bytes, 100);
        assert_eq!(b.write_behind, Duration::from_millis(4));
        assert_eq!(b.write_behind_ns(), 4_000_000);
        assert!(
            b.percentages()[6] > 99.0,
            "only write-behind i/o was recorded"
        );
        m.reset();
        assert_eq!(m.write_behind_spills(), 0);
        assert_eq!(m.write_behind_bytes(), 0);
    }

    #[test]
    fn partial_decode_accounting_tracks_savings() {
        let m = Metrics::new();
        // Two partial operations: 2 of 8 segments, then 3 of 8.
        m.add_partial_decode(2, 8, 200, 800);
        m.add_partial_decode(3, 8, 300, 800);
        assert_eq!(m.partial_decodes(), 2);
        assert_eq!(m.segments_decoded(), 5);
        assert_eq!(m.segments_full(), 16);
        assert_eq!(m.segment_bytes_read(), 500);
        assert_eq!(m.segment_bytes_full(), 1600);
        let b = m.breakdown();
        assert_eq!(b.partial_decodes, 2);
        assert!(b.segments_decoded < b.segments_full);
        assert!(b.segment_bytes_read < b.segment_bytes_full);
        let delta = b.delta(&TimeBreakdown::default());
        assert_eq!(delta.segments_decoded, 5);
        let other = Metrics::new();
        other.absorb(&delta);
        assert_eq!(other.segment_bytes_full(), 1600);
        m.reset();
        assert_eq!(m.partial_decodes(), 0);
    }

    #[test]
    fn block_touch_accounting_amortizes_gates() {
        let m = Metrics::new();
        assert_eq!(m.gates_per_block_touch(), 0.0);
        m.add_block_touch(1); // unbatched gate: one touch, one kernel
        m.add_block_touch(5); // batched touch: one touch, five kernels
        assert_eq!(m.block_touches(), 2);
        assert_eq!(m.batched_gate_applications(), 6);
        assert!((m.gates_per_block_touch() - 3.0).abs() < 1e-12);
        let b = m.breakdown();
        assert_eq!(b.block_touches, 2);
        assert_eq!(b.batched_gate_applications, 6);
        assert!((b.gates_per_block_touch() - 3.0).abs() < 1e-12);
        m.reset();
        assert_eq!(m.block_touches(), 0);
    }

    #[test]
    fn delta_and_absorb_relay_remote_accounting() {
        // The remote-worker flow: the daemon snapshots before and after a
        // command, ships the delta, the coordinator absorbs it — the
        // coordinator's totals must equal what a local run would record.
        let daemon = Metrics::new();
        daemon.add(Phase::Communication, Duration::from_millis(3));
        daemon.add_comm_bytes(100);
        let before = daemon.breakdown();
        daemon.add(Phase::Communication, Duration::from_millis(7));
        daemon.add(Phase::Computation, Duration::from_millis(2));
        daemon.add_comm_bytes(250);
        daemon.add_exchange();
        daemon.add_fetch_blocking(64);
        let delta = daemon.breakdown().delta(&before);
        assert_eq!(delta.communication, Duration::from_millis(7));
        assert_eq!(delta.comm_bytes, 250);
        assert_eq!(delta.exchanges, 1);
        assert_eq!(delta.fetches, 1);

        let coordinator = Metrics::new();
        coordinator.absorb(&delta);
        coordinator.absorb(&delta);
        let b = coordinator.breakdown();
        assert_eq!(b.communication, Duration::from_millis(14));
        assert_eq!(b.comm_bytes, 500);
        assert_eq!(b.exchanges, 2);
        assert_eq!(b.computation, Duration::from_millis(4));
        assert_eq!(b.blocking_fetch_bytes, 128);
        // A daemon reset between snapshots degrades to zeros, not a wrap.
        daemon.reset();
        let wrapped = daemon.breakdown().delta(&before);
        assert_eq!(wrapped, TimeBreakdown::default());
    }

    #[test]
    fn metrics_shared_across_clones_and_threads() {
        let m = Metrics::new();
        let m2 = m.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mm = m.clone();
                s.spawn(move || {
                    mm.add(Phase::Computation, Duration::from_millis(1));
                    mm.add_comm_bytes(10);
                });
            }
        });
        assert_eq!(m2.duration(Phase::Computation), Duration::from_millis(4));
        assert_eq!(m2.comm_bytes(), 40);
    }
}
