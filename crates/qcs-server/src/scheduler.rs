//! The multi-tenant job scheduler: a deterministic, thread-free state
//! machine the daemon drives from its session and runner threads.
//!
//! All policy lives here — admission against the global memory budget,
//! FIFO-within-priority ordering, preemptive suspend of the
//! lowest-priority running job — and none of the mechanism (threads,
//! sockets, simulators). Every entry point is an explicit event
//! (`submit`, `cancel`, `running_ended`, `suspended`, …) that mutates
//! the job table and returns the [`SchedAction`]s the caller must carry
//! out. That makes the scheduler directly unit-testable under virtual
//! time (see [`VirtualClock`]) with zero sleeps or races: the tests in
//! this module drive the exact same code the live daemon runs.
//!
//! ## Admission control
//!
//! Each job's memory footprint is a *carve-out* computed from its
//! normalized config by [`carve_bytes`] — an Eq. 8-style upper bound on
//! the bytes its resident compressed blocks, staging/dirty buffers, and
//! scratch can occupy. The invariant (asserted by the harness over the
//! recorded [`AdmissionEvent`] log) is that the sum of carve-outs of
//! admitted-but-not-ended jobs never exceeds the budget at any admission
//! event. Queued jobs are considered strictly in (priority desc,
//! submission seq) order with **no backfilling**: a job never overtakes
//! an equal-priority job submitted before it, so starts are FIFO within
//! a priority level.
//!
//! When the head waiter has strictly higher priority than some running
//! job and the free budget cannot fit it, the scheduler requests a
//! checkpoint-v2 suspend of the lowest-priority running job; the
//! suspended job releases its carve-out and rejoins the wait set (at its
//! original submission seq, so it resumes ahead of later equal-priority
//! arrivals).

use crate::protocol::{AdmissionEvent, JobId, JobState, JobSummary};
use qcs_core::SimConfig;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Time source for scheduler timestamps. The daemon uses [`WallClock`];
/// tests use [`VirtualClock`] so queue ordering and timing fields are
/// fully deterministic.
pub trait Clock: Send + Sync {
    /// Milliseconds since the clock's epoch (daemon start, for
    /// [`WallClock`]).
    fn now_ms(&self) -> u64;
}

/// Real time, measured from construction.
#[derive(Debug)]
pub struct WallClock(std::time::Instant);

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Self(std::time::Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        self.0.elapsed().as_millis() as u64
    }
}

/// The test shim: virtual time that only moves when a test calls
/// [`VirtualClock::advance`]. Shared freely across threads.
#[derive(Debug, Default)]
pub struct VirtualClock(AtomicU64);

impl VirtualClock {
    /// A clock at t = 0 ms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move time forward by `ms`.
    pub fn advance(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// `2^log2`, saturated to `u64::MAX` once it leaves u64 range. Plain
/// `<<` would panic (debug) or silently truncate (release) on hostile
/// wire exponents; saturation instead yields a footprint no budget can
/// admit, so oversized configs are rejected rather than under-charged.
fn pow2_or_max(log2: u64) -> u64 {
    if log2 >= u64::BITS as u64 {
        u64::MAX
    } else {
        1u64 << log2
    }
}

/// Compute a job's admission carve-out in bytes from its **normalized**
/// config (spill always set by the server): an upper bound in the spirit
/// of Eq. 8. Per rank, the resident compressed blocks — plus one
/// prefetch staging buffer's worth and, with write-behind on, one dirty
/// buffer's worth, both bounded by the residency budget — plus two
/// uncompressed scratch blocks; compressed blocks are bounded above by
/// their uncompressed size. Every step saturates, so un-admittable
/// configs (`SimConfig::validate` enforces the real bounds upstream)
/// produce a `u64::MAX`-ish carve instead of arithmetic panics or
/// wrapped-around tiny values.
pub fn carve_bytes(cfg: &SimConfig, num_qubits: u32) -> u64 {
    let block_bytes = pow2_or_max(4 + cfg.block_log2 as u64); // 16 bytes per amplitude
    let ranks = pow2_or_max(cfg.ranks_log2 as u64);
    let blocks_per_rank = pow2_or_max(
        (num_qubits as u64)
            .saturating_sub(cfg.block_log2 as u64 + cfg.ranks_log2 as u64)
            .max(1),
    );
    let (resident, buffers) = match &cfg.spill {
        Some(spill) => {
            let resident = (spill.resident_blocks as u64).min(blocks_per_rank);
            let buffers = 2 + spill.write_behind as u64;
            (resident, buffers)
        }
        None => (blocks_per_rank, 1),
    };
    ranks.saturating_mul(
        resident
            .saturating_mul(buffers)
            .saturating_mul(block_bytes)
            .saturating_add(block_bytes.saturating_mul(2)),
    )
}

/// What the daemon must do after a scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedAction {
    /// The job was admitted (budget charged): spawn/resume its runner.
    Start(JobId),
    /// Ask the running job to checkpoint-suspend at its next wave
    /// boundary (set its suspend flag; the runner reports back via
    /// [`Scheduler::suspended`]).
    RequestSuspend(JobId),
    /// Ask the running job to cancel at its next wave boundary (set its
    /// cancel flag; the runner reports back via
    /// [`Scheduler::running_ended`]).
    RequestCancel(JobId),
}

/// Scheduler policy knobs.
#[derive(Debug, Clone)]
pub struct SchedPolicy {
    /// Global memory budget in bytes; the sum of admitted carve-outs
    /// never exceeds it.
    pub budget_bytes: u64,
    /// Hard cap on concurrently admitted/running jobs.
    pub max_running: usize,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        Self {
            budget_bytes: 256 << 20,
            max_running: usize::MAX,
        }
    }
}

#[derive(Debug)]
struct SchedJob {
    name: String,
    priority: u8,
    carve: u64,
    state: JobState,
    /// Submission order tiebreak inside a priority level. Kept across
    /// suspends so a resumed job keeps its queue position.
    seq: u64,
    /// A cancel was requested while running; don't re-admit.
    cancel_pending: bool,
    /// A suspend was requested and not yet honored.
    suspend_pending: bool,
    submitted_ms: u64,
    ended_ms: Option<u64>,
}

/// The deterministic scheduler state machine. See the module docs for
/// the policy it implements.
#[derive(Debug)]
pub struct Scheduler {
    policy: SchedPolicy,
    jobs: BTreeMap<JobId, SchedJob>,
    next_id: u64,
    next_seq: u64,
    carved: u64,
    admissions: Vec<AdmissionEvent>,
    /// Monotone admission-event counter; keeps `AdmissionEvent::seq`
    /// global even after old entries age out of the bounded log.
    admission_seq: u64,
}

/// Most admission events the scheduler retains (and [`Scheduler::admissions`]
/// returns). A long-lived daemon admits without bound; an unbounded log
/// would be a slow leak — and would travel in full on every Health reply.
pub const MAX_ADMISSION_LOG: usize = 4096;

impl Scheduler {
    /// An empty scheduler under `policy`.
    pub fn new(policy: SchedPolicy) -> Self {
        Self {
            policy,
            jobs: BTreeMap::new(),
            next_id: 1,
            next_seq: 0,
            carved: 0,
            admissions: Vec::new(),
            admission_seq: 0,
        }
    }

    /// Bytes currently carved out by admitted/running jobs.
    pub fn carved_bytes(&self) -> u64 {
        self.carved
    }

    /// The budget cap.
    pub fn budget_bytes(&self) -> u64 {
        self.policy.budget_bytes
    }

    /// The admission log: the most recent [`MAX_ADMISSION_LOG`] events,
    /// in order. `seq` stays globally monotone across aged-out entries.
    pub fn admissions(&self) -> &[AdmissionEvent] {
        &self.admissions
    }

    /// A job's current state, if known.
    pub fn state(&self, job: JobId) -> Option<JobState> {
        self.jobs.get(&job).map(|j| j.state)
    }

    /// Management view: every job in submission order.
    pub fn summaries(&self) -> Vec<JobSummary> {
        let mut rows: Vec<_> = self.jobs.iter().collect();
        rows.sort_by_key(|(_, j)| j.seq);
        rows.into_iter()
            .map(|(id, j)| JobSummary {
                job: *id,
                name: j.name.clone(),
                priority: j.priority,
                state: j.state,
                carve_bytes: j.carve,
            })
            .collect()
    }

    /// Submit a job. Returns its id and the actions to carry out, or an
    /// error when the job could never be admitted (carve-out larger than
    /// the whole budget).
    pub fn submit(
        &mut self,
        name: &str,
        priority: u8,
        carve: u64,
        now_ms: u64,
    ) -> Result<(JobId, Vec<SchedAction>), String> {
        if carve > self.policy.budget_bytes {
            return Err(format!(
                "job carve-out of {carve} bytes exceeds the server budget of {} bytes",
                self.policy.budget_bytes
            ));
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.jobs.insert(
            id,
            SchedJob {
                name: name.to_string(),
                priority,
                carve,
                state: JobState::Queued,
                seq,
                cancel_pending: false,
                suspend_pending: false,
                submitted_ms: now_ms,
                ended_ms: None,
            },
        );
        Ok((id, self.admit(now_ms)))
    }

    /// Cancel a job. Waiting jobs become `Cancelled` immediately (which
    /// may admit others); running jobs get a [`SchedAction::RequestCancel`]
    /// and transition when the runner reports [`Scheduler::running_ended`].
    pub fn cancel(&mut self, job: JobId, now_ms: u64) -> Vec<SchedAction> {
        let Some(j) = self.jobs.get_mut(&job) else {
            return Vec::new();
        };
        match j.state {
            JobState::Queued | JobState::Suspended => {
                j.state = JobState::Cancelled;
                j.ended_ms = Some(now_ms);
                self.admit(now_ms)
            }
            JobState::Admitted | JobState::Running if !j.cancel_pending => {
                j.cancel_pending = true;
                vec![SchedAction::RequestCancel(job)]
            }
            _ => Vec::new(),
        }
    }

    /// The runner actually began executing (Admitted → Running).
    pub fn started(&mut self, job: JobId) {
        if let Some(j) = self.jobs.get_mut(&job) {
            if j.state == JobState::Admitted {
                j.state = JobState::Running;
            }
        }
    }

    /// A running job ended: `Done`, `Failed`, or `Cancelled`. Releases
    /// its carve-out and admits what now fits.
    pub fn running_ended(
        &mut self,
        job: JobId,
        terminal: JobState,
        now_ms: u64,
    ) -> Vec<SchedAction> {
        assert!(
            terminal.is_terminal(),
            "running_ended needs a terminal state"
        );
        let Some(j) = self.jobs.get_mut(&job) else {
            return Vec::new();
        };
        if !matches!(j.state, JobState::Admitted | JobState::Running) {
            return Vec::new();
        }
        j.state = terminal;
        j.ended_ms = Some(now_ms);
        self.carved -= j.carve;
        self.admit(now_ms)
    }

    /// A running job honored a suspend request and checkpointed.
    /// Releases its carve-out; the job rejoins the wait set at its
    /// original submission seq.
    pub fn suspended(&mut self, job: JobId, now_ms: u64) -> Vec<SchedAction> {
        let Some(j) = self.jobs.get_mut(&job) else {
            return Vec::new();
        };
        if !matches!(j.state, JobState::Admitted | JobState::Running) {
            return Vec::new();
        }
        j.state = JobState::Suspended;
        j.suspend_pending = false;
        self.carved -= j.carve;
        self.admit(now_ms)
    }

    /// Milliseconds a job spent from submission to its terminal state
    /// (`None` while active).
    pub fn turnaround_ms(&self, job: JobId) -> Option<u64> {
        let j = self.jobs.get(&job)?;
        Some(j.ended_ms?.saturating_sub(j.submitted_ms))
    }

    /// Admission pass: admit waiting jobs strictly in (priority desc,
    /// seq asc) order while the budget and run cap allow, recording one
    /// [`AdmissionEvent`] per admission; then, if the head waiter is
    /// blocked on budget and outranks a running job, request one
    /// preemptive suspend.
    fn admit(&mut self, _now_ms: u64) -> Vec<SchedAction> {
        let mut actions = Vec::new();
        loop {
            let running = self
                .jobs
                .values()
                .filter(|j| matches!(j.state, JobState::Admitted | JobState::Running))
                .count();
            let Some((&id, head)) = self
                .jobs
                .iter()
                .filter(|(_, j)| matches!(j.state, JobState::Queued | JobState::Suspended))
                .min_by_key(|(_, j)| (std::cmp::Reverse(j.priority), j.seq))
            else {
                break;
            };
            let fits_budget = self.carved + head.carve <= self.policy.budget_bytes;
            if fits_budget && running < self.policy.max_running {
                let j = self.jobs.get_mut(&id).expect("head exists");
                j.state = JobState::Admitted;
                let carve = j.carve;
                self.carved += carve;
                self.admissions.push(AdmissionEvent {
                    seq: self.admission_seq,
                    job: id,
                    carve_bytes: carve,
                    carved_after: self.carved,
                    cap: self.policy.budget_bytes,
                });
                self.admission_seq += 1;
                if self.admissions.len() > MAX_ADMISSION_LOG {
                    // Drop the older half in one move, amortizing the shift.
                    self.admissions.drain(..MAX_ADMISSION_LOG / 2);
                }
                actions.push(SchedAction::Start(id));
                continue;
            }
            // Head-of-line blocks (no backfilling, so FIFO-within-priority
            // holds). If it is blocked on budget and outranks a running
            // job, preempt the weakest runner — unless carve-outs already
            // being suspended will free enough once their runners
            // checkpoint, in which case piling on another victim would
            // only cause needless checkpoint/restore churn.
            if !fits_budget {
                let head_priority = head.priority;
                let head_carve = head.carve;
                let pending_release: u64 = self
                    .jobs
                    .values()
                    .filter(|j| {
                        matches!(j.state, JobState::Admitted | JobState::Running)
                            && j.suspend_pending
                    })
                    .map(|j| j.carve)
                    .sum();
                let frees_enough = self.carved.saturating_sub(pending_release) + head_carve
                    <= self.policy.budget_bytes;
                let victim = if frees_enough {
                    None
                } else {
                    self.jobs
                        .iter()
                        .filter(|(_, j)| {
                            matches!(j.state, JobState::Admitted | JobState::Running)
                                && !j.suspend_pending
                                && !j.cancel_pending
                                && j.priority < head_priority
                        })
                        .min_by_key(|(_, j)| (j.priority, std::cmp::Reverse(j.seq)))
                        .map(|(&id, _)| id)
                };
                if let Some(victim) = victim {
                    self.jobs
                        .get_mut(&victim)
                        .expect("victim exists")
                        .suspend_pending = true;
                    actions.push(SchedAction::RequestSuspend(victim));
                }
            }
            break;
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn sched(budget_mb: u64) -> (Scheduler, VirtualClock) {
        (
            Scheduler::new(SchedPolicy {
                budget_bytes: budget_mb * MB,
                max_running: usize::MAX,
            }),
            VirtualClock::new(),
        )
    }

    fn starts(actions: &[SchedAction]) -> Vec<JobId> {
        actions
            .iter()
            .filter_map(|a| match a {
                SchedAction::Start(id) => Some(*id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn admits_until_budget_then_queues_fifo() {
        let (mut s, clk) = sched(10);
        let (a, act_a) = s.submit("a", 0, 4 * MB, clk.now_ms()).unwrap();
        let (b, act_b) = s.submit("b", 0, 4 * MB, clk.now_ms()).unwrap();
        clk.advance(5);
        let (c, act_c) = s.submit("c", 0, 4 * MB, clk.now_ms()).unwrap();
        let (d, act_d) = s.submit("d", 0, 4 * MB, clk.now_ms()).unwrap();
        assert_eq!(starts(&act_a), vec![a]);
        assert_eq!(starts(&act_b), vec![b]);
        assert!(starts(&act_c).is_empty(), "budget full: c queues");
        assert!(starts(&act_d).is_empty());
        assert_eq!(s.state(c), Some(JobState::Queued));

        // a finishes -> exactly c (not d) starts: FIFO within priority.
        s.started(a);
        let acts = s.running_ended(a, JobState::Done, clk.now_ms());
        assert_eq!(starts(&acts), vec![c]);
        assert_eq!(s.state(d), Some(JobState::Queued));
        clk.advance(7);
        let acts = s.running_ended(b, JobState::Done, clk.now_ms());
        assert_eq!(starts(&acts), vec![d]);
        assert_eq!(s.turnaround_ms(a), Some(5));

        // Budget invariant held at every admission event.
        for ev in s.admissions() {
            assert!(ev.carved_after <= ev.cap, "admission {ev:?} broke the cap");
        }
    }

    #[test]
    fn higher_priority_overtakes_queue_but_not_runners_it_fits_beside() {
        let (mut s, clk) = sched(8);
        let (a, _) = s.submit("a", 0, 4 * MB, 0).unwrap();
        let (_b, _) = s.submit("b", 0, 4 * MB, 0).unwrap();
        let (_c, _) = s.submit("c", 0, 4 * MB, 0).unwrap();
        let (d, acts) = s.submit("d", 5, 4 * MB, 0).unwrap();
        // d outranks the queue but the budget is full and every runner is
        // lower priority -> a preemptive suspend is requested, exactly one.
        assert_eq!(
            acts.iter()
                .filter(|a| matches!(a, SchedAction::RequestSuspend(_)))
                .count(),
            1
        );
        // The weakest (and latest among equal-priority) runner is chosen.
        let victim = match acts[0] {
            SchedAction::RequestSuspend(v) => v,
            _ => panic!("expected suspend request"),
        };
        assert_eq!(victim, _b, "latest equal-priority runner is the victim");

        // The victim checkpoints; d is admitted off the released budget.
        let acts = s.suspended(victim, clk.now_ms());
        assert_eq!(starts(&acts), vec![d]);
        assert_eq!(s.state(victim), Some(JobState::Suspended));

        // d finishes -> the suspended victim resumes before queued c
        // (same priority, earlier seq).
        s.started(d);
        let acts = s.running_ended(d, JobState::Done, clk.now_ms());
        assert_eq!(starts(&acts), vec![victim]);
        assert_eq!(s.state(_c), Some(JobState::Queued));
        let _ = a;
    }

    #[test]
    fn cancel_semantics_per_state() {
        let (mut s, clk) = sched(4);
        let (a, _) = s.submit("a", 0, 4 * MB, 0).unwrap();
        let (b, _) = s.submit("b", 0, 4 * MB, 0).unwrap();
        // b queued: cancel is immediate, no actions for it.
        let acts = s.cancel(b, clk.now_ms());
        assert_eq!(s.state(b), Some(JobState::Cancelled));
        assert!(starts(&acts).is_empty());
        // a running: cancel is a request; state flips when the runner
        // reports back.
        s.started(a);
        let acts = s.cancel(a, clk.now_ms());
        assert_eq!(acts, vec![SchedAction::RequestCancel(a)]);
        assert_eq!(s.state(a), Some(JobState::Running));
        // Duplicate cancel: no duplicate request.
        assert!(s.cancel(a, clk.now_ms()).is_empty());
        let _ = s.running_ended(a, JobState::Cancelled, clk.now_ms());
        assert_eq!(s.state(a), Some(JobState::Cancelled));
        assert_eq!(s.carved_bytes(), 0);
    }

    #[test]
    fn oversized_carve_is_rejected_upfront() {
        let (mut s, _clk) = sched(2);
        let err = s.submit("huge", 0, 3 * MB, 0).unwrap_err();
        assert!(err.contains("exceeds the server budget"));
    }

    #[test]
    fn max_running_caps_concurrency_without_touching_budget() {
        let mut s = Scheduler::new(SchedPolicy {
            budget_bytes: 100 * MB,
            max_running: 1,
        });
        let (a, acts) = s.submit("a", 0, MB, 0).unwrap();
        assert_eq!(starts(&acts), vec![a]);
        let (b, acts) = s.submit("b", 0, MB, 0).unwrap();
        assert!(starts(&acts).is_empty());
        // Run-cap blocking (not budget) must NOT trigger preemption.
        let (_hi, acts) = s.submit("hi", 9, MB, 0).unwrap();
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, SchedAction::RequestSuspend(_))),
            "run-cap blocks must not preempt"
        );
        let acts = s.running_ended(a, JobState::Done, 0);
        // Priority order: hi starts before b.
        assert_eq!(starts(&acts), vec![_hi]);
        let _ = b;
    }

    #[test]
    fn spilled_carve_counts_resident_staging_and_dirty_buffers() {
        // 20 qubits, 2^8-amp blocks (4 KiB), 2 ranks: 2^11 blocks a rank.
        let base = SimConfig::default().with_block_log2(8).with_ranks_log2(1);
        let block = 16u64 << 8;
        let scratch = 2 * block;
        assert_eq!(carve_bytes(&base, 20), 2 * ((1 << 11) * block + scratch));
        // Spilling: the budget of residents plus one staging buffer of
        // the same size, and a dirty buffer with write-behind.
        let spilled = base.clone().with_spill(4);
        assert_eq!(carve_bytes(&spilled, 20), 2 * (4 * 2 * block + scratch));
        let wb = spilled.with_write_behind(true);
        assert_eq!(carve_bytes(&wb, 20), 2 * (4 * 3 * block + scratch));
        // A budget above the rank's block count is clamped to it.
        let roomy = base.with_spill(1 << 20);
        assert_eq!(
            carve_bytes(&roomy, 20),
            2 * ((1 << 11) * 2 * block + scratch)
        );
    }

    #[test]
    fn hostile_configs_saturate_carve_instead_of_panicking() {
        // Shift amounts far past 64 bits: plain `<<` would panic in
        // debug builds and wrap to a tiny under-charged carve in
        // release. Saturation must yield a carve no budget admits.
        let cfg = SimConfig::default();
        let huge = carve_bytes(&cfg, 200);
        assert!(huge > 1 << 62, "oversized state yields an oversized carve");
        let (mut s, _clk) = sched(1 << 20);
        assert!(
            s.submit("hostile", 0, huge, 0).is_err(),
            "saturated carve of {huge} bytes must be rejected, not admitted"
        );
        // Wire-controlled exponents that overflow u32 sums / u64 shifts.
        let evil = SimConfig::default()
            .with_block_log2(u32::MAX)
            .with_ranks_log2(u32::MAX);
        assert_eq!(carve_bytes(&evil, 62), u64::MAX);
        assert!(
            evil.validate(62).is_err(),
            "split check must reject, not panic"
        );
        assert!(
            SimConfig::default()
                .validate(SimConfig::MAX_QUBITS + 1)
                .is_err(),
            "qubit counts above MAX_QUBITS are rejected"
        );
    }

    #[test]
    fn pending_suspend_carve_counts_as_freed_no_extra_victim() {
        let (mut s, clk) = sched(8);
        let (_a, _) = s.submit("a", 0, 4 * MB, 0).unwrap();
        let (b, _) = s.submit("b", 0, 4 * MB, 0).unwrap();
        // First high-priority arrival: exactly one victim requested.
        let (d, acts) = s.submit("d", 5, 4 * MB, 0).unwrap();
        assert_eq!(acts, vec![SchedAction::RequestSuspend(b)]);
        // A second admission event lands before the victim checkpoints:
        // its soon-to-be-freed carve already covers the head waiter, so
        // no additional runner may be suspended.
        let (_e, acts) = s.submit("e", 5, 4 * MB, 0).unwrap();
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, SchedAction::RequestSuspend(_))),
            "pending suspend already frees enough: no churn victim (got {acts:?})"
        );
        // Once the victim actually suspends, the head waiter is admitted.
        let acts = s.suspended(b, clk.now_ms());
        assert_eq!(starts(&acts), vec![d]);
    }

    #[test]
    fn admission_log_is_bounded_with_monotone_seq() {
        let (mut s, _clk) = sched(100);
        let total = MAX_ADMISSION_LOG + 100;
        for i in 0..total {
            let (id, acts) = s.submit("tiny", 0, MB, i as u64).unwrap();
            assert_eq!(starts(&acts), vec![id]);
            s.started(id);
            let _ = s.running_ended(id, JobState::Done, i as u64);
        }
        let log = s.admissions();
        assert!(log.len() <= MAX_ADMISSION_LOG, "log stays bounded");
        assert_eq!(
            log.last().unwrap().seq,
            total as u64 - 1,
            "seq stays global"
        );
        assert!(
            log.windows(2).all(|w| w[1].seq == w[0].seq + 1),
            "retained suffix is contiguous"
        );
    }

    #[test]
    fn summaries_and_carved_bytes_track_lifecycle() {
        let (mut s, _clk) = sched(10);
        let (a, _) = s.submit("a", 2, 6 * MB, 0).unwrap();
        let (_b, _) = s.submit("b", 1, 6 * MB, 0).unwrap();
        assert_eq!(s.carved_bytes(), 6 * MB);
        let rows = s.summaries();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].job, a);
        assert_eq!(rows[0].state, JobState::Admitted);
        assert_eq!(rows[1].state, JobState::Queued);
    }
}
