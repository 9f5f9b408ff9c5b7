//! The scheduler interface the simulator drives.

use crate::core_index::{CoreIndex, CoreSet};
use crate::job::{Job, JobExecution};
use std::fmt;

/// Identifies one core of the simulated system (0-based).
///
/// In the paper's Figure 1 architecture, `CoreId(0)`–`CoreId(3)` are
/// Core 1–Core 4; `CoreId(3)` is the primary profiling core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0 + 1)
    }
}

/// Snapshot of one core's occupancy handed to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreView {
    /// Which core this describes.
    pub id: CoreId,
    /// The job currently executing, with its start and end cycles, or
    /// `None` when idle.
    pub busy: Option<BusyInfo>,
    /// `false` while an injected fault holds the core offline. Offline
    /// cores are always vacant (any in-flight job is evicted first),
    /// accept no placements, and burn no leakage.
    pub online: bool,
}

/// Occupancy details of a busy core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInfo {
    /// The executing job.
    pub job: Job,
    /// Cycle at which execution started.
    pub started: u64,
    /// Cycle at which the core becomes idle.
    pub busy_until: u64,
}

impl CoreView {
    /// `true` when the core is available for a placement: vacant *and*
    /// online. Policies that pick cores through this predicate migrate
    /// around outages for free.
    pub fn is_idle(&self) -> bool {
        self.busy.is_none() && self.online
    }
}

/// A scheduling decision for the job under consideration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Execute on `core` (which must be idle) with the given cost.
    Run {
        /// Target core.
        core: CoreId,
        /// Execution cost the simulator will account.
        execution: JobExecution,
    },
    /// Leave the job queued; it returns to the back of the ready queue and
    /// is reconsidered at the next scheduler invocation.
    Stall,
}

impl Decision {
    /// Convenience constructor for [`Decision::Run`].
    pub fn run(core: CoreId, execution: JobExecution) -> Self {
        Decision::Run { core, execution }
    }
}

/// A scheduling policy.
///
/// The simulator invokes [`schedule`] for queued jobs whenever a benchmark
/// arrives or a core becomes idle (the paper's invocation rule), passing
/// the indexed occupancy of all cores. Implementations decide to run the
/// job on an idle core or stall it; idle-core searches should go through
/// the [`CoreIndex`] mask queries (`first_idle`, `first_idle_in`,
/// `idle_cores`) so they stay sublinear in core count.
///
/// A policy that stalls a job *for* particular cores can say so through
/// [`waits_for`]: the simulator then stops offering the job while none of
/// those cores is idle, accounting each skipped offer as the `Stall` the
/// policy promised (see the method for the exact promise).
///
/// [`schedule`]: Scheduler::schedule
/// [`waits_for`]: Scheduler::waits_for
pub trait Scheduler {
    /// Decide what to do with `job` given the current core occupancy.
    ///
    /// Returning [`Decision::Run`] on a busy core is a policy bug; the
    /// simulator panics to surface it.
    ///
    /// **Contract:** a call that returns [`Decision::Stall`] must leave
    /// the policy's internal state unchanged — the simulator probes
    /// `schedule` with a hypothetical core index when deciding whether a
    /// preemption is worthwhile, and a declined probe must be withdrawable.
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision;

    /// The cores `job` waits for, asked right after
    /// [`schedule`](Scheduler::schedule) stalled it. `Some(set)` is a
    /// **promise**: until `job` is next placed, `schedule(job, cores, now)`
    /// returns [`Decision::Stall`], with no state change, whenever no core
    /// of `set` is idle. The policy may still stall when some core of
    /// `set` is idle; the promise only runs one way. `None`, the default,
    /// promises nothing.
    ///
    /// The simulator interns each promised set as a *wait class* stored
    /// with the queued job. At the start of a scheduling pass and after
    /// each placement it computes which classes have an idle core, then
    /// skips the longest run of blocked jobs in one scan: each counts as a
    /// stall offer and emits its `Stall` event in offer order, and the
    /// FIFO queue rotates them to the back in one step. The run is
    /// bit-identical to offering every job, which is what hiding the
    /// promise (answering `None`) does; `StallPurityChecked` checks that
    /// the promise holds.
    fn waits_for(&self, job: &Job) -> Option<&CoreSet> {
        let _ = job;
        None
    }

    /// Leakage power an *idle* core burns, in nJ/cycle. Depends on the
    /// core's currently-loaded cache configuration, which the policy owns.
    ///
    /// **Contract:** the answer for a core may change only through a
    /// placement on that core or that core's
    /// [`on_complete`](Scheduler::on_complete) /
    /// [`on_preempt`](Scheduler::on_preempt). The simulator relies on it:
    /// it reads each core's answer once at run start and again whenever
    /// the core becomes idle (after `on_complete`, after `on_preempt` on
    /// an eviction or fault, and when the core comes back online), and
    /// charges idle leakage from that cache. `StallPurityChecked` checks
    /// the contract, and `run_reference`, which asks on every advance,
    /// disagrees with a run whose policy breaks it.
    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64;

    /// Called when a job finishes executing, so policies can update
    /// profiling tables with information that physically becomes available
    /// at completion time.
    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        let _ = (job, core, now);
    }

    /// Called when a running job is evicted under the preemptive
    /// discipline (restart semantics): any knowledge the policy expected
    /// to gain from the completed execution must be discarded, because
    /// the execution never finished. The job will be re-offered through
    /// [`schedule`](Scheduler::schedule) later.
    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        let _ = (job, core, now);
    }

    /// A digest of all observable policy state, used to *check* the
    /// stall-purity contract on [`schedule`](Scheduler::schedule): the
    /// `StallPurityChecked` wrapper snapshots this fingerprint before each
    /// call and asserts it is unchanged whenever the call returns
    /// [`Decision::Stall`].
    ///
    /// The default returns `0` (suitable only for stateless policies).
    /// Stateful policies should fold every field that influences future
    /// decisions into the digest; two states that fingerprint differently
    /// must be behaviourally distinguishable, and a state mutation that
    /// leaves the fingerprint unchanged will escape the checker.
    fn state_fingerprint(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_display_is_one_based_like_the_paper() {
        assert_eq!(CoreId(0).to_string(), "core1");
        assert_eq!(CoreId(3).to_string(), "core4");
    }

    #[test]
    fn idle_view_reports_idle() {
        let view = CoreView {
            id: CoreId(0),
            busy: None,
            online: true,
        };
        assert!(view.is_idle());
    }

    #[test]
    fn offline_view_is_never_idle() {
        let view = CoreView {
            id: CoreId(0),
            busy: None,
            online: false,
        };
        assert!(!view.is_idle());
    }
}
