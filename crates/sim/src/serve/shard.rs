//! One shard of the live service: its platform, its free slots and its
//! clock, and every step that reads or changes them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Writer};

use slotsel_batch::{BatchSchedule, BatchScheduler};
use slotsel_core::node::{NodeId, Platform};
use slotsel_core::request::Job;
use slotsel_core::slot::{Slot, SlotId};
use slotsel_core::slotlist::{SlotList, SlotStoreKind};
use slotsel_core::time::{Interval, TimeDelta, TimePoint};
use slotsel_core::window::Window;
use slotsel_env::EnvironmentConfig;
use slotsel_obs::{Obs, SpanSink};

use super::LiveConfig;
use crate::journal::RecoverError;

/// One shard's persistent platform state.
///
/// It serializes without its platform, which the journal header's config
/// regenerates, and with each free slot as an `[id, node, start, end]`
/// row, its performance and price being its node's:
/// `{"slots":[[id,node,start,end],…],"next_id":N,"now":T,"horizon":H,
/// "platform_digest":D}`, `D` the [`Platform::digest`] the rows belong to.
/// Only [`recover_live`](super::recover_live) reads that shape back,
/// binding the rows to the platform it regenerates.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ShardState {
    /// The shard's nodes.
    pub platform: Platform,
    /// Its current free slots.
    pub slots: SlotList,
    /// Its virtual clock.
    pub now: TimePoint,
    /// How far free time has been generated/extended.
    pub horizon: TimePoint,
}

impl ShardState {
    /// Shard `index` of a fresh service on `config`: its platform and
    /// initial non-dedicated slot fragmentation are generated from
    /// `config.seed + index`, exactly as the paper's environment model.
    pub(super) fn generate(config: &LiveConfig, index: u32) -> Self {
        let env_config = EnvironmentConfig {
            interval_length: config.interval_length,
            ..EnvironmentConfig::with_node_count(config.nodes_per_shard)
        };
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(u64::from(index)));
        let (platform, slots) = env_config.generate(&mut rng).into_platform_and_slots();
        ShardState {
            platform,
            slots,
            now: TimePoint::ZERO,
            horizon: TimePoint::new(config.interval_length),
        }
    }

    /// Runs the two-phase schedule of `jobs` on this shard's platform and
    /// free slots, a pure function of the three, under a `"serve.shard"`
    /// span on `spans`. The scheduler reports to no recorder or metrics
    /// sink.
    pub(super) fn schedule(
        &self,
        index: u32,
        scheduler: &BatchScheduler,
        jobs: &[Job],
        spans: &mut dyn SpanSink,
    ) -> BatchSchedule {
        let mut obs = Obs::dark().with_spans(spans);
        let phase = obs.phase("serve.shard");
        obs.spans.attr_u64("shard", u64::from(index));
        obs.spans.attr_u64("jobs", jobs.len() as u64);
        let schedule = scheduler.schedule_observed(&self.platform, &self.slots, jobs, &mut obs);
        phase.end(&mut obs, None);
        schedule
    }

    /// Cuts a committed window's reservations out of the free slots.
    ///
    /// The window was found on this same list (possibly after earlier
    /// commits this cycle split some slots under fresh ids), so
    /// reservations are re-resolved **by node and time**, not by the
    /// window's recorded slot ids: for each window slot, the free slot
    /// currently covering the task's span on that node hosts the cut,
    /// clamped to the slot's end exactly as `csa::apply_cut` clamps
    /// rectangular reservations. Returns `false` — leaving the list
    /// unchanged — when any span is no longer free (the caller then defers
    /// the job instead of committing it).
    pub(super) fn reserve(&mut self, window: &Window) -> bool {
        let runtime = window.runtime();
        let mut reservations = Vec::with_capacity(window.size());
        for task in window.slots() {
            let task_span = Interval::with_length(window.start(), task.length());
            // An indexed lookup on the tree store; a linear scan on the Vec.
            let Some(slot) = self.slots.find_covering(task.node(), task_span) else {
                return false;
            };
            let end = (window.start() + runtime).earliest(slot.end());
            reservations.push((slot.id(), Interval::new(window.start(), end)));
        }
        self.slots.cut(&reservations, TimeDelta::ZERO).is_ok()
    }

    /// Advances the clock by `by` and, with `slots`, the free slots. Nodes
    /// are free beyond the generated non-dedicated interval: each node's
    /// free time grows by `by` past the horizon, and free time that
    /// slipped into the past is trimmed, in one pass.
    pub(super) fn advance(&mut self, by: TimeDelta, slots: bool) {
        let grown = Interval::new(self.horizon, self.horizon + by);
        self.horizon += by;
        self.now += by;
        if slots {
            self.slots.advance_horizon(&self.platform, grown, self.now);
        }
    }

    /// Checks the replayed free slots of shard `index` against a barrier's
    /// [`SlotList::digest`] of them.
    pub(super) fn check_digest(&self, index: usize, want: u64) -> Result<(), String> {
        let got = self.slots.digest();
        if got == want {
            return Ok(());
        }
        Err(format!(
            "shard {index}'s replayed free slots digest to {got:#018x}, \
             the barrier says {want:#018x}"
        ))
    }
}

impl Serialize for ShardState {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.key("slots");
        out.begin_array();
        for slot in self.slots.iter() {
            out.begin_array();
            out.u64(slot.id().0);
            out.u64(u64::from(slot.node().0));
            out.i64(slot.start().ticks());
            out.i64(slot.end().ticks());
            out.end_array();
        }
        out.end_array();
        out.field("next_id", &self.slots.next_id());
        out.field("now", &self.now);
        out.field("horizon", &self.horizon);
        out.field("platform_digest", &self.platform.digest());
        out.end_object();
    }
}

/// A snapshot shard's free slots as `(id, node, start, end)` rows, with
/// the counters they need and the [`Platform::digest`] of the platform
/// they were written against.
#[derive(Deserialize)]
pub(super) struct ShardRows {
    slots: Vec<(SlotId, NodeId, TimePoint, TimePoint)>,
    next_id: SlotId,
    now: TimePoint,
    horizon: TimePoint,
    platform_digest: u64,
}

impl ShardRows {
    /// The shard `index` of a recovered service whose regenerated platform
    /// is `platform`, on the tree store the live cycle runs on. The rows
    /// must have been written against this platform (equal digests); each
    /// takes its performance and price from its node.
    pub(super) fn bind(self, index: u32, platform: Platform) -> Result<ShardState, RecoverError> {
        let regenerated = platform.digest();
        if self.platform_digest != regenerated {
            return Err(RecoverError::PlatformMismatch {
                shard: index,
                snapshot: self.platform_digest,
                regenerated,
            });
        }
        let mut slots = Vec::with_capacity(self.slots.len());
        for (id, node, start, end) in self.slots {
            let Some(spec) = platform.get(node) else {
                return Err(RecoverError::UnknownNode {
                    shard: index,
                    slot: id.0,
                    node: node.0,
                });
            };
            let sorted = slots
                .last()
                .is_none_or(|last: &Slot| (last.start(), last.id()) < (start, id));
            if end < start || id >= self.next_id || !sorted {
                return Err(RecoverError::SnapshotDecode {
                    message: format!(
                        "shard {index}: slot {id} is out of order, ends before it \
                         starts or is not below next id {}",
                        self.next_id
                    ),
                });
            }
            slots.push(Slot::new(
                id,
                node,
                Interval::new(start, end),
                spec.performance(),
                spec.price_per_unit(),
            ));
        }
        Ok(ShardState {
            platform,
            slots: SlotList::from_parts(SlotStoreKind::Tree, slots, self.next_id),
            now: self.now,
            horizon: self.horizon,
        })
    }
}
