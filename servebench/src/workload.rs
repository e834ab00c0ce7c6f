//! The four serving workloads and their seeded open-loop arrival streams.
//!
//! A workload fixes the daemon's platform and the traffic mix; the seed
//! fixes everything random: arrival times, request shapes and, passed on
//! as the daemon's own `--seed`, its generated platform. The daemon
//! receives nothing else. Arrivals are *open loop*: each request has a due
//! time set in advance, independent of how fast the daemon answers, so a
//! stall delays every request queued behind it and latencies (measured
//! from the due time) show it.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The daemon's cycle pace (`--cycle-ms`) in every workload.
pub const CYCLE_MS: u64 = 50;

/// Each shard's generated non-dedicated interval (`--interval`).
pub const INTERVAL: i64 = 600;

/// Virtual time per cycle (`--cycle-advance`).
pub const CYCLE_ADVANCE: i64 = 60;

/// The tenants submissions are spread over.
pub const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Period of the `GET /healthz` probe every workload sends.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Share of reads that look up one job; the rest list the tenants.
const JOB_READ_SHARE: f64 = 0.9;

/// How submissions arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Submits {
    /// A Poisson stream at this many submits per second.
    Poisson(f64),
    /// Every `every`, `size` submits from one tenant, all due at once.
    Bursts {
        /// Submits per burst.
        size: usize,
        /// Time between bursts.
        every: Duration,
    },
}

/// One traffic mix against one daemon configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name `--workload` selects it by.
    pub name: &'static str,
    /// Daemon shards (`--shards`).
    pub shards: u32,
    /// Nodes per shard (`--nodes`).
    pub nodes: usize,
    /// Inclusive range of requested node counts `n`.
    pub node_range: (usize, usize),
    /// Work volume of every request.
    pub volume: u64,
    /// Budget of every request.
    pub budget: f64,
    /// The submission stream.
    pub submits: Submits,
    /// Poisson rate of read requests (`GET /job/{id}`, `GET /tenants`).
    pub reads_per_s: f64,
    /// SIGKILL and `--recover` the daemon once this many submits are acked.
    pub restart_after_acks: Option<usize>,
}

/// Every workload, in the order a full run executes them.
///
/// - `steady`: the common tenant path. HTTP, admission and the per-submit
///   fsync dominate; scan and MCKP are tiny. It restarts early because
///   recovery cost grows super-linearly with journal size.
/// - `burst`: ensembles of 64 jobs due at one instant make the MCKP phase
///   2 dominate, and acks queue behind long cycles holding the live lock.
///   64 stays far below the batch size whose DP table exhausts memory.
/// - `wide`: two 5000-node shards, so environment generation, scans over
///   large tree-backed slot lists, per-node horizon release and
///   multi-megabyte barriers dominate; admission and MCKP are tiny.
/// - `polling`: reads outnumber submits ten to one on the same accept
///   loop, lock and linear job lookup, so a change that speeds submits at
///   the cost of reads shows here.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        shards: 1,
        nodes: 64,
        node_range: (1, 4),
        volume: 200,
        budget: 1500.0,
        submits: Submits::Poisson(50.0),
        reads_per_s: 30.0,
        restart_after_acks: Some(25),
    },
    Workload {
        name: "burst",
        shards: 1,
        nodes: 64,
        node_range: (1, 4),
        volume: 200,
        budget: 2500.0,
        submits: Submits::Bursts {
            size: 32,
            every: Duration::from_millis(500),
        },
        reads_per_s: 30.0,
        restart_after_acks: None,
    },
    Workload {
        name: "wide",
        shards: 2,
        nodes: 1000,
        node_range: (4, 16),
        volume: 300,
        budget: 20_000.0,
        submits: Submits::Poisson(35.0),
        reads_per_s: 30.0,
        restart_after_acks: None,
    },
    Workload {
        name: "polling",
        shards: 1,
        nodes: 64,
        node_range: (1, 4),
        volume: 200,
        budget: 1500.0,
        submits: Submits::Poisson(35.0),
        reads_per_s: 350.0,
        restart_after_acks: None,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one arrival asks of the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `POST /submit` for `tenant`, requesting `nodes` slots.
    Submit {
        /// The submitting tenant.
        tenant: &'static str,
        /// Requested node count `n`.
        nodes: usize,
    },
    /// `GET /job/{id}` for an earlier job: `pick` in `[0, 1)` selects
    /// uniformly among the jobs acknowledged (or, in the replay, admitted)
    /// before this read is sent.
    ReadJob {
        /// The uniform draw choosing the job.
        pick: f64,
    },
    /// `GET /tenants`.
    ReadTenants,
    /// `GET /healthz`, the accept-loop probe.
    Healthz,
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the load.
    pub due: Duration,
    /// What it asks.
    pub kind: Kind,
}

impl Workload {
    /// The `POST /submit` body of a submit arrival.
    pub fn submit_body(&self, tenant: &str, nodes: usize) -> String {
        format!(
            "{{\"tenant\":\"{tenant}\",\"nodes\":{nodes},\"volume\":{},\"budget\":{}}}",
            self.volume, self.budget
        )
    }

    /// The seeded open-loop schedule for `seconds` of load, sorted by due
    /// time. Submits, reads and probes draw from separate streams, so the
    /// submit stream of a seed does not depend on the read rate.
    pub fn arrivals(&self, seed: u64, seconds: f64) -> Vec<Arrival> {
        let end = Duration::from_secs_f64(seconds);
        let mut arrivals = Vec::new();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EB0_0001);
        let submit = |rng: &mut StdRng| Kind::Submit {
            tenant: TENANTS[rng.gen_range(0..TENANTS.len())],
            nodes: rng.gen_range(self.node_range.0..=self.node_range.1),
        };
        match self.submits {
            Submits::Poisson(rate) => {
                for due in poisson(&mut rng, rate, end) {
                    let kind = submit(&mut rng);
                    arrivals.push(Arrival { due, kind });
                }
            }
            Submits::Bursts { size, every } => {
                // The first burst lands a quarter period in, after the
                // daemon has settled into its cycle pace.
                let mut due = every / 4;
                while due < end {
                    let tenant = TENANTS[rng.gen_range(0..TENANTS.len())];
                    for _ in 0..size {
                        let nodes = rng.gen_range(self.node_range.0..=self.node_range.1);
                        arrivals.push(Arrival {
                            due,
                            kind: Kind::Submit { tenant, nodes },
                        });
                    }
                    due += every;
                }
            }
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EB0_0002);
        for due in poisson(&mut rng, self.reads_per_s, end) {
            let kind = if rng.gen_bool(JOB_READ_SHARE) {
                Kind::ReadJob { pick: rng.gen() }
            } else {
                Kind::ReadTenants
            };
            arrivals.push(Arrival { due, kind });
        }

        let mut due = PROBE_EVERY / 2;
        while due < end {
            arrivals.push(Arrival {
                due,
                kind: Kind::Healthz,
            });
            due += PROBE_EVERY;
        }

        // Stable: equal due times keep their generation order.
        arrivals.sort_by_key(|a| a.due);
        arrivals
    }
}

/// Arrival instants of a Poisson process at `rate` per second in
/// `[0, end)`.
fn poisson(rng: &mut StdRng, rate: f64, end: Duration) -> Vec<Duration> {
    let mut times = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= end.as_secs_f64() {
            return times;
        }
        times.push(Duration::from_secs_f64(t));
    }
}

/// Chooses the job a [`Kind::ReadJob`] reads among `known` candidates.
pub fn pick_index(pick: f64, known: usize) -> Option<usize> {
    (known > 0).then(|| ((pick * known as f64) as usize).min(known - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(arrivals: &[Arrival], matches: impl Fn(&Kind) -> bool) -> usize {
        arrivals.iter().filter(|a| matches(&a.kind)).count()
    }

    #[test]
    fn arrivals_are_a_pure_function_of_the_seed() {
        for workload in &WORKLOADS {
            let a = workload.arrivals(7, 10.0);
            assert_eq!(a, workload.arrivals(7, 10.0), "{}", workload.name);
            assert_ne!(a, workload.arrivals(8, 10.0), "{}", workload.name);
            assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
            assert!(a.iter().all(|x| x.due < Duration::from_secs(10)));
        }
    }

    #[test]
    fn rates_and_shapes_follow_the_workload() {
        let steady = find("steady").unwrap().arrivals(3, 10.0);
        let submits = count(&steady, |k| matches!(k, Kind::Submit { .. }));
        assert!((400..=600).contains(&submits), "{submits} submits at 50/s");
        assert_eq!(count(&steady, |k| *k == Kind::Healthz), 100);
        for arrival in &steady {
            if let Kind::Submit { nodes, tenant } = arrival.kind {
                assert!((1..=4).contains(&nodes));
                assert!(TENANTS.contains(&tenant));
            }
        }

        let polling = find("polling").unwrap().arrivals(3, 10.0);
        let reads = count(&polling, |k| {
            matches!(k, Kind::ReadJob { .. } | Kind::ReadTenants)
        });
        let job_reads = count(&polling, |k| matches!(k, Kind::ReadJob { .. }));
        assert!((3200..=3800).contains(&reads), "{reads} reads at 350/s");
        let share = job_reads as f64 / reads as f64;
        assert!((0.87..0.93).contains(&share), "job-read share {share}");
    }

    #[test]
    fn bursts_share_one_due_time_and_one_tenant() {
        let burst = find("burst").unwrap().arrivals(5, 10.0);
        let submits: Vec<&Arrival> = burst
            .iter()
            .filter(|a| matches!(a.kind, Kind::Submit { .. }))
            .collect();
        assert_eq!(submits.len(), 20 * 32);
        for group in submits.chunks(32) {
            assert!(group.iter().all(|a| a.due == group[0].due));
            let tenant = |a: &Arrival| match a.kind {
                Kind::Submit { tenant, .. } => tenant,
                _ => unreachable!(),
            };
            assert!(group.iter().all(|a| tenant(a) == tenant(group[0])));
        }
        assert_eq!(submits[0].due, Duration::from_millis(125));
    }

    #[test]
    fn the_submit_stream_ignores_the_read_rate() {
        let steady = *find("steady").unwrap();
        let quiet = Workload {
            reads_per_s: 1.0,
            ..steady
        };
        let submits = |w: &Workload| -> Vec<Arrival> {
            w.arrivals(11, 5.0)
                .into_iter()
                .filter(|a| matches!(a.kind, Kind::Submit { .. }))
                .collect()
        };
        assert_eq!(submits(&steady), submits(&quiet));
    }

    #[test]
    fn reads_pick_uniformly_among_known_jobs() {
        assert_eq!(pick_index(0.5, 0), None);
        assert_eq!(pick_index(0.0, 3), Some(0));
        assert_eq!(pick_index(0.999, 3), Some(2));
        assert_eq!(pick_index(0.5, 4), Some(2));
    }
}
