//! Reading the daemon's write-ahead journal as it grows, and checking
//! what it committed.
//!
//! The bench never decodes a `CycleCommitted` barrier: it spots one by
//! the `{"CycleCommitted"` prefix after the 9-byte CRC frame and skips to
//! its newline. Barriers carry the full service state (megabytes on the
//! `wide` platform) and the vendored JSON parser is quadratic per
//! document, so decoding them would cost more than the daemon spends
//! writing them. Every other record is CRC-checked and decoded with the
//! program's own [`LiveRecord::decode`], so a schema change breaks the
//! build instead of skewing numbers.

use std::collections::{BTreeMap, BTreeSet};

use slotsel_core::node::NodeId;
use slotsel_core::time::Interval;
use slotsel_core::window::{Window, WindowSlot};
use slotsel_obs::journal::unframe;
use slotsel_sim::serve::{JobEntry, LiveRecord};

/// `crc32` as 8 hex digits plus one space, before every payload.
const FRAME_LEN: usize = 9;

/// How every barrier payload begins (the externally tagged enum).
const BARRIER_PREFIX: &[u8] = b"{\"CycleCommitted\"";

/// One journal line, as far as the bench reads it.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A complete barrier line, not decoded.
    Barrier,
    /// Any other record, decoded.
    Decoded(Box<LiveRecord>),
}

/// Splits a growing journal byte stream into records. Feed it the bytes
/// after [`offset`](Self::offset) as they appear.
#[derive(Debug, Default)]
pub struct WalReader {
    /// The current line so far; left empty while skipping a barrier.
    line: Vec<u8>,
    in_barrier: bool,
    offset: u64,
    line_start: u64,
}

impl WalReader {
    /// Bytes consumed so far: where the next read starts.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Consumes `bytes`, calling `emit` for every line they complete.
    pub fn feed(&mut self, mut bytes: &[u8], emit: &mut impl FnMut(Result<Record, String>)) {
        while let Some(at) = bytes.iter().position(|&b| b == b'\n') {
            self.take(&bytes[..at]);
            self.offset += at as u64 + 1;
            self.line_start = self.offset;
            emit(self.finish_line());
            bytes = &bytes[at + 1..];
        }
        self.take(bytes);
        self.offset += bytes.len() as u64;
    }

    fn take(&mut self, chunk: &[u8]) {
        if self.in_barrier {
            return;
        }
        self.line.extend_from_slice(chunk);
        if self.line.len() >= FRAME_LEN + BARRIER_PREFIX.len()
            && self.line[FRAME_LEN..].starts_with(BARRIER_PREFIX)
        {
            self.in_barrier = true;
            self.line.clear();
        }
    }

    fn finish_line(&mut self) -> Result<Record, String> {
        let line = std::mem::take(&mut self.line);
        if std::mem::take(&mut self.in_barrier) {
            return Ok(Record::Barrier);
        }
        let text = std::str::from_utf8(&line).map_err(|_| "journal line is not UTF-8")?;
        let payload = unframe(text)?;
        LiveRecord::decode(payload).map(|record| Record::Decoded(Box::new(record)))
    }

    /// Forgets the unfinished line: its writer was killed, and the
    /// recovering daemon truncates the journal back to where that line
    /// started before appending.
    pub fn restart(&mut self) {
        self.line.clear();
        self.in_barrier = false;
        self.offset = self.line_start;
    }
}

/// One window a cycle committed.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// The job.
    pub job: u32,
    /// The shard it was cut from.
    pub shard: u32,
    /// The committed window.
    pub window: Window,
}

/// What the journal says happened, built record by record.
///
/// A `Committed` record only counts once the barrier of its cycle follows
/// it: a daemon killed mid-cycle leaves commits without a barrier, and
/// recovery re-queues those jobs, so they commit again later.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Every admitted job, by id.
    pub submitted: BTreeMap<u32, JobEntry>,
    /// Barrier-confirmed commits, in journal order.
    pub commits: Vec<Commit>,
    /// Malformed, undecodable or contradictory records.
    pub errors: Vec<String>,
    pending: Vec<Commit>,
}

impl Ledger {
    /// Applies one record; returns the jobs a barrier just confirmed.
    pub fn apply(&mut self, record: Result<Record, String>) -> Vec<u32> {
        match record {
            Err(error) => self.errors.push(format!("journal record: {error}")),
            Ok(Record::Barrier) => {
                let confirmed: Vec<u32> = self.pending.iter().map(|c| c.job).collect();
                self.commits.append(&mut self.pending);
                return confirmed;
            }
            Ok(Record::Decoded(record)) => match *record {
                LiveRecord::Submitted { entry } => {
                    let id = entry.id.0;
                    if self.submitted.insert(id, entry).is_some() {
                        self.errors
                            .push(format!("job {id} journaled as submitted twice"));
                    }
                }
                LiveRecord::Committed {
                    job, shard, window, ..
                } => self.pending.push(Commit { job, shard, window }),
                _ => {}
            },
        }
        Vec::new()
    }

    /// Drops commits whose barrier never reached the journal (the daemon
    /// was killed mid-cycle).
    pub fn restart(&mut self) {
        self.pending.clear();
    }
}

/// Violations among confirmed commits: a job committed twice or never
/// submitted, a window whose size differs from the request's `n` or whose
/// cost exceeds its budget, and two windows on one shard running tasks on
/// the same node at overlapping times.
pub fn check_commits(submitted: &BTreeMap<u32, JobEntry>, commits: &[Commit]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut seen = BTreeSet::new();
    for commit in commits {
        if !seen.insert(commit.job) {
            violations.push(format!("job {} committed twice", commit.job));
        }
        let Some(entry) = submitted.get(&commit.job) else {
            violations.push(format!("job {} committed but never submitted", commit.job));
            continue;
        };
        let request = &entry.request;
        if commit.window.size() != request.node_count() {
            violations.push(format!(
                "job {}: window has {} slots, the request {}",
                commit.job,
                commit.window.size(),
                request.node_count()
            ));
        }
        if commit.window.total_cost() > request.budget() {
            violations.push(format!(
                "job {}: window costs {}, over its budget {}",
                commit.job,
                commit.window.total_cost(),
                request.budget()
            ));
        }
    }

    let mut by_shard: BTreeMap<u32, Vec<&Commit>> = BTreeMap::new();
    for commit in commits {
        by_shard.entry(commit.shard).or_default().push(commit);
    }
    for (shard, mut windows) in by_shard {
        // Sorted by start, a window can only collide with the later-starting
        // ones that begin before it finishes.
        windows.sort_by_key(|c| c.window.start());
        for (i, a) in windows.iter().enumerate() {
            for b in windows[i + 1..]
                .iter()
                .take_while(|b| b.window.start() < a.window.finish())
            {
                if let Some(node) = double_booked(&a.window, &b.window) {
                    violations.push(format!(
                        "shard {shard}: jobs {} and {} both run on {node} at once",
                        a.job, b.job
                    ));
                }
            }
        }
    }
    violations
}

/// The node two windows' tasks would share at the same time, if any.
///
/// Tasks, not whole windows: the daemon reserves each task's node from
/// the window start up to the window's runtime *or the end of the free
/// slot, whichever is first*, so a node released early by a fast task may
/// legitimately host a later window while the first window's slowest task
/// still runs elsewhere. `slotsel_batch::windows_conflict`, which the
/// scheduler uses
/// among one cycle's candidates, compares whole-runtime rectangles and
/// would flag exactly those commits.
fn double_booked(a: &Window, b: &Window) -> Option<NodeId> {
    let task = |w: &Window, s: &WindowSlot| Interval::with_length(w.start(), s.length());
    a.slots().iter().find_map(|sa| {
        b.slots()
            .iter()
            .find(|sb| sa.node() == sb.node() && task(a, sa).overlaps(&task(b, sb)))
            .map(|_| sa.node())
    })
}

/// Violations among acknowledged submits (an id acked twice, or acked but
/// never journaled), plus how many acked jobs no barrier confirmed.
pub fn check_acks(
    acked: &[u32],
    submitted: &BTreeMap<u32, JobEntry>,
    committed: &BTreeSet<u32>,
) -> (Vec<String>, usize) {
    let mut violations = Vec::new();
    let mut seen = BTreeSet::new();
    let mut uncommitted = 0;
    for &id in acked {
        if !seen.insert(id) {
            violations.push(format!("job id {id} acknowledged twice"));
        }
        if !submitted.contains_key(&id) {
            violations.push(format!("acked job {id} never reached the journal"));
        }
        if !committed.contains(&id) {
            uncommitted += 1;
        }
    }
    (violations, uncommitted)
}

/// The restart check: the recovered daemon must know every job acked
/// before the kill, and no others.
pub fn check_restart(acked_before_kill: usize, jobs_after_recovery: u64) -> Option<String> {
    (acked_before_kill as u64 != jobs_after_recovery).then(|| {
        format!(
            "{acked_before_kill} submits acked before the kill, \
             {jobs_after_recovery} jobs after recovery"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slotsel_core::money::Money;
    use slotsel_core::node::{NodeId, Volume};
    use slotsel_core::request::{JobId, ResourceRequest};
    use slotsel_core::slot::SlotId;
    use slotsel_core::tenant::TenantId;
    use slotsel_core::time::{TimeDelta, TimePoint};
    use slotsel_core::window::WindowSlot;
    use slotsel_obs::journal::frame;
    use slotsel_sim::serve::JobPhase;

    fn entry(id: u32, nodes: usize, budget: f64) -> JobEntry {
        JobEntry {
            id: JobId(id),
            tenant: TenantId::new("alpha".to_owned()),
            shard: 0,
            priority: 1,
            request: ResourceRequest::builder()
                .node_count(nodes)
                .volume(Volume::new(100))
                .budget(Money::from_f64(budget))
                .build()
                .unwrap(),
            submitted_cycle: 0,
            phase: JobPhase::Queued,
        }
    }

    /// A window on `nodes` from `start` for 10 ticks at 1 credit a tick.
    fn window(start: i64, nodes: &[u32]) -> Window {
        let slots = nodes
            .iter()
            .map(|&n| {
                WindowSlot::new(
                    SlotId(n.into()),
                    NodeId(n),
                    TimeDelta::new(10),
                    Money::from_units(10),
                )
            })
            .collect();
        Window::new(TimePoint::new(start), slots)
    }

    fn commit(job: u32, start: i64, nodes: &[u32]) -> Commit {
        Commit {
            job,
            shard: 0,
            window: window(start, nodes),
        }
    }

    fn submitted(entries: &[JobEntry]) -> BTreeMap<u32, JobEntry> {
        entries.iter().map(|e| (e.id.0, e.clone())).collect()
    }

    fn line(record: &LiveRecord) -> String {
        format!("{}\n", frame(&record.encode()))
    }

    #[test]
    fn overlapping_commits_on_one_shard_are_caught() {
        let jobs = submitted(&[entry(0, 2, 100.0), entry(1, 2, 100.0), entry(2, 1, 100.0)]);
        // Jobs 0 and 1 share node 2 over [5, 10).
        let bad = [
            commit(0, 0, &[1, 2]),
            commit(1, 5, &[2, 3]),
            commit(2, 50, &[9]),
        ];
        let violations = check_commits(&jobs, &bad);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("jobs 0 and 1"), "{violations:?}");

        // Back to back on the same node, or overlapping on other nodes or
        // another shard, is fine.
        let mut good = vec![commit(0, 0, &[1, 2]), commit(1, 10, &[2, 3])];
        good.push(Commit {
            shard: 1,
            ..commit(2, 0, &[1])
        });
        assert_eq!(check_commits(&jobs, &good), Vec::<String>::new());
    }

    #[test]
    fn a_node_freed_by_a_fast_task_may_host_a_later_window() {
        let jobs = submitted(&[entry(0, 2, 100.0), entry(1, 1, 100.0)]);
        // Job 0 runs [0, 30) on node 1 but only [0, 5) on node 2; job 1
        // takes node 2 from 10, inside job 0's runtime but after its task.
        let slot = |node: u32, length: i64| {
            WindowSlot::new(
                SlotId(node.into()),
                NodeId(node),
                TimeDelta::new(length),
                Money::ZERO,
            )
        };
        let early = Commit {
            job: 0,
            shard: 0,
            window: Window::new(TimePoint::new(0), vec![slot(1, 30), slot(2, 5)]),
        };
        let later = |start| Commit {
            job: 1,
            shard: 0,
            window: Window::new(TimePoint::new(start), vec![slot(2, 10)]),
        };
        assert!(slotsel_batch::windows_conflict(
            &early.window,
            &later(10).window
        ));
        assert_eq!(
            check_commits(&jobs, &[early.clone(), later(10)]),
            Vec::<String>::new()
        );
        let violations = check_commits(&jobs, &[early, later(4)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("both run on"), "{violations:?}");
    }

    #[test]
    fn wrong_sizes_budgets_and_double_commits_are_caught() {
        let jobs = submitted(&[entry(0, 3, 100.0), entry(1, 1, 5.0)]);
        let violations = check_commits(
            &jobs,
            &[
                commit(0, 0, &[1, 2]),
                commit(1, 20, &[5]),
                commit(1, 40, &[6]),
                commit(7, 60, &[7]),
            ],
        );
        let joined = violations.join("\n");
        assert!(joined.contains("job 0: window has 2 slots"), "{joined}");
        assert!(joined.contains("job 1: window costs"), "{joined}");
        assert!(joined.contains("job 1 committed twice"), "{joined}");
        assert!(
            joined.contains("job 7 committed but never submitted"),
            "{joined}"
        );
    }

    #[test]
    fn lost_and_duplicate_acks_are_caught() {
        let jobs = submitted(&[entry(0, 1, 100.0), entry(1, 1, 100.0)]);
        let committed: BTreeSet<u32> = [0].into();
        let (violations, uncommitted) = check_acks(&[0, 1], &jobs, &committed);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(uncommitted, 1);

        // Job 2 was acknowledged but its Submitted record is missing: a
        // lost submit.
        let (violations, _) = check_acks(&[0, 2, 0], &jobs, &committed);
        let joined = violations.join("\n");
        assert!(joined.contains("acked job 2 never reached"), "{joined}");
        assert!(joined.contains("job id 0 acknowledged twice"), "{joined}");

        assert_eq!(check_restart(150, 150), None);
        assert!(check_restart(150, 149).unwrap().contains("149 jobs"));
    }

    #[test]
    fn reader_skips_barriers_and_decodes_the_rest_across_chunks() {
        let submitted = LiveRecord::Submitted {
            entry: entry(4, 1, 10.0),
        };
        let committed = LiveRecord::Committed {
            cycle: 0,
            job: 4,
            shard: 0,
            window: window(0, &[1]),
        };
        // A barrier the bench must not decode: its body is not even valid.
        let barrier = format!("{}\n", frame("{\"CycleCommitted\":{not json"));
        let stream = [line(&submitted), line(&committed), barrier].concat();

        for chunk in [1, 7, 30, stream.len()] {
            let mut reader = WalReader::default();
            let mut ledger = Ledger::default();
            let mut confirmed = Vec::new();
            for piece in stream.as_bytes().chunks(chunk) {
                reader.feed(piece, &mut |r| confirmed.extend(ledger.apply(r)));
            }
            assert_eq!(confirmed, vec![4], "chunk {chunk}");
            assert!(ledger.errors.is_empty(), "{:?}", ledger.errors);
            assert_eq!(ledger.submitted.len(), 1);
            assert_eq!(ledger.commits.len(), 1);
            assert_eq!(reader.offset(), stream.len() as u64);
        }

        let mut reader = WalReader::default();
        let mut ledger = Ledger::default();
        reader.feed(b"00000000 {\"Finished\":{}}\n", &mut |r| {
            ledger.apply(r);
        });
        assert_eq!(ledger.errors.len(), 1, "a CRC mismatch is an error");
    }

    #[test]
    fn a_kill_mid_cycle_drops_its_unconfirmed_commits() {
        let committed = |job| LiveRecord::Committed {
            cycle: 3,
            job,
            shard: 0,
            window: window(0, &[1]),
        };
        let mut reader = WalReader::default();
        let mut ledger = Ledger::default();
        let mut confirmed = Vec::new();
        let head = line(&committed(1));
        // Killed while the barrier was half written.
        let torn = frame("{\"CycleCommitted\":{}")[..20].to_owned();
        reader.feed(format!("{head}{torn}").as_bytes(), &mut |r| {
            confirmed.extend(ledger.apply(r));
        });
        reader.restart();
        assert_eq!(reader.offset(), head.len() as u64);
        ledger.restart();
        // The recovered daemon re-runs cycle 3 and commits job 2 instead.
        let resumed = [
            line(&committed(2)),
            format!("{}\n", frame("{\"CycleCommitted\":{}")),
        ];
        reader.feed(resumed.concat().as_bytes(), &mut |r| {
            confirmed.extend(ledger.apply(r));
        });
        assert_eq!(confirmed, vec![2]);
        assert_eq!(ledger.commits.len(), 1);
    }
}
