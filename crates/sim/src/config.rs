//! Experiment configurations mirroring the paper's §3.1 setup.

use serde::{Deserialize, Serialize};

use slotsel_core::money::Money;
use slotsel_core::node::Volume;
use slotsel_core::request::ResourceRequest;
use slotsel_env::EnvironmentConfig;

/// The base job's resource request, in plain-number form for serialization.
///
/// The paper's base job asks for 5 parallel slots for 150 time units (at the
/// platform's reference performance 2, i.e. volume 300) with a maximum total
/// execution cost of 1500.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestConfig {
    /// Number of parallel slots (paper: 5).
    pub node_count: usize,
    /// Work volume per task (paper: 300 = 150 time units at performance 2).
    pub volume: u64,
    /// Budget `S` (paper: 1500).
    pub budget: f64,
    /// Reservation time span `t` quoted by the user (paper: 150); governs
    /// how long CSA alternatives hold their slots.
    pub reference_span: Option<i64>,
}

impl RequestConfig {
    /// The paper's §3.1 base job.
    #[must_use]
    pub fn paper_default() -> Self {
        RequestConfig {
            node_count: 5,
            volume: 300,
            budget: 1500.0,
            reference_span: Some(150),
        }
    }

    /// Builds the core [`ResourceRequest`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero nodes/volume, or
    /// non-positive budget).
    #[must_use]
    pub fn to_request(self) -> ResourceRequest {
        let mut builder = ResourceRequest::builder()
            .node_count(self.node_count)
            .volume(Volume::new(self.volume))
            .budget(Money::from_f64(self.budget));
        if let Some(span) = self.reference_span {
            builder = builder.reference_span(slotsel_core::time::TimeDelta::new(span));
        }
        builder.build().expect("request config must be valid")
    }
}

impl Default for RequestConfig {
    fn default() -> Self {
        RequestConfig::paper_default()
    }
}

/// Configuration of a quality experiment (Figures 2–4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityConfig {
    /// Environment generator settings.
    pub env: EnvironmentConfig,
    /// The base job.
    pub request: RequestConfig,
    /// Number of simulated scheduling cycles (paper: 5000).
    pub cycles: u64,
    /// Base RNG seed; cycle `i` uses `seed + i`.
    pub seed: u64,
    /// Also run the non-AEP baselines (FirstFit, ALP, Backfill) each cycle —
    /// an extension column set not present in the paper's figures.
    pub include_baselines: bool,
}

impl QualityConfig {
    /// The paper's §3.2 experiment: 5000 cycles of the default environment.
    #[must_use]
    pub fn paper_default() -> Self {
        QualityConfig {
            env: EnvironmentConfig::paper_default(),
            request: RequestConfig::paper_default(),
            cycles: 5_000,
            seed: 20_130_715,
            include_baselines: false,
        }
    }

    /// A reduced-cycle variant for quick runs and tests.
    #[must_use]
    pub fn quick(cycles: u64) -> Self {
        QualityConfig {
            cycles,
            ..Self::paper_default()
        }
    }
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig::paper_default()
    }
}

/// Reference values reported in the paper, used by EXPERIMENTS.md and the
/// comparison output of the `reproduce` studies.
pub mod paper {
    /// Fig. 2(a): average start times.
    pub const START: [(&str, f64); 6] = [
        ("AMP", 0.0),
        ("MinFinish", 0.0),
        ("MinCost", 193.0),
        ("MinRunTime", 53.0),
        ("MinProcTime", 514.9),
        ("CSA", 0.0),
    ];
    /// Fig. 2(b): average runtimes (AMP/MinCost: no number printed in the
    /// paper, bars read ≈75 and ≈110).
    pub const RUNTIME: [(&str, f64); 6] = [
        ("AMP", 75.0),
        ("MinFinish", 34.4),
        ("MinCost", 110.0),
        ("MinRunTime", 33.0),
        ("MinProcTime", 37.7),
        ("CSA", 38.0),
    ];
    /// Fig. 3(a): average finish times (AMP/MinRunTime bars read ≈75/≈86).
    pub const FINISH: [(&str, f64); 6] = [
        ("AMP", 75.0),
        ("MinFinish", 34.4),
        ("MinCost", 307.7),
        ("MinRunTime", 86.0),
        ("MinProcTime", 552.0),
        ("CSA", 52.6),
    ];
    /// Fig. 3(b): average used processor time (AMP/MinCost bars read ≈330/≈500).
    pub const PROC_TIME: [(&str, f64); 6] = [
        ("AMP", 330.0),
        ("MinFinish", 161.9),
        ("MinCost", 500.0),
        ("MinRunTime", 158.0),
        ("MinProcTime", 171.6),
        ("CSA", 168.6),
    ];
    /// Fig. 4: average total job execution cost.
    pub const COST: [(&str, f64); 6] = [
        ("AMP", 1430.0),
        ("MinFinish", 1464.0),
        ("MinCost", 1027.3),
        ("MinRunTime", 1464.0),
        ("MinProcTime", 1408.0),
        ("CSA", 1352.0),
    ];
    /// §3.2: average number of CSA alternatives at 100 nodes / interval 600.
    pub const CSA_ALTERNATIVES: f64 = 57.0;
    /// Table 1 node counts.
    pub const TABLE1_NODES: [usize; 5] = [50, 100, 200, 300, 400];
    /// Table 1 "CSA: Alternatives Num" row.
    pub const TABLE1_CSA_ALTS: [f64; 5] = [25.9, 57.0, 128.4, 187.3, 252.0];
    /// Table 2 interval lengths.
    pub const TABLE2_INTERVALS: [i64; 6] = [600, 1200, 1800, 2400, 3000, 3600];
    /// Table 2 "Number of slots" row.
    pub const TABLE2_SLOTS: [f64; 6] = [472.6, 779.4, 1092.0, 1405.1, 1718.8, 2030.6];
    /// Table 2 "CSA: Alternatives Num" row.
    pub const TABLE2_CSA_ALTS: [f64; 6] = [57.0, 125.4, 196.2, 269.8, 339.7, 412.5];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_request_matches_section_3_1() {
        let r = RequestConfig::paper_default().to_request();
        assert_eq!(r.node_count(), 5);
        assert_eq!(r.volume().work(), 300);
        assert_eq!(r.budget(), Money::from_units(1500));
    }

    #[test]
    fn quality_default_runs_5000_cycles() {
        let q = QualityConfig::paper_default();
        assert_eq!(q.cycles, 5_000);
        assert_eq!(q.env.nodes.count, 100);
        assert_eq!(q.env.interval_length, 600);
    }

    #[test]
    fn quick_overrides_cycles_only() {
        let q = QualityConfig::quick(10);
        assert_eq!(q.cycles, 10);
        assert_eq!(q.request, RequestConfig::paper_default());
    }

    #[test]
    #[should_panic(expected = "must be valid")]
    fn invalid_request_config_panics() {
        let _ = RequestConfig {
            node_count: 0,
            volume: 300,
            budget: 1500.0,
            reference_span: None,
        }
        .to_request();
    }

    #[test]
    fn config_roundtrips_through_json() {
        let q = QualityConfig::paper_default();
        let json = serde_json::to_string(&q).unwrap();
        let back: QualityConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn paper_reference_tables_are_consistent() {
        assert_eq!(paper::TABLE1_NODES.len(), paper::TABLE1_CSA_ALTS.len());
        assert_eq!(paper::TABLE2_INTERVALS.len(), paper::TABLE2_SLOTS.len());
        assert_eq!(paper::TABLE2_INTERVALS.len(), paper::TABLE2_CSA_ALTS.len());
        assert_eq!(paper::CSA_ALTERNATIVES, paper::TABLE1_CSA_ALTS[1]);
        assert_eq!(paper::CSA_ALTERNATIVES, paper::TABLE2_CSA_ALTS[0]);
    }
}
