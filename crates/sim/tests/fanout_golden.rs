//! Digests of what the experiments and the live cycle produce, pinned so
//! that how their work is spread over threads cannot move it.
//!
//! The seed-derived experiments (the batch-objective sweep, the
//! sensitivity sweep, Figures 2–4's quality run and the scaling sweep's
//! slot and alternative counts) are pure functions of their seeds: each
//! digest is FNV-1a 64 over the `{:?}` rendering of the result, so a
//! changed fold order shows up as a changed last bit of some `f64`. The
//! live cycle is pinned by the shape of its span tree: ids, parents,
//! names, tracks, attributes and order, with timestamps left out.

use slotsel_env::EnvironmentConfig;
use slotsel_obs::chrome::{parse, Value};
use slotsel_obs::HttpRequest;
use slotsel_sim::batch_experiment::{self, BatchExperimentConfig};
use slotsel_sim::config::QualityConfig;
use slotsel_sim::daemon::LiveDaemon;
use slotsel_sim::quality;
use slotsel_sim::scaling::{self, ScalingConfig};
use slotsel_sim::sensitivity::{self, RequestPoint};
use slotsel_sim::serve::LiveConfig;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

#[test]
fn batch_experiment_matches_its_golden() {
    let config = BatchExperimentConfig {
        cycles: 8,
        ..BatchExperimentConfig::standard()
    };
    let digest = fnv(&format!("{:?}", batch_experiment::run(&config)));
    assert_eq!(
        digest, 0xddd4_5c8d_00f2_ea09,
        "batch_experiment::run digest"
    );
}

#[test]
fn sensitivity_sweep_matches_its_golden() {
    let env = EnvironmentConfig::paper_default();
    let points = [
        RequestPoint::paper(),
        RequestPoint {
            node_count: 2,
            volume: 100,
            budget: 400.0,
        },
        // An infeasible shape: empty accumulators.
        RequestPoint {
            node_count: 0,
            ..RequestPoint::paper()
        },
    ];
    let digest = fnv(&format!(
        "{:?}",
        sensitivity::sweep(&env, &points, 5, 424_242)
    ));
    assert_eq!(digest, 0x545b_85d3_1cf5_df3d, "sensitivity::sweep digest");
}

#[test]
fn quality_run_matches_its_golden_on_any_core_count() {
    // Pinned as the cycles fold on one worker, in cycle order; a config
    // that names a worker count is held to one.
    let json = serde_json::to_string(&QualityConfig::quick(40))
        .expect("config serializes")
        .replace("\"threads\":0", "\"threads\":1");
    let config: QualityConfig = serde_json::from_str(&json).expect("config parses");
    let digest = fnv(&format!("{:?}", quality::run(&config)));
    assert_eq!(digest, 0xd6af_f640_398d_1204, "quality::run digest");
}

#[test]
fn scaling_sweep_counts_match_their_golden() {
    let points = scaling::sweep_nodes(&ScalingConfig::quick(4), &[20, 40]);
    // Timings are wall clock; the parameter, slot and alternative
    // statistics derive from the seed alone.
    let counts: Vec<_> = points
        .iter()
        .map(|point| (point.parameter, point.slots, point.csa_alternatives))
        .collect();
    let digest = fnv(&format!("{counts:?}"));
    assert_eq!(
        digest, 0xa823_84b6_247a_5a66,
        "scaling::sweep_nodes counts digest"
    );
}

/// Renders a Chrome trace event without its `ts` and `dur` fields.
fn untimed(event: &Value) -> String {
    let Value::Obj(fields) = event else {
        panic!("a trace event is an object: {event:?}");
    };
    let kept: Vec<_> = fields
        .iter()
        .filter(|(name, _)| name != "ts" && name != "dur")
        .collect();
    format!("{kept:?}")
}

#[test]
fn a_lit_live_cycle_keeps_its_span_tree_shape() {
    let config = LiveConfig {
        shards: 2,
        nodes_per_shard: 40,
        seed: 7,
        ..LiveConfig::default()
    };
    let (daemon, _) = LiveDaemon::open(config, None, false, 1, 4).expect("an unjournaled daemon");
    for job in 0..12u32 {
        let body = format!(
            r#"{{"tenant":"tenant-{}","nodes":{},"volume":200,"budget":20000,"priority":{},"shard":{}}}"#,
            job % 3,
            2 + job % 3,
            job % 4,
            job % 2
        );
        let response = daemon
            .handle(&HttpRequest {
                method: "POST".to_owned(),
                path: "/submit".to_owned(),
                body,
            })
            .expect("a route");
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let outcome = daemon.run_cycle();
    assert!(!outcome.committed.is_empty(), "the cycle schedules jobs");
    assert!(
        outcome.committed.iter().any(|&(_, shard)| shard == 1),
        "both shards schedule"
    );

    let trace = daemon
        .handle(&HttpRequest {
            method: "GET".to_owned(),
            path: "/debug/trace".to_owned(),
            body: String::new(),
        })
        .expect("a route");
    let document = parse(&trace.body).expect("a JSON trace");
    let events = document
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("a trace-event array");
    assert!(
        events.len() > 40,
        "a cycle with two shards of jobs: {} events",
        events.len()
    );
    let shape: Vec<String> = events.iter().map(untimed).collect();
    assert_eq!(
        fnv(&shape.join("\n")),
        0x8d6e_4f9c_612c_51a0,
        "span tree shape digest"
    );
}
