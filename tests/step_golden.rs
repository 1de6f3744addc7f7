//! Golden pin of simulated layer times: every registered scheduler on
//! three seeded `pretraining_mix` batches (cluster A × 2), plus the two
//! heterogeneity-aware schedulers on the mixed-generation cluster, whose
//! speed-weighted zigzag groups cut non-uniform chunk tables.
//!
//! The nanosecond values were captured from the simulator before the
//! closed-form chunk geometry and the unchanged-rate heap rule went in.
//! Both are meant to be invisible in simulated time, so any drift here
//! means a host-side optimization changed what is simulated.

use rand::rngs::StdRng;
use rand::SeedableRng;

use zeppelin::baselines::{scheduler_by_name, SCHEDULER_NAMES};
use zeppelin::core::scheduler::SchedulerCtx;
use zeppelin::data::batch::Batch;
use zeppelin::data::mixture::pretraining_mix;
use zeppelin::exec::step::{simulate_step, StepConfig};
use zeppelin::model::config::llama_3b;
use zeppelin::sim::topology::{cluster_a, cluster_mixed};

const TOKENS: u64 = 98_304;
const SEEDS: [u64; 3] = [1, 2, 3];

/// `(scheduler, seed, layer_forward ns, layer_backward ns)` on cluster A × 2.
const HOMOGENEOUS: &[(&str, u64, u64, u64)] = &[
    ("zeppelin", 1, 16_871_986, 33_543_971),
    ("zeppelin", 2, 24_553_077, 48_583_648),
    ("zeppelin", 3, 17_830_770, 34_996_721),
    ("zeppelin-het", 1, 16_871_986, 33_543_971),
    ("zeppelin-het", 2, 24_553_077, 48_583_648),
    ("zeppelin-het", 3, 17_830_770, 34_996_721),
    ("straggler-remap", 1, 16_871_986, 33_543_971),
    ("straggler-remap", 2, 24_553_077, 48_583_648),
    ("straggler-remap", 3, 17_830_770, 34_996_721),
    ("te", 1, 56_033_146, 111_586_289),
    ("te", 2, 56_208_025, 111_936_045),
    ("te", 3, 56_085_128, 111_690_255),
    ("llama", 1, 29_243_069, 58_078_556),
    ("llama", 2, 32_040_360, 63_670_529),
    ("llama", 3, 30_062_179, 59_716_014),
    ("hybrid", 1, 29_388_722, 58_527_439),
    ("hybrid", 2, 32_575_897, 64_851_791),
    ("hybrid", 3, 33_955_843, 67_531_683),
    ("packing", 1, 9_449_744, 18_869_487),
    ("packing", 2, 9_449_744, 18_869_487),
    ("packing", 3, 9_449_744, 18_869_487),
    ("ulysses", 1, 22_779_259, 44_883_515),
    ("ulysses", 2, 25_571_144, 50_467_287),
    ("ulysses", 3, 23_593_231, 46_511_461),
    ("double-ring", 1, 21_934_268, 43_543_521),
    ("double-ring", 2, 24_552_727, 48_780_449),
    ("double-ring", 3, 22_696_872, 45_068_740),
];

/// `(scheduler, seed, layer_forward ns, layer_backward ns)` on
/// `cluster_mixed(3)` with the tiers' speeds in the executor's physics.
const MIXED: &[(&str, u64, u64, u64)] = &[
    ("zeppelin-het", 1, 13_357_243, 26_544_483),
    ("zeppelin-het", 2, 17_393_857, 33_897_242),
    ("zeppelin-het", 3, 12_539_314, 24_211_899),
    ("straggler-remap", 1, 11_945_300, 23_690_597),
    ("straggler-remap", 2, 17_043_164, 33_426_882),
    ("straggler-remap", 3, 10_515_142, 20_350_282),
];

fn batch(seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    pretraining_mix().sample_batch(&mut rng, TOKENS)
}

fn layer_nanos(name: &str, seed: u64, ctx: &SchedulerCtx, cfg: &StepConfig) -> (u64, u64) {
    let batch = batch(seed);
    let s = scheduler_by_name(name).expect("registry name");
    let r = simulate_step(s.as_ref(), &batch, ctx, cfg)
        .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
    (r.layer_forward.as_nanos(), r.layer_backward.as_nanos())
}

#[test]
fn every_scheduler_reproduces_its_pinned_layer_times() {
    let ctx = SchedulerCtx::new(&cluster_a(2), &llama_3b());
    let cfg = StepConfig::default();
    let mut got = Vec::new();
    for name in SCHEDULER_NAMES {
        for seed in SEEDS {
            let (f, b) = layer_nanos(name, seed, &ctx, &cfg);
            got.push((name, seed, f, b));
        }
    }
    assert_eq!(got, HOMOGENEOUS);
}

#[test]
fn het_schedulers_reproduce_their_pinned_layer_times_on_mixed_tiers() {
    let cluster = cluster_mixed(3);
    let ctx = SchedulerCtx::new(&cluster, &llama_3b());
    let mut cfg = StepConfig::default();
    cfg.exec.rank_speed = cluster.rank_speeds().expect("mixed cluster has tiers");
    // The pin must cover the weighted geometry: zeppelin-het cuts at least
    // one multi-rank group with unequal chunk weights.
    let het = scheduler_by_name("zeppelin-het").expect("registry name");
    let weighted = SEEDS.iter().any(|&seed| {
        let plan = het.plan(&batch(seed), &ctx).expect("zeppelin-het plans");
        plan.placements
            .iter()
            .any(|p| p.weights.iter().any(|&w| w != p.weights[0]))
    });
    assert!(weighted, "no non-uniform weight group on the mixed cluster");
    let mut got = Vec::new();
    for name in ["zeppelin-het", "straggler-remap"] {
        for seed in SEEDS {
            let (f, b) = layer_nanos(name, seed, &ctx, &cfg);
            got.push((name, seed, f, b));
        }
    }
    assert_eq!(got, MIXED);
}
