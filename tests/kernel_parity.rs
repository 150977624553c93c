//! The compiled scoring kernel must be invisible in results: for every
//! benchmark and split layer, a full attack run through the shipping
//! path (flattened ensemble + SoA batch feature extraction) produces
//! exactly the `ScoredView` of the per-pair oracle
//! (`FeatureSet::compute_into` + `Bagging::proba`) — LoC histogram, slot
//! probabilities, and derived curve, bit for bit.

use splitmfg::attack::attack::{AttackConfig, Oracle, ScoreOptions, TrainedAttack};
use splitmfg::attack::Parallelism;
use splitmfg::layout::{SplitLayer, SplitView, Suite};

const SCALE: f64 = 0.02;

fn views(split: u8) -> Vec<SplitView> {
    Suite::ispd2011_like(SCALE)
        .expect("suite generation")
        .split_all(SplitLayer::new(split).expect("valid"))
}

fn opts() -> ScoreOptions {
    ScoreOptions {
        parallelism: Parallelism::Sequential,
        ..ScoreOptions::default()
    }
}

const PER_PAIR: Oracle = Oracle {
    per_pair: true,
    all_pairs: false,
};

#[test]
fn compiled_kernel_reproduces_reference_on_every_benchmark_and_layer() {
    for split in [4u8, 6, 8] {
        let vs = views(split);
        for t in 0..vs.len() {
            let train: Vec<&SplitView> = vs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != t)
                .map(|(_, v)| v)
                .collect();
            let cfg = AttackConfig::imp9();
            let model = TrainedAttack::train(&cfg, &train, None).expect("train");
            let reference = model.score_oracle(&vs[t], &opts(), PER_PAIR);
            let compiled = model.score(&vs[t], &opts());
            assert_eq!(
                reference.hist, compiled.hist,
                "layer {split}, target {}: LoC histogram diverged",
                vs[t].name
            );
            assert_eq!(
                reference, compiled,
                "layer {split}, target {}: scored view diverged",
                vs[t].name
            );
            assert_eq!(
                reference.curve().points(),
                compiled.curve().points(),
                "layer {split}, target {}: LoC curve diverged",
                vs[t].name
            );
        }
    }
}

#[test]
fn compiled_kernel_is_also_parallelism_invariant() {
    // The two axes compose: compiled + threads must equal reference +
    // sequential. One layer suffices — the cross-product above covers the
    // kernel axis and parallel_determinism.rs covers the thread axis.
    let vs = views(8);
    let train: Vec<&SplitView> = vs[1..].iter().collect();
    let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
    let baseline = model.score_oracle(&vs[0], &opts(), PER_PAIR);
    let threaded = model.score(
        &vs[0],
        &ScoreOptions {
            parallelism: Parallelism::Threads(3),
            ..ScoreOptions::default()
        },
    );
    assert_eq!(baseline, threaded);
}
