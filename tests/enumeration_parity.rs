//! The spatial streaming enumeration must be invisible in results: for
//! every benchmark and split layer, a full attack run through the
//! shipping path (grid radius / same-track queries, unordered traversal,
//! bulk cell appends) produces exactly the `ScoredView` of the all-pairs
//! oracle scan (`Oracle::all_pairs`) — LoC histogram, slot
//! probabilities, and derived curve, bit for bit. This is the tentpole
//! guarantee that makes paper-scale (`SM_SCALE >= 10`) attacks trustworthy
//! without ever running the quadratic oracle there.

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

#[test]
fn spatial_enumeration_reproduces_the_oracle_on_every_benchmark_and_layer() {
    for split in [4u8, 6, 8] {
        let vs = views(split);
        // The Y-limited variant only makes sense at the top split layer,
        // where partners share a track; the plain Imp config exercises the
        // radius query everywhere.
        let cfg = if split == 8 {
            AttackConfig::imp9().with_y_limit()
        } else {
            AttackConfig::imp9()
        };
        for t in 0..vs.len() {
            let train: Vec<&SplitView> = vs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != t)
                .map(|(_, v)| v)
                .collect();
            let model = TrainedAttack::train(&cfg, &train, None).expect("train");
            let oracle = model.score_oracle(
                &vs[t],
                &opts(),
                Oracle {
                    all_pairs: true,
                    ..Oracle::default()
                },
            );
            let spatial = model.score(&vs[t], &opts());
            assert_eq!(
                oracle.hist, spatial.hist,
                "layer {split}, target {}: LoC histogram diverged",
                vs[t].name
            );
            assert_eq!(
                oracle, spatial,
                "layer {split}, target {}: scored view diverged",
                vs[t].name
            );
            assert_eq!(
                oracle.curve().points(),
                spatial.curve().points(),
                "layer {split}, target {}: LoC curve diverged",
                vs[t].name
            );
        }
    }
}

#[test]
fn enumeration_kernel_and_parallelism_axes_compose() {
    // All three execution axes at once: spatial + compiled + threads must
    // equal all-pairs + per-pair + sequential. One layer suffices — the
    // cross-product above covers the enumeration axis, kernel_parity.rs
    // the kernel axis, and parallel_determinism.rs the thread axis.
    let vs = views(6);
    let train: Vec<&SplitView> = vs[1..].iter().collect();
    let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
    let baseline = model.score_oracle(
        &vs[0],
        &opts(),
        Oracle {
            per_pair: true,
            all_pairs: true,
        },
    );
    let streamed = model.score(
        &vs[0],
        &ScoreOptions {
            parallelism: Parallelism::Threads(3),
            ..ScoreOptions::default()
        },
    );
    assert_eq!(baseline, streamed);
}
