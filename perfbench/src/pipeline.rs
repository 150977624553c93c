//! The attack flow as a user drives it: generate and split the suite,
//! train on the four other designs, encode the model artifact, score the
//! target design and build the LoC curve — plus the output checks that
//! run after each pass, off the timed path.

use std::time::Instant;

use sm_attack::attack::{AttackConfig, ScoreOptions, TrainOptions, TrainedAttack};
use sm_attack::{LocCurve, LocCurveBuilder, ScoredView};
use sm_layout::{SplitLayer, SplitView, Suite};
use sm_serve::{ModelArtifact, TrainMeta};

use crate::stats::scored_view_digest;

/// Design attacked by every workload; the other four train the model.
pub const TARGET: &str = "sb1";

/// Targets whose retained candidates are re-scored by the spot check.
const SPOT_TARGETS: usize = 32;

/// The split suite a run works on.
pub struct Layout {
    /// The attacked design.
    pub target: SplitView,
    /// The training designs, in suite order.
    pub training: Vec<SplitView>,
    /// Seconds spent generating the suite.
    pub gen_s: f64,
    /// Seconds spent splitting it.
    pub split_s: f64,
}

impl Layout {
    /// Generates the five-design suite at `scale` and splits it at `layer`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid scale or layer, or if the suite no longer
    /// starts with the target design.
    pub fn set_up(scale: f64, layer: u8) -> Self {
        let t0 = Instant::now();
        let suite = Suite::ispd2011_like(scale).expect("suite generation at a positive scale");
        let t1 = Instant::now();
        let mut views = suite.split_all(SplitLayer::new(layer).expect("valid split layer"));
        let t2 = Instant::now();
        assert_eq!(views[0].name, TARGET, "suite order changed");
        let target = views.remove(0);
        Self {
            target,
            training: views,
            gen_s: (t1 - t0).as_secs_f64(),
            split_s: (t2 - t1).as_secs_f64(),
        }
    }
}

/// Layer names of an attack pass, in call order.
const LAYERS: [&str; 5] = ["samples", "fit", "artifact.encode", "score", "loc"];

/// When each layer of one attack pass started, and when the last ended.
#[derive(Clone, Copy)]
pub struct Stages([Instant; 6]);

impl Stages {
    fn secs(&self, layer: usize) -> f64 {
        (self.0[layer + 1] - self.0[layer]).as_secs_f64()
    }

    /// Artifact encode time.
    pub fn encode_s(&self) -> f64 {
        self.secs(2)
    }

    /// Train + score + curve.
    pub fn attack_s(&self) -> f64 {
        self.secs(0) + self.secs(1) + self.secs(3) + self.secs(4)
    }

    /// Samples + fit + artifact encode.
    pub fn train_s(&self) -> f64 {
        self.secs(0) + self.secs(1) + self.secs(2)
    }

    /// Each layer as a trace span.
    pub fn spans(&self) -> [(&'static str, Instant, Instant); 5] {
        std::array::from_fn(|k| (LAYERS[k], self.0[k], self.0[k + 1]))
    }
}

/// Everything one attack pass produces.
pub struct Attack {
    pub model: TrainedAttack,
    pub samples: usize,
    pub artifact: String,
    pub scored: ScoredView,
    pub curve: LocCurve,
}

/// One attack pass: sample extraction, ensemble fit, artifact encode,
/// scoring and the LoC curve, each timed from outside.
///
/// # Panics
///
/// Panics if training fails, which the generated suite never causes.
pub fn attack(
    config: &AttackConfig,
    layout: &Layout,
    options: &ScoreOptions,
    layer: u8,
) -> (Attack, Stages) {
    let training: Vec<&SplitView> = layout.training.iter().collect();
    let t0 = Instant::now();
    let (samples, radius) =
        TrainedAttack::prepare_samples(config, &training, None).expect("training views exist");
    let t1 = Instant::now();
    let num_samples = samples.len();
    let model = TrainedAttack::from_samples(config, samples, radius, TrainOptions::default())
        .expect("the suite yields training samples");
    let t2 = Instant::now();
    let meta = TrainMeta {
        benchmarks: layout.training.iter().map(|v| v.name.clone()).collect(),
        split_layer: layer.to_string(),
        excluded_target: Some(TARGET.to_owned()),
        created_unix_s: 0,
    };
    let artifact = ModelArtifact::from_trained(&model, meta).encode();
    let t3 = Instant::now();
    let scored = model.score(&layout.target, options);
    let t4 = Instant::now();
    let mut curve = LocCurveBuilder::new();
    curve.add_view(&scored);
    let curve = curve.finish();
    let t5 = Instant::now();
    let run = Attack {
        model,
        samples: num_samples,
        artifact,
        scored,
        curve,
    };
    (run, Stages([t0, t1, t2, t3, t4, t5]))
}

/// Known outputs of the default seed at scale 1.0.
pub struct Pins {
    pub samples: usize,
    pub nodes: usize,
    pub pairs: u64,
    pub digest: &'static str,
}

/// Decodes an encoded artifact back into a model, timed.
///
/// # Errors
///
/// Returns the artifact error as text.
pub fn decode(artifact: &str) -> Result<(TrainedAttack, f64), String> {
    let t = Instant::now();
    let model = ModelArtifact::decode(artifact)
        .and_then(ModelArtifact::into_trained)
        .map_err(|e| format!("artifact does not decode: {e}"))?;
    Ok((model, t.elapsed().as_secs_f64()))
}

/// Checks one attack pass: the pinned values (when given), determinism
/// against the run's first pass, bit equality of a fixed sample of
/// retained candidates with `Bagging::proba` on `FeatureSet::compute`
/// rows, and the artifact round trip. Returns the artifact decode time.
///
/// # Errors
///
/// Describes the first failed check.
pub fn check(
    run: &Attack,
    target: &SplitView,
    pins: Option<&Pins>,
    first_digest: &mut Option<String>,
) -> Result<f64, String> {
    let digest = scored_view_digest(&run.scored);
    if let Some(pin) = pins {
        let got = (
            run.samples,
            run.model.model().total_nodes(),
            run.scored.pairs_scored,
            digest.as_str(),
        );
        let want = (pin.samples, pin.nodes, pin.pairs, pin.digest);
        if got != want {
            return Err(format!(
                "pinned (samples, nodes, pairs, digest) {want:?}, got {got:?}"
            ));
        }
    }
    match first_digest {
        Some(first) if *first != digest => {
            return Err(format!(
                "pass digest {digest} differs from the first pass {first}"
            ))
        }
        Some(_) => {}
        None => *first_digest = Some(digest),
    }
    let features = &run.model.config().features;
    let vpins = target.vpins();
    let step = (run.scored.slots.len() / SPOT_TARGETS).max(1);
    for slot in run.scored.slots.iter().step_by(step) {
        let a = &vpins[slot.vpin as usize];
        for c in &slot.top {
            let p = run
                .model
                .model()
                .proba(&features.compute(a, &vpins[c.index as usize]));
            if p.to_bits() != c.p.to_bits() {
                return Err(format!(
                    "pair ({}, {}) scored {} but Bagging::proba gives {p}",
                    slot.vpin, c.index, c.p
                ));
            }
        }
    }
    let (decoded, decode_s) = decode(&run.artifact)?;
    if decoded != run.model {
        return Err("decoded artifact is not the trained model".to_owned());
    }
    Ok(decode_s)
}
