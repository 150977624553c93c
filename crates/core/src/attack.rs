//! The machine-learning attack: model configurations, training, and pair
//! scoring (paper Sections III-B–III-G).
//!
//! A [`TrainedAttack`] is produced from N−1 training [`SplitView`]s and
//! scores every candidate v-pin pair of a held-out test view, yielding a
//! [`ScoredView`] from which lists of candidates (LoC) at any probability
//! threshold, trade-off curves, and proximity attacks are derived without
//! re-running inference (Section III-F).

use std::ops::Range;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sm_layout::SplitView;
use sm_ml::parallel::par_chunks;
use sm_ml::{
    Bagging, CompiledEnsemble, Dataset, Parallelism, RandomTreeLearner, RepTreeLearner, TreeBackend,
};

use crate::error::AttackError;
use crate::features::{FeatureSet, PairKernel};
use crate::neighborhood::{neighborhood_radius, VpinIndex, DEFAULT_NEIGHBORHOOD_QUANTILE};
use crate::samples::{generate_samples, SampleOptions};

/// Number of probability bins in a [`ScoredView`]'s candidate histogram.
pub const HIST_BINS: usize = 4096;

/// Candidates scored per [`sm_ml::CompiledEnsemble::proba_batch`] call in
/// the compiled kernel's scoring loop: large enough to amortise the batch
/// setup, small enough that the row buffer (`SCORE_BATCH x features`)
/// stays in L1/L2 cache.
pub const SCORE_BATCH: usize = 256;

/// Default [`ScoreOptions::top_floor`].
pub const DEFAULT_TOP_FLOOR: usize = 16;

/// Training oracle selector, for the parity suites and benches only.
///
/// The default is the shipping trainer. Every [`TreeBackend`] grows
/// bit-identical ensembles (proven by `tests/train_parity.rs`), so none of
/// this belongs in [`AttackConfig`] and nothing here is serialized into
/// artifacts.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainOptions {
    /// Split-finding implementation used to grow each tree (binned
    /// histogram kernel by default; `Reference` is the oracle scan).
    pub backend: TreeBackend,
}

/// The ensemble used to classify pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaseClassifier {
    /// Bagging of reduced-error-pruned trees (this paper; Weka default 10).
    RepTreeBagging {
        /// Number of member trees.
        n_trees: usize,
    },
    /// Bagging of unpruned random trees — equivalent to Weka's
    /// `RandomForest`, the configuration of the conference version [18].
    RandomTreeBagging {
        /// Number of member trees.
        n_trees: usize,
    },
}

impl Default for BaseClassifier {
    fn default() -> Self {
        BaseClassifier::RepTreeBagging { n_trees: 10 }
    }
}

/// A full model configuration (the paper's `ML-9`, `Imp-9`, `Imp-7`,
/// `Imp-11` and their `Y` variants).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Display name, e.g. `Imp-9Y`.
    pub name: String,
    /// The pair features used for training and testing.
    pub features: FeatureSet,
    /// Whether to restrict sampling/testing to the ManhattanVpin
    /// neighborhood (the `Imp` scalability improvement, Section III-D).
    pub scalable: bool,
    /// CDF quantile defining the neighborhood radius (default 90 %).
    pub neighborhood_quantile: f64,
    /// Whether to force `DiffVpinY = 0` (top-split-layer convention,
    /// Section III-G).
    pub limit_diff_vpin_y: bool,
    /// The ensemble classifier.
    pub base: BaseClassifier,
    /// Seed driving sampling and training.
    pub seed: u64,
    /// Parallelism of training (per-tree) and of cross-validation folds.
    /// Results are bit-identical across settings; only wall-clock changes.
    pub parallelism: Parallelism,
}

impl AttackConfig {
    fn new(name: &str, features: FeatureSet, scalable: bool) -> Self {
        Self {
            name: name.to_owned(),
            features,
            scalable,
            neighborhood_quantile: DEFAULT_NEIGHBORHOOD_QUANTILE,
            limit_diff_vpin_y: false,
            base: BaseClassifier::default(),
            seed: 0xa77ac4,
            parallelism: Parallelism::Auto,
        }
    }

    /// This configuration with an explicit [`Parallelism`] setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// `ML-9`: first 9 features, no scalability restriction.
    pub fn ml9() -> Self {
        Self::new("ML-9", FeatureSet::nine(), false)
    }

    /// `Imp-9`: first 9 features with the neighborhood restriction.
    pub fn imp9() -> Self {
        Self::new("Imp-9", FeatureSet::nine(), true)
    }

    /// `Imp-7`: neighborhood restriction, 7 features (drops
    /// `TotalWirelength`, `TotalArea`).
    pub fn imp7() -> Self {
        Self::new("Imp-7", FeatureSet::seven(), true)
    }

    /// `Imp-11`: neighborhood restriction, all 11 features.
    pub fn imp11() -> Self {
        Self::new("Imp-11", FeatureSet::eleven(), true)
    }

    /// The `Y` variant of this configuration: limits `DiffVpinY` to zero
    /// (only sound when the split layer is the highest via layer).
    pub fn with_y_limit(mut self) -> Self {
        self.limit_diff_vpin_y = true;
        self.name.push('Y');
        self
    }

    /// The four standard configurations.
    pub fn standard_four() -> Vec<Self> {
        vec![Self::ml9(), Self::imp9(), Self::imp7(), Self::imp11()]
    }

    /// The four standard configurations plus their `Y` variants
    /// (the eight rows of Table IV's layer-8 block).
    pub fn standard_eight() -> Vec<Self> {
        let mut v = Self::standard_four();
        v.extend(Self::standard_four().into_iter().map(Self::with_y_limit));
        v
    }

    /// The sampling options this configuration implies given a resolved
    /// neighborhood radius.
    pub(crate) fn sample_options(&self, radius: Option<i64>) -> SampleOptions {
        SampleOptions {
            radius,
            limit_diff_vpin_y: self.limit_diff_vpin_y,
        }
    }
}

/// A trained attack model, ready to score test views.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedAttack {
    config: AttackConfig,
    model: Bagging,
    radius: Option<i64>,
    num_training_samples: usize,
}

/// The serializable components of a [`TrainedAttack`].
///
/// A trained model is exactly these four parts; [`TrainedAttack::into_parts`]
/// / [`TrainedAttack::from_parts`] convert losslessly in both directions, so
/// an artifact store can checkpoint a model and later reconstruct one that
/// scores bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedParts {
    /// The configuration the model was trained with.
    pub config: AttackConfig,
    /// The fitted Bagging ensemble.
    pub model: Bagging,
    /// The resolved neighborhood radius (None for `ML` configurations).
    pub radius: Option<i64>,
    /// Number of training samples the model saw.
    pub num_training_samples: usize,
}

impl TrainedAttack {
    /// Trains the attack on `training_views` (the paper's N−1 designs).
    ///
    /// `vpin_filter`, when present, restricts sample generation to the
    /// masked v-pins (used by proximity-attack validation).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NoTrainingData`] for an empty view list,
    /// [`AttackError::NoSamples`] if every candidate pair was filtered out,
    /// or a wrapped training error.
    pub fn train(
        config: &AttackConfig,
        training_views: &[&SplitView],
        vpin_filter: Option<&[Vec<bool>]>,
    ) -> Result<Self, AttackError> {
        Self::train_opt(config, training_views, vpin_filter, TrainOptions::default())
    }

    /// [`TrainedAttack::train`] with an explicit training oracle selector
    /// (parity suites only). The options never change the resulting model.
    ///
    /// # Errors
    ///
    /// Same contract as [`TrainedAttack::train`].
    #[doc(hidden)]
    pub fn train_opt(
        config: &AttackConfig,
        training_views: &[&SplitView],
        vpin_filter: Option<&[Vec<bool>]>,
        options: TrainOptions,
    ) -> Result<Self, AttackError> {
        let (samples, radius) = Self::prepare_samples(config, training_views, vpin_filter)?;
        Self::from_samples(config, samples, radius, options)
    }

    /// Resolves the neighborhood radius and extracts the training sample
    /// set — everything [`TrainedAttack::train`] does before ensemble
    /// fitting. Exposed so benchmarks can time sample extraction and
    /// fitting as separate stages; `train` is exactly `prepare_samples`
    /// followed by [`TrainedAttack::from_samples`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NoTrainingData`] for an empty view list.
    pub fn prepare_samples(
        config: &AttackConfig,
        training_views: &[&SplitView],
        vpin_filter: Option<&[Vec<bool>]>,
    ) -> Result<(Dataset, Option<i64>), AttackError> {
        if training_views.is_empty() {
            return Err(AttackError::NoTrainingData);
        }
        let radius = if config.scalable {
            neighborhood_radius(training_views, config.neighborhood_quantile)
        } else {
            None
        };
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let samples = generate_samples(
            training_views,
            &config.features,
            config.sample_options(radius),
            vpin_filter,
            &mut rng,
        );
        Ok((samples, radius))
    }

    /// Fits the ensemble on an already-generated sample set with an
    /// already-resolved neighborhood radius. This is [`TrainedAttack::train`]
    /// minus the sample extraction — the cross-validation driver feeds it
    /// fold sample sets assembled from its per-design cache, which is
    /// bit-identical to regeneration because each design's sample stream is
    /// seeded by name (see [`crate::samples::view_sample_seed`]).
    /// `options` selects the training oracle; pass
    /// `TrainOptions::default()` for the shipping trainer.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NoSamples`] for an empty sample set, or a
    /// wrapped training error.
    pub fn from_samples(
        config: &AttackConfig,
        samples: Dataset,
        radius: Option<i64>,
        options: TrainOptions,
    ) -> Result<Self, AttackError> {
        if samples.is_empty() {
            return Err(AttackError::NoSamples);
        }
        let model = match config.base {
            BaseClassifier::RepTreeBagging { n_trees } => Bagging::fit_with(
                &samples,
                &RepTreeLearner::with_backend(options.backend),
                n_trees,
                config.seed,
                config.parallelism,
            )?,
            BaseClassifier::RandomTreeBagging { n_trees } => Bagging::fit_with(
                &samples,
                &RandomTreeLearner::with_backend(options.backend),
                n_trees,
                config.seed,
                config.parallelism,
            )?,
        };
        Ok(Self {
            config: config.clone(),
            model,
            radius,
            num_training_samples: samples.len(),
        })
    }

    /// Assembles a model from pre-trained parts: the inverse of
    /// [`TrainedAttack::into_parts`]. Used by the artifact store to
    /// reconstruct checkpointed models and by two-level pruning, which
    /// builds its Level-2 model from a custom sample set.
    pub fn from_parts(parts: TrainedParts) -> Self {
        Self {
            config: parts.config,
            model: parts.model,
            radius: parts.radius,
            num_training_samples: parts.num_training_samples,
        }
    }

    /// Decomposes the model into its serializable [`TrainedParts`].
    pub fn into_parts(self) -> TrainedParts {
        TrainedParts {
            config: self.config,
            model: self.model,
            radius: self.radius,
            num_training_samples: self.num_training_samples,
        }
    }

    /// The serializable parts of this model, cloned.
    pub fn to_parts(&self) -> TrainedParts {
        self.clone().into_parts()
    }

    /// The configuration this model was trained with.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// The resolved neighborhood radius (None for `ML` configurations).
    pub fn radius(&self) -> Option<i64> {
        self.radius
    }

    /// Number of training samples the model saw.
    pub fn num_training_samples(&self) -> usize {
        self.num_training_samples
    }

    /// The underlying ensemble.
    pub fn model(&self) -> &Bagging {
        &self.model
    }

    /// Scores every candidate pair of `view` (Section III-C's testing
    /// stage) and records, per v-pin, the probability of its true match and
    /// its highest-probability candidates.
    ///
    /// `options` controls which v-pins are scored and how many candidates
    /// are retained; see [`ScoreOptions`].
    pub fn score(&self, view: &SplitView, options: &ScoreOptions) -> ScoredView {
        score_with(self, view, options, CandidateSource::Config)
    }

    /// Scores `view` through the reference implementations `oracle`
    /// selects, for the parity suites and benches. Every selection yields
    /// a [`ScoredView`] bit-identical to [`TrainedAttack::score`];
    /// `Oracle::default()` *is* the shipping path.
    #[doc(hidden)]
    pub fn score_oracle(
        &self,
        view: &SplitView,
        options: &ScoreOptions,
        oracle: Oracle,
    ) -> ScoredView {
        let source = if oracle.all_pairs {
            CandidateSource::AllPairs
        } else {
            CandidateSource::Config
        };
        if oracle.per_pair {
            score_per_pair(self, view, options, &source)
        } else {
            score_with(self, view, options, source)
        }
    }
}

/// Reference implementations of the scoring stage, kept as test oracles
/// for the parity suites and benches. Either or both may be selected.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Oracle {
    /// Score pair by pair with [`FeatureSet::compute_into`] +
    /// [`Bagging::proba`], on one thread (ignores
    /// [`ScoreOptions::parallelism`]), instead of the batched
    /// [`PairKernel`] + [`CompiledEnsemble`] path.
    pub per_pair: bool,
    /// Enumerate each target's candidates by scanning all n v-pins with a
    /// distance/track filter instead of [`VpinIndex`] queries.
    pub all_pairs: bool,
}

/// Options for the scoring stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreOptions {
    /// Fraction of the view's v-pins to retain per target as the
    /// top-probability candidate list (never fewer than
    /// [`Self::top_floor`]). The proximity attack can only consider PA-LoC
    /// fractions up to this value.
    pub top_fraction: f64,
    /// Minimum retained candidates per target, applied *after* the
    /// `ceil(top_fraction x v-pins)` sizing (default
    /// [`DEFAULT_TOP_FLOOR`] = 16). On tiny views the floor, not the
    /// fraction, decides the list size — e.g. a 100-v-pin view at the
    /// default 6 % keeps 16 candidates per target, not 6 — which silently
    /// inflates LoC lists unless lowered here.
    pub top_floor: usize,
    /// If set, only these v-pins are scored as targets (candidates still
    /// come from the whole view). Used by PA validation.
    pub targets: Option<Vec<u32>>,
    /// Worker threads for pair scoring. The scored result is bit-identical
    /// across settings; only wall-clock changes.
    pub parallelism: Parallelism,
}

impl Default for ScoreOptions {
    fn default() -> Self {
        Self {
            top_fraction: 0.06,
            top_floor: DEFAULT_TOP_FLOOR,
            targets: None,
            parallelism: Parallelism::Auto,
        }
    }
}

impl ScoreOptions {
    /// The scored targets: [`Self::targets`], or every v-pin of `view`.
    pub(crate) fn targets_of(&self, view: &SplitView) -> Vec<u32> {
        match &self.targets {
            Some(t) => t.clone(),
            None => (0..view.num_vpins() as u32).collect(),
        }
    }

    /// Retained candidates per target. Sized from the *view's* v-pin
    /// count, never from the target list, so scoring a target range
    /// retains exactly what scoring the whole view would.
    fn top_k(&self, view: &SplitView) -> usize {
        ((self.top_fraction * view.num_vpins() as f64).ceil() as usize).max(self.top_floor)
    }
}

/// Where a target's candidates come from.
pub(crate) enum CandidateSource<'a> {
    /// Derive from the trained configuration (neighborhood and/or
    /// Y-limit) through [`VpinIndex`] radius / same-track queries.
    Config,
    /// The same candidate set as `Config`, found by scanning all n v-pins
    /// per target — the oracle the spatial queries are checked against.
    AllPairs,
    /// Explicit per-target candidate lists (two-level pruning's Level-2
    /// stage). Must be indexed like the score targets.
    Explicit(&'a [Vec<u32>]),
}

/// One retained candidate of a target v-pin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cand {
    /// Ensemble probability that the pair is connected.
    pub p: f64,
    /// Candidate v-pin index.
    pub index: u32,
    /// Manhattan distance between the two v-pins.
    pub dist: i64,
}

/// Per-target scoring record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VpinScore {
    /// The target v-pin.
    pub vpin: u32,
    /// Probability assigned to the true match, or `None` if the true match
    /// was never scored (filtered by legality, neighborhood, or Y-limit) —
    /// a permanent miss that caps the achievable accuracy.
    pub true_prob: Option<f64>,
    /// Retained candidates, sorted by descending probability.
    pub top: Vec<Cand>,
}

/// The complete scoring of a test view: everything needed to derive LoC
/// sizes, accuracies and proximity attacks at any threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredView {
    /// Per-target records.
    pub slots: Vec<VpinScore>,
    /// Histogram over all scored candidate probabilities (per-target
    /// entries; bin `k` covers `k / HIST_BINS <= p < (k + 1) / HIST_BINS`,
    /// with the top bin closed so it also holds `p = 1`).
    pub hist: Vec<u64>,
    /// Total v-pins in the underlying view (denominator of LoC fractions).
    pub num_view_vpins: usize,
    /// Total candidate pairs evaluated.
    pub pairs_scored: u64,
}

impl ScoredView {
    /// A scoring of no targets yet over a view of `num_view_vpins` v-pins.
    pub(crate) fn empty(num_view_vpins: usize) -> Self {
        Self {
            slots: Vec::new(),
            hist: vec![0u64; HIST_BINS],
            num_view_vpins,
            pairs_scored: 0,
        }
    }

    /// Appends the scoring of the targets that follow this one's: slots
    /// concatenate in target order, histograms and pair counts add. Exact
    /// `u64` sums, so any split of a target list into consecutive parts
    /// appends back to the bytes of scoring it whole.
    pub(crate) fn append(&mut self, part: ScoredView) {
        self.slots.extend(part.slots);
        for (acc, add) in self.hist.iter_mut().zip(&part.hist) {
            *acc += add;
        }
        self.pairs_scored += part.pairs_scored;
    }
}

/// Maps a probability to its histogram bin: floor-based edges, so bin `k`
/// holds `k / HIST_BINS <= p < (k + 1) / HIST_BINS` (top bin closed).
pub(crate) fn hist_bin(p: f64) -> usize {
    ((p * HIST_BINS as f64) as usize).min(HIST_BINS - 1)
}

/// Lower edge of histogram bin `k`, the probability threshold it
/// represents in sweeps.
pub(crate) fn bin_threshold(k: usize) -> f64 {
    k as f64 / HIST_BINS as f64
}

/// First histogram bin containing only probabilities `>= t`: the shared
/// bin-edge convention of every threshold query. A threshold is snapped
/// *up* to the next bin edge (capped at the top bin), so a bin is counted
/// iff all its probabilities meet the effective threshold
/// [`bin_threshold`]`(first_bin(t))`.
pub(crate) fn first_bin(t: f64) -> usize {
    ((t * HIST_BINS as f64).ceil() as usize).min(HIST_BINS - 1)
}

/// Scores every target of `options` in one pass of a [`Scorer`].
pub(crate) fn score_with(
    attack: &TrainedAttack,
    view: &SplitView,
    options: &ScoreOptions,
    source: CandidateSource<'_>,
) -> ScoredView {
    let targets = options.targets_of(view);
    Scorer::new(attack, view, options, source).score(
        &targets,
        0..targets.len(),
        options.parallelism,
    )
}

/// The read-only tables of one scoring run: the spatial index, the SoA
/// feature columns of the view and the flattened ensemble. Built once per
/// run and shared by every target range scored through it — a whole
/// view, two-level pruning's Level-2 pass, or the resumable driver's
/// shards.
pub(crate) struct Scorer<'a> {
    attack: &'a TrainedAttack,
    view: &'a SplitView,
    source: CandidateSource<'a>,
    index: Option<VpinIndex>,
    kernel: PairKernel,
    ensemble: CompiledEnsemble,
    top_k: usize,
}

impl<'a> Scorer<'a> {
    pub(crate) fn new(
        attack: &'a TrainedAttack,
        view: &'a SplitView,
        options: &ScoreOptions,
        source: CandidateSource<'a>,
    ) -> Self {
        Self {
            attack,
            view,
            index: candidate_index(attack, view, &source),
            source,
            kernel: PairKernel::new(view.vpins(), &attack.config.features),
            ensemble: attack.model.compile(),
            top_k: options.top_k(view),
        }
    }

    /// Scores `targets[slots]` into a partial [`ScoredView`]: those slots
    /// in order, plus their histogram and pair-count contributions.
    ///
    /// The range is sharded into contiguous sub-ranges: each worker fills
    /// its own part and the parts are merged in target order, so the
    /// result is bit-identical for any parallelism setting — and
    /// appending the parts of consecutive ranges reproduces scoring the
    /// whole list at once.
    pub(crate) fn score(
        &self,
        targets: &[u32],
        slots: Range<usize>,
        parallelism: Parallelism,
    ) -> ScoredView {
        let view = self.view;
        let nf = self.kernel.num_features();
        let drives = self.kernel.drives();
        let parts = par_chunks(parallelism, slots.len(), |range| {
            let mut part = ScoredView::empty(view.num_vpins());
            let mut cands: Vec<u32> = Vec::new();
            let mut legal: Vec<u32> = Vec::new();
            let mut rows: Vec<f64> = Vec::with_capacity(SCORE_BATCH * nf);
            let mut probs: Vec<f64> = Vec::with_capacity(SCORE_BATCH);
            let first = slots.start + range.start;
            for (slot_idx, &i) in (first..).zip(&targets[first..slots.start + range.end]) {
                let iu = i as usize;
                let truth = view.true_match(iu);
                enumerate_candidates(
                    self.attack,
                    view,
                    &self.source,
                    self.index.as_ref(),
                    slot_idx,
                    i,
                    &mut cands,
                );
                // Legality-filter the enumeration, then score SCORE_BATCH
                // candidates per kernel call. Candidate order, histogram
                // updates and top-list pushes follow the per-pair oracle's
                // exact sequence.
                legal.clear();
                if drives[iu] {
                    legal.extend(
                        cands
                            .iter()
                            .copied()
                            .filter(|&j| j != i && !drives[j as usize]),
                    );
                } else {
                    legal.extend(cands.iter().copied().filter(|&j| j != i));
                }
                let mut slot = VpinScore {
                    vpin: i,
                    true_prob: None,
                    top: Vec::new(),
                };
                let mut top: Vec<Cand> = Vec::with_capacity(self.top_k + 1);
                for chunk in legal.chunks(SCORE_BATCH) {
                    self.kernel.fill_batch(i, chunk, &mut rows);
                    probs.clear();
                    probs.resize(chunk.len(), 0.0);
                    self.ensemble.proba_batch(&rows, nf, &mut probs);
                    for (&j, &p) in chunk.iter().zip(&probs) {
                        let ju = j as usize;
                        part.pairs_scored += 1;
                        part.hist[hist_bin(p)] += 1;
                        if ju == truth {
                            slot.true_prob = Some(p);
                        }
                        // `push_top` compares probability first, so a
                        // candidate strictly below the retained minimum
                        // can never enter the list and its distance is
                        // never computed; only candidates at or above the
                        // minimum pay for it.
                        if top.len() < self.top_k || p >= top[0].p {
                            push_top(
                                &mut top,
                                Cand {
                                    p,
                                    index: j,
                                    dist: view.distance(iu, ju),
                                },
                                self.top_k,
                            );
                        }
                    }
                }
                top.sort_by(|a, b| cand_cmp(b, a));
                slot.top = top;
                part.slots.push(slot);
            }
            part
        });
        let mut scored = ScoredView::empty(view.num_vpins());
        for part in parts {
            scored.append(part);
        }
        scored
    }
}

/// The per-pair reference kernel: [`FeatureSet::compute_into`] +
/// [`Bagging::proba`] for each legal candidate, one target after another
/// on the calling thread. The bit-for-bit oracle of [`Scorer::score`].
fn score_per_pair(
    attack: &TrainedAttack,
    view: &SplitView,
    options: &ScoreOptions,
    source: &CandidateSource<'_>,
) -> ScoredView {
    let targets = options.targets_of(view);
    let top_k = options.top_k(view);
    let index = candidate_index(attack, view, source);
    let mut scored = ScoredView::empty(view.num_vpins());
    let mut buf = Vec::with_capacity(attack.config.features.len());
    let mut cands: Vec<u32> = Vec::new();
    for (slot_idx, &i) in targets.iter().enumerate() {
        let iu = i as usize;
        let truth = view.true_match(iu);
        enumerate_candidates(
            attack,
            view,
            source,
            index.as_ref(),
            slot_idx,
            i,
            &mut cands,
        );
        let mut slot = VpinScore {
            vpin: i,
            true_prob: None,
            top: Vec::new(),
        };
        let mut top: Vec<Cand> = Vec::with_capacity(top_k + 1);
        for &j in &cands {
            let ju = j as usize;
            if !view.is_legal_pair(iu, ju) {
                continue;
            }
            attack
                .config
                .features
                .compute_into(&view.vpins()[iu], &view.vpins()[ju], &mut buf);
            let p = attack.model.proba(&buf);
            scored.pairs_scored += 1;
            scored.hist[hist_bin(p)] += 1;
            if ju == truth {
                slot.true_prob = Some(p);
            }
            push_top(
                &mut top,
                Cand {
                    p,
                    index: j,
                    dist: view.distance(iu, ju),
                },
                top_k,
            );
        }
        top.sort_by(|a, b| cand_cmp(b, a));
        slot.top = top;
        scored.slots.push(slot);
    }
    scored
}

/// The spatial index `source` queries: only the configuration-derived
/// source of a neighborhood- or Y-limited model needs one.
fn candidate_index(
    attack: &TrainedAttack,
    view: &SplitView,
    source: &CandidateSource<'_>,
) -> Option<VpinIndex> {
    let restricted = attack.radius.is_some() || attack.config.limit_diff_vpin_y;
    if !matches!(source, CandidateSource::Config) || !restricted {
        return None;
    }
    Some(match attack.radius {
        Some(r) => VpinIndex::with_radius(view, r),
        None => VpinIndex::new(view, 10_000),
    })
}

fn enumerate_candidates(
    attack: &TrainedAttack,
    view: &SplitView,
    source: &CandidateSource<'_>,
    index: Option<&VpinIndex>,
    slot_idx: usize,
    i: u32,
    out: &mut Vec<u32>,
) {
    let n = view.num_vpins();
    let iu = i as usize;
    let y_limited = attack.config.limit_diff_vpin_y;
    out.clear();
    match source {
        CandidateSource::Explicit(lists) => {
            out.extend_from_slice(&lists[slot_idx]);
            out.retain(|&j| j != i);
        }
        CandidateSource::Config | CandidateSource::AllPairs
            if !y_limited && attack.radius.is_none() =>
        {
            // Unrestricted (`ML`) configuration: every other v-pin is a
            // candidate whichever enumeration is selected.
            out.extend((0..n as u32).filter(|&j| j != i));
        }
        CandidateSource::Config => {
            if y_limited {
                let index = index.expect("index exists for Y-limited configs");
                index.same_y(view.vpins()[iu].loc.y, i, out);
                if let Some(r) = attack.radius {
                    out.retain(|&j| view.distance(iu, j as usize) <= r);
                }
            } else {
                let r = attack.radius.expect("radius exists on this path");
                let index = index.expect("index exists for neighborhood configs");
                index.within_radius_unordered(view, view.vpins()[iu].loc, r, i, out);
            }
        }
        CandidateSource::AllPairs => {
            let yi = view.vpins()[iu].loc.y;
            for j in 0..n as u32 {
                if j == i {
                    continue;
                }
                if y_limited && view.vpins()[j as usize].loc.y != yi {
                    continue;
                }
                if let Some(r) = attack.radius {
                    if view.distance(iu, j as usize) > r {
                        continue;
                    }
                }
                out.push(j);
            }
        }
    }
}

/// Total preference order on candidates: probability descending, then
/// distance ascending, then index ascending, where `Ordering::Greater`
/// means `a` is preferred. Every tie is broken down to the v-pin index, so
/// the retained top-K list is a pure function of the candidate *set* —
/// independent of enumeration order — which is what makes the spatial and
/// all-pairs enumerations bit-identical.
fn cand_cmp(a: &Cand, b: &Cand) -> std::cmp::Ordering {
    a.p.total_cmp(&b.p)
        .then(b.dist.cmp(&a.dist))
        .then(b.index.cmp(&a.index))
}

/// Bounded keeper: retains the `k` best candidates under [`cand_cmp`].
fn push_top(top: &mut Vec<Cand>, c: Cand, k: usize) {
    if top.len() < k {
        top.push(c);
        if top.len() == k {
            // Establish ascending preference order: the worst retained
            // candidate sits at the front.
            top.sort_by(cand_cmp);
        }
        return;
    }
    if cand_cmp(&c, &top[0]) == std::cmp::Ordering::Greater {
        top[0] = c;
        // Restore sortedness with a single sift pass.
        let mut i = 0;
        while i + 1 < top.len() && cand_cmp(&top[i], &top[i + 1]) == std::cmp::Ordering::Greater {
            top.swap(i, i + 1);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_layout::{SplitLayer, Suite};

    fn suite_views(split: u8) -> Vec<SplitView> {
        Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(split).expect("valid"))
    }

    fn leave_one_out(views: &[SplitView], test: usize) -> (Vec<&SplitView>, &SplitView) {
        let train: Vec<&SplitView> = views
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != test)
            .map(|(_, v)| v)
            .collect();
        (train, &views[test])
    }

    #[test]
    fn config_names_and_feature_counts() {
        assert_eq!(AttackConfig::ml9().name, "ML-9");
        assert_eq!(AttackConfig::imp7().features.len(), 7);
        assert_eq!(AttackConfig::imp11().with_y_limit().name, "Imp-11Y");
        assert_eq!(AttackConfig::standard_eight().len(), 8);
        assert!(AttackConfig::imp9().scalable);
        assert!(!AttackConfig::ml9().scalable);
    }

    #[test]
    fn training_requires_views() {
        let err = TrainedAttack::train(&AttackConfig::imp9(), &[], None);
        assert!(matches!(err, Err(AttackError::NoTrainingData)));
    }

    #[test]
    fn imp_training_resolves_a_radius_ml_does_not() {
        let views = suite_views(6);
        let (train, _) = leave_one_out(&views, 0);
        let imp = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        assert!(imp.radius().is_some());
        let ml = TrainedAttack::train(&AttackConfig::ml9(), &train, None).expect("train");
        assert!(ml.radius().is_none());
        assert!(imp.num_training_samples() > 0);
    }

    #[test]
    fn scoring_covers_every_target_and_finds_matches() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
        let scored = model.score(test, &ScoreOptions::default());
        assert_eq!(scored.slots.len(), test.num_vpins());
        let with_truth = scored
            .slots
            .iter()
            .filter(|s| s.true_prob.is_some())
            .count();
        // The 90% neighborhood must retain the large majority of matches.
        assert!(
            with_truth as f64 / scored.slots.len() as f64 > 0.6,
            "only {with_truth}/{} matches were scored",
            scored.slots.len()
        );
        assert!(scored.pairs_scored > 0);
    }

    #[test]
    fn attack_separates_matches_from_nonmatches() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 1);
        let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
        let scored = model.score(test, &ScoreOptions::default());
        // Mean probability of true matches should far exceed the mean over
        // all candidates.
        let truths: Vec<f64> = scored.slots.iter().filter_map(|s| s.true_prob).collect();
        let mean_truth = truths.iter().sum::<f64>() / truths.len() as f64;
        let total: u64 = scored.hist.iter().sum();
        let mean_all: f64 = scored
            .hist
            .iter()
            .enumerate()
            .map(|(k, &c)| bin_threshold(k) * c as f64)
            .sum::<f64>()
            / total as f64;
        assert!(
            mean_truth > mean_all + 0.2,
            "no separation: matches {mean_truth:.3} vs all {mean_all:.3}"
        );
    }

    #[test]
    fn y_limit_scores_only_same_track_pairs() {
        let views = suite_views(8);
        let (train, test) = leave_one_out(&views, 0);
        let cfg = AttackConfig::imp9().with_y_limit();
        let model = TrainedAttack::train(&cfg, &train, None).expect("train");
        let scored = model.score(test, &ScoreOptions::default());
        for slot in &scored.slots {
            let yi = test.vpins()[slot.vpin as usize].loc.y;
            for c in &slot.top {
                assert_eq!(test.vpins()[c.index as usize].loc.y, yi);
            }
        }
    }

    #[test]
    fn targets_option_restricts_scoring() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let opts = ScoreOptions {
            targets: Some(vec![0, 5, 7]),
            ..ScoreOptions::default()
        };
        let scored = model.score(test, &opts);
        assert_eq!(scored.slots.len(), 3);
        assert_eq!(scored.slots[1].vpin, 5);
        assert_eq!(scored.num_view_vpins, test.num_vpins());
    }

    #[test]
    fn top_lists_are_sorted_and_bounded() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 2);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let opts = ScoreOptions {
            top_fraction: 0.01,
            ..ScoreOptions::default()
        };
        let scored = model.score(test, &opts);
        let cap = ((0.01 * test.num_vpins() as f64).ceil() as usize).max(16);
        for s in &scored.slots {
            assert!(s.top.len() <= cap);
            assert!(
                s.top.windows(2).all(|w| w[0].p >= w[1].p),
                "top list must be sorted"
            );
        }
    }

    #[test]
    fn scoring_is_deterministic_across_thread_counts() {
        let views = suite_views(8);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let one = model.score(
            test,
            &ScoreOptions {
                parallelism: Parallelism::Sequential,
                ..ScoreOptions::default()
            },
        );
        let four = model.score(
            test,
            &ScoreOptions {
                parallelism: Parallelism::Threads(4),
                ..ScoreOptions::default()
            },
        );
        assert_eq!(
            one, four,
            "scoring must be bit-identical across thread counts"
        );
    }

    #[test]
    fn compiled_and_reference_kernels_score_identically() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 0);
        for cfg in [AttackConfig::imp9(), AttackConfig::ml9()] {
            let model = TrainedAttack::train(&cfg, &train, None).expect("train");
            let shipped = model.score(test, &ScoreOptions::default());
            let per_pair = model.score_oracle(
                test,
                &ScoreOptions::default(),
                Oracle {
                    per_pair: true,
                    ..Oracle::default()
                },
            );
            assert_eq!(shipped, per_pair, "{}", cfg.name);
        }
    }

    #[test]
    fn spatial_and_all_pairs_enumerations_score_identically() {
        for (split, cfg) in [
            (6u8, AttackConfig::imp11()),
            (8u8, AttackConfig::imp9().with_y_limit()),
            (6u8, AttackConfig::ml9()),
        ] {
            let views = suite_views(split);
            let (train, test) = leave_one_out(&views, 0);
            let model = TrainedAttack::train(&cfg, &train, None).expect("train");
            let spatial = model.score(test, &ScoreOptions::default());
            let oracle = model.score_oracle(
                test,
                &ScoreOptions::default(),
                Oracle {
                    all_pairs: true,
                    ..Oracle::default()
                },
            );
            assert_eq!(spatial, oracle, "{}", cfg.name);
        }
    }

    #[test]
    fn push_top_breaks_ties_by_distance_then_index() {
        // Equal probabilities: the nearer candidate wins; equal distances:
        // the lower index wins — independent of arrival order, which is
        // what makes the keeper enumeration-order-invariant.
        let mk = |index, dist| Cand {
            p: 0.5,
            index,
            dist,
        };
        let orders: [[Cand; 3]; 2] = [
            [mk(2, 30), mk(1, 10), mk(3, 10)],
            [mk(3, 10), mk(2, 30), mk(1, 10)],
        ];
        for cs in orders {
            let mut top = Vec::new();
            for c in cs {
                push_top(&mut top, c, 2);
            }
            top.sort_by(|a, b| cand_cmp(b, a));
            let kept: Vec<u32> = top.iter().map(|c| c.index).collect();
            assert_eq!(kept, vec![1, 3]);
        }
    }

    #[test]
    fn top_floor_controls_tiny_view_lists() {
        // On a view smaller than the default floor of 16, the floor — not
        // top_fraction — decides the retained list size. An explicit
        // top_floor restores fraction-proportional lists.
        let views = suite_views(8);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        // Restrict to a handful of targets; list sizes depend only on
        // top_k, so any view exercises the floor arithmetic.
        let small_floor = model.score(
            test,
            &ScoreOptions {
                top_fraction: 1e-9, // ceil -> 1 retained candidate
                top_floor: 2,
                targets: Some(vec![0, 1, 2]),
                ..ScoreOptions::default()
            },
        );
        for s in &small_floor.slots {
            assert!(
                s.top.len() <= 2,
                "floor 2 must cap lists, got {}",
                s.top.len()
            );
        }
        let default_floor = model.score(
            test,
            &ScoreOptions {
                top_fraction: 1e-9,
                targets: Some(vec![0, 1, 2]),
                ..ScoreOptions::default()
            },
        );
        // The silent-inflation behavior the explicit floor documents: the
        // same fraction keeps up to 16 candidates under the default.
        assert!(default_floor.slots.iter().any(|s| s.top.len() > 2));
        assert!(default_floor
            .slots
            .iter()
            .all(|s| s.top.len() <= DEFAULT_TOP_FLOOR));
    }

    #[test]
    fn top_floor_governs_views_smaller_than_the_floor() {
        // A synthetic view with 8 v-pins — fewer than DEFAULT_TOP_FLOOR —
        // so every candidate list is floor-limited: the default keeps all
        // 7 legal partners regardless of top_fraction, and only an
        // explicit lower floor trims the lists.
        use sm_layout::geom::{Point, Rect};
        use sm_layout::{SplitLayer, VPin};
        let n = 8usize;
        assert!(n < DEFAULT_TOP_FLOOR);
        let vpins: Vec<VPin> = (0..n)
            .map(|i| {
                let x = 1000 * i as i64;
                VPin {
                    loc: Point::new(x, 500),
                    pin_loc: Point::new(x, 700),
                    wirelength: 900 + x,
                    in_area: if i % 2 == 0 { 0 } else { 4000 },
                    out_area: if i % 2 == 0 { 4000 } else { 0 },
                    pc: 1.5,
                    rc: 2.5,
                }
            })
            .collect();
        // Partner each driver (even) with the next sink (odd).
        let partner: Vec<u32> = (0..n as u32).map(|i| i ^ 1).collect();
        let tiny = sm_layout::SplitView::from_parts(
            "tiny".into(),
            SplitLayer::new(8).expect("valid layer"),
            Rect::new(Point::new(0, 0), Point::new(10_000, 10_000)),
            vpins,
            partner,
        )
        .expect("valid tiny view");

        let views = suite_views(8);
        let train: Vec<&SplitView> = views.iter().collect();
        let model = TrainedAttack::train(&AttackConfig::ml9(), &train, None).expect("train");
        let default_floor = model.score(&tiny, &ScoreOptions::default());
        assert!(default_floor
            .slots
            .iter()
            .any(|s| !s.top.is_empty() && s.top.len() > 3));
        let floored = model.score(
            &tiny,
            &ScoreOptions {
                top_floor: 3,
                ..ScoreOptions::default()
            },
        );
        assert!(floored.slots.iter().all(|s| s.top.len() <= 3));
        assert!(floored.slots.iter().any(|s| s.top.len() == 3));
    }

    #[test]
    fn push_top_keeps_the_k_best() {
        let mut top = Vec::new();
        for (i, p) in [0.1, 0.9, 0.5, 0.95, 0.2, 0.8].iter().enumerate() {
            push_top(
                &mut top,
                Cand {
                    p: *p,
                    index: i as u32,
                    dist: 0,
                },
                3,
            );
        }
        let mut ps: Vec<f64> = top.iter().map(|c| c.p).collect();
        ps.sort_by(f64::total_cmp);
        assert_eq!(ps, vec![0.8, 0.9, 0.95]);
    }

    #[test]
    fn hist_bins_are_monotone_and_in_range() {
        assert_eq!(hist_bin(0.0), 0);
        assert_eq!(hist_bin(1.0), HIST_BINS - 1);
        assert!(hist_bin(0.5) < hist_bin(0.75));
        assert!((bin_threshold(hist_bin(0.5)) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn bin_edges_share_one_convention() {
        // A probability on a bin edge stays at or above that edge's
        // threshold; first_bin snaps thresholds up to the next edge.
        assert_eq!(first_bin(0.0), 0);
        assert_eq!(first_bin(1.0), HIST_BINS - 1);
        assert_eq!(first_bin(0.5), hist_bin(0.5));
        assert_eq!(bin_threshold(hist_bin(0.5)), 0.5);
        // Off-edge thresholds round up, never down: a candidate strictly
        // below t must never be counted by a histogram sweep from
        // first_bin(t).
        let t = 0.5 + 0.25 / HIST_BINS as f64;
        assert_eq!(first_bin(t), hist_bin(0.5) + 1);
        for k in 0..HIST_BINS {
            assert_eq!(first_bin(bin_threshold(k)), k.min(HIST_BINS - 1));
        }
    }
}
