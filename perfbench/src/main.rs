//! Repository benchmark: the split-manufacturing attack, its trainer and
//! its model server, timed from outside through each layer's public API.
//!
//! ```text
//! python3 perfbench/run.py --workload attack-l6 --seed 1 --seconds 55 --trace 0
//! ```
//!
//! `run.py` builds this binary with pinned code alignment and runs it.
//! The binary prints a run record line, then one JSON result line:
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. `--scale 0.05` is a small-scale smoke mode.
//!
//! Every workload runs the same flow, sequentially and with Imp-11.
//! Cycles repeat until the time is spent. Each cycle sets up (generates
//! the five-design suite and splits it), runs an attack pass (train on
//! sb5/sb10/sb12/sb18, encode the artifact, score sb1, build the LoC
//! curve), then serve rounds against the decoded artifact, served
//! in-process to one closed-loop client. Every metric samples the whole
//! run: `setup_s` is the median over all set-ups; over the cycles after
//! the first, stage times are medians, serve latencies are percentiles
//! over every request, and throughput is over all pipelined phases. The
//! workloads differ in split layer and scored targets, which sets the
//! layer that dominates:
//!
//! - `attack-l6`: the paper's headline flow at layer 6, every target
//!   scored; the tree walk is most of each cycle.
//! - `train-l4`: layer 4 with 64 fixed targets scored, so sample
//!   extraction and fit are most of each cycle and a walk change reads
//!   nearly flat.
//!
//! Both serve the same way, 10 rounds per cycle, so the serve layers are
//! measured on a small (layer-6) and a large (layer-4) model.

mod pipeline;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use sm_attack::neighborhood::VpinIndex;
use sm_attack::Parallelism;

use pipeline::{Attack, Layout, Pins, Stages};
use serve::{Counters, Pool, Session};
use stats::{median, percentile};
use trace::Trace;

/// The configuration's own seed: the default, and the seed the pins hold for.
const DEFAULT_SEED: u64 = 0xa77ac4;
/// Held out from tuning: a later gain claim must also hold on this seed.
const HELD_OUT_SEED: u64 = 0x5eed_2018;
/// Cycles per run at least: a warm-up cycle and two measured ones.
const MIN_CYCLES: usize = 3;
/// Targets scored when not all are (a whole layer-4 scoring pass alone
/// takes ~28 s).
const SAMPLED_TARGETS: usize = 64;
/// Serve rounds after each attack pass: about a fifth of a cycle, so
/// the serve metrics sample the whole run alongside the attack.
const SERVE_ROUNDS: usize = 10;
/// Repetitions of each per-layer micro-timing.
const MICRO_PASSES: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    AttackL6,
    TrainL4,
}

impl Workload {
    const ALL: [Self; 2] = [Self::AttackL6, Self::TrainL4];

    fn name(self) -> &'static str {
        match self {
            Self::AttackL6 => "attack-l6",
            Self::TrainL4 => "train-l4",
        }
    }

    fn layer(self) -> u8 {
        match self {
            Self::AttackL6 => 6,
            Self::TrainL4 => 4,
        }
    }

    /// Number of evenly spaced targets to score; `None` scores them all.
    fn sampled_targets(self) -> Option<usize> {
        (self != Self::AttackL6).then_some(SAMPLED_TARGETS)
    }

    /// Known outputs at the default seed and scale 1.0.
    fn pins(self) -> Pins {
        match self {
            Self::AttackL6 => Pins {
                samples: 23_424,
                nodes: 14_474,
                pairs: 2_163_058,
                digest: "fnv1a64:9d7a62b25062e038",
            },
            Self::TrainL4 => Pins {
                samples: 59_860,
                nodes: 33_062,
                pairs: 143_827,
                digest: "fnv1a64:4b6026a58b8422fd",
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    trace_out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::AttackL6,
        seed: DEFAULT_SEED,
        seconds: 55.0,
        trace: false,
        scale: 1.0,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => args.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--scale" => {
                args.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    record: Vec<(&'static str, String)>,
}

impl Outcome {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn record_line(&self) -> String {
        let fields: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("record {{{}}}", fields.join(", "))
    }
}

/// Operations attempted and passed, with the first few failure reasons.
#[derive(Default)]
struct Ops {
    attempted: u64,
    passed: u64,
    reasons: Vec<String>,
}

impl Ops {
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.passed += 1,
            Err(e) if self.reasons.len() < 5 => self.reasons.push(e),
            Err(_) => {}
        }
    }
}

/// The value of one `/proc/self/status` field.
fn proc_status(field: &str) -> String {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .map(|v| v.trim().to_owned())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"))
}

fn peak_rss_mib() -> f64 {
    let kb: f64 = proc_status("VmHWM:")
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a kB count");
    kb / 1024.0
}

/// CPUs of the host, whatever this process may run on.
fn host_cpus() -> usize {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count()
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// One attack pass and the serve rounds after it.
struct Cycle {
    stages: Stages,
    lockstep: Vec<f64>,
    pipelined: Vec<f64>,
    pipelined_wall_s: f64,
    lockstep_server: Counters,
    pipelined_server: Counters,
    traced: bool,
}

/// Everything one run measured.
struct Measured {
    /// Per set-up, one per cycle: total, generation and split seconds.
    setups: Vec<(f64, f64, f64)>,
    layout: Layout,
    /// Every cycle, the warm-up first.
    cycles: Vec<Cycle>,
    decode_s: Vec<f64>,
    /// The last attack pass.
    pass: Attack,
    /// The model the server loaded, and the rows it was sent.
    served: TrainedAttack,
    pool: Pool,
    trace: Trace,
    ops: Ops,
}

/// Set-up, then cycles until `args.seconds` have passed, then shutdown.
fn measure(args: &Args) -> Measured {
    let w = args.workload;
    let set_up = || {
        let t = Instant::now();
        let l = Layout::set_up(args.scale, w.layer());
        let times = (t.elapsed().as_secs_f64(), l.gen_s, l.split_s);
        (l, times)
    };
    let (mut layout, first) = set_up();
    let mut setups = vec![first];

    let config = AttackConfig {
        seed: args.seed,
        ..AttackConfig::imp11().with_parallelism(Parallelism::Sequential)
    };
    let n = layout.target.num_vpins();
    let targets = w
        .sampled_targets()
        .map(|k| (0..k.min(n)).map(|i| (i * n / k.min(n)) as u32).collect());
    let options = ScoreOptions {
        parallelism: Parallelism::Sequential,
        targets,
        ..ScoreOptions::default()
    };
    let pins = (args.seed == DEFAULT_SEED && args.scale == 1.0).then(|| w.pins());
    let mut trace = Trace::new(false);
    let mut ops = Ops::default();
    let (mut cycles, mut decode_s, mut first_digest) = (Vec::new(), Vec::new(), None);
    let mut serving: Option<(Session, Pool, TrainedAttack)> = None;
    let mut last = None;
    // Cycles go on until the one that ends nearest the deadline, judged
    // by the length of the cycle before: a run then measures for about
    // `args.seconds`, not up to a whole cycle more.
    let (start, mut cycle_s) = (Instant::now(), 0.0);
    while cycles.len() < MIN_CYCLES || start.elapsed().as_secs_f64() + cycle_s / 2.0 < args.seconds
    {
        let began = Instant::now();
        // Set-up is repeated before every cycle after the first, so that
        // `setup_s`, like every other metric, samples the whole run. The
        // old layout and the last pass go first, so set-up runs beside no
        // more live state than in a process that sets up once and peak
        // memory stays what one cycle needs.
        if !cycles.is_empty() {
            drop((layout, last.take()));
            let (l, times) = set_up();
            layout = l;
            setups.push(times);
        }
        // Traced runs alternate traced and untraced cycles after the
        // warm-up, so the difference between the two is the overhead.
        let traced = args.trace && cycles.len() % 2 == 1;
        trace.set_enabled(traced);
        let called = Instant::now();
        let (pass, stages) = pipeline::attack(&config, &layout, &options, w.layer());
        trace.record("attack", called, Instant::now(), &stages.spans());
        trace.set_enabled(false);
        let checked = pipeline::check(&pass, &layout.target, pins.as_ref(), &mut first_digest);
        ops.check(checked.map(|d| decode_s.push(d)));
        let (session, pool, _) = serving.get_or_insert_with(|| {
            let (model, d) = pipeline::decode(&pass.artifact).expect("the artifact decodes");
            decode_s.push(d);
            let pool = Pool::build(&model, &layout.target, args.seed);
            let session = Session::start(model.clone()).expect("bind and connect to the server");
            (session, pool, model)
        });
        let mut cycle = Cycle {
            stages,
            lockstep: Vec::new(),
            pipelined: Vec::new(),
            pipelined_wall_s: 0.0,
            lockstep_server: Counters::default(),
            pipelined_server: Counters::default(),
            traced,
        };
        trace.set_enabled(traced);
        for _ in 0..SERVE_ROUNDS {
            let round = session.round(pool, &mut trace).expect("serve round");
            ops.attempted += round.attempted;
            ops.passed += round.passed;
            cycle.lockstep.extend(round.lockstep);
            cycle.pipelined.extend(round.pipelined);
            cycle.pipelined_wall_s += round.pipelined_wall_s;
            cycle.lockstep_server.add(&round.lockstep_server);
            cycle.pipelined_server.add(&round.pipelined_server);
        }
        trace.set_enabled(false);
        cycles.push(cycle);
        last = Some(pass);
        cycle_s = began.elapsed().as_secs_f64();
    }
    let (session, pool, served) = serving.expect("at least one cycle");
    let stats = session.stop().expect("the server shuts down cleanly");
    ops.check(if stats.errors + stats.shed + stats.timeouts == 0 {
        Ok(())
    } else {
        Err(format!("server counted failures: {stats:?}"))
    });
    Measured {
        setups,
        layout,
        cycles,
        decode_s,
        pass: last.expect("at least one cycle"),
        served,
        pool,
        trace,
        ops,
    }
}

impl Measured {
    /// The cycles after the warm-up.
    fn measured(&self) -> &[Cycle] {
        &self.cycles[1..]
    }

    /// Every latency of the measured cycles' lockstep or pipelined
    /// phases, in seconds.
    fn latencies(&self, phase: impl Fn(&Cycle) -> &[f64]) -> Vec<f64> {
        self.measured()
            .iter()
            .flat_map(|c| phase(c).iter().copied())
            .collect()
    }

    /// Lockstep latency percentile over every measured request, in
    /// seconds. Pooling the requests, rather than taking the median of
    /// per-cycle percentiles, lets the figure move smoothly as the host
    /// drifts between fast and slow phases instead of jumping with
    /// whichever phase the middle cycle fell in.
    fn lockstep(&self, pct: f64) -> f64 {
        percentile(&self.latencies(|c| &c.lockstep), pct)
    }

    /// Pipelined rows per second over every measured phase.
    fn pipelined_rows_per_s(&self) -> f64 {
        let cycles = self.measured();
        let rows: usize = cycles.iter().map(|c| c.pipelined.len()).sum();
        let wall: f64 = cycles.iter().map(|c| c.pipelined_wall_s).sum();
        (rows * serve::ROWS_PER_REQUEST) as f64 / wall
    }

    fn record(&self, args: &Args) -> Vec<(&'static str, String)> {
        let model = self.pass.model.model();
        let lockstep = self.latencies(|c| &c.lockstep);
        let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
        vec![
            ("workload", quote(args.workload.name())),
            ("seed", args.seed.to_string()),
            ("held_out_seed", HELD_OUT_SEED.to_string()),
            ("scale", args.scale.to_string()),
            ("split_layer", args.workload.layer().to_string()),
            ("config", quote(&self.pass.model.config().name)),
            ("target", quote(pipeline::TARGET)),
            ("scored_targets", self.pass.scored.slots.len().to_string()),
            ("nproc", nproc.to_string()),
            ("host_cpus", host_cpus().to_string()),
            ("cpus_allowed", quote(&proc_status("Cpus_allowed_list:"))),
            ("train_threads", "1".into()),
            ("score_threads", "1".into()),
            ("serve_event_loops", "1".into()),
            ("serve_workers", "1".into()),
            ("serve_batch_threads", "1".into()),
            ("client_connections", "1".into()),
            ("pipeline_depth", serve::PIPELINE_DEPTH.to_string()),
            ("trees", model.num_trees().to_string()),
            ("nodes", model.total_nodes().to_string()),
            ("samples", self.pass.samples.to_string()),
            ("pairs", self.pass.scored.pairs_scored.to_string()),
            (
                "digest",
                quote(&stats::scored_view_digest(&self.pass.scored)),
            ),
            ("curve_points", self.pass.curve.points().len().to_string()),
            ("cycles", self.cycles.len().to_string()),
            ("setups", self.setups.len().to_string()),
            ("serve_rounds_per_cycle", SERVE_ROUNDS.to_string()),
            (
                "lockstep_p99_ms",
                (percentile(&lockstep, 99.0) * 1e3).to_string(),
            ),
            ("lockstep_samples", lockstep.len().to_string()),
            ("build_profile", quote(env!("PERFBENCH_PROFILE"))),
            ("build_flags", quote(env!("PERFBENCH_RUSTFLAGS"))),
            ("rustc", quote(env!("PERFBENCH_RUSTC"))),
        ]
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let cycles = self.measured();
        vec![
            metric("setup_s", median_of(&self.setups, |s| s.0), "s"),
            metric("attack_s", median_of(cycles, |c| c.stages.attack_s()), "s"),
            metric("train_s", median_of(cycles, |c| c.stages.train_s()), "s"),
            metric("peak_rss_mb", peak_rss_mib(), "MiB"),
            metric("lockstep_p50_ms", self.lockstep(50.0) * 1e3, "ms"),
            metric("lockstep_p90_ms", self.lockstep(90.0) * 1e3, "ms"),
            metric(
                "pipelined_rows_per_s",
                self.pipelined_rows_per_s(),
                "rows/s",
            ),
            metric(
                "pipelined_p50_ms",
                percentile(&self.latencies(|c| &c.pipelined), 50.0) * 1e3,
                "ms",
            ),
            metric(
                "success_rate",
                self.ops.passed as f64 / self.ops.attempted as f64,
                "ratio",
            ),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let attack = self.trace.breakdowns("attack");
        let requests = self.trace.breakdowns("request");
        let layer_s = |name: &str| median_of(&attack, |b| b.layers[name]);
        let request_us = |name: &str| median_of(&requests, |b| b.layers[name]) * 1e6;
        let (model, pass) = (&self.served, &self.pass);
        let score_s = layer_s("score");
        let (mut lock, mut pipe) = (Counters::default(), Counters::default());
        for c in self.measured() {
            lock.add(&c.lockstep_server);
            pipe.add(&c.pipelined_server);
        }
        let walk_ns = self.pool.walk_ns_per_row(model, MICRO_PASSES);
        let compile_s = median(
            &(0..MICRO_PASSES)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(model.model().compile());
                    t.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        // Coverage and traced-minus-untraced time of the attack pass.
        let overhead = |traced: bool| {
            let cycles = self.measured().iter().filter(|c| c.traced == traced);
            median(
                &cycles
                    .map(|c| c.stages.attack_s() + c.stages.encode_s())
                    .collect::<Vec<_>>(),
            )
        };
        let coverage = median_of(&attack, trace::Breakdown::coverage);
        vec![
            metric("layout.gen_s", median_of(&self.setups, |s| s.1), "s"),
            metric("layout.split_s", median_of(&self.setups, |s| s.2), "s"),
            metric("samples.busy_s", layer_s("samples"), "s"),
            metric("samples.rows", pass.samples as f64, "count"),
            metric("fit.busy_s", layer_s("fit"), "s"),
            metric("fit.nodes", model.model().total_nodes() as f64, "count"),
            metric("compile.busy_s", compile_s, "s"),
            metric(
                "enumerate.ns_per_pair",
                enumerate_ns_per_pair(&self.layout, model),
                "ns",
            ),
            metric(
                "fill.ns_per_row",
                self.pool
                    .fill_ns_per_row(&self.layout.target, model, MICRO_PASSES),
                "ns",
            ),
            metric("score.busy_s", score_s, "s"),
            metric("score.pairs", pass.scored.pairs_scored as f64, "count"),
            metric(
                "score.ns_per_pair",
                score_s * 1e9 / pass.scored.pairs_scored as f64,
                "ns",
            ),
            metric("walk.ns_per_row", walk_ns, "ns"),
            metric("loc.busy_s", layer_s("loc"), "s"),
            metric("artifact.encode_s", layer_s("artifact.encode"), "s"),
            metric("artifact.decode_s", median(&self.decode_s), "s"),
            metric("artifact.bytes", pass.artifact.len() as f64, "bytes"),
            metric("protocol.encode_us", request_us("protocol.encode"), "us"),
            metric("protocol.decode_us", request_us("protocol.decode"), "us"),
            metric(
                "server.requests",
                (lock.requests + pipe.requests) as f64,
                "count",
            ),
            metric(
                "server.kernel_calls",
                (lock.kernel_calls + pipe.kernel_calls) as f64,
                "count",
            ),
            metric(
                "server.batch_fill",
                pipe.batched_rows as f64 / pipe.kernel_calls as f64,
                "rows",
            ),
            metric("server.errors", (lock.errors + pipe.errors) as f64, "count"),
            metric("server.shed", (lock.shed + pipe.shed) as f64, "count"),
            metric(
                "serve.kernel_share",
                serve::ROWS_PER_REQUEST as f64 * walk_ns * 1e-9 / self.lockstep(50.0),
                "ratio",
            ),
            metric("trace.coverage", coverage, "ratio"),
            metric("trace.overhead", overhead(true) - overhead(false), "s"),
        ]
    }
}

fn run(args: &Args) -> Outcome {
    let m = measure(args);
    for reason in &m.ops.reasons {
        eprintln!("[perfbench] check failed: {reason}");
    }
    let mut record = m.record(args);
    let metrics = if args.trace {
        if let Some(dir) = &args.trace_out {
            let path = dir.join(format!("trace-{}.tsv", args.workload.name()));
            m.trace.write_tsv(&path).expect("write the trace");
            record.push(("trace_file", quote(&path.display().to_string())));
        }
        m.per_layer()
    } else {
        m.end_to_end()
    };
    Outcome {
        attempted: m.ops.attempted,
        failed: m.ops.attempted - m.ops.passed,
        metrics,
        record,
    }
}

/// ns per enumerated pair of `VpinIndex::within_radius` over every target
/// v-pin: the median of `MICRO_PASSES` passes.
fn enumerate_ns_per_pair(layout: &Layout, model: &TrainedAttack) -> f64 {
    let view = &layout.target;
    let radius = model.radius().expect("Imp configurations have a radius");
    let index = VpinIndex::with_radius(view, radius);
    let mut out = Vec::new();
    let mut pairs = 0u64;
    let times: Vec<f64> = (0..MICRO_PASSES)
        .map(|_| {
            pairs = 0;
            let t = Instant::now();
            for (i, vp) in view.vpins().iter().enumerate() {
                index.within_radius(view, vp.loc, radius, i as u32, &mut out);
                pairs += out.len() as u64;
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) * 1e9 / pairs.max(1) as f64
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    println!("{}", outcome.record_line());
    println!("{}", outcome.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = parse_args(&argv(
            "--workload train-l4 --seed 0x10 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::TrainL4, 16, 3.0, true)
        );
        assert_eq!(
            parse_args(&argv("--workload attack-l6")).unwrap().seed,
            DEFAULT_SEED
        );
        for bad in [
            "",
            "--workload nope",
            "--workload attack-l6 --trace 2",
            "--workload attack-l6 --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Every workload at small scale, untraced and traced: all checks pass
    /// and each mode reports exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn smoke_runs_every_workload_at_small_scale() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<String> {
            let body = &spec[spec.find(&format!("\"{section}\"")).unwrap()..];
            let body = &body[..body.find(']').unwrap()];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_owned())
                .collect()
        };
        for w in Workload::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload: w,
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    scale: 0.05,
                    trace_out: None,
                };
                let out = run(&args);
                assert_eq!(out.failed, 0, "{w:?} trace={trace}");
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, listed(section), "{w:?} trace={trace}");
                assert!(out.result_line().starts_with("{\"correct\": true"));
            }
        }
    }
}
