//! The model server driven by one closed-loop client on the binary wire:
//! 64-row `ScorePairs` requests of real candidate rows, first in lockstep
//! and then eight deep in a pipeline, with the server's own counters read
//! before and after every phase.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sm_attack::attack::TrainedAttack;
use sm_attack::neighborhood::VpinIndex;
use sm_attack::{PairKernel, Parallelism};
use sm_layout::SplitView;
use sm_serve::protocol::binary;
use sm_serve::{BatchLinger, Request, Response, ServeOptions, ServerHandle, StatsSnapshot};

use crate::trace::Trace;

/// Rows per `ScorePairs` request.
pub const ROWS_PER_REQUEST: usize = 64;
/// Requests in flight during the pipelined phase.
pub const PIPELINE_DEPTH: usize = 8;
/// Requests per phase of one round.
pub const PHASE_REQUESTS: usize = 512;
/// Distinct requests in the pool; phases cycle through them.
const POOL_REQUESTS: usize = 256;
/// Rows per kernel call in the per-layer fill and walk timings.
const BATCH: usize = 256;

/// The server topology: one event loop, one executor worker, sequential
/// batches, no linger. Nothing here depends on the host's CPU count.
pub fn options() -> ServeOptions {
    ServeOptions {
        workers: Parallelism::Threads(1),
        batch: Parallelism::Sequential,
        event_loops: 1,
        max_queue: 1,
        batch_linger: BatchLinger::Fixed(0),
        ..ServeOptions::default()
    }
}

/// Real candidate rows of the target design: candidates within the
/// model's radius of targets taken in seed order, filled by the
/// repository's own index and feature kernel.
pub struct Pool {
    /// Features per row.
    pub width: usize,
    /// `(target, legal candidates)` in pool order.
    pub pairs: Vec<(u32, Vec<u32>)>,
    /// Row-major feature rows, `POOL_REQUESTS * ROWS_PER_REQUEST` of them.
    pub rows: Vec<f64>,
    requests: Vec<Request>,
    /// In-process `CompiledEnsemble::proba_batch` output per request.
    expected: Vec<Vec<f64>>,
}

impl Pool {
    /// Builds the pool for `model` on `view`, ordered by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the model has no neighborhood radius or the view has no
    /// legal candidate pair.
    pub fn build(model: &TrainedAttack, view: &SplitView, seed: u64) -> Self {
        let radius = model.radius().expect("Imp configurations have a radius");
        let index = VpinIndex::with_radius(view, radius);
        let kernel = PairKernel::new(view.vpins(), &model.config().features);
        let width = kernel.num_features();
        let mut order: Vec<u32> = (0..view.num_vpins() as u32).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        let want = POOL_REQUESTS * ROWS_PER_REQUEST;
        let (mut pairs, mut rows, mut batch) = (Vec::new(), Vec::new(), Vec::new());
        let mut cands = Vec::new();
        'fill: loop {
            let before = rows.len();
            for &i in &order {
                let iu = i as usize;
                index.within_radius(view, view.vpins()[iu].loc, radius, i, &mut cands);
                cands.retain(|&j| view.is_legal_pair(iu, j as usize));
                cands.truncate((want - rows.len() / width).min(cands.len()));
                if cands.is_empty() {
                    continue;
                }
                kernel.fill_batch(i, &cands, &mut batch);
                rows.extend_from_slice(&batch);
                pairs.push((i, cands.clone()));
                if rows.len() == want * width {
                    break 'fill;
                }
            }
            assert!(
                rows.len() > before,
                "no legal candidate pair in {}",
                view.name
            );
        }
        let compiled = model.model().compile();
        let block = ROWS_PER_REQUEST * width;
        let (requests, expected) = rows
            .chunks_exact(block)
            .map(|chunk| {
                let mut probs = vec![0.0; ROWS_PER_REQUEST];
                compiled.proba_batch(chunk, width, &mut probs);
                let features = chunk.chunks_exact(width).map(<[f64]>::to_vec).collect();
                (
                    Request::ScorePairs {
                        features,
                        model_id: None,
                    },
                    probs,
                )
            })
            .unzip();
        Self {
            width,
            pairs,
            rows,
            requests,
            expected,
        }
    }

    /// ns per row of `PairKernel::fill_batch` over the pool's pairs, in
    /// `BATCH`-row calls: the median of `passes` passes.
    pub fn fill_ns_per_row(&self, view: &SplitView, model: &TrainedAttack, passes: usize) -> f64 {
        let kernel = PairKernel::new(view.vpins(), &model.config().features);
        let mut out = Vec::new();
        let times: Vec<f64> = (0..passes)
            .map(|_| {
                let t = Instant::now();
                for (i, cands) in &self.pairs {
                    for chunk in cands.chunks(BATCH) {
                        kernel.fill_batch(*i, chunk, &mut out);
                        std::hint::black_box(&out);
                    }
                }
                t.elapsed().as_secs_f64()
            })
            .collect();
        crate::stats::median(&times) * 1e9 / (self.rows.len() / self.width) as f64
    }

    /// ns per row of `CompiledEnsemble::proba_batch` over the pool's rows,
    /// in `BATCH`-row calls: the median of `passes` passes.
    pub fn walk_ns_per_row(&self, model: &TrainedAttack, passes: usize) -> f64 {
        let compiled = model.model().compile();
        let mut probs = vec![0.0; BATCH];
        let times: Vec<f64> = (0..passes)
            .map(|_| {
                let t = Instant::now();
                for chunk in self.rows.chunks(BATCH * self.width) {
                    let n = chunk.len() / self.width;
                    compiled.proba_batch(std::hint::black_box(chunk), self.width, &mut probs[..n]);
                    std::hint::black_box(&probs);
                }
                t.elapsed().as_secs_f64()
            })
            .collect();
        crate::stats::median(&times) * 1e9 / (self.rows.len() / self.width) as f64
    }
}

/// One blocking client connection speaking the binary wire.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    payload: Vec<u8>,
}

impl Conn {
    fn open(server: &ServerHandle) -> std::io::Result<Self> {
        let writer = TcpStream::connect(server.addr())?;
        writer.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            payload: Vec::new(),
        })
    }

    /// Reads one response frame into `self.payload`; returns its type.
    fn read_frame(&mut self) -> std::io::Result<u8> {
        let mut header = [0u8; binary::HEADER_LEN];
        self.reader.read_exact(&mut header)?;
        let h = binary::decode_header(header, u64::MAX)
            .map_err(|e| std::io::Error::other(format!("bad response frame: {e}")))?;
        self.payload.resize(h.len as usize, 0);
        self.reader.read_exact(&mut self.payload)?;
        Ok(h.frame_type)
    }

    fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        self.writer.write_all(&binary::encode_request(request))?;
        let frame_type = self.read_frame()?;
        binary::decode_response(frame_type, &self.payload)
            .map_err(|e| std::io::Error::other(format!("bad response: {e}")))
    }

    fn stats(&mut self) -> std::io::Result<StatsSnapshot> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(std::io::Error::other(format!("Stats answered {other:?}"))),
        }
    }
}

fn scores_match(response: &Response, expected: &[f64]) -> bool {
    matches!(response, Response::Scores { probs }
        if probs.len() == expected.len()
            && probs.iter().zip(expected).all(|(a, b)| a.to_bits() == b.to_bits()))
}

/// Server counter deltas over one phase.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub requests: u64,
    pub kernel_calls: u64,
    pub batched_rows: u64,
    pub errors: u64,
    pub shed: u64,
    pub timeouts: u64,
}

impl Counters {
    fn delta(before: &StatsSnapshot, after: &StatsSnapshot) -> Self {
        Self {
            requests: after.requests - before.requests,
            kernel_calls: after.score_batches - before.score_batches,
            batched_rows: after.batched_rows - before.batched_rows,
            errors: after.errors - before.errors,
            shed: after.shed - before.shed,
            timeouts: after.timeouts - before.timeouts,
        }
    }

    /// Adds `other` into these counters.
    pub fn add(&mut self, other: &Self) {
        self.requests += other.requests;
        self.kernel_calls += other.kernel_calls;
        self.batched_rows += other.batched_rows;
        self.errors += other.errors;
        self.shed += other.shed;
        self.timeouts += other.timeouts;
    }
}

/// One lockstep phase and one pipelined phase.
pub struct Round {
    /// Per-request latency of the lockstep phase, in seconds.
    pub lockstep: Vec<f64>,
    /// Per-request latency of the pipelined phase, in seconds.
    pub pipelined: Vec<f64>,
    /// Wall time of the pipelined phase, in seconds.
    pub pipelined_wall_s: f64,
    /// Server counters over the lockstep phase.
    pub lockstep_server: Counters,
    /// Server counters over the pipelined phase.
    pub pipelined_server: Counters,
    /// Requests sent plus phases accounted, and how many passed.
    pub attempted: u64,
    pub passed: u64,
}

/// A bound server plus the client connection that drives it.
pub struct Session {
    server: ServerHandle,
    conn: Conn,
    next: usize,
}

impl Session {
    /// Serves `model` in-process and connects one client.
    ///
    /// # Errors
    ///
    /// Returns socket errors from binding or connecting.
    pub fn start(model: TrainedAttack) -> std::io::Result<Self> {
        let server = ServerHandle::bind(model, "127.0.0.1:0", options())?;
        let conn = Conn::open(&server)?;
        Ok(Self {
            server,
            conn,
            next: 0,
        })
    }

    /// Runs one round. Lockstep requests are traced as `request` spans with
    /// encode, round-trip and decode children.
    ///
    /// # Errors
    ///
    /// Returns socket errors; a wrong reply is counted, not returned.
    pub fn round(&mut self, pool: &Pool, trace: &mut Trace) -> std::io::Result<Round> {
        let n = pool.requests.len();
        let mut passed = 0u64;
        let mut lockstep = Vec::with_capacity(PHASE_REQUESTS);
        let before = self.conn.stats()?;
        for _ in 0..PHASE_REQUESTS {
            let k = self.next % n;
            self.next += 1;
            let t0 = Instant::now();
            let frame = binary::encode_request(&pool.requests[k]);
            let t1 = Instant::now();
            self.conn.writer.write_all(&frame)?;
            let frame_type = self.conn.read_frame()?;
            let t2 = Instant::now();
            let response = binary::decode_response(frame_type, &self.conn.payload);
            let t3 = Instant::now();
            lockstep.push((t3 - t0).as_secs_f64());
            passed += u64::from(response.is_ok_and(|r| scores_match(&r, &pool.expected[k])));
            trace.record(
                "request",
                t0,
                Instant::now(),
                &[
                    ("protocol.encode", t0, t1),
                    ("serve.roundtrip", t1, t2),
                    ("protocol.decode", t2, t3),
                ],
            );
        }
        let mid = self.conn.stats()?;

        let mut pipelined = Vec::with_capacity(PHASE_REQUESTS);
        let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(PIPELINE_DEPTH);
        let (mut sent, start) = (0, Instant::now());
        while pipelined.len() < PHASE_REQUESTS {
            while sent < PHASE_REQUESTS && in_flight.len() < PIPELINE_DEPTH {
                let k = self.next % n;
                self.next += 1;
                let t0 = Instant::now();
                self.conn
                    .writer
                    .write_all(&binary::encode_request(&pool.requests[k]))?;
                in_flight.push_back((k, t0));
                sent += 1;
            }
            let frame_type = self.conn.read_frame()?;
            let response = binary::decode_response(frame_type, &self.conn.payload);
            let (k, t0) = in_flight
                .pop_front()
                .expect("a reply answers a request in flight");
            pipelined.push(t0.elapsed().as_secs_f64());
            passed += u64::from(response.is_ok_and(|r| scores_match(&r, &pool.expected[k])));
        }
        let wall = start.elapsed().as_secs_f64();
        let after = self.conn.stats()?;

        // `Stats` reports the counters from before itself, so each phase's
        // delta also counts the `Stats` request that opened it.
        let phases = [
            Counters::delta(&before, &mid),
            Counters::delta(&mid, &after),
        ];
        let mut attempted = 2 * PHASE_REQUESTS as u64;
        for c in &phases {
            attempted += 1;
            let exact = c.requests == PHASE_REQUESTS as u64 + 1
                && c.batched_rows == (PHASE_REQUESTS * ROWS_PER_REQUEST) as u64
                && c.errors == 0
                && c.shed == 0
                && c.timeouts == 0;
            passed += u64::from(exact);
        }
        Ok(Round {
            lockstep,
            pipelined,
            pipelined_wall_s: wall,
            lockstep_server: phases[0],
            pipelined_server: phases[1],
            attempted,
            passed,
        })
    }

    /// Asks the server to stop and waits for it; returns its final counters.
    ///
    /// # Errors
    ///
    /// Returns socket errors, or the server's own exit error.
    pub fn stop(mut self) -> std::io::Result<StatsSnapshot> {
        self.conn.call(&Request::Shutdown)?;
        drop(self.conn);
        self.server.join()
    }
}
