//! The three serving workloads: `exact_sweep`, `mc_churn` and `nn_rpc`.
//!
//! Each runs one closed-loop client over localhost TCP:
//! `NetClient` → `NetServer` → `Dispatcher` over a 4-shard hash `ShardSet`.
//! `mc_churn` interleaves seeded bursts of moves (remove + insert near the
//! old position) with its reads and installs a fresh no-exact dispatcher
//! under the server's mutex after each burst.
//!
//! The traced half replays every batch against an in-process twin
//! dispatcher over the same snapshot whose shard backends are wrapped in
//! [`TracedShard`], re-encodes the request and reply with the wire codec,
//! and separately calls the quantification functions the dispatcher calls.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::dynamic::PointId;
use unn::geom::Point;
use unn::net::{tcp_connector, ClientConfig, NetClient, NetServer, ServerConfig};
use unn::nonzero::DeltaCompose;
use unn::observe::{NullClock, ServeCounters};
use unn::quantify::{adaptive_over_winners, quantification_numeric, AdaptiveQuantify};
use unn::serve::{
    DispatchConfig, Dispatcher, EngineShard, Outcome, Reply, Request, ServeConfig, ShardBackend,
    ShardPolicy, ShardSet, ShardSetSnapshot,
};
use unn::wire::{decode_frame, encode_frame, Frame, ReplyBatch, RequestBatch};
use unn::Uncertain;

use crate::stats::{beyond, mean, median, percentile, ratio, Calls};
use crate::trace::{children, self_time, write_jsonl, Span, Tracer};
use crate::{jittered_grid, layer_defaults, Args, Report, Window, THREADS, WARMUP_S};

const SHARDS: usize = 4;
const BOX: f64 = 100.0;
/// `mc_churn`: read batches between write bursts, and moves per burst.
const READ_BURST: usize = 16;
const MOVES_PER_BURST: usize = 8;
/// `mc_churn`: a moved disk's center shifts by up to this in x and y.
const MOVE_JITTER: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    ExactSweep,
    McChurn,
    NnRpc,
}

struct Spec {
    kind: Kind,
    n: usize,
    mc_rounds: usize,
    epsilon: f64,
    batch: usize,
    pool_queries: usize,
    /// Fixed per workload: today's run has ≥ 10 samples beyond it.
    tail_pct: f64,
    setup_reps: usize,
    /// Share of timed batches kept for the untimed output check, and cap.
    check_p: f64,
    check_cap: usize,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "exact_sweep" => Spec {
            kind: Kind::ExactSweep,
            n: 1024,
            mc_rounds: ServeConfig::default().mc_rounds,
            epsilon: DispatchConfig::default().epsilon,
            batch: 2,
            pool_queries: 256,
            tail_pct: 90.0,
            setup_reps: 3,
            check_p: 0.05,
            check_cap: 4,
        },
        "mc_churn" => Spec {
            kind: Kind::McChurn,
            n: 2048,
            mc_rounds: 1024,
            epsilon: 0.15,
            batch: 16,
            pool_queries: 4096,
            tail_pct: 95.0,
            setup_reps: 3,
            check_p: 0.01,
            check_cap: 8,
        },
        _ => Spec {
            kind: Kind::NnRpc,
            n: 1024,
            mc_rounds: 64,
            epsilon: DispatchConfig::default().epsilon,
            batch: 8,
            pool_queries: 4096,
            tail_pct: 99.0,
            setup_reps: 7,
            check_p: 0.005,
            check_cap: 256,
        },
    }
}

fn serve_config(spec: &Spec, seed: u64) -> ServeConfig {
    ServeConfig {
        seed: seed ^ 0x5eed_5eed,
        mc_rounds: spec.mc_rounds,
        epsilon: spec.epsilon,
        ..ServeConfig::default()
    }
}

fn dispatch_config(spec: &Spec) -> DispatchConfig {
    DispatchConfig {
        threads: Some(THREADS),
        epsilon: spec.epsilon,
        ..DispatchConfig::default()
    }
}

/// A dispatcher over `snap` (exact view only on `exact_sweep`), with shard
/// backends wrapped in [`TracedShard`] when `ctx` is given.
fn dispatcher(spec: &Spec, snap: &ShardSetSnapshot, ctx: Option<&Arc<TraceCtx>>) -> Dispatcher {
    let clock = Arc::new(NullClock);
    let backends: Vec<Box<dyn ShardBackend>> = snap
        .shards()
        .iter()
        .map(|s| {
            let shard = EngineShard::new(s.clone(), clock.clone());
            match ctx {
                Some(ctx) => Box::new(TracedShard {
                    inner: shard,
                    ctx: Arc::clone(ctx),
                }) as Box<dyn ShardBackend>,
                None => Box::new(shard) as Box<dyn ShardBackend>,
            }
        })
        .collect();
    let exact = (spec.kind == Kind::ExactSweep).then(|| snap.exact_view());
    Dispatcher::new(backends, exact, dispatch_config(spec), clock)
        .expect("benchmark dispatch config is valid")
}

fn random_disk(rng: &mut SmallRng) -> (Point, f64) {
    (
        Point::new(rng.random_range(0.0..BOX), rng.random_range(0.0..BOX)),
        rng.random_range(0.5..2.0),
    )
}

/// The request pool: stratified query points, batched, each `mc_churn`
/// batch mixing `Quantify` and `NnNonzero` 3:1 at seeded positions.
fn request_pool(spec: &Spec, rng: &mut SmallRng) -> Vec<Vec<Request>> {
    let qs = jittered_grid(rng, spec.pool_queries, BOX);
    qs.chunks(spec.batch)
        .map(|chunk| {
            let mut nn_slots: Vec<bool> = (0..chunk.len()).map(|i| i % 4 == 0).collect();
            for i in (1..nn_slots.len()).rev() {
                nn_slots.swap(i, rng.random_range(0..=i));
            }
            chunk
                .iter()
                .zip(nn_slots)
                .map(|(&q, nn)| match spec.kind {
                    Kind::ExactSweep => Request::Quantify(q),
                    Kind::NnRpc => Request::NnNonzero(q),
                    Kind::McChurn if nn => Request::NnNonzero(q),
                    Kind::McChurn => Request::Quantify(q),
                })
                .collect()
        })
        .collect()
}

/// Serve counters the workload-identity guards and tier fractions read.
#[derive(Clone, Copy, Default, Debug)]
struct Tiers {
    queries: u64,
    exact: u64,
    adaptive: u64,
    capped: u64,
    nonzero: u64,
    shed: u64,
    retries: u64,
    timeouts: u64,
    shard_panics: u64,
}

impl Tiers {
    fn of(c: &ServeCounters) -> Self {
        Self {
            queries: c.queries,
            exact: c.answered_exact,
            adaptive: c.answered_adaptive,
            capped: c.answered_capped,
            nonzero: c.answered_nonzero,
            shed: c.shed,
            retries: c.retries,
            timeouts: c.timeouts,
            shard_panics: c.shard_panics,
        }
    }

    fn plus(self, o: Self) -> Self {
        Self {
            queries: self.queries + o.queries,
            exact: self.exact + o.exact,
            adaptive: self.adaptive + o.adaptive,
            capped: self.capped + o.capped,
            nonzero: self.nonzero + o.nonzero,
            shed: self.shed + o.shed,
            retries: self.retries + o.retries,
            timeouts: self.timeouts + o.timeouts,
            shard_panics: self.shard_panics + o.shard_panics,
        }
    }

    fn minus(self, o: Self) -> Self {
        Self {
            queries: self.queries - o.queries,
            exact: self.exact - o.exact,
            adaptive: self.adaptive - o.adaptive,
            capped: self.capped - o.capped,
            nonzero: self.nonzero - o.nonzero,
            shed: self.shed - o.shed,
            retries: self.retries - o.retries,
            timeouts: self.timeouts - o.timeouts,
            shard_panics: self.shard_panics - o.shard_panics,
        }
    }
}

/// Span context shared with the twin dispatcher's wrapped shard backends:
/// the current dispatch span and the batch's request ids by query point.
struct TraceCtx {
    tracer: Tracer,
    parent: AtomicU64,
    reqs: Mutex<Vec<(Point, u64)>>,
}

impl TraceCtx {
    fn call<T>(&self, name: &'static str, q: Point, f: impl FnOnce() -> T) -> T {
        let req = self
            .reqs
            .lock()
            .expect("request map lock poisoned")
            .iter()
            .find(|(p, _)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
            .map_or(0, |&(_, id)| id);
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer.span(name, parent, req, f)
    }
}

/// A shard backend that forwards to the real [`EngineShard`] inside a span.
struct TracedShard {
    inner: EngineShard,
    ctx: Arc<TraceCtx>,
}

impl ShardBackend for TracedShard {
    fn live_ids(&self) -> &[PointId] {
        self.inner.live_ids()
    }

    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn delta_fold(&self, q: Point) -> (DeltaCompose, u64) {
        self.ctx
            .call("dynamic.delta_fold", q, || self.inner.delta_fold(q))
    }

    fn report_nonzero(&self, q: Point, fold: &DeltaCompose) -> (Vec<PointId>, u64) {
        self.ctx
            .call("dynamic.report", q, || self.inner.report_nonzero(q, fold))
    }

    fn round_winners(&self, q: Point) -> (Vec<(f64, PointId)>, u64) {
        self.ctx
            .call("dynamic.round_winners", q, || self.inner.round_winners(q))
    }
}

/// The adaptive tier's answer recomputed outside the dispatcher: merged
/// per-round winners ranked in the live layout, then the stopping rule.
fn adaptive_of(
    snap: &ShardSetSnapshot,
    spec: &Spec,
    winners: &[(f64, PointId)],
) -> AdaptiveQuantify {
    let ids = snap.live_ids();
    let ranks: Vec<u32> = winners
        .iter()
        .map(|(_, id)| ids.binary_search(id).map_or(u32::MAX, |r| r as u32))
        .collect();
    let cfg = dispatch_config(spec);
    adaptive_over_winners(
        &ranks,
        ids.len(),
        cfg.epsilon,
        cfg.delta,
        cfg.adaptive_min_rounds,
        snap.mc_rounds(),
    )
}

struct Stack {
    set: ShardSet,
    snap: ShardSetSnapshot,
    shared: Arc<Mutex<Dispatcher>>,
    server: NetServer,
    client: NetClient,
}

#[derive(Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    build_s: f64,
    exact_view_s: f64,
    connect_ms: f64,
}

/// Build → snapshot → exact view → dispatcher → bind → connect + handshake.
fn setup(spec: &Spec, seed: u64, points: &[Uncertain]) -> (Stack, SetupTimes) {
    let t0 = Instant::now();
    let mut set = ShardSet::new(SHARDS, ShardPolicy::Hash, serve_config(spec, seed))
        .expect("benchmark serve config is valid");
    for p in points {
        set.insert(p.clone());
    }
    let snap = set.snapshot();
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    if spec.kind == Kind::ExactSweep {
        snap.exact_view();
    }
    let exact_view_s = t1.elapsed().as_secs_f64();
    let shared = Arc::new(Mutex::new(dispatcher(spec, &snap, None)));
    let t2 = Instant::now();
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&shared), ServerConfig::default())
        .expect("bind 127.0.0.1:0");
    let mut client = NetClient::new(
        tcp_connector(server.local_addr(), Duration::from_secs(60)),
        ClientConfig::default(),
        Arc::new(NullClock),
    );
    client.connect().expect("handshake with the local server");
    let connect_ms = t2.elapsed().as_secs_f64() * 1e3;
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        build_s,
        exact_view_s,
        connect_ms,
    };
    let stack = Stack {
        set,
        snap,
        shared,
        server,
        client,
    };
    (stack, times)
}

/// A timed batch kept for the untimed output check.
struct Sample {
    snap: ShardSetSnapshot,
    batch: Vec<Request>,
    replies: Vec<Reply>,
    /// Per request: passed the in-loop checks (a later mismatch on a
    /// request that already failed is not counted twice).
    ok: Vec<bool>,
}

/// What one phase of the loop measured.
#[derive(Default)]
struct Phase {
    calls: Calls,
    write_s: f64,
    queries: u64,
    quantify_sent: u64,
    nn_sent: u64,
    moves: u64,
    attempted: u64,
    failed: u64,
    move_us: Vec<f64>,
    install_us: Vec<f64>,
    mc_answers: u64,
    eps_miss: u64,
    rounds_frac_sum: f64,
    eps_sum: f64,
    samples: Vec<Sample>,
    tiers: Tiers,
    merges: u64,
    compactions: u64,
    client_bytes: u64,
    client_retried: u64,
    client_reconnects: u64,
}

/// State of the traced half: the span context, the twin dispatchers (plain
/// and with traced shard backends), and counts taken at the same
/// boundaries as the spans.
struct Traced {
    ctx: Arc<TraceCtx>,
    plain: Dispatcher,
    twin: Dispatcher,
    /// Replays (codec round trip, twin dispatch, adaptive recomputation)
    /// that differed from the TCP replies.
    mismatches: u64,
    reply_bytes: u64,
    candidates: Vec<f64>,
    pi_nonzero: u64,
    pi_len: u64,
}

struct Loop<'a> {
    spec: &'a Spec,
    stack: Stack,
    pool: Vec<Vec<Request>>,
    next: usize,
    next_req: u64,
    seed: u64,
    move_rng: SmallRng,
    check_rng: SmallRng,
    live: Vec<PointId>,
    centers: HashMap<PointId, (Point, f64)>,
    /// Counters of dispatchers already replaced by an epoch install.
    retired: Tiers,
    since_write: usize,
}

impl Loop<'_> {
    fn tiers(&self) -> Tiers {
        let d = self.stack.shared.lock().expect("dispatcher lock poisoned");
        self.retired.plus(Tiers::of(d.metrics()))
    }

    fn dyn_totals(&self) -> (u64, u64) {
        self.stack
            .set
            .shard_stats()
            .iter()
            .fold((0, 0), |(m, c), s| (m + s.merges, c + s.compactions))
    }

    /// Restarts the request pool, the write-burst rhythm and the choice of
    /// checked batches from the top.
    fn rewind(&mut self) {
        self.next = 0;
        self.since_write = 0;
        self.check_rng = check_rng(self.seed);
    }

    /// Runs the closed loop for `seconds` — then on to the end of the pool
    /// when `whole_cycles`, so a run's work does not depend on where the
    /// time box fell — and records into the returned phase.
    fn run(&mut self, seconds: f64, whole_cycles: bool, mut traced: Option<&mut Traced>) -> Phase {
        let mut ph = Phase {
            calls: Calls::new(self.pool.len()),
            ..Phase::default()
        };
        let tiers0 = self.tiers();
        let (m0, c0) = self.dyn_totals();
        let stats0 = self.stack.client.stats();
        let window = Window::new(seconds);
        while window.open() || (whole_cycles && !self.next.is_multiple_of(self.pool.len())) {
            self.read_batch(&mut ph, traced.as_deref_mut());
            if self.spec.kind == Kind::McChurn {
                self.since_write += 1;
                if self.since_write == READ_BURST {
                    self.since_write = 0;
                    self.write_burst(&mut ph, traced.as_deref_mut());
                }
            }
        }
        ph.tiers = self.tiers().minus(tiers0);
        let (m1, c1) = self.dyn_totals();
        ph.merges = m1 - m0;
        ph.compactions = c1 - c0;
        let stats1 = self.stack.client.stats();
        ph.client_bytes =
            (stats1.bytes_in + stats1.bytes_out) - (stats0.bytes_in + stats0.bytes_out);
        ph.client_retried = stats1.retried_attempts - stats0.retried_attempts;
        ph.client_reconnects = stats1.reconnects - stats0.reconnects;
        ph
    }

    fn read_batch(&mut self, ph: &mut Phase, traced: Option<&mut Traced>) {
        let batch = &self.pool[self.next % self.pool.len()];
        self.next += 1;
        let req0 = self.next_req;
        self.next_req += batch.len() as u64;
        let root = traced
            .as_ref()
            .map(|t| (t.ctx.tracer.open(), t.ctx.tracer.now()));
        let t = Instant::now();
        let got = match (&traced, root) {
            (Some(t), Some((root, _))) => t
                .ctx
                .tracer
                .span("e2e", root, req0, || self.stack.client.serve(batch)),
            _ => self.stack.client.serve(batch),
        };
        let dt = t.elapsed().as_secs_f64();
        ph.calls.push(dt, batch.len() as u64);
        ph.queries += batch.len() as u64;
        ph.attempted += batch.len() as u64;
        for r in batch {
            match r {
                Request::Quantify(_) => ph.quantify_sent += 1,
                Request::NnNonzero(_) => ph.nn_sent += 1,
            }
        }
        let replies = match got {
            Ok(replies) if replies.len() == batch.len() => replies,
            _ => {
                ph.failed += batch.len() as u64;
                return;
            }
        };
        let ok: Vec<bool> = batch
            .iter()
            .zip(&replies)
            .map(|(req, reply)| self.check_reply(req, reply, ph))
            .collect();
        ph.failed += ok.iter().filter(|&&o| !o).count() as u64;
        if let (Some(t), Some((root, root_start))) = (traced, root) {
            self.replay(t, root, req0, batch, &replies);
            t.ctx.tracer.close(root, "batch", 0, req0, root_start);
        }
        if ph.samples.len() < self.spec.check_cap && self.check_rng.random_bool(self.spec.check_p) {
            ph.samples.push(Sample {
                snap: self.stack.snap.clone(),
                batch: batch.clone(),
                replies,
                ok,
            });
        }
    }

    /// The in-loop check every reply gets: answered, at the tier the
    /// workload's configuration entitles it to, well-formed.
    fn check_reply(&self, req: &Request, reply: &Reply, ph: &mut Phase) -> bool {
        let n = self.stack.snap.len();
        let full = !reply.degraded && reply.failed_shards.is_empty() && reply.covered == n;
        match (req, &reply.outcome, self.spec.kind) {
            (Request::NnNonzero(_), Outcome::Nonzero { ids }, _) => {
                full && ids.windows(2).all(|w| w[0] < w[1])
            }
            (Request::Quantify(_), Outcome::Exact { pi }, Kind::ExactSweep) => {
                full && pi.len() == n && reply.layout.len() == n && pi.iter().all(|p| p.is_finite())
            }
            (
                Request::Quantify(_),
                Outcome::Adaptive {
                    pi,
                    achieved_epsilon,
                    rounds_used,
                },
                Kind::McChurn,
            ) => {
                ph.mc_answers += 1;
                if *achieved_epsilon > self.spec.epsilon {
                    ph.eps_miss += 1;
                }
                ph.rounds_frac_sum += *rounds_used as f64 / self.stack.snap.mc_rounds() as f64;
                ph.eps_sum += achieved_epsilon;
                let sum: f64 = pi.iter().sum();
                full && pi.len() == n && reply.layout.len() == n && (sum - 1.0).abs() <= 1e-9
            }
            _ => false,
        }
    }

    /// Traced replay of one batch: wire codec, twin dispatch, and the
    /// quantification calls the dispatcher makes, each in its own span.
    fn replay(&self, t: &mut Traced, root: u64, req0: u64, batch: &[Request], replies: &[Reply]) {
        let tr = &t.ctx.tracer;
        let req_frame = Frame::RequestBatch(RequestBatch {
            budget_nanos: u64::MAX,
            requests: batch.to_vec(),
        });
        let rep_frame = Frame::ReplyBatch(ReplyBatch {
            replies: replies.to_vec(),
        });
        let req_bytes = tr.span("wire.encode", root, req0, || encode_frame(&req_frame));
        let req_back = tr.span("wire.decode", root, req0, || decode_frame(&req_bytes));
        let rep_bytes = tr.span("wire.encode", root, req0, || encode_frame(&rep_frame));
        let rep_back = tr.span("wire.decode", root, req0, || decode_frame(&rep_bytes));
        t.reply_bytes += rep_bytes.len() as u64;
        if req_back.as_ref() != Ok(&req_frame) || rep_back.as_ref() != Ok(&rep_frame) {
            t.mismatches += 1;
        }
        // The plain twin times the dispatch; the traced twin (same answers,
        // shard calls in spans) attributes it. Exact-tier batches make no
        // shard calls, so they skip the traced twin.
        let want = tr.span("serve.dispatch", root, req0, || t.plain.serve(batch));
        if want != replies {
            t.mismatches += 1;
        }
        if self.spec.kind != Kind::ExactSweep {
            let dispatch = tr.open();
            *t.ctx.reqs.lock().expect("request map lock poisoned") = batch
                .iter()
                .enumerate()
                .map(|(i, r)| (request_point(r), req0 + i as u64))
                .collect();
            t.ctx.parent.store(dispatch, Ordering::Relaxed);
            let start = tr.now();
            let traced = t.twin.serve(batch);
            tr.close(dispatch, "serve.dispatch_traced", root, req0, start);
            if traced != replies {
                t.mismatches += 1;
            }
        }
        let snap = &self.stack.snap;
        for (i, (req, reply)) in batch.iter().zip(replies).enumerate() {
            let id = req0 + i as u64;
            let q = request_point(req);
            let candidates = match &reply.outcome {
                Outcome::Nonzero { ids } => ids.len(),
                _ => snap.nn_nonzero(q).len(),
            };
            t.candidates.push(candidates as f64);
            match (req, self.spec.kind) {
                (Request::Quantify(_), Kind::ExactSweep) => {
                    let view = snap.exact_view();
                    let pi = tr.span("quantify.exact", root, id, || view.quantify(q));
                    t.pi_nonzero += pi.iter().filter(|&&p| p > 0.0).count() as u64;
                    t.pi_len += pi.len() as u64;
                }
                (Request::Quantify(_), Kind::McChurn) => {
                    let winners = snap.round_winners(q);
                    let a = tr.span("quantify.adaptive", root, id, || {
                        adaptive_of(snap, self.spec, &winners)
                    });
                    if let Outcome::Adaptive { pi, .. } = &reply.outcome {
                        if &a.pi != pi {
                            t.mismatches += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn write_burst(&mut self, ph: &mut Phase, traced: Option<&mut Traced>) {
        let t = Instant::now();
        for _ in 0..MOVES_PER_BURST {
            let k = self.move_rng.random_range(0..self.live.len());
            let id = self.live[k];
            let (c, r) = self
                .centers
                .remove(&id)
                .expect("every live id has a center");
            let nc = Point::new(
                (c.x + self.move_rng.random_range(-MOVE_JITTER..MOVE_JITTER)).clamp(0.0, BOX),
                (c.y + self.move_rng.random_range(-MOVE_JITTER..MOVE_JITTER)).clamp(0.0, BOX),
            );
            let tm = Instant::now();
            let removed = self.stack.set.remove(id);
            let new_id = self.stack.set.insert(Uncertain::uniform_disk(nc, r));
            ph.move_us.push(tm.elapsed().as_secs_f64() * 1e6);
            ph.moves += 1;
            ph.attempted += 1;
            if !removed {
                ph.failed += 1;
            }
            self.live[k] = new_id;
            self.centers.insert(new_id, (nc, r));
        }
        let ti = Instant::now();
        let snap = self.stack.set.snapshot();
        let fresh = dispatcher(self.spec, &snap, None);
        {
            let mut d = self.stack.shared.lock().expect("dispatcher lock poisoned");
            self.retired = self.retired.plus(Tiers::of(d.metrics()));
            *d = fresh;
        }
        ph.install_us.push(ti.elapsed().as_secs_f64() * 1e6);
        let dt = t.elapsed().as_secs_f64();
        ph.write_s += dt;
        ph.calls.charge_write(dt);
        self.stack.snap = snap;
        if let Some(t) = traced {
            t.plain = dispatcher(self.spec, &self.stack.snap, None);
            t.twin = dispatcher(self.spec, &self.stack.snap, Some(&t.ctx));
        }
    }
}

/// The stream that picks which timed batches the output check replays.
fn check_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x6368_6563)
}

fn request_point(r: &Request) -> Point {
    match r {
        Request::NnNonzero(q) | Request::Quantify(q) => *q,
    }
}

/// The untimed output check over the kept batches; returns failures not
/// already counted in the loop.
fn verify(spec: &Spec, samples: &[Sample], points: &[Uncertain], report: &mut Report) -> u64 {
    let steps = ServeConfig::default().numeric_steps;
    let mut failed = 0;
    for s in samples {
        let want = dispatcher(spec, &s.snap, None).serve(&s.batch);
        for (i, (req, got)) in s.batch.iter().zip(&s.replies).enumerate() {
            let mut why = Vec::new();
            if want[i] != *got {
                why.push("TCP reply differs from the in-process twin");
            }
            match (req, &got.outcome) {
                (Request::NnNonzero(q), Outcome::Nonzero { ids }) => {
                    if *ids != s.snap.nn_nonzero(*q) {
                        why.push("NN!=0 ids differ from ShardSetSnapshot::nn_nonzero");
                    }
                }
                (Request::Quantify(q), Outcome::Exact { pi }) => {
                    // A fresh set inserts in order, so ids are 0..n.
                    let ids_ok = got.layout.iter().enumerate().all(|(k, &id)| id == k as u64);
                    let oracle = quantification_numeric(points, *q, steps);
                    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    if !ids_ok || bits(pi) != bits(&oracle) {
                        why.push("exact pi differs from quantification_numeric");
                    }
                }
                (Request::Quantify(q), Outcome::Adaptive { pi, .. }) => {
                    let a = adaptive_of(&s.snap, spec, &s.snap.round_winners(*q));
                    if a.pi != *pi || got.layout != s.snap.live_ids() {
                        why.push("adaptive pi differs from adaptive_over_winners");
                    }
                }
                _ => why.push("unexpected outcome"),
            }
            if !why.is_empty() && s.ok[i] {
                failed += 1;
                report.violation(format!("{:?} request {i}: {}", spec.kind, why.join("; ")));
            }
        }
    }
    failed
}

/// Workload-identity guards over the timed window's serve-counter deltas.
fn guard(spec: &Spec, ph: &Phase, report: &mut Report) {
    let t = ph.tiers;
    let ok = t.shed == 0
        && t.capped == 0
        && t.retries == 0
        && t.timeouts == 0
        && t.shard_panics == 0
        && t.nonzero == ph.nn_sent
        && match spec.kind {
            Kind::ExactSweep => t.exact == ph.quantify_sent && t.adaptive == 0,
            Kind::McChurn => t.adaptive == ph.quantify_sent && t.exact == 0,
            Kind::NnRpc => t.exact == 0 && t.adaptive == 0 && ph.quantify_sent == 0,
        };
    if !ok {
        report.violation(format!(
            "{:?} tier mix {t:?} for {} quantify / {} NN requests",
            spec.kind, ph.quantify_sent, ph.nn_sent
        ));
    }
}

pub fn run(args: &Args) -> Report {
    let spec = spec(&args.workload);
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let disks: Vec<(Point, f64)> = (0..spec.n).map(|_| random_disk(&mut rng)).collect();
    let points: Vec<Uncertain> = disks
        .iter()
        .map(|&(c, r)| Uncertain::uniform_disk(c, r))
        .collect();
    let pool = request_pool(&spec, &mut rng);

    // Set up several times; keep the last stack for the loop.
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..spec.setup_reps {
        if let Some(old) = stack.take() {
            stop(old);
        }
        let (s, times) = setup(&spec, args.seed, &points);
        setups.push(times);
        stack = Some(s);
    }
    let stack = stack.expect("at least one setup");
    let mut lp = Loop {
        spec: &spec,
        stack,
        pool,
        next: 0,
        next_req: 0,
        seed: args.seed,
        move_rng: SmallRng::seed_from_u64(args.seed ^ 0x6d6f_7665),
        check_rng: check_rng(args.seed),
        live: (0..spec.n as u64).collect(),
        centers: disks
            .iter()
            .enumerate()
            .map(|(i, &d)| (i as u64, d))
            .collect(),
        retired: Tiers::default(),
        since_write: 0,
    };

    lp.run(WARMUP_S, false, None);
    lp.rewind();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let ph = lp.run(untraced_s, true, None);

    let mut report = Report {
        tail_pct: spec.tail_pct,
        samples: ph.calls.len(),
        samples_beyond_tail: beyond(&ph.calls.lat_ms(), spec.tail_pct),
        ..Report::default()
    };
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let e = &mut report.e2e;
    e.set("qps", ph.calls.qps(), "queries/s");
    e.set("rw_qps", ph.calls.rw_qps(), "queries/s");
    e.set("latency_p50_ms", ph.calls.p50_ms(), "ms");
    e.set("latency_tail_ms", ph.calls.tail_ms(spec.tail_pct), "ms");
    e.set("setup_s", median(&setup_s), "s");
    if spec.kind == Kind::McChurn {
        e.set("update_qps", ratio(ph.moves as f64, ph.write_s), "moves/s");
        e.set(
            "eps_miss_frac",
            ratio(ph.eps_miss as f64, ph.mc_answers as f64),
            "ratio",
        );
    }
    guard(&spec, &ph, &mut report);
    let late = verify(&spec, &ph.samples, &points, &mut report);
    report.attempted = ph.attempted;
    report.failed = ph.failed + late;
    report.extra.push((
        "checked_requests".into(),
        ph.samples
            .iter()
            .map(|s| s.batch.len())
            .sum::<usize>()
            .to_string(),
    ));
    report
        .extra
        .push(("setup_s_runs".into(), format!("{:?}", setup_s)));

    if args.trace {
        let ctx = Arc::new(TraceCtx {
            tracer: Tracer::new(),
            parent: AtomicU64::new(0),
            reqs: Mutex::new(Vec::new()),
        });
        let mut traced = Traced {
            ctx: Arc::clone(&ctx),
            plain: dispatcher(&spec, &lp.stack.snap, None),
            twin: dispatcher(&spec, &lp.stack.snap, Some(&ctx)),
            mismatches: 0,
            reply_bytes: 0,
            candidates: Vec::new(),
            pi_nonzero: 0,
            pi_len: 0,
        };
        let tph = lp.run(args.seconds / 2.0, false, Some(&mut traced));
        let spans = ctx.tracer.take();
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = write_jsonl(&spans, &path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        if traced.mismatches > 0 {
            report.violation(format!(
                "{} traced replays differed from the TCP replies",
                traced.mismatches
            ));
        }
        guard(&spec, &tph, &mut report);
        report.attempted += tph.attempted;
        report.failed += tph.failed;
        layers(&ph, &tph, &traced, &spans, &setups, &lp, &mut report);
    }
    stop(lp.stack);
    report
}

/// Closes the client first so the server's connection thread ends at once.
fn stop(stack: Stack) {
    let Stack { client, server, .. } = stack;
    drop(client);
    server.shutdown();
}

/// Per-layer metrics of the traced half, from its spans.
fn layers(
    untraced: &Phase,
    ph: &Phase,
    traced: &Traced,
    spans: &[Span],
    setups: &[SetupTimes],
    lp: &Loop<'_>,
    report: &mut Report,
) {
    let spec = lp.spec;
    let kids = children(spans);
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == "batch").collect();
    let batches = roots.len().max(1) as f64;
    let (mut e2e, mut wire_enc, mut wire_dec, mut dispatch) = (0u64, 0u64, 0u64, 0u64);
    let (mut dyn_cov, mut q_cov, mut serve_self, mut net_self) = (0u64, 0u64, 0u64, 0u64);
    let (mut dispatch_plain, mut dispatch_traced) = (0u64, 0u64);
    let mut by_name: HashMap<&str, (u64, HashSet<u64>)> = HashMap::new();
    let mut e2e_ms = Vec::new();
    for root in &roots {
        let ks = kids.get(&root.id).map_or(&[][..], Vec::as_slice);
        let sum = |name: &str| {
            ks.iter()
                .filter(|s| s.name == name)
                .map(Span::dur)
                .sum::<u64>()
        };
        let t = sum("e2e");
        e2e_ms.push(t as f64 / 1e6);
        let (enc, dec) = (sum("wire.encode"), sum("wire.decode"));
        let d_dur = sum("serve.dispatch");
        let mut dc = 0;
        if let Some(d) = ks.iter().find(|s| s.name == "serve.dispatch_traced") {
            let dyn_kids = kids.get(&d.id).map_or(&[][..], Vec::as_slice);
            for s in dyn_kids {
                let e = by_name.entry(s.name).or_default();
                e.0 += s.dur();
                e.1.insert(s.req);
            }
            dc = (d.dur() - self_time(d, dyn_kids)).min(d_dur);
            dispatch_traced += d.dur();
            dispatch_plain += d_dur;
        }
        // The dispatcher runs the quantification step of each query on one
        // of its workers; its wall-clock share is estimated from the
        // separately timed calls spread over the pinned threads.
        let qd: Vec<u64> = ks
            .iter()
            .filter(|s| s.name == "quantify.exact" || s.name == "quantify.adaptive")
            .map(Span::dur)
            .collect();
        for s in ks
            .iter()
            .filter(|s| s.name == "quantify.exact" || s.name == "quantify.adaptive")
        {
            let e = by_name.entry(s.name).or_default();
            e.0 += s.dur();
            e.1.insert(s.req);
        }
        let qc =
            (qd.iter().sum::<u64>() / THREADS as u64).max(qd.iter().copied().max().unwrap_or(0));
        let qc = qc.min(d_dur.saturating_sub(dc));
        let ss = d_dur.saturating_sub(dc + qc);
        let ns = t.saturating_sub(d_dur + enc + dec);
        e2e += t;
        wire_enc += enc;
        wire_dec += dec;
        dispatch += d_dur;
        dyn_cov += dc;
        q_cov += qc;
        serve_self += ss;
        net_self += ns;
    }
    let per_query = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |(ns, reqs)| ratio(*ns as f64 / 1e3, reqs.len() as f64))
    };
    let us_per_batch = |ns: u64| ns as f64 / 1e3 / batches;
    let queries = ph.queries.max(1) as f64;
    let l = &mut report.layers;
    layer_defaults(l);
    l.set("net.self_us_per_batch", us_per_batch(net_self), "us");
    l.set(
        "net.bytes_per_query",
        ph.client_bytes as f64 / queries,
        "bytes",
    );
    l.set("net.retried_attempts", ph.client_retried as f64, "count");
    l.set("net.reconnects", ph.client_reconnects as f64, "count");
    l.set("wire.encode_us_per_batch", us_per_batch(wire_enc), "us");
    l.set("wire.decode_us_per_batch", us_per_batch(wire_dec), "us");
    l.set(
        "wire.reply_bytes_per_query",
        ratio(traced.reply_bytes as f64, traced.candidates.len() as f64),
        "bytes",
    );
    l.set("serve.dispatch_us_per_batch", us_per_batch(dispatch), "us");
    l.set("serve.self_us_per_batch", us_per_batch(serve_self), "us");
    let t = ph.tiers;
    let tq = t.queries.max(1) as f64;
    l.set("serve.tier_exact_frac", t.exact as f64 / tq, "ratio");
    l.set("serve.tier_adaptive_frac", t.adaptive as f64 / tq, "ratio");
    l.set("serve.shed_frac", t.shed as f64 / tq, "ratio");
    l.set("serve.retries", t.retries as f64, "count");
    l.set("serve.timeouts", t.timeouts as f64, "count");
    l.set("serve.shard_panics", t.shard_panics as f64, "count");
    if spec.kind == Kind::ExactSweep {
        l.set(
            "serve.exact_work_per_query",
            lp.stack.snap.exact_view().work() as f64,
            "count",
        );
        l.set(
            "quantify.exact_ms_per_query",
            per_query("quantify.exact") / 1e3,
            "ms",
        );
        l.set(
            "quantify.nonzero_pi_frac",
            ratio(traced.pi_nonzero as f64, traced.pi_len as f64),
            "ratio",
        );
    }
    l.set(
        "dynamic.delta_fold_us_per_query",
        per_query("dynamic.delta_fold"),
        "us",
    );
    l.set(
        "dynamic.report_us_per_query",
        per_query("dynamic.report"),
        "us",
    );
    l.set(
        "dynamic.round_winners_us_per_query",
        per_query("dynamic.round_winners"),
        "us",
    );
    if spec.kind == Kind::McChurn {
        let moves: Vec<f64> = untraced
            .move_us
            .iter()
            .chain(&ph.move_us)
            .copied()
            .collect();
        let installs: Vec<f64> = untraced
            .install_us
            .iter()
            .chain(&ph.install_us)
            .copied()
            .collect();
        let n_moves = (untraced.moves + ph.moves).max(1) as f64;
        l.set("dynamic.move_us_p50", median(&moves), "us");
        l.set("dynamic.move_us_p99", percentile(&moves, 99.0), "us");
        l.set("dynamic.epoch_install_us", median(&installs), "us");
        let stats = lp.stack.set.shard_stats();
        l.set(
            "dynamic.blocks_per_shard",
            mean(&stats.iter().map(|s| s.blocks as f64).collect::<Vec<_>>()),
            "count",
        );
        l.set(
            "dynamic.merges_per_move",
            (untraced.merges + ph.merges) as f64 / n_moves,
            "ratio",
        );
        l.set(
            "dynamic.compactions_per_1k_moves",
            1e3 * (untraced.compactions + ph.compactions) as f64 / n_moves,
            "count",
        );
        l.set(
            "quantify.adaptive_us_per_query",
            per_query("quantify.adaptive"),
            "us",
        );
        let mc = (untraced.mc_answers + ph.mc_answers).max(1) as f64;
        l.set(
            "quantify.rounds_used_frac",
            (untraced.rounds_frac_sum + ph.rounds_frac_sum) / mc,
            "ratio",
        );
        l.set(
            "quantify.achieved_eps_mean",
            (untraced.eps_sum + ph.eps_sum) / mc,
            "ratio",
        );
    }
    l.set(
        "nonzero.candidates_per_query",
        mean(&traced.candidates),
        "count",
    );
    let build: Vec<f64> = setups.iter().map(|s| s.build_s).collect();
    let view: Vec<f64> = setups.iter().map(|s| s.exact_view_s).collect();
    let conn: Vec<f64> = setups.iter().map(|s| s.connect_ms).collect();
    l.set("setup.build_s", median(&build), "s");
    l.set("setup.exact_view_s", median(&view), "s");
    l.set("setup.connect_ms", median(&conn), "ms");

    // Wall-time shares of the traced end-to-end time.
    let total = e2e.max(1) as f64;
    let shares = [
        ("share.net", net_self),
        ("share.wire", wire_enc + wire_dec),
        ("share.serve", serve_self),
        ("share.dynamic", dyn_cov),
        ("share.quantify", q_cov),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        l.set(name, ns as f64 / total, "ratio");
        attributed += ns as f64 / total;
    }
    l.set("share.unattributed", 1.0 - attributed, "ratio");
    // The two predictions the traced run is expected to confirm, reported
    // as measured whichever way they come out.
    let claim = match spec.kind {
        Kind::ExactSweep => Some(("share.quantify > 0.5", l.get("share.quantify") > 0.5)),
        Kind::NnRpc => Some((
            "share.net + share.wire + share.serve > share.dynamic",
            l.get("share.net") + l.get("share.wire") + l.get("share.serve")
                > l.get("share.dynamic"),
        )),
        Kind::McChurn => None,
    };
    if let Some((what, holds)) = claim {
        report
            .extra
            .push(("prediction".into(), format!("{{\"{what}\": {holds}}}")));
    }
    let l = &mut report.layers;
    let p50_untraced = untraced.calls.p50_ms();
    let p50_traced = median(&e2e_ms);
    l.set("trace.e2e_p50_untraced_ms", p50_untraced, "ms");
    l.set("trace.e2e_p50_traced_ms", p50_traced, "ms");
    l.set(
        "trace.overhead_frac",
        ratio(p50_traced, p50_untraced) - 1.0,
        "ratio",
    );
    l.set("trace.batches", roots.len() as f64, "count");
    if dispatch_plain > 0 {
        l.set(
            "trace.span_overhead_frac",
            dispatch_traced as f64 / dispatch_plain as f64 - 1.0,
            "ratio",
        );
    }
}
