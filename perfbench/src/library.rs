//! `library_batch`: the in-process `PnnIndex` batch calls over discrete
//! uncertain points — the only workload that reaches the `unn` façade,
//! `DiscreteNonzeroIndex`, `SpiralIndex`, the static `MonteCarloIndex` and
//! the discrete exact sweep. One calling thread, fan-out pinned to
//! [`THREADS`] workers.
//!
//! Calls cycle through a fixed interleaved schedule of the four query kinds
//! so that no kind takes much more than half the time. The time box is
//! checked at cycle boundaries, so every run weighs the kinds alike.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use unn::geom::Point;
use unn::quantify::AdaptiveQuantify;
use unn::{BatchOptions, DiscreteDistribution, PnnConfig, PnnIndex, QuantifyMethod, Uncertain};

use crate::stats::{beyond, mean, median, ratio, Calls};
use crate::trace::{children, write_jsonl, Span, Tracer};
use crate::{jittered_grid, layer_defaults, Args, Report, Window, THREADS, WARMUP_S};

const N: usize = 4096;
const ATOMS: usize = 8;
const MAX_MC_ROUNDS: usize = 1024;
const BATCH: usize = 256;
const BOX: f64 = 100.0;
const POOL_QUERIES: usize = 4096;
/// Adaptive target and failure probability, as on `mc_churn`.
const EPS: f64 = 0.15;
const DELTA: f64 = 0.01;
const TAIL_PCT: f64 = 90.0;
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Call {
    Nn,
    Spiral,
    Adaptive,
    Exact,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Nn => "nn_nonzero",
            Call::Spiral => "spiral",
            Call::Adaptive => "adaptive",
            Call::Exact => "exact",
        }
    }

    /// The span name of one single-query call of this kind.
    fn single_span(self) -> &'static str {
        match self {
            Call::Nn => "nonzero.nn",
            Call::Spiral => "quantify.spiral",
            Call::Adaptive => "quantify.adaptive_lib",
            Call::Exact => "quantify.exact_discrete",
        }
    }

    /// Untimed output-check sample size per run.
    fn check_cap(self) -> usize {
        match self {
            Call::Nn => 12,
            Call::Spiral => 6,
            Call::Adaptive => 3,
            Call::Exact => 1,
        }
    }
}

/// Batch calls per cycle by kind.
const MIX: [(Call, usize); 4] = [
    (Call::Nn, 24),
    (Call::Spiral, 32),
    (Call::Adaptive, 30),
    (Call::Exact, 1),
];

/// The cycle: each kind's calls spread evenly over it.
fn schedule() -> Vec<Call> {
    let mut slots: Vec<(f64, Call)> = MIX
        .iter()
        .flat_map(|&(kind, count)| (0..count).map(move |j| ((j as f64 + 0.5) / count as f64, kind)))
        .collect();
    slots.sort_by(|a, b| a.0.total_cmp(&b.0));
    slots.into_iter().map(|(_, kind)| kind).collect()
}

#[derive(Clone, Debug, PartialEq)]
enum Out {
    Ids(Vec<Vec<usize>>),
    Pi(Vec<Vec<f64>>, QuantifyMethod),
    Adaptive(Vec<AdaptiveQuantify>),
}

fn batch_call(idx: &PnnIndex, kind: Call, qs: &[Point], opts: &BatchOptions) -> Out {
    match kind {
        Call::Nn => Out::Ids(idx.nn_nonzero_batch_with(qs, opts)),
        Call::Spiral => {
            let (pi, m) = idx.quantify_batch_with(qs, opts);
            Out::Pi(pi, m)
        }
        Call::Adaptive => Out::Adaptive(idx.quantify_adaptive_batch_with(qs, EPS, DELTA, opts)),
        Call::Exact => {
            let (pi, m) = idx.quantify_exact_batch_with(qs, opts);
            Out::Pi(pi, m)
        }
    }
}

/// The same queries through the single-query entry points, each in a span
/// when a tracer is given.
fn single_calls(idx: &PnnIndex, kind: Call, qs: &[Point], tr: Option<(&Tracer, u64, u64)>) -> Out {
    let timed = |i: usize, f: &mut dyn FnMut()| match tr {
        Some((t, root, req0)) => t.span(kind.single_span(), root, req0 + i as u64, f),
        None => f(),
    };
    match kind {
        Call::Nn => {
            let mut out = Vec::with_capacity(qs.len());
            for (i, &q) in qs.iter().enumerate() {
                timed(i, &mut || out.push(idx.nn_nonzero(q)));
            }
            Out::Ids(out)
        }
        Call::Spiral | Call::Exact => {
            let mut out = Vec::with_capacity(qs.len());
            let mut method = None;
            for (i, &q) in qs.iter().enumerate() {
                timed(i, &mut || {
                    let (pi, m) = if kind == Call::Spiral {
                        idx.quantify(q)
                    } else {
                        idx.quantify_exact(q)
                    };
                    out.push(pi);
                    method = Some(m);
                });
            }
            Out::Pi(out, method.unwrap_or(QuantifyMethod::ExactSweep))
        }
        Call::Adaptive => {
            let mut out = Vec::with_capacity(qs.len());
            for (i, &q) in qs.iter().enumerate() {
                timed(i, &mut || out.push(idx.quantify_adaptive(q, EPS, DELTA)));
            }
            Out::Adaptive(out)
        }
    }
}

fn discrete_points(rng: &mut SmallRng) -> Vec<Uncertain> {
    (0..N)
        .map(|_| {
            let c = Point::new(rng.random_range(0.0..BOX), rng.random_range(0.0..BOX));
            let r: f64 = rng.random_range(0.5..2.0);
            let atoms: Vec<Point> = (0..ATOMS)
                .map(|_| {
                    let a = rng.random_range(0.0..std::f64::consts::TAU);
                    let d = r * rng.random_range(0.0f64..1.0).sqrt();
                    Point::new(c.x + d * a.cos(), c.y + d * a.sin())
                })
                .collect();
            let weights: Vec<f64> = (0..ATOMS).map(|_| rng.random_range(0.5..1.5)).collect();
            Uncertain::Discrete(
                DiscreteDistribution::new(atoms, weights).expect("finite atoms, positive weights"),
            )
        })
        .collect()
}

#[derive(Default)]
struct Phase {
    calls: Calls,
    queries: u64,
    attempted: u64,
    failed: u64,
    kind_s: HashMap<Call, f64>,
    mc_answers: u64,
    eps_miss: u64,
    rounds_frac_sum: f64,
    eps_sum: f64,
    candidates: Vec<f64>,
    /// Calls kept for the untimed check: kind, query offset, batch output.
    samples: Vec<(Call, usize, Out)>,
    /// Traced half: (root span, kind) per call.
    roots: Vec<(u64, Call)>,
    /// Traced calls whose batch output differed from the single calls.
    traced_mismatches: u64,
}

struct Loop<'a> {
    idx: &'a PnnIndex,
    queries: &'a [Point],
    cycle: Vec<Call>,
    next: usize,
    opts: BatchOptions,
    seed: u64,
    check_rng: SmallRng,
}

impl Loop<'_> {
    /// Restarts the query pool and the choice of checked calls from the top.
    fn rewind(&mut self) {
        self.next = 0;
        self.check_rng = SmallRng::seed_from_u64(self.seed ^ 0x6368_6563);
    }

    /// Runs whole cycles until `seconds` have passed.
    fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let mut ph = Phase {
            calls: Calls::new(self.cycle.len()),
            ..Phase::default()
        };
        let window = Window::new(seconds);
        while window.open() {
            for k in 0..self.cycle.len() {
                let kind = self.cycle[k];
                self.call(kind, &mut ph, tracer);
            }
        }
        ph
    }

    fn call(&mut self, kind: Call, ph: &mut Phase, tracer: Option<&Tracer>) {
        let start = (self.next * BATCH) % self.queries.len();
        let qs = &self.queries[start..start + BATCH];
        self.next += 1;
        let req0 = ph.queries;
        let root = tracer.map(|t| (t.open(), t.now()));
        let t = Instant::now();
        let out = match (tracer, root) {
            (Some(tr), Some((root, _))) => tr.span("core.batch", root, req0, || {
                batch_call(self.idx, kind, qs, &self.opts)
            }),
            _ => batch_call(self.idx, kind, qs, &self.opts),
        };
        let dt = t.elapsed().as_secs_f64();
        ph.calls.push(dt, qs.len() as u64);
        *ph.kind_s.entry(kind).or_default() += dt;
        ph.queries += qs.len() as u64;
        ph.attempted += qs.len() as u64;
        ph.failed += self.check(&out, qs.len(), ph);
        if let (Some(tr), Some((root, root_start))) = (tracer, root) {
            let single = single_calls(self.idx, kind, qs, Some((tr, root, req0)));
            if single != out {
                ph.failed += qs.len() as u64;
                ph.traced_mismatches += 1;
            }
            tr.close(root, "call", 0, req0, root_start);
            ph.roots.push((root, kind));
        } else {
            let kept = ph.samples.iter().filter(|s| s.0 == kind).count();
            if kept < kind.check_cap() && self.check_rng.random_bool(0.25) {
                ph.samples.push((kind, start, out));
            }
        }
    }

    /// In-loop check of one batch output; returns the queries that failed.
    fn check(&self, out: &Out, len: usize, ph: &mut Phase) -> u64 {
        let finite = |pi: &[f64]| pi.len() == N && pi.iter().all(|p| p.is_finite() && *p >= 0.0);
        let bad = match out {
            Out::Ids(ids) if ids.len() == len => ids
                .iter()
                .filter(|v| {
                    ph.candidates.push(v.len() as f64);
                    v.is_empty() || !v.windows(2).all(|w| w[0] < w[1])
                })
                .count(),
            Out::Pi(pis, _) if pis.len() == len => pis.iter().filter(|p| !finite(p)).count(),
            Out::Adaptive(qs) if qs.len() == len => qs
                .iter()
                .filter(|a| {
                    ph.mc_answers += 1;
                    if a.half_width > EPS {
                        ph.eps_miss += 1;
                    }
                    ph.rounds_frac_sum += a.rounds_used as f64 / self.idx.mc_rounds() as f64;
                    ph.eps_sum += a.half_width;
                    let sum: f64 = a.pi.iter().sum();
                    !finite(&a.pi) || (sum - 1.0).abs() > 1e-9
                })
                .count(),
            _ => len,
        };
        bad as u64
    }
}

pub fn run(args: &Args) -> Report {
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let points = discrete_points(&mut rng);
    let queries = jittered_grid(&mut rng, POOL_QUERIES, BOX);
    let config = PnnConfig {
        seed: args.seed ^ 0x5eed_5eed,
        max_mc_rounds: MAX_MC_ROUNDS,
        ..PnnConfig::default()
    };

    let mut builds = Vec::new();
    let mut idx = None;
    for _ in 0..SETUP_REPS {
        drop(idx.take());
        let t = Instant::now();
        idx = Some(PnnIndex::build(points.clone(), config.clone()));
        builds.push(t.elapsed().as_secs_f64());
    }
    let idx = idx.expect("at least one build");
    let mut lp = Loop {
        idx: &idx,
        queries: &queries,
        cycle: schedule(),
        next: 0,
        opts: BatchOptions::with_threads(THREADS),
        seed: args.seed,
        check_rng: SmallRng::seed_from_u64(args.seed),
    };

    lp.run(WARMUP_S, None);
    lp.rewind();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let ph = lp.run(untraced_s, None);

    let mut report = Report {
        tail_pct: TAIL_PCT,
        samples: ph.calls.len(),
        samples_beyond_tail: beyond(&ph.calls.lat_ms(), TAIL_PCT),
        ..Report::default()
    };
    let e = &mut report.e2e;
    e.set("qps", ph.calls.qps(), "queries/s");
    e.set("rw_qps", ph.calls.rw_qps(), "queries/s");
    e.set("latency_p50_ms", ph.calls.p50_ms(), "ms");
    e.set("latency_tail_ms", ph.calls.tail_ms(TAIL_PCT), "ms");
    e.set("setup_s", median(&builds), "s");
    e.set(
        "eps_miss_frac",
        ratio(ph.eps_miss as f64, ph.mc_answers as f64),
        "ratio",
    );

    // Untimed output check: batch outputs equal the single-query calls.
    let mut late = 0;
    for (kind, start, out) in &ph.samples {
        let qs = &queries[*start..*start + BATCH];
        if single_calls(&idx, *kind, qs, None) != *out {
            late += BATCH as u64;
            report.violation(format!(
                "{} batch at query {start} differs from single calls",
                kind.name()
            ));
        }
    }
    report.attempted = ph.attempted;
    report.failed = ph.failed + late;
    let busy: f64 = ph.kind_s.values().sum();
    let shares: Vec<String> = MIX
        .iter()
        .map(|(k, _)| {
            format!(
                "\"{}\": {:.4}",
                k.name(),
                ratio(ph.kind_s.get(k).copied().unwrap_or(0.0), busy)
            )
        })
        .collect();
    report.extra.push((
        "kind_time_shares".into(),
        format!("{{{}}}", shares.join(", ")),
    ));
    report.extra.push((
        "checked_requests".into(),
        (ph.samples.len() * BATCH).to_string(),
    ));
    report
        .extra
        .push(("setup_s_runs".into(), format!("{builds:?}")));

    if args.trace {
        let tracer = Tracer::new();
        let tph = lp.run(args.seconds / 2.0, Some(&tracer));
        let spans = tracer.take();
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = write_jsonl(&spans, &path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        if tph.traced_mismatches > 0 {
            report.violation(format!(
                "{} traced batch calls differed from their single calls",
                tph.traced_mismatches
            ));
        }
        report.attempted += tph.attempted;
        report.failed += tph.failed;
        layers(&ph, &tph, &spans, &builds, &mut report);
    }
    report
}

/// Per-layer metrics of the traced half, from its spans.
fn layers(untraced: &Phase, ph: &Phase, spans: &[Span], builds: &[f64], report: &mut Report) {
    let kids = children(spans);
    let mut single: HashMap<&str, (u64, u64)> = HashMap::new();
    let (mut e2e, mut core_self, mut nonzero, mut quantify) = (0u64, 0u64, 0u64, 0u64);
    let mut e2e_ms = Vec::new();
    for (root, kind) in &ph.roots {
        let ks = kids.get(root).map_or(&[][..], Vec::as_slice);
        let batch: u64 = ks
            .iter()
            .filter(|s| s.name == "core.batch")
            .map(Span::dur)
            .sum();
        let singles: u64 = ks
            .iter()
            .filter(|s| s.name == kind.single_span())
            .map(|s| {
                let e = single.entry(s.name).or_default();
                e.0 += s.dur();
                e.1 += 1;
                s.dur()
            })
            .sum();
        // Workers run the single-query work in parallel: its wall-clock
        // share of the batch call is the summed time over the pinned threads.
        let spread = (singles / THREADS as u64).min(batch);
        e2e += batch;
        e2e_ms.push(batch as f64 / 1e6);
        core_self += batch - spread;
        if *kind == Call::Nn {
            nonzero += spread;
        } else {
            quantify += spread;
        }
    }
    let us = |name: &str| {
        single
            .get(name)
            .map_or(0.0, |(ns, n)| ratio(*ns as f64 / 1e3, *n as f64))
    };
    let l = &mut report.layers;
    layer_defaults(l);
    l.set("nonzero.nn_us_per_query", us("nonzero.nn"), "us");
    l.set("quantify.spiral_us_per_query", us("quantify.spiral"), "us");
    l.set(
        "quantify.adaptive_lib_us_per_query",
        us("quantify.adaptive_lib"),
        "us",
    );
    l.set(
        "quantify.exact_discrete_us_per_query",
        us("quantify.exact_discrete"),
        "us",
    );
    let calls = ph.roots.len().max(1) as f64;
    l.set(
        "core.batch_self_us_per_call",
        core_self as f64 / 1e3 / calls,
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
    let cands: Vec<f64> = untraced
        .candidates
        .iter()
        .chain(&ph.candidates)
        .copied()
        .collect();
    l.set("nonzero.candidates_per_query", mean(&cands), "count");
    l.set("setup.build_s", median(builds), "s");
    let total = e2e.max(1) as f64;
    l.set("share.core", core_self as f64 / total, "ratio");
    l.set("share.nonzero", nonzero as f64 / total, "ratio");
    l.set("share.quantify", quantify as f64 / total, "ratio");
    l.set(
        "share.unattributed",
        1.0 - (core_self + nonzero + quantify) as f64 / total,
        "ratio",
    );
    let p50_untraced = untraced.calls.p50_ms();
    let p50_traced = median(&e2e_ms);
    l.set("trace.e2e_p50_untraced_ms", p50_untraced, "ms");
    l.set("trace.e2e_p50_traced_ms", p50_traced, "ms");
    l.set(
        "trace.overhead_frac",
        ratio(p50_traced, p50_untraced) - 1.0,
        "ratio",
    );
    l.set("trace.batches", ph.roots.len() as f64, "count");
}
