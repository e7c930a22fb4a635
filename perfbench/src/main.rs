//! Closed-loop benchmark of the unn stack.
//!
//! ```sh
//! unn-perfbench --workload <exact_sweep|mc_churn|nn_rpc|library_batch> \
//!     --seed <n> --seconds <s> --trace <0|1> [--revision <r>] [--out-dir <dir>]
//! ```
//!
//! One workload per process. A single client (or calling thread) waits for
//! every reply before sending the next request; fan-out is pinned to
//! [`THREADS`] workers. The serving workloads go over localhost TCP through
//! `NetClient` → `NetServer` → `Dispatcher`; `library_batch` drives the
//! in-process `PnnIndex` batch calls. All clocks handed to the library are
//! `NullClock`, so every tier decision is a pure function of the seed and
//! only wall time varies.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` measures half
//! the window untraced and half traced, and derives per-layer metrics from
//! spans recorded around the calls the benchmark makes (written to
//! `<out-dir>/trace-<workload>-<seed>.jsonl`).
//!
//! The last line of standard output is one JSON object `{"report": {...}}`
//! with every metric, the output-check results and a provenance stamp. The
//! process exits 1 if any output check or workload-identity guard fails.

mod library;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::RngExt;
use stats::{num, Metrics};
use unn::geom::Point;

/// Worker threads of every batch fan-out (`DispatchConfig::threads`,
/// `BatchOptions::with_threads`).
pub const THREADS: usize = 2;

/// Closed-loop time spent before the timed window, excluded from timing.
pub const WARMUP_S: f64 = 1.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub revision: String,
    pub out_dir: PathBuf,
}

/// What a workload hands back: metrics plus the accounting behind
/// `correct`, `attempted` and `failed`.
#[derive(Default)]
pub struct Report {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks or identity guards that failed, by description.
    pub violations: Vec<String>,
    pub tail_pct: f64,
    pub samples: usize,
    pub samples_beyond_tail: usize,
    /// Extra JSON fields (key, raw JSON value) for the report.
    pub extra: Vec<(String, String)>,
}

impl Report {
    /// Records a failed check; the run will exit non-zero.
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 32 {
            self.violations.push(what);
        }
    }
}

/// A time box: open until `seconds` have passed since it was created.
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    pub fn open(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Every per-layer metric the traced run reports, with its unit. A metric
/// that does not apply to a workload reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("net.self_us_per_batch", "us"),
    ("net.bytes_per_query", "bytes"),
    ("net.retried_attempts", "count"),
    ("net.reconnects", "count"),
    ("wire.encode_us_per_batch", "us"),
    ("wire.decode_us_per_batch", "us"),
    ("wire.reply_bytes_per_query", "bytes"),
    ("serve.dispatch_us_per_batch", "us"),
    ("serve.self_us_per_batch", "us"),
    ("serve.tier_exact_frac", "ratio"),
    ("serve.tier_adaptive_frac", "ratio"),
    ("serve.shed_frac", "ratio"),
    ("serve.retries", "count"),
    ("serve.timeouts", "count"),
    ("serve.shard_panics", "count"),
    ("serve.exact_work_per_query", "count"),
    ("dynamic.delta_fold_us_per_query", "us"),
    ("dynamic.report_us_per_query", "us"),
    ("dynamic.round_winners_us_per_query", "us"),
    ("dynamic.move_us_p50", "us"),
    ("dynamic.move_us_p99", "us"),
    ("dynamic.epoch_install_us", "us"),
    ("dynamic.blocks_per_shard", "count"),
    ("dynamic.merges_per_move", "ratio"),
    ("dynamic.compactions_per_1k_moves", "count"),
    ("quantify.exact_ms_per_query", "ms"),
    ("quantify.nonzero_pi_frac", "ratio"),
    ("quantify.adaptive_us_per_query", "us"),
    ("quantify.rounds_used_frac", "ratio"),
    ("quantify.achieved_eps_mean", "ratio"),
    ("quantify.spiral_us_per_query", "us"),
    ("quantify.exact_discrete_us_per_query", "us"),
    ("quantify.adaptive_lib_us_per_query", "us"),
    ("nonzero.candidates_per_query", "count"),
    ("nonzero.nn_us_per_query", "us"),
    ("core.batch_self_us_per_call", "us"),
    ("setup.build_s", "s"),
    ("setup.exact_view_s", "s"),
    ("setup.connect_ms", "ms"),
    ("share.net", "ratio"),
    ("share.wire", "ratio"),
    ("share.serve", "ratio"),
    ("share.dynamic", "ratio"),
    ("share.quantify", "ratio"),
    ("share.nonzero", "ratio"),
    ("share.core", "ratio"),
    ("share.unattributed", "ratio"),
    ("trace.e2e_p50_untraced_ms", "ms"),
    ("trace.e2e_p50_traced_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.batches", "count"),
    ("trace.span_overhead_frac", "ratio"),
];

/// Sets every per-layer metric to 0 before a workload fills in its own.
pub fn layer_defaults(m: &mut Metrics) {
    for (name, unit) in LAYER_METRICS {
        m.set(name, 0.0, unit);
    }
}

/// `count` query points stratified over `[0, side)²`: one uniform point in
/// each of `count` cells of a ⌈√count⌉² grid, in seeded order. Spreading
/// queries evenly keeps a run's mean query cost close across seeds.
pub fn jittered_grid(rng: &mut SmallRng, count: usize, side: f64) -> Vec<Point> {
    let g = (count as f64).sqrt().ceil() as usize;
    let cell = side / g as f64;
    let mut cells: Vec<usize> = (0..g * g).collect();
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.random_range(0..=i));
    }
    cells
        .into_iter()
        .take(count)
        .map(|c| {
            Point::new(
                (c % g) as f64 * cell + rng.random_range(0.0..cell),
                (c / g) as f64 * cell + rng.random_range(0.0..cell),
            )
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: unn-perfbench --workload <exact_sweep|mc_churn|nn_rpc|library_batch> \
         --seed <n> --seconds <s> --trace <0|1> [--revision <r>] [--out-dir <dir>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        revision: "unknown".into(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = val == "1",
            "--revision" => args.revision = val.clone(),
            "--out-dir" => args.out_dir = PathBuf::from(val),
            _ => usage(),
        }
    }
    if args.workload.is_empty() || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage()
    }
    args
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = parse_args();
    let mut report = match args.workload.as_str() {
        "exact_sweep" | "mc_churn" | "nn_rpc" => serving::run(&args),
        "library_batch" => library::run(&args),
        other => {
            eprintln!("unknown workload {other:?}");
            usage()
        }
    };
    report.e2e.set("peak_rss_mb", peak_rss_mib(), "MiB");
    report.e2e.set(
        "ok_frac",
        1.0 - stats::ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    );
    let correct = report.violations.is_empty() && report.failed == 0 && report.attempted > 0;
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    let extra: String = report
        .extra
        .iter()
        .map(|(k, v)| format!(", \"{k}\": {v}"))
        .collect();
    println!(
        "{{\"report\": {{\"workload\": \"{}\", \"correct\": {correct}, \"attempted\": {}, \
         \"failed\": {}, \"violations\": [{}], \"provenance\": {{\"seed\": {}, \"nproc\": {}, \
         \"threads\": {THREADS}, \"clients\": 1, \"loop\": \"closed\", \"tail_percentile\": {}, \
         \"tail_samples\": {}, \"samples_beyond_tail\": {}, \"warmup_s\": {}, \"time_box_s\": {}, \
         \"traced\": {}, \"revision\": \"{}\"}}, \"e2e\": {}, \"layers\": {}{extra}}}}}",
        args.workload,
        report.attempted,
        report.failed,
        violations.join(", "),
        args.seed,
        nproc(),
        num(report.tail_pct),
        report.samples,
        report.samples_beyond_tail,
        num(WARMUP_S),
        num(args.seconds),
        args.trace,
        args.revision.replace('"', "'"),
        report.e2e.to_json(),
        report.layers.to_json(),
    );
    if !correct {
        for v in &report.violations {
            eprintln!("check failed: {v}");
        }
        std::process::exit(1);
    }
}
