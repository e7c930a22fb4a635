//! Order statistics and the metric record every workload fills in.

use std::collections::BTreeMap;

/// The `p`-th percentile (0–100) of `xs` by nearest rank on the sorted
/// samples; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the `p`-th percentile.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    let cut = percentile(xs, p);
    xs.iter().filter(|&&x| x > cut).count()
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Chunks a timed window is split into when it holds at least this many
/// whole cycles of the workload's request pool. Rates and medians are then
/// the median over chunks — each the same work — so a slow spell on a
/// shared machine that covers a few chunks does not move them.
pub const CHUNKS: usize = 8;

/// Per-call samples of a timed window, in call order.
#[derive(Default)]
pub struct Calls {
    /// Calls per cycle of the workload's request pool.
    cycle: usize,
    lat_s: Vec<f64>,
    queries: Vec<u64>,
    /// Write time (moves, snapshot, dispatcher install) charged after the
    /// call.
    write_s: Vec<f64>,
}

impl Calls {
    pub fn new(cycle: usize) -> Self {
        Self {
            cycle: cycle.max(1),
            ..Self::default()
        }
    }

    pub fn push(&mut self, lat_s: f64, queries: u64) {
        self.lat_s.push(lat_s);
        self.queries.push(queries);
        self.write_s.push(0.0);
    }

    pub fn charge_write(&mut self, s: f64) {
        if let Some(w) = self.write_s.last_mut() {
            *w += s;
        }
    }

    pub fn len(&self) -> usize {
        self.lat_s.len()
    }

    pub fn lat_ms(&self) -> Vec<f64> {
        self.lat_s.iter().map(|s| s * 1e3).collect()
    }

    /// Median of `f` over [`CHUNKS`] runs of whole cycles, or `f` of the
    /// whole window when it holds fewer cycles.
    fn chunked(&self, f: impl Fn(std::ops::Range<usize>) -> f64) -> f64 {
        let n = self.len();
        let cycles = n / self.cycle.max(1);
        if cycles < CHUNKS {
            return f(0..n);
        }
        let bound = |i: usize| {
            if i == CHUNKS {
                n
            } else {
                self.cycle * (i * cycles / CHUNKS)
            }
        };
        let per: Vec<f64> = (0..CHUNKS).map(|i| f(bound(i)..bound(i + 1))).collect();
        median(&per)
    }

    /// Queries ÷ read time.
    pub fn qps(&self) -> f64 {
        self.chunked(|r| {
            let q: u64 = self.queries[r.clone()].iter().sum();
            ratio(q as f64, self.lat_s[r].iter().sum())
        })
    }

    /// Queries ÷ (read time + write time).
    pub fn rw_qps(&self) -> f64 {
        self.chunked(|r| {
            let q: u64 = self.queries[r.clone()].iter().sum();
            let busy: f64 =
                self.lat_s[r.clone()].iter().sum::<f64>() + self.write_s[r].iter().sum::<f64>();
            ratio(q as f64, busy)
        })
    }

    pub fn p50_ms(&self) -> f64 {
        self.chunked(|r| median(&self.lat_s[r]) * 1e3)
    }

    /// The `pct` percentile over the whole window (a chunk holds too few
    /// samples beyond a high percentile).
    pub fn tail_ms(&self, pct: f64) -> f64 {
        percentile(&self.lat_s, pct) * 1e3
    }
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.0)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust prints (non-finite values become 0,
/// which JSON cannot spell otherwise).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
