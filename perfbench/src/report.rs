//! Samples, metrics and the result line.

use std::time::{Duration, Instant};

#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`q` in (0, 1]); 0 when empty.
    pub fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn pct_metric(&self, name: &str, unit: &str, q: f64) -> Metric {
        Metric::new(name, unit, self.pct(q), self.len())
    }

    pub fn median_metric(&self, name: &str, unit: &str) -> Metric {
        self.pct_metric(name, unit, 0.5)
    }
}

/// Latencies kept per round of a workload that repeats a fixed round. A
/// percentile is taken in each round and the median of those is
/// reported, so contention on a shared host that hits one round's tail
/// moves the figure less than it would move a percentile of the pool.
#[derive(Default)]
pub struct Rounds(Vec<Samples>);

impl Rounds {
    /// Opens the next round.
    pub fn start(&mut self) {
        self.0.push(Samples::default());
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.last_mut().expect("a round is open").push_ms(d);
    }

    pub fn pct_metric(&self, name: &str, unit: &str, q: f64) -> Metric {
        let mut per_round = Samples::default();
        for r in &self.0 {
            per_round.push(r.pct(q));
        }
        let n = self.0.iter().map(Samples::len).sum();
        Metric::new(name, unit, per_round.pct(0.5), n)
    }
}

/// Throughput over consecutive windows of `per` ops. `ops_per_s` is the
/// median window rate, so a few seconds of contention on a shared host
/// move it less than a whole-run mean would. Only full windows count.
pub struct Windows {
    per: usize,
    done: usize,
    start: Instant,
    rates: Samples,
}

impl Windows {
    pub fn new(per: usize) -> Windows {
        Windows {
            per,
            done: 0,
            start: Instant::now(),
            rates: Samples::default(),
        }
    }

    /// Opens a fresh window; call it when a timed phase starts.
    pub fn restart(&mut self) {
        self.done = 0;
        self.start = Instant::now();
    }

    /// Counts `ops` completed ops and closes the window once it holds
    /// `per` of them.
    pub fn tick(&mut self, ops: usize) {
        self.done += ops;
        if self.done >= self.per {
            let rate = self.done as f64 / self.start.elapsed().as_secs_f64();
            self.rates.push(rate);
            self.restart();
        }
    }

    pub fn metric(&self) -> Metric {
        self.rates.median_metric("ops_per_s", "ops/s")
    }
}

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples the value was taken over (printed, not in the result).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// What one end-to-end run measured.
pub struct Outcome {
    pub attempted: usize,
    /// Client ops in the timed phase (tuples for `ingest`).
    pub client_ops: usize,
    pub timed_wall: Duration,
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but not reported: figures too unsteady
    /// on a shared VM to gate on.
    pub info: Vec<Metric>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: the last line of stdout. Metric names and units are
/// ASCII constants, so `{:?}` quotes them as JSON strings.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One human-readable line per metric, with its sample count; `info`
/// lines are marked as not reported.
pub fn print_table(metrics: &[Metric], info: &[Metric]) {
    for (m, note) in metrics
        .iter()
        .map(|m| (m, ""))
        .chain(info.iter().map(|m| (m, " not reported")))
    {
        println!(
            "{:<40} {:>16.6} {:<8} (n={}){note}",
            m.name, m.value, m.unit, m.samples
        );
    }
}
