//! What a run prints: the conditions, every metric as
//! `workload metric value unit`, and — last line of standard output — the one
//! JSON object the benchmark contract asks for.

use crate::run::Config;
use std::fmt::Write as _;

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json` (or an extra's own name).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// For a tail latency: the per-mille actually reported under the
    /// percentile rule, and the sample count it was taken from.
    pub tail: Option<(u32, usize)>,
    /// For a timing of a phase: `(max − min) ÷ median` of the same figure
    /// over the phase's slices.
    pub segment_spread: Option<f64>,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            tail: None,
            segment_spread: None,
        }
    }

    /// Annotate a timing with its spread over the slices of its phase.
    pub fn with_segment_spread(mut self, spread: f64) -> Metric {
        self.segment_spread = Some(spread);
        self
    }

    /// Annotate a tail latency with the percentile used and its sample count.
    pub fn with_tail(mut self, per_mille: u32, samples: usize) -> Metric {
        self.tail = Some((per_mille, samples));
        self
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    workload: &'static str,
    conditions: String,
    /// The metrics `BENCHMARK.json` lists for this kind of run — exactly
    /// these go into the last-line JSON.
    pub metrics: Vec<Metric>,
    /// Numbers printed but not gated: they exist on this workload only, or
    /// do not repeat well enough on every workload to carry a bound.
    pub extras: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// An empty report carrying the run's conditions.
    pub fn new(cfg: &Config, traced: bool) -> Report {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0);
        let arenas = std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "unset".into());
        let conditions = format!(
            "release build, {cores} allowed core(s), MALLOC_ARENA_MAX {arenas}, seed {}, {} s timed, {}, {}",
            cfg.seed,
            cfg.seconds,
            if traced { "traced" } else { "untraced" },
            if cfg.smoke { "SMOKE (not a measurement)" } else { "measured" },
        );
        Report {
            workload: cfg.workload.name(),
            conditions,
            metrics: Vec::new(),
            extras: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Add a contract metric.
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Add an ungated extra.
    pub fn extra(&mut self, m: Metric) {
        self.extras.push(m);
    }

    /// Add a line of explanation (printed with a `#` in front).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record the operation counts the verdict rests on.
    pub fn finish(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted.max(1);
        self.failed = failed;
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable part: conditions, notes, one line per metric.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}: {}", self.workload, self.conditions);
        for note in &self.notes {
            let _ = writeln!(out, "# {}: {note}", self.workload);
        }
        for m in self.metrics.iter().chain(&self.extras) {
            let _ = write!(out, "{} {} {} {}", self.workload, m.name, m.value, m.unit);
            let mut notes = Vec::new();
            if let Some((per_mille, n)) = m.tail {
                notes.push(format!("p{} of {n} samples", per_mille as f64 / 10.0));
            }
            if let Some(spread) = m.segment_spread {
                notes.push(format!("segments {:.1} % apart", spread * 100.0));
            }
            if !notes.is_empty() {
                let _ = write!(out, "  # {}", notes.join(", "));
            }
            out.push('\n');
        }
        out
    }

    fn json_metrics(metrics: &[Metric]) -> String {
        let fields: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The contract's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            Report::json_metrics(&self.metrics)
        )
    }

    /// The same object plus the workload, conditions and extras, for
    /// `bench/out/latest.json`.
    pub fn render_full_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"conditions\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {}, \"extras\": {}}}",
            self.workload,
            self.conditions,
            self.correct(),
            self.attempted,
            self.failed,
            Report::json_metrics(&self.metrics),
            Report::json_metrics(&self.extras)
        )
    }
}

/// A float as JSON: all its digits; non-finite values (never expected)
/// become 0 rather than invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Workload;

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let cfg = Config {
            workload: Workload::WarmOneshot,
            seed: 1,
            seconds: 1.0,
            smoke: true,
            out_dir: "x".into(),
        };
        let mut r = Report::new(&cfg, false);
        r.metric(Metric::new("setup_s", 0.25, "s"));
        r.extra(Metric::new("only_here", 1.0, "count"));
        r.finish(10, 0);
        assert_eq!(
            r.render_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r.render_lines().contains("warm_oneshot setup_s 0.25 s\n"));
        assert!(r
            .render_lines()
            .contains("warm_oneshot only_here 1 count\n"));
        r.finish(10, 1);
        assert!(r.render_json().starts_with("{\"correct\": false"));
    }
}
