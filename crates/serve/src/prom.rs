//! Prometheus text exposition: a tiny writer for `GET /metrics` and a
//! strict parser used by the loadgen and CI to validate what the server
//! serves.
//!
//! Only the subset of the text format this server emits is supported:
//! `# HELP` / `# TYPE` comments, `counter` / `gauge` / `histogram`
//! families, and samples of the form `name{label="value",...} 1.23`.
//! Histograms follow the standard convention — cumulative `_bucket`
//! series with `le` bounds ending in `+Inf`, plus `_sum` and `_count`.

use autograph_obs::metrics::HistSnapshot;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Escape a label value (`\`, `"`, newline — per the exposition format).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Builds the exposition document family by family.
#[derive(Default)]
pub(crate) struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Start a family: emits `# HELP` and `# TYPE`.
    pub(crate) fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// One sample with `(label, value)` pairs (empty slice = no labels).
    pub(crate) fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.push_labels(labels, None);
        // u64-valued counters must not lose precision through f64
        if value.fract() == 0.0 && value.abs() < 9e15 {
            let _ = writeln!(self.out, " {}", value as i64);
        } else {
            let _ = writeln!(self.out, " {value}");
        }
    }

    /// A full histogram family member from a snapshot: cumulative
    /// `_bucket` samples (bounds are ns, exported as seconds), `_sum`,
    /// `_count`.
    pub(crate) fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistSnapshot) {
        let mut cum = 0u64;
        for (i, bound) in snap.bounds.iter().enumerate() {
            cum = cum.saturating_add(snap.buckets[i]);
            let le = *bound as f64 / 1e9;
            self.out.push_str(name);
            self.out.push_str("_bucket");
            self.push_labels(labels, Some(&format!("{le}")));
            let _ = writeln!(self.out, " {cum}");
        }
        cum = cum.saturating_add(snap.buckets[snap.bounds.len()]);
        self.out.push_str(name);
        self.out.push_str("_bucket");
        self.push_labels(labels, Some("+Inf"));
        let _ = writeln!(self.out, " {cum}");
        self.out.push_str(name);
        self.out.push_str("_sum");
        self.push_labels(labels, None);
        let _ = writeln!(self.out, " {}", snap.sum as f64 / 1e9);
        self.out.push_str(name);
        self.out.push_str("_count");
        self.push_labels(labels, None);
        let _ = writeln!(self.out, " {cum}");
    }

    /// Like [`histogram`](PromWriter::histogram) but for dimensionless
    /// bucket bounds (permille histograms): `le` is the raw bound.
    pub(crate) fn histogram_raw(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistSnapshot,
    ) {
        let mut cum = 0u64;
        for (i, bound) in snap.bounds.iter().enumerate() {
            cum = cum.saturating_add(snap.buckets[i]);
            self.out.push_str(name);
            self.out.push_str("_bucket");
            self.push_labels(labels, Some(&bound.to_string()));
            let _ = writeln!(self.out, " {cum}");
        }
        cum = cum.saturating_add(snap.buckets[snap.bounds.len()]);
        self.out.push_str(name);
        self.out.push_str("_bucket");
        self.push_labels(labels, Some("+Inf"));
        let _ = writeln!(self.out, " {cum}");
        self.out.push_str(name);
        self.out.push_str("_sum");
        self.push_labels(labels, None);
        let _ = writeln!(self.out, " {}", snap.sum);
        self.out.push_str(name);
        self.out.push_str("_count");
        self.push_labels(labels, None);
        let _ = writeln!(self.out, " {cum}");
    }

    fn push_labels(&mut self, labels: &[(&str, &str)], le: Option<&str>) {
        if labels.is_empty() && le.is_none() {
            return;
        }
        self.out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                self.out.push(',');
            }
            first = false;
            let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
        }
        if let Some(le) = le {
            if !first {
                self.out.push(',');
            }
            let _ = write!(self.out, "le=\"{le}\"");
        }
        self.out.push('}');
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample: metric name, raw label block (`{a="b"}` or empty),
/// value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// The label block exactly as serialized (stable across scrapes).
    pub labels: String,
    /// Parsed value.
    pub value: f64,
}

/// A parsed and validated scrape.
#[derive(Debug)]
pub struct Scrape {
    /// Samples in document order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: family name → kind.
    pub types: HashMap<String, String>,
}

impl Scrape {
    /// Look up one sample by name + exact label block.
    pub fn value(&self, name: &str, labels: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| s.value)
    }

    /// Whether a family was declared (via `# TYPE`).
    pub fn has_family(&self, name: &str) -> bool {
        self.types.contains_key(name)
    }

    /// All samples that must be monotonic across scrapes: counters,
    /// and every histogram `_bucket`/`_sum`/`_count` series. Keyed by
    /// `name + labels`.
    pub fn monotonic_samples(&self) -> HashMap<String, f64> {
        let mut out = HashMap::new();
        for s in &self.samples {
            let family = base_family(&s.name);
            let kind = self.types.get(family).map(String::as_str);
            let monotonic = match kind {
                Some("counter") => true,
                Some("histogram") => {
                    s.name.ends_with("_bucket")
                        || s.name.ends_with("_sum")
                        || s.name.ends_with("_count")
                }
                _ => false,
            };
            if monotonic {
                out.insert(format!("{}{}", s.name, s.labels), s.value);
            }
        }
        out
    }
}

fn base_family(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one exposition document and validate it:
///
/// * every line is a `# HELP`/`# TYPE` comment or a well-formed sample;
/// * every sample's family has a preceding `# TYPE`;
/// * metric names are legal;
/// * histogram `_bucket` series are cumulative (non-decreasing in
///   document order), end at `le="+Inf"`, and `_count` equals the
///   `+Inf` bucket.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn parse_and_validate(text: &str) -> Result<Scrape, String> {
    let mut samples = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            if !valid_metric_name(name) {
                return Err(format!("line {n}: bad family name in TYPE: '{name}'"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown type '{kind}'"));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or other comment
        }
        // sample: name[{labels}] value
        let (name_labels, value_str) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no value: '{line}'"))?;
        let value: f64 = value_str
            .parse()
            .map_err(|_| format!("line {n}: bad value '{value_str}'"))?;
        let (name, labels) = match name_labels.find('{') {
            Some(brace) => {
                if !name_labels.ends_with('}') {
                    return Err(format!("line {n}: unterminated label block"));
                }
                (&name_labels[..brace], &name_labels[brace..])
            }
            None => (name_labels, ""),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name '{name}'"));
        }
        if !types.contains_key(base_family(name)) {
            return Err(format!("line {n}: sample '{name}' has no preceding # TYPE"));
        }
        samples.push(Sample {
            name: name.to_string(),
            labels: labels.to_string(),
            value,
        });
    }
    validate_histograms(&samples, &types)?;
    Ok(Scrape { samples, types })
}

/// Labels of a `_bucket` sample without the `le` pair — the series key.
fn series_key(labels: &str) -> String {
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    let kept: Vec<&str> = inner
        .split(',')
        .filter(|kv| !kv.starts_with("le="))
        .collect();
    kept.join(",")
}

fn le_value(labels: &str) -> Option<String> {
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    inner
        .split(',')
        .find(|kv| kv.starts_with("le="))
        .map(|kv| kv.trim_start_matches("le=").trim_matches('"').to_string())
}

fn validate_histograms(samples: &[Sample], types: &HashMap<String, String>) -> Result<(), String> {
    // (family, series key) → (last cumulative value, saw +Inf, inf value)
    let mut series: HashMap<(String, String), (f64, bool, f64)> = HashMap::new();
    for s in samples {
        if !s.name.ends_with("_bucket") {
            continue;
        }
        let family = base_family(&s.name).to_string();
        if types.get(&family).map(String::as_str) != Some("histogram") {
            return Err(format!("'{}' has buckets but is not a histogram", s.name));
        }
        let le = le_value(&s.labels)
            .ok_or_else(|| format!("'{}{}' bucket has no le label", s.name, s.labels))?;
        let key = (family.clone(), series_key(&s.labels));
        let entry = series.entry(key).or_insert((f64::NEG_INFINITY, false, 0.0));
        if s.value < entry.0 {
            return Err(format!(
                "histogram '{family}' buckets not cumulative at le=\"{le}\" ({} < {})",
                s.value, entry.0
            ));
        }
        entry.0 = s.value;
        if le == "+Inf" {
            entry.1 = true;
            entry.2 = s.value;
        }
    }
    for ((family, key), (_, saw_inf, inf_value)) in &series {
        if !saw_inf {
            return Err(format!("histogram '{family}' series {{{key}}} lacks +Inf"));
        }
        // _count must equal the +Inf bucket
        let count = samples
            .iter()
            .find(|s| s.name == format!("{family}_count") && series_key(&s.labels) == *key);
        match count {
            Some(c) if (c.value - inf_value).abs() < 0.5 => {}
            Some(c) => {
                return Err(format!(
                    "histogram '{family}' _count {} != +Inf bucket {}",
                    c.value, inf_value
                ))
            }
            None => return Err(format!("histogram '{family}' has no _count")),
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use autograph_obs::metrics::{AtomicHistogram, LATENCY_BUCKETS_NS};

    #[test]
    fn writer_output_round_trips_through_the_parser() {
        let h = AtomicHistogram::new(LATENCY_BUCKETS_NS);
        h.record(200_000);
        h.record(3_000_000);
        h.record(u64::MAX); // overflow bucket
        let mut w = PromWriter::new();
        w.family("autograph_requests_total", "counter", "requests by class");
        w.sample(
            "autograph_requests_total",
            &[("fn", "score"), ("class", "2xx")],
            41.0,
        );
        w.family("autograph_queue_depth", "gauge", "queued jobs");
        w.sample("autograph_queue_depth", &[], 3.0);
        w.family(
            "autograph_request_latency_seconds",
            "histogram",
            "end-to-end latency",
        );
        w.histogram(
            "autograph_request_latency_seconds",
            &[("fn", "score")],
            &h.snapshot(),
        );
        let text = w.finish();
        let scrape = parse_and_validate(&text).expect("valid exposition");
        assert_eq!(
            scrape.value("autograph_requests_total", "{fn=\"score\",class=\"2xx\"}"),
            Some(41.0)
        );
        assert_eq!(scrape.value("autograph_queue_depth", ""), Some(3.0));
        assert_eq!(
            scrape.value("autograph_request_latency_seconds_count", "{fn=\"score\"}"),
            Some(3.0)
        );
        assert!(scrape.has_family("autograph_request_latency_seconds"));
        // counters + histogram series are all monotonic candidates
        let mono = scrape.monotonic_samples();
        assert!(mono.len() > LATENCY_BUCKETS_NS.len());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_and_validate("not a metric line").is_err());
        assert!(parse_and_validate("x 1.0").is_err(), "no TYPE");
        assert!(
            parse_and_validate("# TYPE x counter\nx nope").is_err(),
            "bad value"
        );
        assert!(
            parse_and_validate("# TYPE x frobnicator\nx 1").is_err(),
            "bad kind"
        );
    }

    #[test]
    fn parser_rejects_non_cumulative_histograms() {
        let bad = "\
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"+Inf\"} 3
h_sum 1
h_count 3
";
        let err = parse_and_validate(bad).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
        let missing_inf = "\
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_sum 1
h_count 5
";
        let err = parse_and_validate(missing_inf).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
        let count_mismatch = "\
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 7
";
        let err = parse_and_validate(count_mismatch).unwrap_err();
        assert!(err.contains("_count"), "{err}");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.family("m", "counter", "test");
        w.sample("m", &[("fn", "we\"ird\\name\n")], 1.0);
        let text = w.finish();
        assert!(text.contains("fn=\"we\\\"ird\\\\name\\n\""), "{text}");
        parse_and_validate(&text).expect("escaped labels still parse");
    }
}
