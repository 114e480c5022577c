//! Render a telemetry JSONL export in Prometheus text exposition format
//! (version 0.0.4).
//!
//! Like [`crate::report`] this is a pure read-side transform over the JSONL
//! schema: it works identically whether the lines came from a live
//! registry export, an [`SloMonitor`](crate::monitor::SloMonitor) export,
//! or a file on disk. Counters and gauges map 1:1; log-bucketed histograms become
//! cumulative `_bucket{le="..."}` series (each bucket's upper bound is its
//! `le`) plus `_sum`/`_count`. Journal events and wall-clock profiles have
//! no exposition equivalent and are skipped.
//!
//! All metric names are prefixed `qvisor_` and sanitised to the exposition
//! grammar; label values are escaped per the spec.

use crate::report::{Export, HistLine, MetricLine};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sanitise a name to the exposition grammar `[a-zA-Z0-9_:]+`.
fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Sanitise a metric name and prefix it with the `qvisor_` namespace.
fn metric_name(name: &str) -> String {
    format!("qvisor_{}", sanitise(name))
}

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a label set (plus optional extra pair) as `{k="v",...}`, or the
/// empty string when there are no labels.
fn label_set(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitise(k), escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Format a float the exposition grammar accepts (integral values render
/// without an exponent; non-finite values per the spec).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn render_scalars(out: &mut String, metrics: &[MetricLine], kind: &str) {
    let mut by_name: BTreeMap<String, Vec<&MetricLine>> = BTreeMap::new();
    for m in metrics {
        by_name.entry(metric_name(&m.name)).or_default().push(m);
    }
    for (name, lines) in by_name {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for m in lines {
            let _ = writeln!(out, "{name}{} {}", label_set(&m.labels, None), m.value);
        }
    }
}

fn render_histograms(out: &mut String, hists: &[HistLine]) {
    let mut by_name: BTreeMap<String, Vec<&HistLine>> = BTreeMap::new();
    for h in hists {
        by_name.entry(metric_name(&h.name)).or_default().push(h);
    }
    for (name, lines) in by_name {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for h in lines {
            let mut cum = 0u64;
            for &(_, hi, count) in &h.buckets {
                cum += count;
                let le = hi.to_string();
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {cum}",
                    label_set(&h.labels, Some(("le", &le)))
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{} {}",
                label_set(&h.labels, Some(("le", "+Inf"))),
                h.count
            );
            let sum = h.mean.map_or(0.0, |m| m * h.count as f64);
            let _ = writeln!(
                out,
                "{name}_sum{} {}",
                label_set(&h.labels, None),
                fmt_f64(sum)
            );
            let _ = writeln!(
                out,
                "{name}_count{} {}",
                label_set(&h.labels, None),
                h.count
            );
        }
    }
}

/// Render a parsed export as Prometheus text exposition.
pub fn render_export(export: &Export) -> String {
    let mut out = String::new();
    render_scalars(&mut out, &export.counters, "counter");
    render_scalars(&mut out, &export.gauges, "gauge");
    render_histograms(&mut out, &export.histograms);
    out
}

/// Parse a JSONL export and render it as Prometheus text exposition.
pub fn render(jsonl: &str) -> Result<String, String> {
    Ok(render_export(&crate::report::parse(jsonl)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        r#"{"type":"meta","schema":1,"journal_evicted":0,"journal_capacity":4096}"#,
        "\n",
        r#"{"type":"counter","name":"pkts_tx","labels":{"tenant":"0"},"value":10}"#,
        "\n",
        r#"{"type":"counter","name":"pkts_tx","labels":{"tenant":"1"},"value":20}"#,
        "\n",
        r#"{"type":"gauge","name":"depth","labels":{},"value":-1}"#,
        "\n",
        r#"{"type":"histogram","name":"fct_ns","labels":{"tenant":"0"},"count":3,"min":5,"max":9,"mean":7.0,"p50":5,"p90":9,"p99":9,"buckets":[[5,5,1],[9,9,2]]}"#,
        "\n",
        r#"{"type":"event","t_ns":7,"kind":"recompile","fields":{"version":2}}"#,
        "\n",
    );

    #[test]
    fn counters_and_gauges_expose_with_type_lines() {
        let text = render(SAMPLE).unwrap();
        assert!(text.contains("# TYPE qvisor_pkts_tx counter"), "{text}");
        assert!(text.contains("qvisor_pkts_tx{tenant=\"0\"} 10"), "{text}");
        assert!(text.contains("qvisor_pkts_tx{tenant=\"1\"} 20"), "{text}");
        assert!(text.contains("# TYPE qvisor_depth gauge"), "{text}");
        assert!(text.contains("\nqvisor_depth -1\n"), "{text}");
    }

    #[test]
    fn histograms_expose_cumulative_le_buckets() {
        let text = render(SAMPLE).unwrap();
        assert!(text.contains("# TYPE qvisor_fct_ns histogram"), "{text}");
        assert!(
            text.contains("qvisor_fct_ns_bucket{tenant=\"0\",le=\"5\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("qvisor_fct_ns_bucket{tenant=\"0\",le=\"9\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("qvisor_fct_ns_bucket{tenant=\"0\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("qvisor_fct_ns_sum{tenant=\"0\"} 21"),
            "{text}"
        );
        assert!(
            text.contains("qvisor_fct_ns_count{tenant=\"0\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn events_and_meta_are_skipped() {
        let text = render(SAMPLE).unwrap();
        assert!(!text.contains("recompile"), "{text}");
        assert!(!text.contains("meta"), "{text}");
    }

    #[test]
    fn names_are_sanitised_and_labels_escaped() {
        let jsonl = concat!(
            r#"{"type":"counter","name":"weird.name-x","labels":{"q":"a\"b\\c"},"value":1}"#,
            "\n",
        );
        let text = render(jsonl).unwrap();
        assert!(text.contains("qvisor_weird_name_x"), "{text}");
        assert!(text.contains("q=\"a\\\"b\\\\c\""), "{text}");
    }

    #[test]
    fn empty_export_is_an_error_but_blank_render_is_empty() {
        assert!(render("").is_err());
        let text = render(r#"{"type":"meta","schema":1}"#).unwrap();
        assert_eq!(text, "");
    }

    #[test]
    fn every_line_matches_the_exposition_grammar() {
        // Cheap structural validation mirroring what the CI python check
        // does: every non-comment line is `name{labels} value`.
        let text = render(SAMPLE).unwrap();
        for line in text.lines() {
            if line.starts_with("# TYPE ") {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad name in {line}"
            );
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "bad value in {line}"
            );
        }
    }

    #[test]
    fn live_export_renders_cleanly() {
        let t = crate::Telemetry::enabled();
        t.counter("pkts_tx", &[("tenant", "7")]).add(5);
        t.histogram("wait_ns", &[("queue", "n0.p0")]).record(1234);
        let text = render(&t.export_jsonl()).unwrap();
        assert!(text.contains("qvisor_pkts_tx{tenant=\"7\"} 5"), "{text}");
        assert!(text.contains("qvisor_wait_ns_bucket"), "{text}");
    }
}
