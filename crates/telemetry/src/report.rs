//! Render an exported telemetry JSONL file back into human-readable tables.
//!
//! This is the read side of the subsystem: it depends only on the JSONL
//! schema, not on the live collectors, so it digests a file on disk the
//! same way as a fresh [`Telemetry::export_jsonl`](crate::Telemetry::export_jsonl).

use qvisor_sim::json::Value;

/// One exported counter or gauge line.
#[derive(Clone, Debug)]
pub struct MetricLine {
    /// Metric name.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
    /// Exported value (counters are non-negative; gauges may not be).
    pub value: i128,
}

/// One exported histogram line (bucket detail elided).
#[derive(Clone, Debug)]
pub struct HistLine {
    /// Metric name.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
    /// Sample count.
    pub count: u64,
    /// Exact minimum, if any samples were recorded.
    pub min: Option<u64>,
    /// Exact maximum.
    pub max: Option<u64>,
    /// Exact mean.
    pub mean: Option<f64>,
    /// Median estimate.
    pub p50: Option<u64>,
    /// 90th-percentile estimate.
    pub p90: Option<u64>,
    /// 99th-percentile estimate.
    pub p99: Option<u64>,
    /// Occupied `(lo, hi, count)` buckets in ascending value order, when
    /// the export carried them (the Prometheus renderer needs the detail).
    pub buckets: Vec<(u64, u64, u64)>,
}

/// One exported wall-clock profile line.
#[derive(Clone, Debug)]
pub struct ProfileLine {
    /// Profiled site name.
    pub name: String,
    /// Number of scopes (exact).
    pub count: u64,
    /// Total wall-clock nanoseconds, estimated from the timed scopes
    /// (see [`crate::profile`]).
    pub total_ns: u64,
    /// Shortest timed scope.
    pub min_ns: u64,
    /// Longest timed scope.
    pub max_ns: u64,
    /// Mean nanoseconds per timed scope.
    pub mean_ns: u64,
}

/// A parsed telemetry export.
#[derive(Clone, Debug, Default)]
pub struct Export {
    /// Schema version from the `meta` line, if present.
    pub schema: Option<u64>,
    /// Journal events evicted before export.
    pub journal_evicted: u64,
    /// Counter lines, in file order.
    pub counters: Vec<MetricLine>,
    /// Gauge lines, in file order.
    pub gauges: Vec<MetricLine>,
    /// Histogram lines, in file order.
    pub histograms: Vec<HistLine>,
    /// Wall-clock profile lines, in file order.
    pub profiles: Vec<ProfileLine>,
    /// Journal event lines, oldest first.
    pub events: Vec<Value>,
}

fn parse_labels(v: Option<&Value>) -> Vec<(String, String)> {
    let mut labels: Vec<(String, String)> = v
        .and_then(Value::as_object)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                .collect()
        })
        .unwrap_or_default();
    labels.sort();
    labels
}

/// Parse a JSONL export. Unknown line types are ignored (forward
/// compatibility); malformed JSON is an error naming the line number.
pub fn parse(jsonl: &str) -> Result<Export, String> {
    if jsonl.lines().all(|l| l.trim().is_empty()) {
        return Err("empty export (no JSONL lines)".into());
    }
    let mut export = Export::default();
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = Value::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = value.get("type").and_then(Value::as_str).unwrap_or("");
        let name = || {
            value
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        match kind {
            "meta" => {
                export.schema = value.get("schema").and_then(Value::as_u64);
                export.journal_evicted = value
                    .get("journal_evicted")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
            }
            "counter" | "gauge" => {
                let line = MetricLine {
                    name: name(),
                    labels: parse_labels(value.get("labels")),
                    value: value.get("value").and_then(Value::as_i64).unwrap_or(0) as i128,
                };
                if kind == "counter" {
                    export.counters.push(line);
                } else {
                    export.gauges.push(line);
                }
            }
            "histogram" => export.histograms.push(HistLine {
                name: name(),
                labels: parse_labels(value.get("labels")),
                count: value.get("count").and_then(Value::as_u64).unwrap_or(0),
                min: value.get("min").and_then(Value::as_u64),
                max: value.get("max").and_then(Value::as_u64),
                mean: value.get("mean").and_then(Value::as_f64),
                p50: value.get("p50").and_then(Value::as_u64),
                p90: value.get("p90").and_then(Value::as_u64),
                p99: value.get("p99").and_then(Value::as_u64),
                buckets: value
                    .get("buckets")
                    .and_then(Value::as_array)
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(|b| {
                                let b = b.as_array()?;
                                Some((
                                    b.first()?.as_u64()?,
                                    b.get(1)?.as_u64()?,
                                    b.get(2)?.as_u64()?,
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
            }),
            "profile" => {
                let u = |key: &str| value.get(key).and_then(Value::as_u64).unwrap_or(0);
                export.profiles.push(ProfileLine {
                    name: name(),
                    count: u("count"),
                    total_ns: u("total_ns"),
                    min_ns: u("min_ns"),
                    max_ns: u("max_ns"),
                    mean_ns: u("mean_ns"),
                });
            }
            "event" => export.events.push(value),
            _ => {}
        }
    }
    Ok(export)
}

fn label_suffix(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", inner.join(","))
}

/// Left-align the first column, right-align the rest.
pub(crate) fn render_table(out: &mut String, headers: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let push_row = |out: &mut String, row: &[String]| {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{cell:<width$}", width = widths[i]));
            } else {
                out.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    push_row(out, headers);
    for row in rows {
        push_row(out, row);
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Pivot metric lines on one label key: one row per label value, one column
/// per metric name, summing across any remaining labels. Returns `None` if
/// no metric carries the label.
fn pivot(metrics: &[&MetricLine], key: &str) -> Option<(Vec<String>, Vec<Vec<String>>)> {
    use std::collections::BTreeMap;
    let mut names: Vec<String> = Vec::new();
    let mut cells: BTreeMap<String, BTreeMap<String, i128>> = BTreeMap::new();
    for m in metrics {
        let Some((_, label_value)) = m.labels.iter().find(|(k, _)| k == key) else {
            continue;
        };
        if !names.contains(&m.name) {
            names.push(m.name.clone());
        }
        *cells
            .entry(label_value.clone())
            .or_default()
            .entry(m.name.clone())
            .or_default() += m.value;
    }
    if cells.is_empty() {
        return None;
    }
    names.sort();
    let mut headers = vec![key.to_string()];
    headers.extend(names.iter().cloned());
    let rows = cells
        .iter()
        .map(|(label_value, by_name)| {
            let mut row = vec![label_value.clone()];
            row.extend(names.iter().map(|n| {
                by_name
                    .get(n)
                    .map_or_else(|| "-".to_string(), |v| v.to_string())
            }));
            row
        })
        .collect();
    Some((headers, rows))
}

/// Render a parsed export as human-readable text: per-tenant and per-queue
/// pivots first, then the full metric listing, histogram percentiles, and a
/// tail of journal events.
pub fn render_export(export: &Export) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "telemetry report (schema {})\n",
        export
            .schema
            .map_or_else(|| "?".to_string(), |s| s.to_string())
    ));

    let all_metrics: Vec<&MetricLine> =
        export.counters.iter().chain(export.gauges.iter()).collect();
    for key in ["tenant", "queue"] {
        if let Some((headers, rows)) = pivot(&all_metrics, key) {
            out.push_str(&format!("\nper-{key}:\n"));
            render_table(&mut out, &headers, &rows);
        }
    }

    if !export.counters.is_empty() || !export.gauges.is_empty() {
        out.push_str("\ncounters & gauges:\n");
        let headers = vec!["metric".to_string(), "value".to_string()];
        let rows: Vec<Vec<String>> = all_metrics
            .iter()
            .map(|m| {
                vec![
                    format!("{}{}", m.name, label_suffix(&m.labels)),
                    m.value.to_string(),
                ]
            })
            .collect();
        render_table(&mut out, &headers, &rows);
    }

    if !export.histograms.is_empty() {
        out.push_str("\nhistograms:\n");
        let headers: Vec<String> = ["metric", "count", "min", "p50", "p90", "p99", "max", "mean"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = export
            .histograms
            .iter()
            .map(|h| {
                vec![
                    format!("{}{}", h.name, label_suffix(&h.labels)),
                    h.count.to_string(),
                    opt_u64(h.min),
                    opt_u64(h.p50),
                    opt_u64(h.p90),
                    opt_u64(h.p99),
                    opt_u64(h.max),
                    h.mean
                        .map_or_else(|| "-".to_string(), |m| format!("{m:.1}")),
                ]
            })
            .collect();
        render_table(&mut out, &headers, &rows);
    }

    if !export.profiles.is_empty() {
        out.push_str("\nself-profile (wall clock):\n");
        let headers: Vec<String> = ["site", "count", "total_ns", "mean_ns", "min_ns", "max_ns"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = export
            .profiles
            .iter()
            .map(|p| {
                vec![
                    p.name.clone(),
                    p.count.to_string(),
                    p.total_ns.to_string(),
                    p.mean_ns.to_string(),
                    p.min_ns.to_string(),
                    p.max_ns.to_string(),
                ]
            })
            .collect();
        render_table(&mut out, &headers, &rows);
    }

    if !export.events.is_empty() || export.journal_evicted > 0 {
        out.push_str(&format!(
            "\njournal: {} event(s) retained, {} evicted\n",
            export.events.len(),
            export.journal_evicted
        ));
        if export.journal_evicted > 0 {
            out.push_str(
                "  warning: journal overflowed — oldest events were dropped \
                 (telemetry_journal_dropped counts the loss)\n",
            );
        }
        const TAIL: usize = 10;
        let skip = export.events.len().saturating_sub(TAIL);
        if skip > 0 {
            out.push_str(&format!("  ... {skip} earlier event(s)\n"));
        }
        for event in export.events.iter().skip(skip) {
            let t = event.get("t_ns").and_then(Value::as_u64).unwrap_or(0);
            let kind = event.get("kind").and_then(Value::as_str).unwrap_or("?");
            let fields = event
                .get("fields")
                .map(Value::to_compact)
                .unwrap_or_else(|| "{}".to_string());
            out.push_str(&format!("  t={t}ns {kind} {fields}\n"));
        }
    }
    out
}

/// Parse and render a JSONL export in one step.
pub fn render(jsonl: &str) -> Result<String, String> {
    Ok(render_export(&parse(jsonl)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        r#"{"type":"meta","schema":1,"journal_evicted":2,"journal_capacity":4096}"#,
        "\n",
        r#"{"type":"counter","name":"pkts_tx","labels":{"tenant":"0"},"value":10}"#,
        "\n",
        r#"{"type":"counter","name":"pkts_tx","labels":{"tenant":"1"},"value":20}"#,
        "\n",
        r#"{"type":"counter","name":"drops","labels":{"queue":"n0.p0"},"value":3}"#,
        "\n",
        r#"{"type":"gauge","name":"depth","labels":{},"value":-1}"#,
        "\n",
        r#"{"type":"histogram","name":"fct_ns","labels":{"tenant":"0"},"count":2,"min":5,"max":9,"mean":7.0,"p50":5,"p90":9,"p99":9,"buckets":[[5,5,1],[9,9,1]]}"#,
        "\n",
        r#"{"type":"event","t_ns":7,"kind":"recompile","fields":{"version":2}}"#,
        "\n",
    );

    #[test]
    fn parses_all_line_types() {
        let export = parse(SAMPLE).unwrap();
        assert_eq!(export.schema, Some(1));
        assert_eq!(export.journal_evicted, 2);
        assert_eq!(export.counters.len(), 3);
        assert_eq!(export.gauges.len(), 1);
        assert_eq!(export.histograms.len(), 1);
        assert_eq!(export.events.len(), 1);
        assert_eq!(export.gauges[0].value, -1);
        assert_eq!(export.histograms[0].p90, Some(9));
        assert_eq!(export.histograms[0].buckets, vec![(5, 5, 1), (9, 9, 1)]);
    }

    #[test]
    fn renders_per_tenant_and_per_queue_pivots() {
        let text = render(SAMPLE).unwrap();
        assert!(text.contains("per-tenant:"), "{text}");
        assert!(text.contains("per-queue:"), "{text}");
        assert!(text.contains("n0.p0"), "{text}");
        assert!(text.contains("recompile"), "{text}");
        // Tenant 1 row carries its counter value.
        let tenant_row = text
            .lines()
            .find(|l| l.trim_start().starts_with('1') && l.contains("20"))
            .unwrap_or_else(|| panic!("no tenant-1 row in:\n{text}"));
        assert!(tenant_row.contains("20"));
    }

    #[test]
    fn profile_lines_render_as_their_own_section() {
        let jsonl = concat!(
            r#"{"type":"meta","schema":1,"journal_evicted":0}"#,
            "\n",
            r#"{"type":"profile","name":"event_dispatch","count":4,"total_ns":200,"min_ns":10,"max_ns":90,"mean_ns":50}"#,
            "\n",
        );
        let export = parse(jsonl).unwrap();
        assert_eq!(export.profiles.len(), 1);
        assert_eq!(export.profiles[0].mean_ns, 50);
        let text = render(jsonl).unwrap();
        assert!(text.contains("self-profile (wall clock):"), "{text}");
        assert!(text.contains("event_dispatch"), "{text}");
    }

    #[test]
    fn truncated_journal_carries_a_warning() {
        let text = render(SAMPLE).unwrap();
        assert!(text.contains("warning: journal overflowed"), "{text}");
        let clean = r#"{"type":"meta","schema":1,"journal_evicted":0}
{"type":"event","t_ns":7,"kind":"tick","fields":{}}
"#;
        let text = render(clean).unwrap();
        assert!(!text.contains("warning: journal overflowed"), "{text}");
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = parse("{\"type\":\"meta\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn unknown_types_are_ignored() {
        let export = parse(r#"{"type":"mystery","x":1}"#).unwrap();
        assert!(export.counters.is_empty());
    }

    #[test]
    fn roundtrips_live_export() {
        let t = crate::Telemetry::enabled();
        t.counter("pkts_tx", &[("tenant", "7")]).add(5);
        t.histogram("fct_ns", &[("tenant", "7")]).record(1234);
        let text = render(&t.export_jsonl()).unwrap();
        assert!(text.contains("per-tenant:"), "{text}");
        assert!(text.contains("pkts_tx"), "{text}");
    }
}
