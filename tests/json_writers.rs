//! Every JSON producer that embeds text it does not control, fed one
//! table of hostile strings: the document must parse and the string
//! must come back equal. All of them render through
//! `autograph_obs::json::write_str` (its own unit test pins *which*
//! characters are escaped; a parse-back cannot tell).

use autograph_graph::{GraphError, MemReport, NodeCost, RunReport};
use autograph_obs::{Recorder, TraceRecorder};
use autograph_pylang::Span;
use autograph_serve::{json::error_body, ServeError, Telemetry, TelemetryConfig};
use serde_json::Value;

fn hostile_strings() -> Vec<String> {
    let c0: String = (0u8..0x20).map(char::from).collect();
    vec![
        String::new(),
        "\"".to_string(),
        "\\".to_string(),
        "\\\"\\\\\" trailing backslash \\".to_string(),
        c0,
        "\u{7f}".to_string(),
        "line\u{2028}sep\u{2029}arators".to_string(),
        "astral \u{1F600} \u{10FFFF}".to_string(),
        "</script><!-- é ß 漢 \u{feff}".to_string(),
    ]
}

/// Parse `json`, after checking the one thing a parse-back cannot: DEL
/// and the two JavaScript line separators are legal raw, and every
/// producer escapes them anyway.
fn parse(what: &str, json: &str) -> Value {
    assert!(
        !json.contains(['\u{7f}', '\u{2028}', '\u{2029}']),
        "{what}: raw DEL / U+2028 / U+2029 in {json}"
    );
    serde_json::from_str(json).unwrap_or_else(|e| panic!("{what}: {e}\n{json}"))
}

fn events(doc: &Value) -> &Vec<Value> {
    doc["traceEvents"].as_array().expect("traceEvents")
}

#[test]
fn run_report_round_trips_node_names_and_errors() {
    for s in hostile_strings() {
        let report = RunReport {
            error: Some(s.clone()),
            mem: MemReport::default(),
            node_costs: vec![NodeCost {
                node: 0,
                name: s.clone(),
                op: "add",
                span: Span::new(1, 1),
                self_ns: 1,
                alloc_bytes: 0,
                evals: 1,
            }],
            ..RunReport::default()
        };
        let doc = parse("run report", &report.to_json());
        assert_eq!(doc["error"].as_str(), Some(s.as_str()));
        assert_eq!(doc["node_costs"][0]["name"].as_str(), Some(s.as_str()));
    }
}

#[test]
fn chrome_trace_round_trips_span_gauge_and_thread_names() {
    for s in hostile_strings() {
        // a thread name cannot hold NUL; everything else goes through
        let thread_name = s.replace('\0', "");
        std::thread::Builder::new()
            .name(thread_name.clone())
            .spawn(autograph_obs::thread_lane)
            .expect("spawn")
            .join()
            .expect("join");
        let t = TraceRecorder::new();
        t.span("graph_op", &s, 0, 1);
        t.gauge("mem", &s, 42);
        let doc = parse("chrome trace", &t.to_json());
        let all = events(&doc);
        assert_eq!(all[0]["ph"].as_str(), Some("X"));
        assert_eq!(all[0]["name"].as_str(), Some(s.as_str()));
        assert_eq!(all[1]["ph"].as_str(), Some("C"));
        assert_eq!(all[1]["name"].as_str(), Some(s.as_str()));
        assert_eq!(all[1]["args"]["value"].as_u64(), Some(42));
        assert!(
            all.iter().any(|e| e["name"].as_str() == Some("thread_name")
                && e["args"]["name"].as_str() == Some(thread_name.as_str())),
            "no thread_name event for {thread_name:?}"
        );
    }
}

#[test]
fn debug_trace_round_trips_request_ids_function_names_and_phases() {
    for s in hostile_strings() {
        let tel = Telemetry::new(
            std::slice::from_ref(&s),
            TelemetryConfig {
                trace_sample: 1,
                ..TelemetryConfig::default()
            },
        );
        // the HTTP layer sanitizes X-Request-Id; the writer must not
        // depend on that
        let trace = tel.begin_request(Some(s.clone()), &s);
        trace.phase(&s, 0, 1);
        tel.finish_request(&trace, 200, 2);
        let doc = parse("/debug/trace", &tel.traces_json(8));
        let data: Vec<&Value> = events(&doc)
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(data.len(), 2);
        assert_eq!(
            data[0]["name"].as_str(),
            Some(format!("request {s}").as_str())
        );
        assert_eq!(data[0]["args"]["status"].as_u64(), Some(200));
        assert_eq!(data[1]["cat"].as_str(), Some("phase"));
        assert_eq!(data[1]["name"].as_str(), Some(s.as_str()));
        for e in data {
            assert_eq!(e["args"]["request_id"].as_str(), Some(s.as_str()));
        }
    }
}

#[test]
fn error_body_round_trips_message_node_id_and_source_excerpt() {
    for s in hostile_strings() {
        // the excerpt is one line of the program: line breaks split it
        let line: String = s
            .chars()
            .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
            .collect();
        let source = format!("def f(x):\n{line}\n");
        let err = ServeError::Graph(
            GraphError::runtime(s.clone())
                .at_node(s.clone())
                .at_span(Span::new(2, 1)),
        );
        let doc = parse("error body", &error_body(&err, Some(&source), Some(&s)));
        let e = &doc["error"];
        assert!(e["message"].as_str().expect("message").contains(&s));
        assert_eq!(e["node"].as_str(), Some(s.as_str()));
        assert_eq!(e["request_id"].as_str(), Some(s.as_str()));
        assert_eq!(e["source_line"].as_str(), Some(line.as_str()));
    }
}
