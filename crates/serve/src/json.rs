//! The wire format: tensors and errors as JSON.
//!
//! ## Tensor encoding
//!
//! ```json
//! {"dtype": "f32", "shape": [2, 3], "data": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}
//! ```
//!
//! `dtype` is `f32` (default), `i64`, or `bool`; `shape` `[]` is a
//! scalar; `data` is the row-major flat buffer. A bare JSON number is
//! shorthand for an `f32` scalar, a bare `true`/`false` for a `bool`
//! scalar. Non-finite floats round-trip as the strings `"NaN"`,
//! `"Infinity"`, `"-Infinity"` (strict JSON has no literals for them).
//!
//! f32 payloads are emitted with Rust's shortest-round-trip formatting,
//! so a value parsed back from a response is **bitwise identical** to
//! the tensor the server computed — the serving layer's differential
//! tests compare against direct `Session::run` at the bit level.
//!
//! ## Error encoding
//!
//! ```json
//! {"error": {"kind": "graph_error", "status": 500,
//!            "message": "graph execution error: ... (node 'matmul_3')",
//!            "node": "matmul_3", "line": 4, "col": 9,
//!            "source_line": "    y = tf.matmul(a, b)"}}
//! ```
//!
//! `node`/`line`/`col`/`source_line` appear when the underlying
//! `GraphError` carries attribution (the provenance machinery of the
//! explain layer); budget errors (`shed`, `deadline_exceeded`, ...) carry
//! `retry_after_ms` instead.

use crate::error::ServeError;
use autograph_obs::json::write_str;
use autograph_tensor::{DType, Shape, Tensor};
use serde_json::Value;

/// Format one f32 so that parsing the text back yields the same bits.
/// Rust's `{}` prints the shortest decimal that round-trips; NaN and the
/// infinities become strings (strict JSON has no literal for them).
fn fmt_f32(v: f32, out: &mut String) {
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v == f32::INFINITY {
        out.push_str("\"Infinity\"");
    } else if v == f32::NEG_INFINITY {
        out.push_str("\"-Infinity\"");
    } else {
        out.push_str(&format!("{v}"));
        // `1` would parse back as an integer-looking float; that is fine,
        // the decoder always narrows through f64 to f32
    }
}

/// Serialize one tensor into the wire object.
pub fn write_tensor(t: &Tensor, out: &mut String) {
    out.push_str("{\"dtype\":\"");
    out.push_str(match t.dtype() {
        DType::F32 => "f32",
        DType::I64 => "i64",
        DType::Bool => "bool",
    });
    out.push_str("\",\"shape\":[");
    for (i, d) in t.shape().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_string());
    }
    out.push_str("],\"data\":[");
    match t.dtype() {
        DType::F32 => {
            for (i, v) in t.as_f32().unwrap_or(&[]).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                fmt_f32(*v, out);
            }
        }
        DType::I64 => {
            for (i, v) in t.as_i64().unwrap_or(&[]).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
        }
        DType::Bool => {
            for (i, v) in t.as_bool().unwrap_or(&[]).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(if *v { "true" } else { "false" });
            }
        }
    }
    out.push_str("]}");
}

/// The success response body: `{"outputs": [<tensor>, ...]}`.
pub fn outputs_body(outputs: &[Tensor]) -> String {
    let mut out = String::from("{\"outputs\":[");
    for (i, t) in outputs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_tensor(t, &mut out);
    }
    out.push_str("]}");
    out
}

/// The error response body (see the module docs for the schema).
/// `source` is the loaded program's text, used to echo the offending
/// line when the error carries a span. `request_id` (when the error
/// belongs to a traced `/run` request) is echoed so a failing response
/// can be correlated with its `/debug/trace` span tree and log lines.
pub fn error_body(err: &ServeError, source: Option<&str>, request_id: Option<&str>) -> String {
    let mut out = String::from("{\"error\":{\"kind\":\"");
    out.push_str(err.kind());
    out.push_str("\",\"status\":");
    out.push_str(&err.status().to_string());
    out.push_str(",\"message\":");
    write_str(&mut out, &err.to_string());
    if let Some(id) = request_id {
        out.push_str(",\"request_id\":");
        write_str(&mut out, id);
    }
    if let Some(ms) = err.retry_after_ms() {
        out.push_str(&format!(",\"retry_after_ms\":{ms}"));
    }
    if let Some(ge) = err.graph_error() {
        if let Some(node) = &ge.node {
            out.push_str(",\"node\":");
            write_str(&mut out, node);
        }
        if let Some(span) = &ge.span {
            out.push_str(&format!(",\"line\":{},\"col\":{}", span.line, span.col));
            if let Some(src) = source {
                if let Some(text) = src.lines().nth(span.line.saturating_sub(1) as usize) {
                    out.push_str(",\"source_line\":");
                    write_str(&mut out, text);
                }
            }
        }
    }
    out.push_str("}}");
    out
}

fn parse_f32(v: &Value) -> Result<f32, String> {
    match v {
        Value::Number(n) => Ok(*n as f32),
        Value::String(s) => match s.as_str() {
            "NaN" => Ok(f32::NAN),
            "Infinity" => Ok(f32::INFINITY),
            "-Infinity" => Ok(f32::NEG_INFINITY),
            other => Err(format!("'{other}' is not an f32")),
        },
        _ => Err("expected a number".to_string()),
    }
}

/// Decode one tensor from its wire object (or scalar shorthand).
pub(crate) fn parse_tensor(v: &Value) -> Result<Tensor, String> {
    match v {
        Value::Number(n) => Ok(Tensor::scalar_f32(*n as f32)),
        Value::Bool(b) => Ok(Tensor::scalar_bool(*b)),
        Value::Object(_) => {
            let dtype = match v.get("dtype").and_then(Value::as_str) {
                None | Some("f32") => DType::F32,
                Some("i64") => DType::I64,
                Some("bool") => DType::Bool,
                Some(other) => return Err(format!("unknown dtype '{other}'")),
            };
            let shape: Vec<usize> = match v.get("shape") {
                Some(Value::Array(dims)) => dims
                    .iter()
                    .map(|d| {
                        d.as_u64()
                            .map(|u| u as usize)
                            .ok_or_else(|| "shape dims must be non-negative integers".to_string())
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err("tensor object needs a \"shape\" array".to_string()),
            };
            let data = match v.get("data") {
                Some(Value::Array(items)) => items,
                _ => return Err("tensor object needs a \"data\" array".to_string()),
            };
            let Some(expected) = Shape::checked_count(&shape) else {
                return Err(format!(
                    "shape {shape:?} has more elements than usize holds"
                ));
            };
            if data.len() != expected {
                return Err(format!(
                    "shape {shape:?} wants {expected} elements, data has {}",
                    data.len()
                ));
            }
            let t = match dtype {
                DType::F32 => Tensor::from_vec(
                    data.iter().map(parse_f32).collect::<Result<Vec<_>, _>>()?,
                    &shape,
                ),
                DType::I64 => Tensor::from_vec_i64(
                    data.iter()
                        .map(|d| d.as_i64().ok_or_else(|| "expected an i64".to_string()))
                        .collect::<Result<Vec<_>, _>>()?,
                    &shape,
                ),
                DType::Bool => Tensor::from_vec_bool(
                    data.iter()
                        .map(|d| d.as_bool().ok_or_else(|| "expected a bool".to_string()))
                        .collect::<Result<Vec<_>, _>>()?,
                    &shape,
                ),
            };
            t.map_err(|e| e.to_string())
        }
        _ => Err("argument must be a number, bool, or tensor object".to_string()),
    }
}

/// Decode a `POST /run/<fn>` body: `{"args": [<tensor>, ...]}`.
pub fn parse_run_request(body: &str) -> Result<Vec<Tensor>, String> {
    let doc = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let args = match doc.get("args") {
        Some(Value::Array(items)) => items,
        _ => return Err("request body needs an \"args\" array".to_string()),
    };
    args.iter()
        .enumerate()
        .map(|(i, a)| parse_tensor(a).map_err(|e| format!("args[{i}]: {e}")))
        .collect()
}

/// Decode a success response body back into tensors (client side; also
/// what the differential tests use for bit-level comparison).
pub fn parse_outputs(body: &str) -> Result<Vec<Tensor>, String> {
    let doc = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let outs = match doc.get("outputs") {
        Some(Value::Array(items)) => items,
        _ => return Err("response body has no \"outputs\" array".to_string()),
    };
    outs.iter()
        .enumerate()
        .map(|(i, o)| parse_tensor(o).map_err(|e| format!("outputs[{i}]: {e}")))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn roundtrip(t: &Tensor) -> Tensor {
        let mut s = String::new();
        write_tensor(t, &mut s);
        let doc = serde_json::from_str(&s).unwrap();
        parse_tensor(&doc).unwrap()
    }

    #[test]
    fn f32_roundtrip_is_bitwise() {
        let vals = vec![
            0.0f32,
            -0.0,
            1.0,
            0.1,
            1.0 / 3.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            -2.5e-7,
            std::f32::consts::PI,
        ];
        let t = Tensor::from_vec(vals.clone(), &[vals.len()]).unwrap();
        let back = roundtrip(&t);
        for (a, b) in t.as_f32().unwrap().iter().zip(back.as_f32().unwrap()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn non_finite_roundtrip() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY], &[3]).unwrap();
        let back = roundtrip(&t);
        let b = back.as_f32().unwrap();
        assert!(b[0].is_nan());
        assert_eq!(b[1], f32::INFINITY);
        assert_eq!(b[2], f32::NEG_INFINITY);
    }

    #[test]
    fn i64_and_bool_roundtrip() {
        let t = Tensor::from_vec_i64(vec![-3, 0, 9_000_000_000], &[3]).unwrap();
        assert_eq!(roundtrip(&t).as_i64().unwrap(), t.as_i64().unwrap());
        let t = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        assert_eq!(roundtrip(&t).as_bool().unwrap(), t.as_bool().unwrap());
    }

    #[test]
    fn scalar_shorthand() {
        let doc = serde_json::from_str(
            "{\"args\": [2.5, true, {\"dtype\":\"i64\",\"shape\":[],\"data\":[7]}]}",
        )
        .unwrap();
        let args: Vec<Tensor> = match doc.get("args").unwrap() {
            Value::Array(items) => items.iter().map(|a| parse_tensor(a).unwrap()).collect(),
            _ => panic!(),
        };
        assert_eq!(args[0].scalar_value_f32().unwrap(), 2.5);
        assert_eq!(args[1].as_bool().unwrap(), &[true]);
        assert_eq!(args[2].as_i64().unwrap(), &[7]);
    }

    #[test]
    fn run_request_errors_are_located() {
        assert!(parse_run_request("{}").unwrap_err().contains("args"));
        let e = parse_run_request("{\"args\":[{\"shape\":[2],\"data\":[1.0]}]}").unwrap_err();
        assert!(e.contains("args[0]"), "{e}");
        assert!(e.contains("wants 2 elements"), "{e}");
    }

    #[test]
    fn outputs_body_parses_back() {
        let t1 = Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap();
        let t2 = Tensor::scalar_i64(4);
        let body = outputs_body(&[t1.clone(), t2.clone()]);
        let outs = parse_outputs(&body).unwrap();
        assert_eq!(outs[0].as_f32().unwrap(), t1.as_f32().unwrap());
        assert_eq!(outs[1].as_i64().unwrap(), t2.as_i64().unwrap());
    }

    #[test]
    fn error_body_carries_attribution() {
        use autograph_graph::GraphError;
        use autograph_pylang::Span;
        let ge = GraphError::runtime("division by zero")
            .at_node("div_3")
            .at_span(Span::new(2, 5));
        let body = error_body(
            &ServeError::Graph(ge),
            Some("def f(x):\n    return x / 0.0\n"),
            Some("req-42"),
        );
        let doc = serde_json::from_str(&body).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str().unwrap(), "graph_error");
        assert_eq!(err.get("status").unwrap().as_u64().unwrap(), 500);
        assert_eq!(err.get("request_id").unwrap().as_str().unwrap(), "req-42");
        assert_eq!(err.get("node").unwrap().as_str().unwrap(), "div_3");
        assert_eq!(err.get("line").unwrap().as_u64().unwrap(), 2);
        assert_eq!(
            err.get("source_line").unwrap().as_str().unwrap(),
            "    return x / 0.0"
        );
    }

    #[test]
    fn shed_body_carries_retry_after() {
        let body = error_body(
            &ServeError::Shed {
                reason: "queue_full".into(),
                retry_after_ms: 40,
            },
            None,
            None,
        );
        let doc = serde_json::from_str(&body).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str().unwrap(), "shed");
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64().unwrap(), 40);
    }
}
