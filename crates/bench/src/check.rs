//! The perf-regression gate: compares a fresh `BENCH_pe.json` against a
//! committed baseline and fails on regressions.
//!
//! Two metric families, two tolerance regimes:
//!
//! * **timing** (`compile_ms`, each engine's `min_ms`) is noisy across
//!   machines and CI load, so the gate only trips on a large multiple
//!   of the baseline plus an absolute slack — it catches "the compiler
//!   got 3× slower", not jitter;
//! * **size** (`residual.nodes_flow`, `residual.c_bytes_flow`,
//!   `sct.compositions`, the specializer's `memo_lookups`,
//!   `unfold_steps`, `generalizations` and `trick_dispatches` counters,
//!   and the `work` counts: the optimizer's `flow_rounds` and the VM's
//!   `vm_steps`, `vm_allocs` and `vm_calls`) is deterministic, so the
//!   tolerance is tight: a few percent of growth headroom for benign
//!   codegen or work-order drift.
//!
//! Improvements never fail; the gate is one-sided.  The workspace is
//! dependency-free, so this module carries its own ~100-line recursive
//! JSON reader (the bench writer emits full nested JSON, unlike the
//! flat trace stream `pe_trace::jsonl` validates).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (numbers as `f64`, like the format).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key-sorted; duplicate keys keep the last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn str_(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while let Some(&c) = b.get(*pos) {
        if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                m.insert(key, parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut a = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(a));
            }
            loop {
                a.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(a));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let mut buf = [0u8; 4];
                        let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

/// The gate's per-metric headroom; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// A timed metric regresses when it exceeds
    /// `baseline * timing_ratio + timing_abs_ms`.
    pub timing_ratio: f64,
    /// Absolute slack added to every timing limit, in ms (absorbs
    /// jitter on sub-millisecond baselines).
    pub timing_abs_ms: f64,
    /// A deterministic size metric regresses when it exceeds
    /// `baseline * size_ratio`.
    pub size_ratio: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        // Timing must survive a different machine under CI load; sizes
        // are exact modulo deliberate codegen changes.
        Tolerances { timing_ratio: 2.5, timing_abs_ms: 25.0, size_ratio: 1.05 }
    }
}

/// Compares `candidate` (a fresh `pe-bench` JSON document) against
/// `baseline`, returning one message per regression — empty means the
/// gate passes.  Metrics may improve freely; only the listed regressions
/// fail.
///
/// # Errors
///
/// When either document does not parse, lacks the expected shape, or
/// the two were produced under different modes/schemas (such runs are
/// not comparable and must not silently pass).
pub fn check_regressions(
    baseline: &str,
    candidate: &str,
    tol: &Tolerances,
) -> Result<Vec<String>, String> {
    let base = Json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand = Json::parse(candidate).map_err(|e| format!("candidate: {e}"))?;
    for key in ["schema", "mode"] {
        let b = base.get(key).and_then(Json::str_).ok_or(format!("baseline has no {key}"))?;
        let c = cand.get(key).and_then(Json::str_).ok_or(format!("candidate has no {key}"))?;
        if b != c {
            return Err(format!("{key} mismatch: baseline {b:?} vs candidate {c:?}"));
        }
    }
    let base_rows = base
        .get("benchmarks")
        .and_then(Json::arr)
        .ok_or("baseline has no benchmarks array")?;
    let cand_rows = cand
        .get("benchmarks")
        .and_then(Json::arr)
        .ok_or("candidate has no benchmarks array")?;
    let mut regressions = Vec::new();
    for brow in base_rows {
        let name = brow
            .get("name")
            .and_then(Json::str_)
            .ok_or("baseline benchmark without a name")?;
        let Some(crow) = cand_rows
            .iter()
            .find(|r| r.get("name").and_then(Json::str_) == Some(name))
        else {
            regressions.push(format!("{name}: missing from the candidate run"));
            continue;
        };
        let mut timing = |label: &str, path: &[&str]| {
            check_metric(brow, crow, name, label, path, tol.timing_ratio, tol.timing_abs_ms, &mut regressions);
        };
        timing("compile_ms", &["compile_ms"]);
        timing("vm min_ms", &["engines", "vm", "min_ms"]);
        timing("tail min_ms", &["engines", "tail", "min_ms"]);
        timing("hobbit min_ms", &["engines", "hobbit", "min_ms"]);
        let mut size = |label: &str, path: &[&str]| {
            check_metric(brow, crow, name, label, path, tol.size_ratio, 0.0, &mut regressions);
        };
        size("residual nodes", &["residual", "nodes_flow"]);
        size("emitted C bytes", &["residual", "c_bytes_flow"]);
        size("sct compositions", &["sct", "compositions"]);
        for counter in ["memo_lookups", "unfold_steps", "generalizations", "trick_dispatches"] {
            size(counter, &["counters", counter]);
        }
        for count in ["flow_rounds", "vm_steps", "vm_allocs", "vm_calls"] {
            size(count, &["work", count]);
        }
    }
    Ok(regressions)
}

/// One metric comparison: walks `path` in both rows and records a
/// regression when the candidate exceeds `base * ratio + abs`.
#[allow(clippy::too_many_arguments)]
fn check_metric(
    brow: &Json,
    crow: &Json,
    name: &str,
    label: &str,
    path: &[&str],
    ratio: f64,
    abs: f64,
    regressions: &mut Vec<String>,
) {
    let walk = |mut v: &Json| {
        for key in path {
            v = v.get(key)?;
        }
        v.num()
    };
    let (Some(b), Some(c)) = (walk(brow), walk(crow)) else {
        regressions.push(format!("{name}: {label} missing from a row"));
        return;
    };
    let limit = b * ratio + abs;
    if c > limit {
        let mut msg = String::new();
        let _ = write!(msg, "{name}: {label} regressed: {b:.3} -> {c:.3} (limit {limit:.3})");
        regressions.push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
      "benchmarks": [
        {
          "compile_ms": 10.0,
          "counters": {
            "generalizations": 4,
            "memo_lookups": 13,
            "trick_dispatches": 1,
            "unfold_steps": 13
          },
          "engines": {
            "hobbit": {"min_ms": 0.5, "runs": 3},
            "tail": {"min_ms": 0.8, "runs": 3},
            "vm": {"min_ms": 0.2, "runs": 3}
          },
          "name": "tak",
          "residual": {"c_bytes_flow": 800, "nodes_flow": 30},
          "sct": {"compositions": 284},
          "work": {"flow_rounds": 2, "vm_allocs": 120, "vm_calls": 400, "vm_steps": 1000}
        }
      ],
      "mode": "quick",
      "schema": "pe-bench/5"
    }"#;

    #[test]
    fn parser_round_trips_the_shapes_the_writer_emits() {
        let v = Json::parse(DOC).expect("parses");
        assert_eq!(
            v.get("benchmarks").and_then(Json::arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("schema").and_then(Json::str_), Some("pe-bench/5"));
        let esc = Json::parse(r#"{"s": "a\"b\\c\nd A"}"#).expect("escapes");
        assert_eq!(esc.get("s").and_then(Json::str_), Some("a\"b\\c\nd A"));
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn identical_runs_and_improvements_pass() {
        let tol = Tolerances::default();
        assert_eq!(check_regressions(DOC, DOC, &tol).unwrap(), Vec::<String>::new());
        let faster = DOC.replace("\"compile_ms\": 10.0", "\"compile_ms\": 1.0");
        assert_eq!(check_regressions(DOC, &faster, &tol).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn synthetic_regressions_are_caught() {
        let tol = Tolerances::default();
        // Timing: 10ms -> 100ms blows through 10*2.5+25.
        let slow = DOC.replace("\"compile_ms\": 10.0", "\"compile_ms\": 100.0");
        let r = check_regressions(DOC, &slow, &tol).unwrap();
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("tak: compile_ms regressed"), "{r:?}");
        // Timing within tolerance: 10ms -> 20ms is jitter, not a bug.
        let jitter = DOC.replace("\"compile_ms\": 10.0", "\"compile_ms\": 20.0");
        assert!(check_regressions(DOC, &jitter, &tol).unwrap().is_empty());
        // Deterministic size: 30 -> 32 nodes exceeds the 5% headroom.
        let grown = DOC.replace("\"nodes_flow\": 30", "\"nodes_flow\": 32");
        let r = check_regressions(DOC, &grown, &tol).unwrap();
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("residual nodes"), "{r:?}");
        // So is the closure's work: 284 -> 300 compositions.
        let busier = DOC.replace("\"compositions\": 284", "\"compositions\": 300");
        let r = check_regressions(DOC, &busier, &tol).unwrap();
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("tak: sct compositions regressed"), "{r:?}");
        // And the specializer's: 13 -> 14 memo lookups.
        let memo = DOC.replace("\"memo_lookups\": 13", "\"memo_lookups\": 14");
        let r = check_regressions(DOC, &memo, &tol).unwrap();
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("tak: memo_lookups regressed"), "{r:?}");
        // And the run's exact work: 1000 -> 1100 VM steps, one more
        // optimizer round.
        for (from, to, what) in [
            ("\"vm_steps\": 1000", "\"vm_steps\": 1100", "tak: vm_steps regressed"),
            ("\"flow_rounds\": 2", "\"flow_rounds\": 3", "tak: flow_rounds regressed"),
        ] {
            let r = check_regressions(DOC, &DOC.replace(from, to), &tol).unwrap();
            assert_eq!(r.len(), 1, "{r:?}");
            assert!(r[0].contains(what), "{r:?}");
        }
        // A benchmark that vanished is a regression, not a skip.
        let gone = DOC.replace("\"name\": \"tak\"", "\"name\": \"renamed\"");
        let r = check_regressions(DOC, &gone, &tol).unwrap();
        assert!(r[0].contains("missing from the candidate run"), "{r:?}");
    }

    #[test]
    fn incomparable_runs_error_instead_of_passing() {
        let tol = Tolerances::default();
        let full = DOC.replace("\"mode\": \"quick\"", "\"mode\": \"full\"");
        assert!(check_regressions(DOC, &full, &tol).is_err());
        let old = DOC.replace("pe-bench/5", "pe-bench/4");
        assert!(check_regressions(DOC, &old, &tol).is_err());
        assert!(check_regressions("not json", DOC, &tol).is_err());
    }
}
