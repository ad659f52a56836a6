//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, over stdio or a
//! TCP connection — built entirely on [`streamlin_support::json`] (the
//! workspace carries no serialization dependency). Values travel as JSON
//! numbers printed with Rust's shortest-round-trip `{}` formatting, so a
//! finite `f64` parsed back from the wire is **bit-identical** to the
//! engine's output — the service equivalence suite leans on this. JSON
//! has no spelling for non-finite numbers (the writer would degrade
//! them to `null`), so samples that overflow or divide to NaN travel as
//! the string sentinels `"inf"`/`"-inf"`/`"nan"` instead
//! ([`encode_sample`]/[`decode_sample`]), keeping every program
//! observable through the service.
//!
//! Requests (`op` selects the verb; unknown fields are ignored):
//!
//! ```json
//! {"op":"open","id":"s1","program":"...","config":"autosel",
//!  "sched":"auto","mode":"measured","matmul":"unrolled","threads":2,
//!  "fission":"auto","quantum":4,"fault":"7:die@s0","watchdog_ms":2000,
//!  "wait_ms":100}
//! {"op":"read","id":"s1","n":64}
//! {"op":"close","id":"s1"}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`; failures are structured —
//! `{"ok":false,"error":"saturated","need":2,"in_use":4,"budget":4,...}`
//! is the admission-control refusal, never a hang. A `read` of more than
//! [`MAX_READ`] values is a `bad_request` before any engine work: one
//! response line holds the whole batch, so an unbounded `n` would
//! stall the stream and grow without limit.

use streamlin_runtime::fission::Fission;
use streamlin_runtime::measure::{ExecMode, Scheduler};
use streamlin_runtime::MatMulStrategy;
use streamlin_support::json::{self, Json};

/// The most values one `read` request may ask for (8 MiB of samples;
/// larger batches are a sequence of reads).
pub const MAX_READ: usize = 1 << 20;

/// A parsed `open` request.
#[derive(Debug, Clone)]
pub struct OpenReq {
    pub id: String,
    pub program: String,
    pub config: String,
    pub sched: Scheduler,
    pub mode: ExecMode,
    pub matmul: Option<MatMulStrategy>,
    pub threads: Option<usize>,
    pub fission: Fission,
    /// `0` defers to the daemon default (then env, then built-in).
    pub quantum: u64,
    /// Per-stream fault-injection spec (the `--fault-inject` grammar).
    pub fault: Option<String>,
    pub watchdog_ms: Option<u64>,
    /// How long `open` may wait for admission before a structured
    /// refusal; absent = refuse immediately.
    pub wait_ms: Option<u64>,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    Open(Box<OpenReq>),
    Read { id: String, n: usize },
    Close { id: String },
    Stats,
    Ping,
    Shutdown,
}

fn str_field(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_string)
}

fn num_field(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_num)
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description of what is malformed (the server wraps
/// it into a `bad_request` response).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = str_field(&v, "op").ok_or("missing \"op\"")?;
    match op.as_str() {
        "open" => {
            let id = str_field(&v, "id").ok_or("open: missing \"id\"")?;
            let program = str_field(&v, "program").ok_or("open: missing \"program\"")?;
            let sched = match str_field(&v, "sched").as_deref() {
                None | Some("auto") => Scheduler::Auto,
                Some("static") => Scheduler::Static,
                Some("dynamic") => Scheduler::Dynamic,
                Some(other) => return Err(format!("open: unknown sched `{other}`")),
            };
            let mode = match str_field(&v, "mode").as_deref() {
                None | Some("measured") => ExecMode::Measured,
                Some("fast") => ExecMode::Fast,
                Some(other) => return Err(format!("open: unknown mode `{other}`")),
            };
            let matmul = match str_field(&v, "matmul").as_deref() {
                None => None,
                Some("unrolled") => Some(MatMulStrategy::Unrolled),
                Some("diagonal") => Some(MatMulStrategy::Diagonal),
                Some("blocked") => Some(MatMulStrategy::Blocked),
                Some("simd") => Some(MatMulStrategy::Simd),
                Some(other) => return Err(format!("open: unknown matmul `{other}`")),
            };
            let fission = match v.get("fission") {
                None => Fission::Off,
                Some(Json::Str(s)) if s == "auto" => Fission::Auto,
                Some(Json::Str(s)) if s == "off" => Fission::Off,
                Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 => Fission::Width(*n as usize),
                Some(other) => return Err(format!("open: bad fission `{other:?}`")),
            };
            let threads = match num_field(&v, "threads") {
                None => None,
                Some(n) if n >= 1.0 && n.fract() == 0.0 => Some(n as usize),
                Some(n) => return Err(format!("open: bad threads `{n}`")),
            };
            let quantum = match num_field(&v, "quantum") {
                None => 0,
                Some(q) if q >= 1.0 && q.fract() == 0.0 => q as u64,
                Some(q) => return Err(format!("open: bad quantum `{q}`")),
            };
            Ok(Request::Open(Box::new(OpenReq {
                id,
                program,
                config: str_field(&v, "config").unwrap_or_else(|| "autosel".into()),
                sched,
                mode,
                matmul,
                threads,
                fission,
                quantum,
                fault: str_field(&v, "fault"),
                watchdog_ms: num_field(&v, "watchdog_ms").map(|n| n as u64),
                wait_ms: num_field(&v, "wait_ms").map(|n| n as u64),
            })))
        }
        "read" => {
            let id = str_field(&v, "id").ok_or("read: missing \"id\"")?;
            let n = match num_field(&v, "n") {
                Some(n) if n > MAX_READ as f64 && n.fract() == 0.0 => {
                    return Err(format!(
                        "read: \"n\" = {n} exceeds the per-read cap of {MAX_READ} values"
                    ))
                }
                Some(n) if n >= 0.0 && n.fract() == 0.0 => n as usize,
                _ => return Err("read: missing or bad \"n\"".into()),
            };
            Ok(Request::Read { id, n })
        }
        "close" => Ok(Request::Close {
            id: str_field(&v, "id").ok_or("close: missing \"id\"")?,
        }),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Encodes one output sample for the wire: finite values as JSON
/// numbers (shortest-round-trip, bit-identical on parse-back),
/// non-finite values as the string sentinels `"inf"`/`"-inf"`/`"nan"`
/// — the JSON writer would otherwise flatten them to `null`, silently
/// corrupting any program whose arithmetic overflows.
pub fn encode_sample(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::Str("nan".into())
    } else if v > 0.0 {
        Json::Str("inf".into())
    } else {
        Json::Str("-inf".into())
    }
}

/// Decodes one wire sample produced by [`encode_sample`]. `None` for
/// anything that is neither a number nor a recognized sentinel.
pub fn decode_sample(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        Json::Str(s) => match s.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        _ => None,
    }
}

/// A successful response: `{"ok":true,"op":<op>, ...pairs}`.
pub fn ok_response(op: &str, pairs: Vec<(String, Json)>) -> String {
    let mut all = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str(op.into())),
    ];
    all.extend(pairs);
    Json::obj(all).dump()
}

/// A failure response: `{"ok":false,"error":<code>,"detail":..., ...}`.
pub fn err_response(code: &str, detail: &str, pairs: Vec<(String, Json)>) -> String {
    let mut all = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(code.into())),
        ("detail".to_string(), Json::Str(detail.into())),
    ];
    all.extend(pairs);
    Json::obj(all).dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_defaults_mirror_streamlinc() {
        let r = parse_request(r#"{"op":"open","id":"a","program":"p"}"#).unwrap();
        let Request::Open(o) = r else {
            panic!("not open")
        };
        assert_eq!(o.config, "autosel");
        assert_eq!(o.sched, Scheduler::Auto);
        assert_eq!(o.mode, ExecMode::Measured);
        assert_eq!(o.matmul, None);
        assert_eq!(o.threads, None);
        assert_eq!(o.fission, Fission::Off);
        assert_eq!(o.quantum, 0);
    }

    #[test]
    fn knobs_parse() {
        let r = parse_request(
            r#"{"op":"open","id":"a","program":"p","mode":"fast","threads":4,
                "fission":2,"quantum":8,"fault":"7:die@s0","watchdog_ms":500,"wait_ms":10}"#,
        )
        .unwrap();
        let Request::Open(o) = r else {
            panic!("not open")
        };
        assert_eq!(o.mode, ExecMode::Fast);
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.fission, Fission::Width(2));
        assert_eq!(o.quantum, 8);
        assert_eq!(o.fault.as_deref(), Some("7:die@s0"));
        assert_eq!(o.watchdog_ms, Some(500));
        assert_eq!(o.wait_ms, Some(10));
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"op":"read","id":"a"}"#).is_err());
        assert!(parse_request(r#"{"op":"warp"}"#).is_err());
        assert!(parse_request(r#"{"op":"open","id":"a","program":"p","sched":"hyper"}"#).is_err());
    }

    #[test]
    fn responses_are_single_lines_that_parse_back() {
        let ok = ok_response("read", vec![("n".into(), Json::Num(3.0))]);
        assert!(!ok.contains('\n'));
        let v = json::parse(&ok).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let err = err_response("saturated", "pool full", vec![]);
        let v = json::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("saturated"));
    }
}
