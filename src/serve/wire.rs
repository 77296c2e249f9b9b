//! The serve tier's typed wire protocol.
//!
//! Requests arrive as one JSON object per line; [`Request::parse_line`]
//! turns a raw line into a typed [`Request`] or a typed [`WireError`],
//! and the connection reactor dispatches on the enum — there is no
//! stringly `cmd` matching outside this module. Every error a malformed
//! request can earn is a [`WireError`] variant whose
//! [`render`](WireError::render) output reproduces the historical error
//! strings byte for byte (pinned by the unit tests below), so the typed
//! redesign is invisible on the wire.
//!
//! Alert bodies ([`render_alert`]) are also rendered here: one JSON
//! object per alert carrying only deterministic fields — the
//! `(slot, seq, detector, ordinal)` identity key plus the detector
//! payload in exact integers and resolved engine names — never the
//! publish epoch, so alert streams compare bit-identical across shard
//! and worker grids and across crash-recovery replays.

use crate::dynamics::alerts::{Alert, AlertKind};
use crate::dynamics::stabilization::FIG9_THRESHOLDS;
use crate::dynamics::MonitorEvent;
use crate::model::SampleHash;
use crate::obs::json::{write_json_string, Value};

/// Largest `k` the `flip_leaders` verb will answer. The ranking is made
/// once per snapshot, cut here; the response is rendered per request, so
/// an unbounded `k` would be a cheap DoS.
pub(super) const MAX_FLIP_LEADERS: u64 = 1_000;

/// One parsed request. Verbs that carry payloads validate them at parse
/// time, so dispatch never sees a half-checked member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum Request {
    /// `{"cmd":"status"}` — ingest totals and serve-tier counters.
    Status,
    /// `{"cmd":"results"}` — the study's headline aggregates.
    Results,
    /// `{"cmd":"engines"}` — the per-engine flip roster.
    Engines,
    /// `{"cmd":"metrics"}` — the observability snapshot.
    Metrics,
    /// `{"cmd":"fingerprint"}` — the chaos-gate study fingerprint.
    Fingerprint,
    /// `{"cmd":"shutdown"}` — ack, then stop the daemon.
    Shutdown,
    /// `{"cmd":"sample","hash":H}` — one hash's trajectory summary.
    Sample {
        /// The queried sample.
        hash: SampleHash,
    },
    /// `{"cmd":"stabilized","hash":H,"threshold":T}` — §6.2 label
    /// stabilization at one Fig. 9 threshold.
    Stabilized {
        /// The queried sample.
        hash: SampleHash,
        /// A Fig. 9 threshold (validated at parse time).
        threshold: u32,
    },
    /// `{"cmd":"engine","name":N}` — one engine's flip scorecard. The
    /// name resolves against the snapshot's roster at dispatch time
    /// (parsing cannot know the roster).
    Engine {
        /// The engine name as the client sent it.
        name: String,
    },
    /// `{"cmd":"flip_leaders","k":K}` — top-`k` samples by flip count.
    FlipLeaders {
        /// Requested leader count, clamped to [`MAX_FLIP_LEADERS`].
        k: usize,
    },
    /// `{"cmd":"alerts","since":E}` — drift alerts published after
    /// epoch `E` (`since` defaults to 0: the full retained stream).
    Alerts {
        /// Publish-epoch low-water mark (exclusive).
        since: u64,
    },
    /// `{"cmd":"subscribe"}` — switch the connection to push mode:
    /// after the ack, the daemon streams alerts as they publish.
    Subscribe,
    /// `{"cmd":"recommend"}` — the online Maat-style recommendation:
    /// the AV-Rank threshold and engine subset that would have labeled
    /// the stream most accurately so far.
    Recommend,
}

/// A typed request rejection. [`WireError::render`] reproduces the
/// legacy error strings byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum WireError {
    /// The line was not valid JSON.
    BadJson(String),
    /// No string `cmd` member.
    MissingCmd,
    /// A `cmd` this protocol does not know.
    UnknownCmd(String),
    /// A per-hash verb without a string `hash` member.
    MissingHash,
    /// A `hash` member that is not 1–32 hex digits.
    BadHash(String),
    /// `stabilized` without a numeric `threshold` member.
    MissingThreshold,
    /// A `threshold` outside the Fig. 9 sweep.
    BadThreshold(u64),
    /// `engine` without a string `name` member.
    MissingName,
    /// A `k` member that is not a non-negative integer.
    BadK,
    /// A `since` member that is not a non-negative integer.
    BadSince,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadJson(e) => write!(f, "bad request: {e}"),
            WireError::MissingCmd => write!(f, "missing string member 'cmd'"),
            WireError::UnknownCmd(cmd) => write!(f, "unknown command '{cmd}'"),
            WireError::MissingHash => write!(f, "missing string member 'hash'"),
            WireError::BadHash(hex) => {
                write!(f, "bad hash '{hex}': expected 1-32 hex digits")
            }
            WireError::MissingThreshold => write!(f, "missing numeric member 'threshold'"),
            WireError::BadThreshold(t) => write!(
                f,
                "threshold {t} is not a Fig. 9 threshold; valid: {FIG9_THRESHOLDS:?}"
            ),
            WireError::MissingName => write!(f, "missing string member 'name'"),
            WireError::BadK => write!(f, "member 'k' must be a non-negative integer"),
            WireError::BadSince => write!(f, "member 'since' must be a non-negative integer"),
        }
    }
}

/// `s` as a JSON string literal, for `format!` arguments; the escaping
/// is [`write_json_string`]'s.
pub(super) fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

impl WireError {
    /// The error response under the serving snapshot's epoch.
    pub(super) fn render(&self, epoch: u64) -> String {
        format!(
            "{{\"epoch\":{epoch},\"error\":{}}}",
            quoted(&self.to_string())
        )
    }
}

/// The `shutdown` verb's acknowledgement.
pub(super) fn shutdown_ack(epoch: u64) -> String {
    format!("{{\"epoch\":{epoch},\"shutting_down\":true}}")
}

/// The `subscribe` verb's acknowledgement — everything after it on the
/// connection is pushed alerts.
pub(super) fn subscribe_ack(epoch: u64) -> String {
    format!("{{\"epoch\":{epoch},\"subscribed\":true}}")
}

impl Request {
    /// Parses one raw request line.
    pub(super) fn parse_line(line: &str) -> Result<Request, WireError> {
        let parsed =
            crate::obs::json::parse(line).map_err(|e| WireError::BadJson(e.to_string()))?;
        Request::parse(&parsed)
    }

    /// Parses one already-decoded JSON request.
    pub(super) fn parse(parsed: &Value) -> Result<Request, WireError> {
        let Some(cmd) = parsed.get("cmd").and_then(|c| c.as_str()) else {
            return Err(WireError::MissingCmd);
        };
        match cmd {
            "status" => Ok(Request::Status),
            "results" => Ok(Request::Results),
            "engines" => Ok(Request::Engines),
            "metrics" => Ok(Request::Metrics),
            "fingerprint" => Ok(Request::Fingerprint),
            "shutdown" => Ok(Request::Shutdown),
            "sample" => Ok(Request::Sample {
                hash: parse_hash_member(parsed)?,
            }),
            "stabilized" => {
                let hash = parse_hash_member(parsed)?;
                let Some(threshold) = parsed.get("threshold").and_then(|t| t.as_u64()) else {
                    return Err(WireError::MissingThreshold);
                };
                // A checked conversion: a value past `u32` must not
                // wrap into a valid threshold.
                match u32::try_from(threshold) {
                    Ok(t) if FIG9_THRESHOLDS.contains(&t) => {
                        Ok(Request::Stabilized { hash, threshold: t })
                    }
                    _ => Err(WireError::BadThreshold(threshold)),
                }
            }
            "engine" => {
                let Some(name) = parsed.get("name").and_then(|n| n.as_str()) else {
                    return Err(WireError::MissingName);
                };
                Ok(Request::Engine {
                    name: name.to_string(),
                })
            }
            "flip_leaders" => {
                let k = match parsed.get("k") {
                    None => 10,
                    Some(v) => match v.as_u64() {
                        Some(k) => k.min(MAX_FLIP_LEADERS) as usize,
                        None => return Err(WireError::BadK),
                    },
                };
                Ok(Request::FlipLeaders { k })
            }
            "alerts" => {
                let since = match parsed.get("since") {
                    None => 0,
                    Some(v) => match v.as_u64() {
                        Some(since) => since,
                        None => return Err(WireError::BadSince),
                    },
                };
                Ok(Request::Alerts { since })
            }
            "subscribe" => Ok(Request::Subscribe),
            "recommend" => Ok(Request::Recommend),
            other => Err(WireError::UnknownCmd(other.to_string())),
        }
    }
}

/// Extracts and parses the `"hash"` member: 1–32 hex digits, as
/// [`SampleHash::to_hex`] prints them.
fn parse_hash_member(parsed: &Value) -> Result<SampleHash, WireError> {
    let Some(hex) = parsed.get("hash").and_then(|h| h.as_str()) else {
        return Err(WireError::MissingHash);
    };
    // Hex digits only: `from_str_radix` would also take a leading `+`.
    if hex.is_empty() || hex.len() > 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(WireError::BadHash(hex.to_string()));
    }
    u128::from_str_radix(hex, 16)
        .map(SampleHash)
        .map_err(|_| WireError::BadHash(hex.to_string()))
}

/// Resolves a dense engine index to its roster name; out-of-roster
/// indexes (possible only with a truncated name table) degrade to the
/// index spelled as a string, still deterministically.
fn engine_name(names: &[String], engine: u32) -> String {
    match names.get(engine as usize) {
        Some(name) => quoted(name),
        None => quoted(&engine.to_string()),
    }
}

/// Renders one alert body: identity key first, then the detector
/// payload. Deterministic by construction — exact integers, resolved
/// engine names, no publish epoch — so two daemons that folded the same
/// WAL render byte-identical streams regardless of shard or worker
/// counts.
pub(super) fn render_alert(alert: &Alert, names: &[String]) -> String {
    let head = format!(
        "{{\"slot\":{},\"seq\":{},\"detector\":\"{}\",\"ordinal\":{}",
        alert.slot,
        alert.seq,
        alert.detector_name(),
        alert.ordinal,
    );
    let body = match &alert.kind {
        AlertKind::RateCrossover {
            overtaking,
            overtaken,
            overtaking_detections,
            overtaking_scans,
            overtaken_detections,
            overtaken_scans,
        } => format!(
            ",\"overtaking\":{},\"overtaken\":{},\
             \"overtaking_detections\":{overtaking_detections},\
             \"overtaking_scans\":{overtaking_scans},\
             \"overtaken_detections\":{overtaken_detections},\
             \"overtaken_scans\":{overtaken_scans}",
            engine_name(names, *overtaking),
            engine_name(names, *overtaken),
        ),
        AlertKind::StabilizationRegression {
            threshold,
            segment_mean_minutes,
            baseline_mean_minutes,
            segment_stabilized,
        } => format!(
            ",\"threshold\":{threshold},\
             \"segment_mean_minutes\":{segment_mean_minutes},\
             \"baseline_mean_minutes\":{baseline_mean_minutes},\
             \"segment_stabilized\":{segment_stabilized}"
        ),
        AlertKind::SampleEvent { hash, event } => {
            let event = match event {
                MonitorEvent::Stabilized {
                    at,
                    since,
                    rank_min,
                    rank_max,
                } => format!(
                    "\"event\":\"stabilized\",\"at\":{},\"since\":{},\
                     \"rank_min\":{rank_min},\"rank_max\":{rank_max}",
                    at.0, since.0
                ),
                MonitorEvent::Destabilized {
                    at,
                    rank,
                    previous_min,
                    previous_max,
                } => format!(
                    "\"event\":\"destabilized\",\"at\":{},\"rank\":{rank},\
                     \"previous_min\":{previous_min},\"previous_max\":{previous_max}",
                    at.0
                ),
                MonitorEvent::Swing {
                    at,
                    delta,
                    interval,
                } => format!(
                    "\"event\":\"swing\",\"at\":{},\"delta\":{delta},\
                     \"interval_minutes\":{}",
                    at.0, interval.0
                ),
            };
            format!(",\"hash\":\"{}\",{event}", hash.to_hex())
        }
    };
    format!("{head}{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vt_model::time::{Duration, Timestamp};

    fn parse(line: &str) -> Result<Request, WireError> {
        Request::parse_line(line)
    }

    #[test]
    fn bare_verbs_parse() {
        assert_eq!(parse("{\"cmd\":\"status\"}"), Ok(Request::Status));
        assert_eq!(parse("{\"cmd\":\"results\"}"), Ok(Request::Results));
        assert_eq!(parse("{\"cmd\":\"engines\"}"), Ok(Request::Engines));
        assert_eq!(parse("{\"cmd\":\"metrics\"}"), Ok(Request::Metrics));
        assert_eq!(parse("{\"cmd\":\"fingerprint\"}"), Ok(Request::Fingerprint));
        assert_eq!(parse("{\"cmd\":\"shutdown\"}"), Ok(Request::Shutdown));
        assert_eq!(parse("{\"cmd\":\"subscribe\"}"), Ok(Request::Subscribe));
        assert_eq!(parse("{\"cmd\":\"recommend\"}"), Ok(Request::Recommend));
    }

    #[test]
    fn cmd_errors_render_the_legacy_strings() {
        let err = parse("{\"k\":3}").unwrap_err();
        assert_eq!(err.to_string(), "missing string member 'cmd'");
        let err = parse("{\"cmd\":\"frobnicate\"}").unwrap_err();
        assert_eq!(err.to_string(), "unknown command 'frobnicate'");
        let err = parse("not json").unwrap_err();
        assert!(err.to_string().starts_with("bad request: "), "got {err}");
        // The rendered response wraps the message under the epoch.
        assert_eq!(
            WireError::MissingCmd.render(7),
            "{\"epoch\":7,\"error\":\"missing string member 'cmd'\"}"
        );
    }

    #[test]
    fn a_deeply_nested_line_is_bad_json() {
        // The longest line `conn` lets through, all of it open brackets.
        let err = parse(&"[".repeat(60_000)).unwrap_err();
        assert!(matches!(err, WireError::BadJson(_)), "got {err:?}");
        assert!(err.to_string().starts_with("bad request: "), "got {err}");
    }

    #[test]
    fn hash_member_parses_hex_and_rejects_garbage() {
        assert_eq!(
            parse("{\"cmd\":\"sample\",\"hash\":\"ff\"}"),
            Ok(Request::Sample {
                hash: SampleHash(0xff)
            })
        );
        let full = "f".repeat(32);
        assert_eq!(
            parse(&format!("{{\"cmd\":\"sample\",\"hash\":\"{full}\"}}")),
            Ok(Request::Sample {
                hash: SampleHash(u128::MAX)
            })
        );
        assert_eq!(
            parse("{\"cmd\":\"sample\"}").unwrap_err().to_string(),
            "missing string member 'hash'"
        );
        let signed_full = format!("+{}", "f".repeat(31));
        for bad in ["", "xyz", "-1", "+ab", "+", &signed_full] {
            assert_eq!(
                parse(&format!("{{\"cmd\":\"sample\",\"hash\":\"{bad}\"}}"))
                    .unwrap_err()
                    .to_string(),
                format!("bad hash '{bad}': expected 1-32 hex digits"),
            );
        }
        assert!(
            parse(&format!("{{\"cmd\":\"sample\",\"hash\":\"{full}0\"}}")).is_err(),
            "33 digits overflow"
        );
        assert!(
            parse("{\"cmd\":\"sample\",\"hash\":17}").is_err(),
            "numbers are not hex strings"
        );
        // Round-trip: to_hex output parses back to the same hash.
        let hash = SampleHash::from_ordinal(99);
        assert_eq!(
            parse(&format!(
                "{{\"cmd\":\"sample\",\"hash\":\"{}\"}}",
                hash.to_hex()
            )),
            Ok(Request::Sample { hash })
        );
    }

    #[test]
    fn stabilized_validates_the_threshold() {
        assert_eq!(
            parse("{\"cmd\":\"stabilized\",\"hash\":\"a\",\"threshold\":10}"),
            Ok(Request::Stabilized {
                hash: SampleHash(0xa),
                threshold: 10
            })
        );
        assert_eq!(
            parse("{\"cmd\":\"stabilized\",\"hash\":\"a\"}")
                .unwrap_err()
                .to_string(),
            "missing numeric member 'threshold'"
        );
        assert_eq!(
            parse("{\"cmd\":\"stabilized\",\"hash\":\"a\",\"threshold\":11}")
                .unwrap_err()
                .to_string(),
            format!("threshold 11 is not a Fig. 9 threshold; valid: {FIG9_THRESHOLDS:?}")
        );
        // 2³² + 10 truncates to the valid 10; it must not be answered as it.
        assert_eq!(
            parse("{\"cmd\":\"stabilized\",\"hash\":\"a\",\"threshold\":4294967306}"),
            Err(WireError::BadThreshold(4_294_967_306))
        );
        // The hash is validated before the threshold, as it always was.
        assert_eq!(
            parse("{\"cmd\":\"stabilized\",\"threshold\":10}")
                .unwrap_err()
                .to_string(),
            "missing string member 'hash'"
        );
    }

    #[test]
    fn engine_and_flip_leaders_payloads() {
        assert_eq!(
            parse("{\"cmd\":\"engine\",\"name\":\"Avira\"}"),
            Ok(Request::Engine {
                name: "Avira".to_string()
            })
        );
        assert_eq!(
            parse("{\"cmd\":\"engine\"}").unwrap_err().to_string(),
            "missing string member 'name'"
        );
        assert_eq!(
            parse("{\"cmd\":\"flip_leaders\"}"),
            Ok(Request::FlipLeaders { k: 10 }),
            "k defaults to 10"
        );
        assert_eq!(
            parse("{\"cmd\":\"flip_leaders\",\"k\":3}"),
            Ok(Request::FlipLeaders { k: 3 })
        );
        assert_eq!(
            parse("{\"cmd\":\"flip_leaders\",\"k\":99999999}"),
            Ok(Request::FlipLeaders {
                k: MAX_FLIP_LEADERS as usize
            }),
            "k clamps to the rank bound"
        );
        assert_eq!(
            parse("{\"cmd\":\"flip_leaders\",\"k\":\"x\"}")
                .unwrap_err()
                .to_string(),
            "member 'k' must be a non-negative integer"
        );
    }

    #[test]
    fn alerts_since_defaults_and_validates() {
        assert_eq!(
            parse("{\"cmd\":\"alerts\"}"),
            Ok(Request::Alerts { since: 0 })
        );
        assert_eq!(
            parse("{\"cmd\":\"alerts\",\"since\":17}"),
            Ok(Request::Alerts { since: 17 })
        );
        assert_eq!(
            parse("{\"cmd\":\"alerts\",\"since\":\"x\"}")
                .unwrap_err()
                .to_string(),
            "member 'since' must be a non-negative integer"
        );
    }

    /// One valid frame per verb.
    const FRAMES: [&str; 13] = [
        "{\"cmd\":\"status\"}",
        "{\"cmd\":\"results\"}",
        "{\"cmd\":\"engines\"}",
        "{\"cmd\":\"metrics\"}",
        "{\"cmd\":\"fingerprint\"}",
        "{\"cmd\":\"shutdown\"}",
        "{\"cmd\":\"sample\",\"hash\":\"ff\"}",
        "{\"cmd\":\"stabilized\",\"hash\":\"a\",\"threshold\":10}",
        "{\"cmd\":\"engine\",\"name\":\"Avira\"}",
        "{\"cmd\":\"flip_leaders\",\"k\":3}",
        "{\"cmd\":\"alerts\",\"since\":17}",
        "{\"cmd\":\"subscribe\"}",
        "{\"cmd\":\"recommend\"}",
    ];

    /// Parses `line` (a panic fails the property) and, if it is
    /// rejected, checks the response: one line `obs::json` reads back,
    /// under the epoch it was rendered at, with a string `error`.
    fn parse_or_render_one_error_line(line: &str) -> Result<(), TestCaseError> {
        let Err(err) = parse(line) else {
            return Ok(());
        };
        let body = err.render(42);
        prop_assert!(!body.contains('\n'), "{body}");
        let doc = crate::obs::json::parse(&body)
            .map_err(|e| TestCaseError::fail(format!("{body}: {e}")))?;
        prop_assert_eq!(doc.get("epoch").and_then(|e| e.as_u64()), Some(42));
        prop_assert!(
            doc.get("error").and_then(|e| e.as_str()).is_some(),
            "{body}"
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Arbitrary bytes, and every verb's frame with one byte
        /// replaced, deleted or cut off at a prefix.
        #[test]
        fn generated_hostile_lines_never_panic_and_errors_render_as_json(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            edit in 0u8..3,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            parse_or_render_one_error_line(&String::from_utf8_lossy(&bytes))?;
            for frame in FRAMES {
                prop_assert!(parse(frame).is_ok(), "{frame}");
                let mut mutated = frame.as_bytes().to_vec();
                let at = at % mutated.len();
                match edit {
                    0 => mutated[at] = byte,
                    1 => {
                        mutated.remove(at);
                    }
                    _ => mutated.truncate(at),
                }
                parse_or_render_one_error_line(&String::from_utf8_lossy(&mutated))?;
            }
        }
    }

    /// Boundary spellings of a numeric member whose own bound is `max`,
    /// each with the integer it must read as (`None`: not one the reader
    /// holds exactly, see [`crate::obs::json::Value::as_u64`]): 0, 1,
    /// `max`, `max + 1`, the reader's last exact integer and the two past
    /// it, `u64::MAX` and past it, `-1`, `-0` and `n`. (`+1` is not JSON.)
    fn wire_boundaries(max: u64, n: u64) -> Vec<(String, Option<u64>)> {
        let exact = |v: u128| u64::try_from(v).ok().filter(|&v| v < 1 << 53);
        let ceiling = 1u128 << 53;
        let values = [0, 1, max.into(), u128::from(max) + 1, ceiling - 1, ceiling];
        let values = values.into_iter().chain([ceiling + 1, u64::MAX.into()]);
        let values = values.chain([u128::from(u64::MAX) + 1, n.into()]);
        let mut spellings: Vec<_> = values.map(|v| (v.to_string(), exact(v))).collect();
        spellings.extend([("-1".to_string(), None), ("-0".to_string(), Some(0))]);
        spellings
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Every numeric wire member (`since`, `k`, `threshold`) at its
        /// boundaries and at an arbitrary value reads as its exact value,
        /// its documented clamp or its typed error, never a panic.
        #[test]
        fn numeric_members_read_exactly_clamp_or_fail_typed(n in any::<u64>()) {
            let since = |v: &str| format!("{{\"cmd\":\"alerts\",\"since\":{v}}}");
            let k = |v: &str| format!("{{\"cmd\":\"flip_leaders\",\"k\":{v}}}");
            let threshold = |v: &str| {
                format!("{{\"cmd\":\"stabilized\",\"hash\":\"a\",\"threshold\":{v}}}")
            };
            // An epoch has no bound of its own.
            for (v, read) in wire_boundaries(u64::MAX, n) {
                let want = read.map(|since| Request::Alerts { since });
                prop_assert_eq!(parse(&since(&v)), want.ok_or(WireError::BadSince), "{}", v);
            }
            for (v, read) in wire_boundaries(MAX_FLIP_LEADERS, n) {
                let clamped = read.map(|k| k.min(MAX_FLIP_LEADERS) as usize);
                let want = clamped.map(|k| Request::FlipLeaders { k });
                prop_assert_eq!(parse(&k(&v)), want.ok_or(WireError::BadK), "{}", v);
            }
            let top = FIG9_THRESHOLDS[FIG9_THRESHOLDS.len() - 1];
            let spellings = wire_boundaries(top.into(), n);
            for (v, read) in spellings.into_iter().chain(wire_boundaries(u32::MAX.into(), n)) {
                let fig9 = read.and_then(|t| u32::try_from(t).ok());
                let want = match (read, fig9.filter(|t| FIG9_THRESHOLDS.contains(t))) {
                    (_, Some(threshold)) => Ok(Request::Stabilized {
                        hash: SampleHash(0xa),
                        threshold,
                    }),
                    (Some(t), None) => Err(WireError::BadThreshold(t)),
                    (None, None) => Err(WireError::MissingThreshold),
                };
                prop_assert_eq!(parse(&threshold(&v)), want, "{}", v);
            }
            for frame in [since("+1"), k("+1"), threshold("+1")] {
                let got = parse(&frame);
                prop_assert!(matches!(got, Err(WireError::BadJson(_))), "{}: {:?}", frame, got);
            }
        }
    }

    #[test]
    fn acks_render_under_the_epoch() {
        assert_eq!(shutdown_ack(3), "{\"epoch\":3,\"shutting_down\":true}");
        assert_eq!(subscribe_ack(4), "{\"epoch\":4,\"subscribed\":true}");
    }

    #[test]
    fn alert_bodies_render_deterministic_json() {
        let names = vec!["Alpha".to_string(), "Beta\"Quote".to_string()];
        // Quotes in roster names escape; unknown indexes degrade to the
        // index as a string.
        let cross = Alert {
            slot: 0,
            seq: 1,
            ordinal: 3,
            kind: AlertKind::RateCrossover {
                overtaking: 1,
                overtaken: 77,
                overtaking_detections: 10,
                overtaking_scans: 100,
                overtaken_detections: 9,
                overtaken_scans: 100,
            },
        };
        let rendered = render_alert(&cross, &names);
        assert!(
            rendered.contains("\"overtaking\":\"Beta\\\"Quote\""),
            "{rendered}"
        );
        assert!(rendered.contains("\"overtaken\":\"77\""), "{rendered}");
        assert_eq!(
            rendered,
            "{\"slot\":0,\"seq\":1,\"detector\":\"rate_crossover\",\"ordinal\":3,\
             \"overtaking\":\"Beta\\\"Quote\",\"overtaken\":\"77\",\
             \"overtaking_detections\":10,\"overtaking_scans\":100,\
             \"overtaken_detections\":9,\"overtaken_scans\":100}"
        );
        let event = Alert {
            slot: 7,
            seq: 9,
            ordinal: 1,
            kind: AlertKind::SampleEvent {
                hash: SampleHash(0xabc),
                event: MonitorEvent::Swing {
                    at: Timestamp(1000),
                    delta: 15,
                    interval: Duration(30),
                },
            },
        };
        assert_eq!(
            render_alert(&event, &names),
            "{\"slot\":7,\"seq\":9,\"detector\":\"sample_event\",\"ordinal\":1,\
             \"hash\":\"00000000000000000000000000000abc\",\
             \"event\":\"swing\",\"at\":1000,\"delta\":15,\"interval_minutes\":30}"
        );
        // Every body parses as standalone JSON.
        for body in [render_alert(&cross, &names), render_alert(&event, &names)] {
            crate::obs::json::parse(&body).expect("alert bodies are valid JSON");
        }
    }
}
