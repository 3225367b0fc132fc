//! The one-shot client: send one request line, collect the reply.
//!
//! `sta client` is a thin shell over [`request`]: dial, write the line,
//! read until the line whose `type` is `response` or `error` (trace lines
//! stream in before it), and map the final line onto the CLI's exit-code
//! contract with [`exit_code`].

use crate::net;
use sta_smt::json::{parse, Json};
use std::io::{BufRead, BufReader};

/// Sends one request line to `addr` and returns every line the service
/// emitted for it, the final `response`/`error` line last.
pub fn request(addr: &str, line: &str) -> Result<Vec<String>, String> {
    let mut stream =
        net::connect(addr).map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
    net::write_line(&mut stream, line).map_err(|e| format!("cannot send request: {e}"))?;
    let reader = BufReader::new(
        stream.try_clone().map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    let mut lines = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| format!("connection failed mid-reply: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let done = is_final(&line);
        lines.push(line);
        if done {
            return Ok(lines);
        }
    }
    Err("connection closed before a response arrived".into())
}

/// Sends one request line to `addr` and hands every non-final reply line
/// to `on_line` as it arrives — the streaming interface `watch`
/// subscriptions and live dashboards need (a `watch` emits unboundedly
/// many lines, so collecting like [`request`] would never return).
/// Returns the final `response`/`error` line. `on_line` returning
/// `false` abandons the stream early: the connection drops, which the
/// server notices at its next write.
pub fn stream(
    addr: &str,
    line: &str,
    mut on_line: impl FnMut(&str) -> bool,
) -> Result<Option<String>, String> {
    let mut stream =
        net::connect(addr).map_err(|e| format!("cannot connect to {addr:?}: {e}"))?;
    net::write_line(&mut stream, line).map_err(|e| format!("cannot send request: {e}"))?;
    let reader = BufReader::new(
        stream.try_clone().map_err(|e| format!("cannot clone stream: {e}"))?,
    );
    for line in reader.lines() {
        let line = line.map_err(|e| format!("connection failed mid-reply: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        if is_final(&line) {
            return Ok(Some(line));
        }
        if !on_line(&line) {
            return Ok(None);
        }
    }
    Err("connection closed before a response arrived".into())
}

/// Whether a reply line terminates the request (`type` is `response` or
/// `error`, as opposed to an interleaved `trace` line).
pub fn is_final(line: &str) -> bool {
    parse(line)
        .ok()
        .and_then(|json| {
            json.get("type")
                .and_then(Json::as_str)
                .map(|t| t == "response" || t == "error")
        })
        .unwrap_or(false)
}

/// Maps a final reply line onto the CLI exit-code contract:
/// 0 = sat / architecture / plain success, 1 = unsat / no-solution /
/// inconclusive, 2 = error, 3 = unknown (budget exhausted; campaigns
/// with any unknown job included).
pub fn exit_code(line: &str) -> u8 {
    let Ok(json) = parse(line) else { return 2 };
    match json.get("type").and_then(Json::as_str) {
        Some("response") => {}
        _ => return 2,
    }
    if let Some(verdict) = json.get("verdict").and_then(Json::as_str) {
        return match verdict {
            "sat" | "architecture" => 0,
            "unsat" | "no-solution" | "inconclusive" => 1,
            v if v.starts_with("unknown") => 3,
            _ => 2,
        };
    }
    if let Some(Json::Bool(true)) = json.get("any_unknown") {
        return 3;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_line_detection() {
        assert!(is_final("{\"id\":\"a\",\"type\":\"response\",\"op\":\"ping\",\"ok\":true}"));
        assert!(is_final("{\"id\":null,\"type\":\"error\",\"error\":\"parse\",\"message\":\"x\"}"));
        assert!(!is_final("{\"id\":\"a\",\"type\":\"trace\",\"event\":{}}"));
        assert!(!is_final("not json"));
    }

    #[test]
    fn exit_codes_mirror_the_cli() {
        let resp = |tail: &str| format!("{{\"id\":\"a\",\"type\":\"response\"{tail}}}");
        assert_eq!(exit_code(&resp(",\"verdict\":\"sat\"")), 0);
        assert_eq!(exit_code(&resp(",\"verdict\":\"architecture\"")), 0);
        assert_eq!(exit_code(&resp(",\"verdict\":\"unsat\"")), 1);
        assert_eq!(exit_code(&resp(",\"verdict\":\"no-solution\"")), 1);
        assert_eq!(exit_code(&resp(",\"verdict\":\"unknown(timeout)\"")), 3);
        assert_eq!(exit_code(&resp(",\"verdict\":\"unknown(cancelled)\"")), 3);
        assert_eq!(exit_code(&resp(",\"ok\":true")), 0);
        assert_eq!(exit_code(&resp(",\"any_unknown\":true")), 3);
        assert_eq!(exit_code(&resp(",\"any_unknown\":false")), 0);
        assert_eq!(
            exit_code("{\"id\":\"a\",\"type\":\"error\",\"error\":\"overloaded\",\"message\":\"\"}"),
            2
        );
        assert_eq!(exit_code("garbage"), 2);
    }
}
