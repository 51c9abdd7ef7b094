//! `fleche-analyzer.toml` parsing.
//!
//! The workspace has no registry access, so instead of depending on the
//! `toml` crate this module parses the small TOML subset the config file
//! actually uses: `[section.sub]` headers, `key = "string"`, and
//! `key = ["a", "b"]` (single- or multi-line), plus `#` comments. Unknown
//! keys are an error — a typoed allow-list entry that silently parses is a
//! lint hole.

use std::collections::BTreeMap;

/// Configuration for one lint rule.
#[derive(Clone, Debug, Default)]
pub struct RuleConfig {
    /// Path prefixes (relative to the workspace root) the rule applies to.
    pub paths: Vec<String>,
    /// Path prefixes exempted from the rule, each standing for a reviewed
    /// justification (deterministic by construction, documented panic, ...).
    pub allow: Vec<String>,
    /// Config-file line of each entry of each list (`allow` included),
    /// keyed by list name, so a diagnostic about one entry (a stale allow,
    /// a dead mutator) can point at the exact entry to drop.
    pub lines: BTreeMap<String, Vec<u32>>,
    /// Extra string settings (rule-specific, e.g. `doc` for
    /// cost-constants).
    pub settings: BTreeMap<String, String>,
    /// Extra list settings (rule-specific, e.g. `structs`).
    pub lists: BTreeMap<String, Vec<String>>,
}

impl RuleConfig {
    /// True when `path` (workspace-relative, `/`-separated) is covered by
    /// `paths` and not exempted by `allow`.
    pub fn applies_to(&self, path: &str) -> bool {
        let covered = self.paths.iter().any(|p| path.starts_with(p.as_str()));
        let allowed = self.allow.iter().any(|p| path.starts_with(p.as_str()));
        covered && !allowed
    }

    /// Config-file line of entry `i` of list `key` (0 when unknown).
    pub fn line(&self, key: &str, i: usize) -> u32 {
        self.lines
            .get(key)
            .and_then(|l| l.get(i))
            .copied()
            .unwrap_or(0)
    }
}

/// Parsed analyzer configuration: rule id -> rule config.
#[derive(Clone, Debug, Default)]
pub struct AnalyzerConfig {
    /// Per-rule configuration, keyed by rule id.
    pub rules: BTreeMap<String, RuleConfig>,
    /// Display name of the config file (for diagnostics that point at
    /// config lines, e.g. stale allow entries). Set by
    /// [`crate::load_config`]; empty when parsed from a bare string.
    pub source: String,
}

impl AnalyzerConfig {
    /// Rule config for `id`, if the config file declares it.
    pub fn rule(&self, id: &str) -> Option<&RuleConfig> {
        self.rules.get(id)
    }
}

/// A config-file parse error with its line number.
#[derive(Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the offending construct.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Strips a trailing `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one quoted string, returning the contents.
fn parse_string(s: &str, line: u32) -> Result<String, ConfigError> {
    let s = s.trim();
    let inner = s
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected a quoted string, got `{s}`")))?;
    if inner.contains('"') {
        return Err(err(line, "embedded quotes are not supported"));
    }
    Ok(inner.to_string())
}

/// Parses an array split across one or more source lines, keeping the
/// line number of each entry (stale-allow diagnostics point at entries).
fn parse_array_segments(segments: &[(u32, String)]) -> Result<Vec<(String, u32)>, ConfigError> {
    let mut out = Vec::new();
    for (line, segment) in segments {
        let mut body = segment.as_str();
        body = body.strip_prefix('[').unwrap_or(body);
        body = body.strip_suffix(']').unwrap_or(body);
        for item in body.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            out.push((parse_string(item, *line)?, *line));
        }
    }
    Ok(out)
}

/// Parses `fleche-analyzer.toml` content.
pub fn parse(src: &str) -> Result<AnalyzerConfig, ConfigError> {
    let mut config = AnalyzerConfig::default();
    let mut current: Option<String> = None;
    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx as u32 + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        // Section header.
        if let Some(inner) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            let inner = inner.trim();
            if let Some(rule) = inner.strip_prefix("rules.") {
                if rule.is_empty() {
                    return Err(err(lineno, "empty rule id"));
                }
                config.rules.entry(rule.to_string()).or_default();
                current = Some(rule.to_string());
            } else if inner == "workspace" {
                current = None; // informational section, keys ignored below
            } else {
                return Err(err(lineno, format!("unknown section `[{inner}]`")));
            }
            continue;
        }
        // key = value.
        let Some((key, mut value)) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), strip_comment(v).trim().to_string()))
        else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        // Multi-line arrays: keep consuming until the closing bracket,
        // remembering each line so array entries keep their line numbers.
        let mut segments: Vec<(u32, String)> = vec![(lineno, value.clone())];
        if value.starts_with('[') && !value.ends_with(']') {
            let mut closed = false;
            for (nidx, next) in lines.by_ref() {
                let next = strip_comment(next).trim();
                value.push(' ');
                value.push_str(next);
                segments.push((nidx as u32 + 1, next.to_string()));
                if next.ends_with(']') {
                    closed = true;
                    break;
                }
            }
            if !closed {
                return Err(err(lineno, "unterminated array"));
            }
        }
        let Some(rule_id) = &current else {
            // [workspace] keys are descriptive only.
            continue;
        };
        let rule = config
            .rules
            .get_mut(rule_id)
            .expect("section header inserted the entry");
        if value.starts_with('[') && value.ends_with(']') {
            let (items, lines) = parse_array_segments(&segments)?.into_iter().unzip();
            rule.lines.insert(key.clone(), lines);
            match key.as_str() {
                "paths" => rule.paths = items,
                "allow" => rule.allow = items,
                _ => {
                    rule.lists.insert(key, items);
                }
            }
        } else {
            let s = parse_string(&value, lineno)?;
            rule.settings.insert(key, s);
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let src = r#"
# comment
[workspace]
root = "."

[rules.hash-iteration]
paths = ["crates/fleche-core", "crates/fleche-store"]
allow = ["crates/fleche-store/src/dedup.rs"] # deterministic by construction

[rules.cost-constants]
spec = "crates/fleche-gpu/src/spec.rs"
structs = ["DeviceSpec", "DramSpec"]
"#;
        let c = parse(src).unwrap();
        let r = c.rule("hash-iteration").unwrap();
        assert_eq!(r.paths.len(), 2);
        assert_eq!(r.allow, vec!["crates/fleche-store/src/dedup.rs"]);
        let cc = c.rule("cost-constants").unwrap();
        assert_eq!(
            cc.settings.get("spec").map(String::as_str),
            Some("crates/fleche-gpu/src/spec.rs")
        );
        assert_eq!(cc.lists.get("structs").unwrap().len(), 2);
    }

    #[test]
    fn multiline_arrays() {
        let src = "[rules.x]\npaths = [\n  \"a\",\n  \"b\", # note\n]\n";
        let c = parse(src).unwrap();
        assert_eq!(c.rule("x").unwrap().paths, vec!["a", "b"]);
    }

    #[test]
    fn applies_to_honors_allow() {
        let src = "[rules.x]\npaths = [\"crates/a\"]\nallow = [\"crates/a/src/ok.rs\"]\n";
        let c = parse(src).unwrap();
        let r = c.rule("x").unwrap();
        assert!(r.applies_to("crates/a/src/bad.rs"));
        assert!(!r.applies_to("crates/a/src/ok.rs"));
        assert!(!r.applies_to("crates/b/src/any.rs"));
    }

    #[test]
    fn unknown_section_is_an_error() {
        let e = parse("[lint.x]\n").unwrap_err();
        assert!(e.message.contains("unknown section"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn bad_value_is_an_error() {
        assert!(parse("[rules.x]\npaths = nope\n").is_err());
        assert!(parse("[rules.x]\npaths\n").is_err());
    }
}
