//! A small text format for user-authored security rules, in the spirit of
//! the specification files TAJ's commercial descendant ships with.
//!
//! ```text
//! # comment
//! rule XSS
//!   source HttpServletRequest.getParameter
//!   ref-source RandomAccessFile.readFully 0
//!   sanitizer URLEncoder.encode
//!   sink PrintWriter.println 0
//! end
//!
//! whitelist Relay
//! ```
//!
//! Issue names: `XSS`, `SQLi`, `CmdInjection`, `MaliciousFile`,
//! `InfoLeak`. Sink/ref-source lines take one or more 0-based parameter
//! positions.

use std::fmt;

use crate::rules::{IssueType, MethodRef, RuleSet, SecurityRule};

/// A rule-file syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RuleParseError {}

fn issue_from(name: &str, line: usize) -> Result<IssueType, RuleParseError> {
    match name.to_ascii_lowercase().as_str() {
        "xss" => Ok(IssueType::Xss),
        "sqli" | "sql-injection" => Ok(IssueType::Sqli),
        "cmdinjection" | "command-injection" => Ok(IssueType::CommandInjection),
        "maliciousfile" | "malicious-file" => Ok(IssueType::MaliciousFile),
        "infoleak" | "information-leak" => Ok(IssueType::InfoLeak),
        other => Err(RuleParseError { line, message: format!("unknown issue type `{other}`") }),
    }
}

fn method_ref(spec: &str, line: usize) -> Result<MethodRef, RuleParseError> {
    match spec.split_once('.') {
        Some((class, method)) if !class.is_empty() && !method.is_empty() => {
            Ok(MethodRef::new(class, method))
        }
        _ => Err(RuleParseError {
            line,
            message: format!("expected `Class.method`, found `{spec}`"),
        }),
    }
}

fn positions(parts: &[&str], line: usize) -> Result<Vec<usize>, RuleParseError> {
    if parts.is_empty() {
        return Ok(vec![0]);
    }
    parts
        .iter()
        .map(|p| {
            p.parse::<usize>().map_err(|_| RuleParseError {
                line,
                message: format!("invalid parameter position `{p}`"),
            })
        })
        .collect()
}

/// Parses a rule file into a [`RuleSet`].
///
/// # Errors
/// Returns the first syntax problem with its line number.
pub fn parse_rules(text: &str) -> Result<RuleSet, RuleParseError> {
    let mut rules = Vec::new();
    let mut whitelist = Vec::new();
    let mut current: Option<SecurityRule> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            "rule" => {
                if current.is_some() {
                    return Err(RuleParseError {
                        line: lineno,
                        message: "nested `rule` (missing `end`?)".into(),
                    });
                }
                let name = parts.get(1).ok_or_else(|| RuleParseError {
                    line: lineno,
                    message: "`rule` needs an issue type".into(),
                })?;
                current = Some(SecurityRule {
                    issue: issue_from(name, lineno)?,
                    sources: vec![],
                    ref_sources: vec![],
                    sanitizers: vec![],
                    sinks: vec![],
                });
            }
            "end" => match current.take() {
                Some(rule) => rules.push(rule),
                None => {
                    return Err(RuleParseError {
                        line: lineno,
                        message: "`end` without `rule`".into(),
                    })
                }
            },
            "whitelist" => {
                let name = parts.get(1).ok_or_else(|| RuleParseError {
                    line: lineno,
                    message: "`whitelist` needs a class name".into(),
                })?;
                whitelist.push((*name).to_string());
            }
            directive @ ("source" | "ref-source" | "sanitizer" | "sink") => {
                let rule = current.as_mut().ok_or_else(|| RuleParseError {
                    line: lineno,
                    message: format!("`{directive}` outside a rule block"),
                })?;
                let spec = parts.get(1).ok_or_else(|| RuleParseError {
                    line: lineno,
                    message: format!("`{directive}` needs `Class.method`"),
                })?;
                let mref = method_ref(spec, lineno)?;
                match directive {
                    "source" => rule.sources.push(mref),
                    "sanitizer" => rule.sanitizers.push(mref),
                    "sink" => rule.sinks.push((mref, positions(&parts[2..], lineno)?)),
                    _ => rule.ref_sources.push((mref, positions(&parts[2..], lineno)?)),
                }
            }
            other => {
                return Err(RuleParseError {
                    line: lineno,
                    message: format!("unknown directive `{other}`"),
                })
            }
        }
    }
    if current.is_some() {
        return Err(RuleParseError {
            line: text.lines().count(),
            message: "unterminated `rule` block".into(),
        });
    }
    Ok(RuleSet { rules: rules.into(), whitelist })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_source, TajConfig};

    const SAMPLE: &str = r#"
# custom header-only rule
rule XSS
  source HttpServletRequest.getHeader
  sanitizer Encoder.encodeForHTML
  sink PrintWriter.println 0
end
"#;

    #[test]
    fn parses_sample() {
        let set = parse_rules(SAMPLE).unwrap();
        assert_eq!(set.rules.len(), 1);
        let r = &set.rules[0];
        assert_eq!(r.issue, IssueType::Xss);
        assert_eq!(r.sources.len(), 1);
        assert_eq!(r.sinks[0].1, vec![0]);
    }

    /// `RuleSet::default_rules()` written as a rule file.
    const DEFAULT_RULES: &str = r#"
rule XSS
  source HttpServletRequest.getParameter
  source HttpServletRequest.getHeader
  source HttpServletRequest.getQueryString
  source Cookie.getValue
  source Struts.taintedInput
  ref-source RandomAccessFile.readFully 0
  sanitizer URLEncoder.encode
  sanitizer Encoder.encodeForHTML
  sink PrintWriter.println 0
  sink PrintWriter.print 0
  sink PrintWriter.write 0
end
rule SQLi
  source HttpServletRequest.getParameter
  source HttpServletRequest.getHeader
  source HttpServletRequest.getQueryString
  source Cookie.getValue
  source Struts.taintedInput
  sanitizer Encoder.encodeForSQL
  sink Statement.executeQuery 0
  sink Statement.executeUpdate 0
end
rule CmdInjection
  source HttpServletRequest.getParameter
  source HttpServletRequest.getHeader
  source HttpServletRequest.getQueryString
  source Cookie.getValue
  source Struts.taintedInput
  sanitizer Encoder.encodeForOS
  sink Runtime.exec 0
end
rule MaliciousFile
  source HttpServletRequest.getParameter
  source HttpServletRequest.getHeader
  source HttpServletRequest.getQueryString
  source Cookie.getValue
  source Struts.taintedInput
  sanitizer Encoder.canonicalize
  sink File.<init> 0
  sink FileInputStream.<init> 0
  sink FileWriter.<init> 0
end
rule InfoLeak
  source Throwable.getMessage
  sanitizer Encoder.encodeForHTML
  sink PrintWriter.println 0
  sink PrintWriter.print 0
end
"#;

    /// The built-in rules are shared data built once; this pins every
    /// source, sanitizer and sink position of them, in order.
    #[test]
    fn default_rules_written_as_a_rule_file_parse_to_the_default_rules() {
        let parsed = parse_rules(DEFAULT_RULES).unwrap();
        let builtin = RuleSet::default_rules();
        assert_eq!(parsed.rules.len(), builtin.rules.len());
        for (p, b) in parsed.rules.iter().zip(builtin.rules.iter()) {
            assert_eq!(p.issue, b.issue);
            assert_eq!(p.sources, b.sources, "{} sources", p.issue);
            assert_eq!(p.ref_sources, b.ref_sources, "{} ref sources", p.issue);
            assert_eq!(p.sanitizers, b.sanitizers, "{} sanitizers", p.issue);
            assert_eq!(p.sinks, b.sinks, "{} sinks", p.issue);
        }
        assert_eq!(parsed, builtin);
    }

    #[test]
    fn custom_rules_drive_analysis() {
        // Under the custom rules, getParameter is *not* a source — only
        // getHeader is.
        let src = r#"
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                    PrintWriter w = resp.getWriter();
                    w.println(req.getParameter("q"));
                    w.println(req.getHeader("ua"));
                }
            }
        "#;
        let rules = parse_rules(SAMPLE).unwrap();
        let report = analyze_source(src, None, rules, &TajConfig::hybrid_unbounded()).unwrap();
        assert_eq!(report.issue_count(), 1, "{report:#?}");
        assert_eq!(report.findings[0].flow.source_method, "getHeader");
    }

    #[test]
    fn whitelist_directive() {
        let set = parse_rules("whitelist Relay\nwhitelist Render\n").unwrap();
        assert_eq!(set.whitelist, vec!["Relay".to_string(), "Render".to_string()]);
    }

    #[test]
    fn ref_source_directive() {
        let set = parse_rules(
            "rule XSS\n  ref-source RandomAccessFile.readFully 0\n  sink PrintWriter.println 0\nend\n",
        )
        .unwrap();
        assert_eq!(set.rules[0].ref_sources.len(), 1);
        assert_eq!(set.rules[0].ref_sources[0].1, vec![0]);
    }

    #[test]
    fn error_positions() {
        for (text, needle) in [
            ("frobnicate", "unknown directive"),
            ("rule Nope\nend", "unknown issue type"),
            ("source A.b", "outside a rule"),
            ("rule XSS\nsource nodot\nend", "expected `Class.method`"),
            ("rule XSS\nsink A.b xyz\nend", "invalid parameter position"),
            ("rule XSS\n", "unterminated"),
            ("end", "without `rule`"),
        ] {
            let err = parse_rules(text).unwrap_err();
            assert!(err.to_string().contains(needle), "`{text}` → {err}");
        }
    }

    #[test]
    fn multi_position_sink() {
        let set = parse_rules("rule SQLi\n  sink Db.query 0 2\nend\n").unwrap();
        assert_eq!(set.rules[0].sinks[0].1, vec![0, 2]);
    }
}
