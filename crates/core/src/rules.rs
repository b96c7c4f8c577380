//! Security rules (§3): triples `(sources, sanitizers, sinks)` per issue
//! type, resolved against a program's model library.
//!
//! The default rule set covers the four OWASP vulnerability classes the
//! paper targets (§1): cross-site scripting, injection flaws (SQLi and
//! command injection), malicious file execution, and information
//! leakage / improper error handling. It is built once per process and
//! shared, as the model library is; a rule file's rules are shared the
//! same way by every program prepared under them. Each prepared program
//! resolves its rules once, in one pass over their method refs
//! ([`RuleSet::resolve`]).

use std::sync::{Arc, OnceLock};

use serde::Serialize;

use jir::util::FxHashSet;
use jir::{MethodId, Program};

/// The vulnerability classes TAJ detects (§1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum IssueType {
    /// Cross-site scripting: user data rendered to a response.
    Xss,
    /// SQL injection: user data in a query string.
    Sqli,
    /// Command injection: user data in an executed command.
    CommandInjection,
    /// Malicious file execution: user data in file paths / stream APIs.
    MaliciousFile,
    /// Information leakage & improper error handling (exception text
    /// rendered to users).
    InfoLeak,
}

impl std::fmt::Display for IssueType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IssueType::Xss => "XSS",
            IssueType::Sqli => "SQLi",
            IssueType::CommandInjection => "CmdInjection",
            IssueType::MaliciousFile => "MaliciousFile",
            IssueType::InfoLeak => "InfoLeak",
        };
        f.write_str(s)
    }
}

/// A reference to a method by class and method name (resolved lazily).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodRef {
    /// Declaring class name.
    pub class: String,
    /// Method name.
    pub method: String,
}

impl MethodRef {
    /// Creates a reference.
    pub fn new(class: impl Into<String>, method: impl Into<String>) -> Self {
        MethodRef { class: class.into(), method: method.into() }
    }

    /// Resolves against a program (first match across arities).
    pub fn resolve(&self, program: &Program) -> Option<MethodId> {
        let c = program.class_by_name(&self.class)?;
        program.method_by_name(c, &self.method)
    }
}

/// One security rule: `(S1, S2, S3)` of §3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SecurityRule {
    /// The issue type this rule detects.
    pub issue: IssueType,
    /// Source methods (return value tainted).
    pub sources: Vec<MethodRef>,
    /// By-reference sources (footnote 2 of the paper): methods that taint
    /// the internal state of a parameter, with the tainted positions.
    pub ref_sources: Vec<(MethodRef, Vec<usize>)>,
    /// Sanitizers neutralizing this issue.
    pub sanitizers: Vec<MethodRef>,
    /// Sinks with the 0-based positions of vulnerable parameters.
    pub sinks: Vec<(MethodRef, Vec<usize>)>,
}

impl SecurityRule {
    /// Number of method refs over the four roles.
    fn num_refs(&self) -> usize {
        self.sources.len() + self.ref_sources.len() + self.sanitizers.len() + self.sinks.len()
    }
}

/// A full rule set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// Rules, one per issue type typically. Shared: cloning a rule set
    /// or preparing a program under it copies no rule.
    pub rules: Arc<[SecurityRule]>,
    /// Benign library classes excluded from analysis by name (§4.2.1's
    /// hand-written whitelist): their method bodies are replaced with
    /// no-op models before analysis.
    pub whitelist: Vec<String>,
}

impl RuleSet {
    /// The default TAJ rule set over the model library: the process-wide
    /// built-in rules, built on first use. Allocates nothing after that.
    pub fn default_rules() -> RuleSet {
        static RULES: OnceLock<Arc<[SecurityRule]>> = OnceLock::new();
        RuleSet { rules: Arc::clone(RULES.get_or_init(builtin_rules)), whitelist: Vec::new() }
    }

    /// Resolves every rule against `program` in one pass over the method
    /// refs, leaving out the refs the program does not declare.
    pub fn resolve(&self, program: &Program) -> ResolvedRules {
        let mut ids = Vec::with_capacity(self.rules.iter().map(SecurityRule::num_refs).sum());
        let mut infoleak = false;
        // Rules often share one source list (the default rules' web
        // sources): a list equal to the previous rule's reuses its ids.
        let mut prev: Option<(&SecurityRule, usize)> = None;
        for r in self.rules.iter() {
            infoleak |= r.issue == IssueType::InfoLeak;
            let start = ids.len();
            match prev {
                Some((p, at)) if p.sources == r.sources => {
                    ids.extend_from_within(at..at + r.sources.len());
                }
                _ => ids.extend(r.sources.iter().map(|m| m.resolve(program))),
            }
            let refs = r.ref_sources.iter().map(|(m, _)| m).chain(&r.sanitizers);
            ids.extend(refs.chain(r.sinks.iter().map(|(m, _)| m)).map(|m| m.resolve(program)));
            prev = Some((r, start));
        }
        let get_message = if infoleak {
            program.class_by_name("Throwable").and_then(|c| program.method_by_name(c, "getMessage"))
        } else {
            None
        };
        ResolvedRules { rules: Arc::clone(&self.rules), ids: ids.into(), get_message }
    }
}

/// The built-in rules behind [`RuleSet::default_rules`].
fn builtin_rules() -> Arc<[SecurityRule]> {
    let web_sources = vec![
        MethodRef::new("HttpServletRequest", "getParameter"),
        MethodRef::new("HttpServletRequest", "getHeader"),
        MethodRef::new("HttpServletRequest", "getQueryString"),
        MethodRef::new("Cookie", "getValue"),
        MethodRef::new("Struts", "taintedInput"),
    ];
    vec![
        SecurityRule {
            issue: IssueType::Xss,
            sources: web_sources.clone(),
            ref_sources: vec![(MethodRef::new("RandomAccessFile", "readFully"), vec![0])],
            sanitizers: vec![
                MethodRef::new("URLEncoder", "encode"),
                MethodRef::new("Encoder", "encodeForHTML"),
            ],
            sinks: vec![
                (MethodRef::new("PrintWriter", "println"), vec![0]),
                (MethodRef::new("PrintWriter", "print"), vec![0]),
                (MethodRef::new("PrintWriter", "write"), vec![0]),
            ],
        },
        SecurityRule {
            issue: IssueType::Sqli,
            ref_sources: vec![],
            sources: web_sources.clone(),
            sanitizers: vec![MethodRef::new("Encoder", "encodeForSQL")],
            sinks: vec![
                (MethodRef::new("Statement", "executeQuery"), vec![0]),
                (MethodRef::new("Statement", "executeUpdate"), vec![0]),
            ],
        },
        SecurityRule {
            issue: IssueType::CommandInjection,
            ref_sources: vec![],
            sources: web_sources.clone(),
            sanitizers: vec![MethodRef::new("Encoder", "encodeForOS")],
            sinks: vec![(MethodRef::new("Runtime", "exec"), vec![0])],
        },
        SecurityRule {
            issue: IssueType::MaliciousFile,
            ref_sources: vec![],
            sources: web_sources.clone(),
            sanitizers: vec![MethodRef::new("Encoder", "canonicalize")],
            sinks: vec![
                (MethodRef::new("File", "<init>"), vec![0]),
                (MethodRef::new("FileInputStream", "<init>"), vec![0]),
                (MethodRef::new("FileWriter", "<init>"), vec![0]),
            ],
        },
        SecurityRule {
            issue: IssueType::InfoLeak,
            ref_sources: vec![],
            // InfoLeak sources are the synthesized getMessage call
            // sites (§4.1.2); `getMessage` itself is listed so the
            // synthesized calls resolve to a source method.
            sources: vec![MethodRef::new("Throwable", "getMessage")],
            sanitizers: vec![MethodRef::new("Encoder", "encodeForHTML")],
            sinks: vec![
                (MethodRef::new("PrintWriter", "println"), vec![0]),
                (MethodRef::new("PrintWriter", "print"), vec![0]),
            ],
        },
    ]
    .into()
}

/// A rule set resolved against one program ([`RuleSet::resolve`]): the
/// shared rules plus, for each of their method refs, the method it names
/// in the program. It adds only ids to the shared rules, a few hundred
/// bytes for the default set.
#[derive(Clone, Debug)]
pub struct ResolvedRules {
    rules: Arc<[SecurityRule]>,
    /// One slot per method ref: rule by rule, and within a rule its
    /// sources, ref sources, sanitizers and sinks in list order; `None`
    /// where the program declares no such method.
    ids: Box<[Option<MethodId>]>,
    /// `Throwable.getMessage`, when a rule uses exception sources.
    get_message: Option<MethodId>,
}

impl ResolvedRules {
    /// The rules in rule order.
    pub fn iter(&self) -> impl Iterator<Item = ResolvedRule<'_>> {
        let mut rest = &self.ids[..];
        self.rules.iter().map(move |rule| {
            let (ids, tail) = rest.split_at(rule.num_refs());
            rest = tail;
            ResolvedRule { issue: rule.issue, rule, ids }
        })
    }

    /// `Throwable.getMessage`, whose synthesized catch-site calls are the
    /// InfoLeak sources (§4.1.2); `None` when no rule uses exception
    /// sources.
    pub fn get_message(&self) -> Option<MethodId> {
        self.get_message
    }

    /// The source methods of every rule (for the context policy and the
    /// priority scheme).
    pub fn sources(&self) -> FxHashSet<MethodId> {
        let n = self.rules.iter().map(|r| r.sources.len()).sum();
        let mut set = FxHashSet::with_capacity_and_hasher(n, Default::default());
        set.extend(self.iter().flat_map(|r| r.sources()));
        set
    }

    /// The taint-relevant methods of every rule (sources, sanitizers and
    /// sinks): these get one level of call-string context in the pointer
    /// analysis (§3.1).
    pub fn taint_methods(&self) -> FxHashSet<MethodId> {
        let mut set = FxHashSet::with_capacity_and_hasher(self.ids.len(), Default::default());
        set.extend(
            self.iter()
                .flat_map(|r| r.sources().chain(r.sanitizers()).chain(r.sinks().map(|(m, _)| m))),
        );
        set
    }
}

/// One rule of a [`ResolvedRules`], with its methods as ids.
#[derive(Clone, Copy, Debug)]
pub struct ResolvedRule<'a> {
    /// The issue type this rule detects.
    pub issue: IssueType,
    rule: &'a SecurityRule,
    /// The rule's slots of its `ResolvedRules`' ids.
    ids: &'a [Option<MethodId>],
}

impl<'a> ResolvedRule<'a> {
    /// Resolved sources (return value tainted).
    pub fn sources(&self) -> impl Iterator<Item = MethodId> + 'a {
        self.ids[..self.rule.sources.len()].iter().flatten().copied()
    }

    /// Resolved by-reference sources with their tainted positions.
    pub fn ref_sources(&self) -> impl Iterator<Item = (MethodId, &'a [usize])> + 'a {
        with_positions(&self.rule.ref_sources, &self.ids[self.rule.sources.len()..])
    }

    /// Resolved sanitizers.
    pub fn sanitizers(&self) -> impl Iterator<Item = MethodId> + 'a {
        let start = self.rule.sources.len() + self.rule.ref_sources.len();
        self.ids[start..start + self.rule.sanitizers.len()].iter().flatten().copied()
    }

    /// Resolved sinks with their vulnerable positions.
    pub fn sinks(&self) -> impl Iterator<Item = (MethodId, &'a [usize])> + 'a {
        let start =
            self.rule.sources.len() + self.rule.ref_sources.len() + self.rule.sanitizers.len();
        with_positions(&self.rule.sinks, &self.ids[start..])
    }

    /// Whether this rule relies on synthesized exception sources.
    pub fn uses_exception_sources(&self) -> bool {
        self.issue == IssueType::InfoLeak
    }
}

/// The resolved refs of `refs`, whose slots start `ids`, with positions.
fn with_positions<'a>(
    refs: &'a [(MethodRef, Vec<usize>)],
    ids: &'a [Option<MethodId>],
) -> impl Iterator<Item = (MethodId, &'a [usize])> + 'a {
    refs.iter().zip(ids).filter_map(|((_, pos), id)| id.map(|id| (id, pos.as_slice())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rules_resolve_against_stdlib() {
        let p = jir::stdlib::stdlib_program();
        let rules = RuleSet::default_rules();
        let resolved = rules.resolve(&p);
        assert_eq!(resolved.iter().count(), 5);
        for r in resolved.iter() {
            assert!(r.sources().next().is_some(), "{:?} has no sources", r.issue);
            assert!(r.sinks().next().is_some(), "{:?} has no sinks", r.issue);
        }
        // Every ref of the default rules names a library method.
        let refs: usize = rules.rules.iter().map(SecurityRule::num_refs).sum();
        assert_eq!(resolved.ids.len(), refs);
        assert!(resolved.ids.iter().all(Option::is_some));
        let thr = p.class_by_name("Throwable").unwrap();
        assert_eq!(resolved.get_message(), p.method_by_name(thr, "getMessage"));
    }

    #[test]
    fn default_rules_are_shared() {
        let (a, b) = (RuleSet::default_rules(), RuleSet::default_rules());
        assert!(Arc::ptr_eq(&a.rules, &b.rules));
        let p = jir::stdlib::stdlib_program();
        assert!(Arc::ptr_eq(&a.resolve(&p).rules, &a.rules));
    }

    #[test]
    fn unresolved_refs_are_left_out_in_place() {
        let p = jir::stdlib::stdlib_program();
        let sink = |class: &str, method: &str, pos| (MethodRef::new(class, method), vec![pos]);
        let rules = RuleSet {
            rules: vec![SecurityRule {
                issue: IssueType::Sqli,
                sources: vec![MethodRef::new("Nope", "x"), MethodRef::new("Cookie", "getValue")],
                ref_sources: vec![sink("Nope", "y", 1)],
                sanitizers: vec![MethodRef::new("Encoder", "nope")],
                sinks: vec![sink("Statement", "nope", 2), sink("Statement", "executeQuery", 3)],
            }]
            .into(),
            whitelist: Vec::new(),
        };
        let resolved = rules.resolve(&p);
        let rule = resolved.iter().next().unwrap();
        let cookie = p.class_by_name("Cookie").unwrap();
        assert_eq!(
            rule.sources().collect::<Vec<_>>(),
            vec![p.method_by_name(cookie, "getValue").unwrap()]
        );
        assert_eq!(rule.ref_sources().count(), 0);
        assert_eq!(rule.sanitizers().count(), 0);
        let st = p.class_by_name("Statement").unwrap();
        let eq = p.method_by_name(st, "executeQuery").unwrap();
        assert_eq!(rule.sinks().collect::<Vec<_>>(), vec![(eq, &[3][..])]);
        assert_eq!(resolved.get_message(), None, "no rule uses exception sources");
    }

    #[test]
    fn taint_methods_cover_all_roles() {
        let p = jir::stdlib::stdlib_program();
        let resolved = RuleSet::default_rules().resolve(&p);
        let tm = resolved.taint_methods();
        let req = p.class_by_name("HttpServletRequest").unwrap();
        let gp = p.method_by_name(req, "getParameter").unwrap();
        assert!(tm.contains(&gp));
        let pw = p.class_by_name("PrintWriter").unwrap();
        let pr = p.method_by_name(pw, "println").unwrap();
        assert!(tm.contains(&pr));
        let enc = p.class_by_name("Encoder").unwrap();
        assert!(tm.contains(&p.method_by_name(enc, "encodeForSQL").unwrap()));
        // By-reference sources are not among the context-sensitive methods.
        let raf = p.class_by_name("RandomAccessFile").unwrap();
        assert!(!tm.contains(&p.method_by_name(raf, "readFully").unwrap()));
        assert!(resolved.sources().is_subset(&tm));
        assert!(resolved.sources().contains(&gp));
        assert!(!resolved.sources().contains(&pr));
    }

    #[test]
    fn file_constructor_is_a_sink() {
        let p = jir::stdlib::stdlib_program();
        let rules = RuleSet::default_rules();
        let resolved = rules.resolve(&p);
        let mf = resolved.iter().find(|r| r.issue == IssueType::MaliciousFile).unwrap();
        let file = p.class_by_name("File").unwrap();
        let init = p.method_by_name(file, "<init>").unwrap();
        assert!(mf.sinks().any(|(m, _)| m == init));
    }

    #[test]
    fn issue_type_display() {
        assert_eq!(IssueType::Xss.to_string(), "XSS");
        assert_eq!(IssueType::Sqli.to_string(), "SQLi");
    }
}
