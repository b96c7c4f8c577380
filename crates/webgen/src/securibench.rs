//! A SecuriBench-Micro-style case suite, adapted to jweb.
//!
//! Stanford SecuriBench Micro (the paper's reference \[34\], which inspired
//! its motivating example) organizes small test servlets into categories:
//! aliasing, arrays, basic, collections, data structures, factories,
//! inter-procedural, predicates, reflection, sanitizers, session, and
//! strong updates. This module reproduces that structure with exact
//! expectations for the hybrid analysis: which cases carry a real flow,
//! and which are *expected false alarms* for a flow-insensitive-heap,
//! path-insensitive analysis (the same alarms the original suite expects
//! from tools of TAJ's class).

use std::collections::BTreeSet;

use taj_core::{GroundTruth, IssueType};

/// One SecuriBench-style case.
#[derive(Clone, Debug)]
pub struct SecuriCase {
    /// Case name, e.g. `Basic1`.
    pub name: &'static str,
    /// Category, e.g. `basic`.
    pub category: &'static str,
    /// jweb source.
    pub source: String,
    /// Real vulnerabilities and benign-but-suspicious entries.
    pub truth: GroundTruth,
    /// `(sink class, issue)` pairs a sound but path/flow-insensitive
    /// analysis is *expected* to report although they are benign.
    pub expected_false_alarms: Vec<(String, IssueType)>,
}

fn servlet(name: &str, body: &str, extra: &str) -> String {
    format!(
        r#"
{extra}
class {name} extends HttpServlet {{
    method void doGet(HttpServletRequest req, HttpServletResponse resp) {{
{body}
    }}
}}
"#
    )
}

struct CaseBuilder {
    cases: Vec<SecuriCase>,
}

impl CaseBuilder {
    fn add(
        &mut self,
        name: &'static str,
        category: &'static str,
        body: &str,
        extra: &str,
        vulnerable: usize,
        false_alarm: bool,
    ) {
        let source = servlet(name, body, extra);
        let mut truth = GroundTruth::default();
        if vulnerable > 0 {
            truth.add_vulnerable(name, IssueType::Xss);
        } else {
            truth.add_benign(name, IssueType::Xss);
        }
        let expected_false_alarms =
            if false_alarm { vec![(name.to_string(), IssueType::Xss)] } else { vec![] };
        self.cases.push(SecuriCase { name, category, source, truth, expected_false_alarms });
    }
}

/// Builds the full suite.
pub fn cases() -> Vec<SecuriCase> {
    let mut b = CaseBuilder { cases: Vec::new() };

    // ---- basic ----
    b.add(
        "Basic1",
        "basic",
        r#"        String s = req.getParameter("name");
        resp.getWriter().println(s);"#,
        "",
        1,
        false,
    );
    b.add(
        "Basic2",
        "basic",
        r#"        String s1 = req.getParameter("name");
        String s2 = s1;
        String s3 = s2;
        resp.getWriter().println(s3);"#,
        "",
        1,
        false,
    );
    b.add(
        "Basic3",
        "basic",
        r#"        String s = req.getParameter("name");
        resp.getWriter().println("<b>" + s + "</b>");"#,
        "",
        1,
        false,
    );
    b.add(
        "Basic4",
        "basic",
        r#"        String a = req.getParameter("a");
        String b = req.getParameter("b");
        PrintWriter w = resp.getWriter();
        w.println(a);
        w.println(b);"#,
        "",
        1,
        false,
    );
    b.add(
        "Basic5",
        "basic",
        r#"        String s = req.getParameter("name");
        String out = "default";
        if (s != "special") { out = s; }
        resp.getWriter().println(out);"#,
        "",
        1,
        false,
    );
    b.add(
        "Basic6",
        "basic",
        r#"        String s = req.getParameter("name");
        String acc = "";
        int i = 0;
        while (i < 3) { acc = acc + s; i = i + 1; }
        resp.getWriter().println(acc);"#,
        "",
        1,
        false,
    );
    b.add(
        "Basic7",
        "basic",
        r#"        String s = req.getParameter("name");
        resp.getWriter().println("static content");"#,
        "",
        0,
        false,
    );
    b.add(
        "Basic8",
        "basic",
        r#"        String s = req.getParameter("name");
        resp.getWriter().println(URLEncoder.encode(s));"#,
        "",
        0,
        false,
    );
    b.add(
        "Basic9",
        "basic",
        r#"        StringBuilder sb = new StringBuilder();
        sb.append(req.getParameter("name"));
        resp.getWriter().println(sb.toString());"#,
        "",
        1,
        false,
    );
    b.add(
        "Basic10",
        "basic",
        r#"        Basic10Holder.value = req.getParameter("name");
        String out = Basic10Holder.value;
        resp.getWriter().println(out);"#,
        "class Basic10Holder { static field String value; }",
        1,
        false,
    );

    // ---- aliasing ----
    b.add(
        "Aliasing1",
        "aliasing",
        r#"        Aliasing1Box b1 = new Aliasing1Box();
        Aliasing1Box b2 = b1;
        b1.v = req.getParameter("name");
        resp.getWriter().println(b2.v);"#,
        "class Aliasing1Box { field String v; ctor () { } }",
        1,
        false,
    );
    b.add(
        "Aliasing2",
        "aliasing",
        r#"        Aliasing2Box b1 = new Aliasing2Box();
        Aliasing2Box b2 = b1;
        b2.v = req.getParameter("name");
        resp.getWriter().println(b1.v);"#,
        "class Aliasing2Box { field String v; ctor () { } }",
        1,
        false,
    );
    b.add(
        "Aliasing3",
        "aliasing",
        r#"        Aliasing3Box dirty = new Aliasing3Box();
        Aliasing3Box clean = new Aliasing3Box();
        dirty.v = req.getParameter("name");
        resp.getWriter().println(clean.v);"#,
        "class Aliasing3Box { field String v; ctor () { } }",
        0,
        false,
    );

    // ---- arrays ----
    b.add(
        "Arrays1",
        "arrays",
        r#"        String[] a = new String[2];
        a[0] = req.getParameter("name");
        resp.getWriter().println(a[0]);"#,
        "",
        1,
        false,
    );
    b.add(
        "Arrays2",
        "arrays",
        r#"        String[] dirty = new String[2];
        String[] clean = new String[2];
        dirty[0] = req.getParameter("name");
        clean[0] = "static";
        resp.getWriter().println(clean[0]);"#,
        "",
        0,
        false,
    );
    b.add(
        "Arrays3",
        "arrays",
        // Index-insensitive modeling: slot 1 is clean at runtime, but the
        // analysis merges array contents — an expected false alarm.
        r#"        String[] a = new String[2];
        a[0] = req.getParameter("name");
        a[1] = "static";
        resp.getWriter().println(a[1]);"#,
        "",
        0,
        true,
    );

    // ---- collections ----
    b.add(
        "Collections1",
        "collections",
        r#"        ArrayList l = new ArrayList();
        l.add(req.getParameter("name"));
        resp.getWriter().println(l.get(0));"#,
        "",
        1,
        false,
    );
    b.add(
        "Collections2",
        "collections",
        r#"        HashMap m = new HashMap();
        m.put("key", req.getParameter("name"));
        resp.getWriter().println(m.get("key"));"#,
        "",
        1,
        false,
    );
    b.add(
        "Collections3",
        "collections",
        r#"        HashMap m = new HashMap();
        m.put("dirty", req.getParameter("name"));
        m.put("clean", "static");
        resp.getWriter().println(m.get("clean"));"#,
        "",
        0,
        false,
    );
    b.add(
        "Collections4",
        "collections",
        // Non-constant keys defeat the constant-key disambiguation: an
        // expected false alarm (conservative $map$* summary).
        r#"        HashMap m = new HashMap();
        String k = req.getHeader("which");
        m.put(k, req.getParameter("name"));
        resp.getWriter().println(m.get("fixed"));"#,
        "",
        0,
        true,
    );
    b.add(
        "Collections5",
        "collections",
        r#"        ArrayList l = new ArrayList();
        l.add(req.getParameter("name"));
        Iterator it = l.iterator();
        Object v = it.next();
        resp.getWriter().println(v);"#,
        "",
        1,
        false,
    );

    // ---- datastructures ----
    b.add(
        "Datastructures1",
        "datastructures",
        r#"        Datastructures1Box b = new Datastructures1Box();
        b.v = req.getParameter("name");
        resp.getWriter().println(b.v);"#,
        "class Datastructures1Box { field String v; ctor () { } }",
        1,
        false,
    );
    b.add(
        "Datastructures2",
        "datastructures",
        r#"        Datastructures2In inner = new Datastructures2In(req.getParameter("name"));
        Datastructures2Out outer = new Datastructures2Out(inner);
        resp.getWriter().println(outer);"#,
        r#"class Datastructures2In { field String s; ctor (String s) { this.s = s; } }
class Datastructures2Out { field Datastructures2In c; ctor (Datastructures2In c) { this.c = c; } }"#,
        1,
        false,
    );
    b.add(
        "Datastructures3",
        "datastructures",
        // Field sensitivity: taint in `dirty`, read of sibling `clean`.
        r#"        Datastructures3Box b = new Datastructures3Box();
        b.dirty = req.getParameter("name");
        b.clean = "static";
        resp.getWriter().println(b.clean);"#,
        "class Datastructures3Box { field String dirty; field String clean; ctor () { } }",
        0,
        false,
    );

    // ---- factories ----
    b.add(
        "Factories1",
        "factories",
        r#"        Factories1Box b = Factories1F.make();
        b.v = req.getParameter("name");
        resp.getWriter().println(b.v);"#,
        r#"class Factories1Box { field String v; ctor () { } }
class Factories1F { static method Factories1Box make() { return new Factories1Box(); } }"#,
        1,
        false,
    );
    b.add(
        "Factories2",
        "factories",
        // One allocation site serves both boxes: the site-based heap
        // abstraction merges them — expected false alarm.
        r#"        Factories2Box dirty = Factories2F.make();
        Factories2Box clean = Factories2F.make();
        dirty.v = req.getParameter("name");
        resp.getWriter().println(clean.v);"#,
        r#"class Factories2Box { field String v; ctor () { } }
class Factories2F { static method Factories2Box make() { return new Factories2Box(); } }"#,
        0,
        true,
    );

    // ---- inter-procedural ----
    b.add(
        "Inter1",
        "inter",
        r#"        String s = req.getParameter("name");
        this.render(resp, s);
    }
    method void render(HttpServletResponse resp, String s) {
        resp.getWriter().println(s);"#,
        "",
        1,
        false,
    );
    b.add(
        "Inter2",
        "inter",
        r#"        String s = this.fetch(req);
        resp.getWriter().println(s);
    }
    method String fetch(HttpServletRequest req) {
        return req.getParameter("name");"#,
        "",
        1,
        false,
    );
    b.add(
        "Inter3",
        "inter",
        r#"        String s = req.getParameter("name");
        String t = this.hop1(s);
        resp.getWriter().println(t);
    }
    method String hop1(String s) { return this.hop2(s); }
    method String hop2(String s) { return s;"#,
        "",
        1,
        false,
    );
    b.add(
        "Inter4",
        "inter",
        // The callee sanitizes: no flow.
        r#"        String s = req.getParameter("name");
        String t = this.scrub(s);
        resp.getWriter().println(t);
    }
    method String scrub(String s) { return URLEncoder.encode(s);"#,
        "",
        0,
        false,
    );

    // ---- predicates ----
    b.add(
        "Pred1",
        "pred",
        // The guard is always false at runtime; a path-insensitive
        // analysis reports the flow anyway — expected false alarm.
        r#"        String s = req.getParameter("name");
        String out = "static";
        boolean never = false;
        if (never) { out = s; }
        resp.getWriter().println(out);"#,
        "",
        0,
        true,
    );
    b.add(
        "Pred2",
        "pred",
        r#"        String s = req.getParameter("name");
        boolean always = true;
        String out = "static";
        if (always) { out = s; }
        resp.getWriter().println(out);"#,
        "",
        1,
        false,
    );

    // ---- reflection ----
    b.add(
        "Refl1",
        "refl",
        r#"        String s = req.getParameter("name");
        Class k = Class.forName("Refl1Target");
        Method m = k.getMethod("id");
        Refl1Target t = new Refl1Target();
        Object r = m.invoke(t, new Object[] { s });
        resp.getWriter().println(r);"#,
        "class Refl1Target { method String id(String x) { return x; } }",
        1,
        false,
    );
    b.add(
        "Refl2",
        "refl",
        r#"        Class k = Class.forName("Refl2Target");
        Object o = k.newInstance();
        Refl2Target t = (Refl2Target) o;
        String r = t.id(req.getParameter("name"));
        resp.getWriter().println(r);"#,
        "class Refl2Target { ctor () { } method String id(String x) { return x; } }",
        1,
        false,
    );

    // ---- sanitizers ----
    b.add(
        "Sanitizers1",
        "sanitizers",
        r#"        String s = req.getParameter("name");
        resp.getWriter().println(Encoder.encodeForHTML(s));"#,
        "",
        0,
        false,
    );
    b.add(
        "Sanitizers2",
        "sanitizers",
        // Sanitize, then concatenate raw data back in: still vulnerable.
        r#"        String s = req.getParameter("name");
        String half = Encoder.encodeForHTML(s) + s;
        resp.getWriter().println(half);"#,
        "",
        1,
        false,
    );

    // ---- session ----
    b.add(
        "Session1",
        "session",
        r#"        HttpSession session = req.getSession();
        session.setAttribute("user", req.getParameter("name"));
        Object v = session.getAttribute("user");
        resp.getWriter().println(v);"#,
        "",
        1,
        false,
    );
    b.add(
        "Session2",
        "session",
        r#"        HttpSession session = req.getSession();
        session.setAttribute("dirty", req.getParameter("name"));
        session.setAttribute("clean", "static");
        Object v = session.getAttribute("clean");
        resp.getWriter().println(v);"#,
        "",
        0,
        false,
    );

    // ---- strong updates ----
    b.add(
        "StrongUpdates1",
        "strong_updates",
        // The tainted value is overwritten before the read; the
        // flow-insensitive heap cannot see the ordering — expected false
        // alarm (this is the precision CS pays all that memory for).
        r#"        StrongUpdates1Box b = new StrongUpdates1Box();
        b.v = req.getParameter("name");
        b.v = "static";
        resp.getWriter().println(b.v);"#,
        "class StrongUpdates1Box { field String v; ctor () { } }",
        0,
        true,
    );
    b.add(
        "StrongUpdates2",
        "strong_updates",
        // Local (register) strong update: SSA gives this for free.
        r#"        String s = req.getParameter("name");
        s = "static";
        resp.getWriter().println(s);"#,
        "",
        0,
        false,
    );

    b.cases
}

/// Categories present in the suite.
pub fn categories() -> Vec<&'static str> {
    let mut cats: Vec<&'static str> = cases().iter().map(|c| c.category).collect();
    cats.dedup();
    cats
}

/// Every case joined into one program, replicated `copies` times.
/// Replica `k > 0` appends `R{k}` to every declared class name,
/// token-wise, so the replicas share only the library.
pub fn joined(copies: usize) -> String {
    let joined: String = cases().iter().map(|c| format!("{}\n", c.source)).collect();
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let classes: BTreeSet<&str> = joined
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("class "))
        .filter_map(|rest| rest.split(|c: char| !is_ident(c)).next())
        .collect();
    let mut out = joined.clone();
    for k in 1..copies {
        let mut token = String::new();
        for c in joined.chars() {
            if is_ident(c) {
                token.push(c);
                continue;
            }
            out.push_str(&token);
            if classes.contains(token.as_str()) {
                out.push_str(&format!("R{k}"));
            }
            token.clear();
            out.push(c);
        }
        out.push_str(&token);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_parse() {
        for c in cases() {
            assert!(
                jir::frontend::parse_program(&c.source).is_ok(),
                "{} fails to parse:\n{}",
                c.name,
                c.source
            );
        }
    }

    #[test]
    fn suite_structure() {
        let all = cases();
        assert!(all.len() >= 30, "suite has {} cases", all.len());
        assert!(categories().len() >= 10);
        let mut names: Vec<&str> = all.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names unique");
    }

    #[test]
    fn truth_recorded_for_every_case() {
        for c in cases() {
            assert!(
                !c.truth.vulnerable.is_empty() || !c.truth.benign.is_empty(),
                "{} has no ground truth",
                c.name
            );
        }
    }
}
