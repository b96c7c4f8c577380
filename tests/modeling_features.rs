//! Tests for the paper's finer modeling features: by-reference sources
//! (footnote 2), whitelist-based library exclusion (§4.2.1), and EJB
//! descriptor-driven call modeling (§4.2.2).

use taj::core::{
    analyze_source, prepare, DeploymentDescriptor, EjbEntry, IssueType, PreparedProgram, RuleSet,
    TajConfig,
};

#[test]
fn by_reference_source_taints_argument_state() {
    // `readFully` taints the buffer's internal state; reading it out and
    // rendering it is a flow even though no source *returns* the value.
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                RandomAccessFile f = new RandomAccessFile("upload.bin");
                ByteBuffer buf = new ByteBuffer();
                f.readFully(buf);
                String content = buf.data;
                resp.getWriter().println(content);
            }
        }
    "#;
    let report =
        analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
            .unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| { f.flow.issue == IssueType::Xss && f.flow.source_method == "readFully" }),
        "by-reference source flow must be reported: {report:#?}"
    );
}

#[test]
fn by_reference_source_object_is_a_carrier() {
    // Passing the tainted buffer itself to the sink is flagged via
    // carrier detection.
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                RandomAccessFile f = new RandomAccessFile("upload.bin");
                ByteBuffer buf = new ByteBuffer();
                f.readFully(buf);
                resp.getWriter().println(buf);
            }
        }
    "#;
    let report =
        analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
            .unwrap();
    assert!(
        report.findings.iter().any(|f| f.flow.source_method == "readFully"),
        "tainted buffer passed to sink must be flagged: {report:#?}"
    );
}

#[test]
fn untouched_buffer_is_clean() {
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                ByteBuffer buf = new ByteBuffer();
                String content = buf.data;
                resp.getWriter().println(content);
            }
        }
    "#;
    let report =
        analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
            .unwrap();
    assert_eq!(report.issue_count(), 0, "{report:#?}");
}

#[test]
fn whitelisted_class_is_excluded() {
    // `Relay.pass` forwards taint; whitelisting it severs the flow
    // (§4.2.1: "exclude benign library classes … based on a whitelist").
    let src = r#"
        library class Relay {
            static method String pass(String s) { return s; }
        }
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String v = Relay.pass(req.getParameter("q"));
                resp.getWriter().println(v);
            }
        }
    "#;
    let with = analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
        .unwrap();
    assert_eq!(with.issue_count(), 1, "flow present without whitelist: {with:#?}");

    let mut rules = RuleSet::default_rules();
    rules.whitelist.push("Relay".into());
    let without = analyze_source(src, None, rules, &TajConfig::hybrid_unbounded()).unwrap();
    assert_eq!(without.issue_count(), 0, "whitelisting Relay must sever the flow: {without:#?}");
}

#[test]
fn whitelisting_a_library_class_leaves_the_next_program_intact() {
    // The model library is built once per process and each program
    // starts from its own copy, so one program's whitelist must not strip
    // a library body from the next program prepared in the process.
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                HttpSession s = req.getSession();
            }
        }
    "#;
    let get_session_has_body = |prepared: &PreparedProgram| {
        let program = &prepared.program;
        let req = program.class_by_name("HttpServletRequest").expect("library class");
        let get_session = program.method_by_name(req, "getSession").expect("library method");
        program.method(get_session).body().is_some()
    };

    let mut rules = RuleSet::default_rules();
    rules.whitelist.push("HttpServletRequest".into());
    let whitelisted = prepare(src, None, rules).unwrap();
    assert!(!get_session_has_body(&whitelisted), "the whitelist replaces getSession's body");

    let default = prepare(src, None, RuleSet::default_rules()).unwrap();
    assert!(get_session_has_body(&default), "getSession keeps its body in the next program");
}

/// Every class, with its field and method ids, then every method's IR.
fn printed_ir(prepared: &PreparedProgram) -> String {
    let program = &prepared.program;
    let mut out = String::new();
    for (_, class) in program.iter_classes() {
        out += &format!("class {} {:?} {:?}\n", class.name, class.fields, class.methods);
    }
    for (mid, _) in program.iter_methods() {
        out += &taj::jir::pretty::method_to_string(program, mid);
    }
    out
}

#[test]
fn concurrent_prepares_share_the_library_without_interference() {
    // Programs extend one shared model library, and the daemon's workers
    // prepare at once: a whitelist on one thread must neither reach the
    // other thread's program nor see that program's additions.
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                HttpSession s = req.getSession();
                s.setAttribute("name", req.getParameter("name"));
                resp.getWriter().println(s.getAttribute("name"));
            }
        }
    "#;
    let whitelisted = || {
        let mut rules = RuleSet::default_rules();
        rules.whitelist.push("HttpServletRequest".into());
        rules
    };
    let expected = [whitelisted(), RuleSet::default_rules()]
        .map(|rules| printed_ir(&prepare(src, None, rules).unwrap()));
    assert_ne!(expected[0], expected[1], "the whitelist changes the program");
    for round in 0..8 {
        let barrier = std::sync::Barrier::new(2);
        let got = std::thread::scope(|s| {
            [whitelisted(), RuleSet::default_rules()]
                .map(|rules| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        printed_ir(&prepare(src, None, rules).unwrap())
                    })
                })
                .map(|handle| handle.join().unwrap())
        });
        assert!(
            got == expected,
            "round {round}: a concurrent prepare differs from a sequential one"
        );
    }
}

#[test]
fn ejb_flow_requires_descriptor() {
    let src = r#"
        interface BeanHome { method EchoBean create(); }
        class EchoBean {
            ctor () { }
            method String echo(String s) { return s; }
        }
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String v = req.getParameter("q");
                InitialContext ctx = new InitialContext();
                Object ref = ctx.lookup("java:comp/env/ejb/Echo");
                BeanHome home = (BeanHome) PortableRemoteObject.narrow(ref, null);
                EchoBean bean = home.create();
                resp.getWriter().println(bean.echo(v));
            }
        }
    "#;
    // Without a descriptor the lookup stays opaque: no flow.
    let blind = analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
        .unwrap();
    assert_eq!(blind.issue_count(), 0, "{blind:#?}");

    // With the descriptor, the container is bypassed and the flow appears.
    let descriptor = DeploymentDescriptor {
        entries: vec![EjbEntry {
            jndi_name: "java:comp/env/ejb/Echo".into(),
            home_interface: "BeanHome".into(),
            bean_class: "EchoBean".into(),
        }],
    };
    let seeing = analyze_source(
        src,
        Some(&descriptor),
        RuleSet::default_rules(),
        &TajConfig::hybrid_unbounded(),
    )
    .unwrap();
    assert_eq!(seeing.issue_count(), 1, "{seeing:#?}");
}

#[test]
fn numeric_validation_severs_string_taint() {
    // The paper's future-work direction (§9) on string-specific taint: a
    // value forced through numeric parsing cannot carry an injection
    // payload. `Integer.parseInt` yields a fresh numeric value, so the
    // flow dies without an explicit sanitizer rule.
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String raw = req.getParameter("id");
                int id = Integer.parseInt(raw);
                Connection c = DriverManager.getConnection("jdbc:app");
                Statement st = c.createStatement();
                st.executeQuery("SELECT * FROM t WHERE id = " + id);
            }
        }
    "#;
    let report =
        analyze_source(src, None, RuleSet::default_rules(), &TajConfig::hybrid_unbounded())
            .unwrap();
    assert_eq!(report.issue_count(), 0, "parseInt kills the payload: {report:#?}");
}

#[test]
fn phase1_reuse_is_equivalent() {
    // Incremental re-analysis: slicing twice over one cached phase-1
    // result must equal two full runs.
    use taj::core::{
        analyze_with_phase1_opts, run_phase1_traced, Recorder, RunOptions, Supervisor,
    };
    let src = r#"
        class Page extends HttpServlet {
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                resp.getWriter().println(req.getParameter("q"));
            }
        }
    "#;
    let prepared = prepare(src, None, RuleSet::default_rules()).unwrap();
    let config = TajConfig::hybrid_unbounded();
    let phase1 = run_phase1_traced(&prepared, &config, &Supervisor::new(), &Recorder::disabled());
    assert!(phase1.matches(&config));
    let opts = RunOptions::default();
    let a = analyze_with_phase1_opts(&prepared, &phase1, &config, &opts).unwrap();
    let b = analyze_with_phase1_opts(&prepared, &phase1, &config, &opts).unwrap();
    let c = analyze_source(src, None, RuleSet::default_rules(), &config).unwrap();
    assert_eq!(a.issue_count(), b.issue_count());
    assert_eq!(a.issue_count(), c.issue_count());
    // CI shares the unbounded call-graph settings: reuse works across
    // algorithms too.
    let ci = TajConfig::ci_thin();
    assert!(phase1.matches(&ci));
    let d = analyze_with_phase1_opts(&prepared, &phase1, &ci, &opts).unwrap();
    assert_eq!(d.issue_count(), 1);
}
