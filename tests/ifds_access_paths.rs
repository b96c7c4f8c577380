//! Access-path edge cases of the IFDS backend: raising the depth bound
//! `k` is monotone (a deeper bound can only *remove* widening-induced
//! reports, never lose a true flow), and `k = 0` degenerates to
//! field-insensitive taint ("the object is tainted"), where storing into
//! one field taints loads of every other field.

mod common;

use proptest::prelude::*;

use common::analyze;
use taj::core::{prepare, score, RuleSet, TajConfig};
use taj::webgen::{generate, BenchmarkSpec, Pattern};

/// Patterns with seeded vulnerable entries the IFDS backend must detect
/// at every depth bound (widening is an over-approximation: lowering `k`
/// can only add reports).
fn detectable() -> Vec<Pattern> {
    vec![
        Pattern::XssReflected,
        Pattern::SqliConcat,
        Pattern::XssHeap,
        Pattern::NestedCarrier,
        Pattern::SessionAttr,
        Pattern::BuilderFlow,
        Pattern::ReflectInvoke,
        Pattern::StrutsForm,
        Pattern::ThreadShared,
        Pattern::CollectionContext,
        Pattern::EjbFlow,
    ]
}

fn spec_strategy() -> impl Strategy<Value = BenchmarkSpec> {
    let pats = detectable();
    (proptest::collection::vec((0..pats.len(), 1usize..3), 1..4), 0usize..2, any::<u64>()).prop_map(
        move |(choices, filler, seed)| {
            let mut counts: Vec<(Pattern, usize)> = Vec::new();
            for (i, n) in choices {
                counts.push((pats[i], n));
            }
            BenchmarkSpec {
                name: "ifds-prop".into(),
                pattern_counts: counts,
                filler_classes: filler,
                methods_per_class: 4,
                seed,
            }
        },
    )
}

/// IFDS configuration at an explicit access-path depth.
fn ifds_at(k: usize) -> TajConfig {
    let mut config = TajConfig::ifds();
    config.access_path_depth = k;
    config
}

/// The comparable verdict set: `(sink class, issue)` pairs.
fn verdicts(report: &taj::core::TajReport) -> std::collections::BTreeSet<(String, String)> {
    report
        .findings
        .iter()
        .map(|f| (f.flow.sink_owner_class.clone(), format!("{:?}", f.flow.issue)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Monotonicity in the depth bound: reports at `k + 1` are contained
    /// in reports at `k` (deeper paths widen later, so precision only
    /// improves), and no true webgen flow is ever lost at any depth.
    #[test]
    fn raising_k_is_monotone(spec in spec_strategy(), k in 0usize..3) {
        let bench = generate(&spec);
        let prepared = prepare(
            &bench.source,
            Some(&bench.descriptor),
            RuleSet::default_rules(),
        )
        .expect("generated benchmark prepares");
        let lo = analyze(&prepared, &ifds_at(k)).expect("runs at k");
        let hi = analyze(&prepared, &ifds_at(k + 1)).expect("runs at k+1");
        let (lo_set, hi_set) = (verdicts(&lo), verdicts(&hi));
        for key in &hi_set {
            prop_assert!(
                lo_set.contains(key),
                "k={} lost report {:?} present at k={}; spec {:?}",
                k, key, k + 1, spec.pattern_counts
            );
        }
        for (report, depth) in [(&lo, k), (&hi, k + 1)] {
            let s = score(report, &bench.truth);
            prop_assert_eq!(
                s.false_negatives, 0,
                "IFDS at k={} missed a true flow; spec {:?}; score {:?}",
                depth, spec.pattern_counts, s
            );
        }
    }
}

/// The separating program for `k = 0` degeneracy: taint is stored into
/// field `a` and read back from the *disjoint* field `b`. With any
/// positive depth the access path `[a]` cannot be consumed by a load of
/// `b` and the program is clean; at `k = 0` the store widens immediately
/// to "the object is tainted", the widened fact matches every load, and
/// the (field-infeasible) flow is reported — exactly field-insensitive
/// taint semantics.
const DISJOINT_FIELDS: &str = r#"
    class Box {
        field String a;
        field String b;
        ctor () { }
    }
    class Page extends HttpServlet {
        method void doGet(HttpServletRequest req, HttpServletResponse resp) {
            String name = req.getParameter("name");
            Box box = new Box();
            box.a = name;
            String v = box.b;
            PrintWriter w = resp.getWriter();
            w.println(v);
        }
    }
"#;

#[test]
fn k0_degenerates_to_field_insensitive_taint() {
    let prepared = prepare(DISJOINT_FIELDS, None, RuleSet::default_rules()).expect("prepares");
    for k in [1, 2, 4] {
        let report = analyze(&prepared, &ifds_at(k)).expect("runs");
        assert_eq!(
            report.issue_count(),
            0,
            "k={k}: a load of `b` must not consume the precise path `[a]`: {report:#?}"
        );
    }
    let report = analyze(&prepared, &ifds_at(0)).expect("runs");
    assert_eq!(
        report.issue_count(),
        1,
        "k=0: the widened store must taint every load of the object: {report:#?}"
    );
}

/// The precision the depth bound buys is visible against the hybrid
/// slicer too: hybrid's field-matched (but depth-unbounded) store→load
/// edges also stay clean on the disjoint-field program, so IFDS at the
/// default depth agrees with hybrid here — the k=0 report above is the
/// *only* configuration that over-approximates this program.
#[test]
fn default_depth_agrees_with_hybrid_on_disjoint_fields() {
    let prepared = prepare(DISJOINT_FIELDS, None, RuleSet::default_rules()).expect("prepares");
    let hybrid = analyze(&prepared, &TajConfig::hybrid_unbounded()).expect("hybrid runs");
    let ifds = analyze(&prepared, &TajConfig::ifds()).expect("ifds runs");
    assert_eq!(hybrid.issue_count(), 0);
    assert_eq!(ifds.issue_count(), 0);
}
