//! Expected verdicts, checked against independent ground truth: the
//! webgen `GroundTruth` of each Figure-4 application and the securibench
//! labels. Only findings are compared, never report statistics.

use crate::analysis::{Verdict, LARGE_COPIES};

/// `(true positives, false positives, false negatives)`.
type Triple = (usize, usize, usize);

/// paper-apps: `(app, config, Some(TP, FP, FN))`, or `None` where the
/// CS slicer runs out of its path-edge budget (the paper's `-`).
const PAPER: &[(&str, &str, Option<Triple>)] = &[
    ("A", "hybrid-unbounded", Some((15, 5, 0))),
    ("A", "hybrid-prioritized", Some((15, 5, 0))),
    ("A", "hybrid-optimized", Some((15, 4, 0))),
    ("A", "cs", Some((15, 2, 0))),
    ("A", "ci", Some((15, 7, 0))),
    ("A", "cs-escape", Some((15, 2, 0))),
    ("A", "ifds", Some((15, 5, 0))),
    ("B", "hybrid-unbounded", Some((14, 5, 0))),
    ("B", "hybrid-prioritized", Some((14, 5, 0))),
    ("B", "hybrid-optimized", Some((14, 4, 0))),
    ("B", "cs", None),
    ("B", "ci", Some((14, 7, 0))),
    ("B", "cs-escape", None),
    ("B", "ifds", Some((14, 5, 0))),
    ("BlueBlog", "hybrid-unbounded", Some((16, 5, 0))),
    ("BlueBlog", "hybrid-prioritized", Some((16, 5, 0))),
    ("BlueBlog", "hybrid-optimized", Some((16, 4, 0))),
    ("BlueBlog", "cs", Some((14, 2, 2))),
    ("BlueBlog", "ci", Some((16, 7, 0))),
    ("BlueBlog", "cs-escape", Some((16, 2, 0))),
    ("BlueBlog", "ifds", Some((16, 5, 0))),
    ("Friki", "hybrid-unbounded", Some((16, 5, 0))),
    ("Friki", "hybrid-prioritized", Some((16, 5, 0))),
    ("Friki", "hybrid-optimized", Some((16, 4, 0))),
    ("Friki", "cs", Some((16, 2, 0))),
    ("Friki", "ci", Some((16, 7, 0))),
    ("Friki", "cs-escape", Some((16, 2, 0))),
    ("Friki", "ifds", Some((16, 5, 0))),
    ("GestCV", "hybrid-unbounded", Some((14, 5, 0))),
    ("GestCV", "hybrid-prioritized", Some((14, 5, 0))),
    ("GestCV", "hybrid-optimized", Some((14, 4, 0))),
    ("GestCV", "cs", None),
    ("GestCV", "ci", Some((14, 7, 0))),
    ("GestCV", "cs-escape", None),
    ("GestCV", "ifds", Some((14, 5, 0))),
    ("I", "hybrid-unbounded", Some((15, 5, 0))),
    ("I", "hybrid-prioritized", Some((15, 5, 0))),
    ("I", "hybrid-optimized", Some((15, 4, 0))),
    ("I", "cs", Some((14, 2, 1))),
    ("I", "ci", Some((15, 7, 0))),
    ("I", "cs-escape", Some((15, 2, 0))),
    ("I", "ifds", Some((15, 5, 0))),
    ("S", "hybrid-unbounded", Some((59, 12, 0))),
    ("S", "hybrid-prioritized", Some((59, 12, 0))),
    ("S", "hybrid-optimized", Some((59, 10, 0))),
    ("S", "cs", None),
    ("S", "ci", Some((59, 19, 0))),
    ("S", "cs-escape", None),
    ("S", "ifds", Some((59, 12, 0))),
    ("SBM", "hybrid-unbounded", Some((27, 6, 0))),
    ("SBM", "hybrid-prioritized", Some((27, 6, 0))),
    ("SBM", "hybrid-optimized", Some((27, 5, 0))),
    ("SBM", "cs", None),
    ("SBM", "ci", Some((27, 9, 0))),
    ("SBM", "cs-escape", None),
    ("SBM", "ifds", Some((27, 6, 0))),
    ("Webgoat", "hybrid-unbounded", Some((19, 5, 0))),
    ("Webgoat", "hybrid-prioritized", Some((19, 4, 0))),
    ("Webgoat", "hybrid-optimized", Some((15, 3, 4))),
    ("Webgoat", "cs", None),
    ("Webgoat", "ci", Some((19, 7, 0))),
    ("Webgoat", "cs-escape", None),
    ("Webgoat", "ifds", Some((19, 5, 0))),
];

/// large-app (×16): `(config, Some((issues, (TP, FP, FN))))`, or `None`
/// for an out-of-memory verdict.
const LARGE: &[(&str, Option<(usize, Triple)>)] = &[
    ("hybrid-unbounded", Some((496, (400, 80, 0)))),
    ("hybrid-prioritized", Some((436, (344, 76, 56)))),
    ("hybrid-optimized", Some((436, (344, 76, 56)))),
    ("cs", None),
    ("ci", Some((496, (400, 80, 0)))),
    ("cs-escape", None),
    ("ifds", Some((496, (400, 80, 0)))),
];

/// Configs that are sound on the securibench labels: never a false
/// negative, at any replica count.
const SOUND: [&str; 3] = ["hybrid-unbounded", "ci", "ifds"];

fn triple(v: &Verdict) -> Triple {
    (v.score.true_positives, v.score.false_positives, v.score.false_negatives)
}

fn mismatch<T: std::fmt::Debug>(expected: Option<&T>, observed: &T) -> Result<(), String> {
    Err(format!("expected {expected:?}, observed {observed:?}"))
}

/// Checks one paper-apps verdict against its pin.
pub fn check_paper(app: &str, config: &str, observed: Option<Verdict>) -> Result<(), String> {
    let observed = observed.as_ref().map(triple);
    let expected = PAPER.iter().find(|(a, c, _)| *a == app && *c == config).map(|p| p.2);
    if expected == Some(observed) {
        Ok(())
    } else {
        mismatch(expected.as_ref(), &observed)
    }
}

/// Checks one large-app verdict: zero false negatives for the sound
/// configs at any size, and the pinned verdict at [`LARGE_COPIES`].
pub fn check_large(copies: usize, config: &str, observed: Option<Verdict>) -> Result<(), String> {
    if SOUND.contains(&config) {
        match &observed {
            Some(v) if v.score.false_negatives == 0 => {}
            _ => return Err(format!("sound config missed flows: {observed:?}")),
        }
    }
    if copies != LARGE_COPIES {
        return Ok(());
    }
    let observed = observed.as_ref().map(|v| (v.issues, triple(v)));
    let expected = LARGE.iter().find(|(c, _)| *c == config).map(|p| p.1);
    if expected == Some(observed) {
        Ok(())
    } else {
        mismatch(expected.as_ref(), &observed)
    }
}
