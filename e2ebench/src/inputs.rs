//! Workload inputs, all derived from the `--seed` argument: the nine
//! Figure-4 applications, the replicated securibench program, and the
//! serve-mixed request schedule. The system under test only ever sees
//! the generated sources.

use taj_core::{DeploymentDescriptor, GroundTruth};
use taj_webgen::{generate, presets, securibench_cases, Scale};

/// SplitMix64: a tiny seeded generator, so the inputs depend on the
/// seed alone and never on a library's RNG stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One program of an analysis workload, with its independent truth.
pub struct App {
    pub name: String,
    pub source: String,
    pub descriptor: Option<DeploymentDescriptor>,
    pub truth: GroundTruth,
}

/// The nine Figure-4 applications at `Scale::standard()`, exactly as
/// Table 2 generates them, with every declared class renamed token-wise
/// by a seed-derived suffix. Renaming varies the input without changing
/// its shape, so every seed asks for the same amount of work.
pub fn paper_apps(seed: u64) -> Vec<App> {
    let suffix = seed_suffix(seed);
    presets()
        .into_iter()
        .filter(|p| p.in_figure4)
        .map(|preset| {
            let generated = generate(&preset.spec(Scale::standard()));
            let classes = class_names(&generated.source);
            let renamed = |s: &str| rename_classes(s, &classes, &suffix);
            let mut descriptor = generated.descriptor;
            for entry in &mut descriptor.entries {
                entry.jndi_name = renamed(&entry.jndi_name);
                entry.home_interface = renamed(&entry.home_interface);
                entry.bean_class = renamed(&entry.bean_class);
            }
            let mut truth = GroundTruth::default();
            for (class, issue) in &generated.truth.vulnerable {
                truth.add_vulnerable(renamed(class), *issue);
            }
            for (class, issue) in &generated.truth.benign {
                truth.add_benign(renamed(class), *issue);
            }
            for (class, issue) in &generated.truth.cross_thread {
                truth.add_cross_thread(renamed(class), *issue);
            }
            App {
                name: generated.name,
                source: renamed(&generated.source),
                descriptor: Some(descriptor),
                truth,
            }
        })
        .collect()
}

/// A fixed-width class-name suffix derived from the seed.
fn seed_suffix(seed: u64) -> String {
    format!("Z{:03}", seed % 1000)
}

/// Every securibench case joined into one program, replicated `copies`
/// times. Replica 0 keeps the original class names; replica `k` appends
/// a seed-derived suffix to every class name, token-wise, and the
/// securibench labels are replicated the same way.
pub fn large_app(seed: u64, copies: usize) -> App {
    let cases = securibench_cases();
    let mut combined = String::new();
    for case in &cases {
        combined.push_str(&case.source);
        combined.push('\n');
    }
    let classes = class_names(&combined);
    let tag = seed_suffix(seed);
    let mut source = String::new();
    let mut truth = GroundTruth::default();
    for k in 0..copies {
        let suffix = if k == 0 { String::new() } else { format!("Z{tag}r{k}") };
        source.push_str(&rename_classes(&combined, &classes, &suffix));
        let renamed = |class: &str| rename_classes(class, &classes, &suffix);
        for case in &cases {
            for (class, issue) in &case.truth.vulnerable {
                truth.add_vulnerable(renamed(class), *issue);
            }
            for (class, issue) in &case.truth.benign {
                truth.add_benign(renamed(class), *issue);
            }
        }
    }
    App { name: format!("securibench-x{copies}"), source, descriptor: None, truth }
}

/// Appends `suffix` to every identifier token of `source` that names one
/// of `classes` (sorted, as [`class_names`] returns them). Token-wise, so
/// renaming `Basic1` never touches `Basic10`.
pub fn rename_classes(source: &str, classes: &[String], suffix: &str) -> String {
    if suffix.is_empty() {
        return source.to_string();
    }
    let mut out = String::with_capacity(source.len() + source.len() / 8);
    let bytes = source.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            let ident = &source[start..i];
            out.push_str(ident);
            if classes.binary_search_by(|c| c.as_str().cmp(ident)).is_ok() {
                out.push_str(suffix);
            }
        } else {
            // Copy up to the next identifier start; a digit run here is a
            // number literal, never part of a name.
            let start = i;
            i += 1;
            while i < bytes.len() && !(bytes[i].is_ascii_alphabetic() || bytes[i] == b'_') {
                i += 1;
            }
            out.push_str(&source[start..i]);
        }
    }
    out
}

/// Every class name declared in `source` (a line starting with
/// `class Foo`), sorted and deduplicated.
pub fn class_names(source: &str) -> Vec<String> {
    let mut names: Vec<String> = source
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("class "))
        .map(|rest| rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect())
        .filter(|name: &String| !name.is_empty())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// What a serve-mixed request exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An exact repeat of a primed request: a report-tier hit.
    Hit,
    /// A primed program under another report key with the same phase-1
    /// key: a phase-1 hit that runs phase 2 only.
    Variant,
    /// A comment-only edit of a program: a full miss today.
    Comment,
    /// A program with an inert class appended: a full miss that writes
    /// to the cache and the disk store.
    AddClass,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Variant => "variant",
            Kind::Comment => "comment",
            Kind::AddClass => "add-class",
        }
    }
}

/// The config every primed (hot) request uses.
pub const HOT_CONFIG: &str = "Hybrid-Unbounded";

/// Report keys that share the hot config's phase-1 key (no call-graph
/// budget, no priority): `(config, degrade)`.
const VARIANTS: [(&str, bool); 9] = [
    ("CS", false),
    ("CS", true),
    ("CI", false),
    ("CI", true),
    ("CS-Escape", false),
    ("CS-Escape", true),
    ("IFDS", false),
    ("IFDS", true),
    (HOT_CONFIG, true),
];

/// One scheduled serve-mixed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixRequest {
    pub kind: Kind,
    /// Index of the base program in the securibench corpus.
    pub program: usize,
    pub config: &'static str,
    pub degrade: bool,
    /// Edit seed (edits only); unique per request, so every edit is a
    /// distinct program.
    pub edit_seed: u64,
}

/// The seeded request mix: 70% hits, 20% variants, 5% comment edits,
/// 5% add-class edits over `programs` base programs. Variants are drawn
/// without replacement from a seeded shuffle, so each is a fresh report
/// key until the pool runs out.
pub fn request_mix(seed: u64, n: usize, programs: usize) -> Vec<MixRequest> {
    let mut rng = Rng::new(seed ^ 0x5e57_ed00);
    let mut pool: Vec<(usize, &'static str, bool)> =
        (0..programs).flat_map(|p| VARIANTS.iter().map(move |&(c, d)| (p, c, d))).collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    let mut next_variant = 0;
    (0..n)
        .map(|i| {
            let roll = rng.below(100);
            let program = rng.below(programs);
            let edit_seed = (seed << 24) ^ i as u64;
            let plain =
                |kind| MixRequest { kind, program, config: HOT_CONFIG, degrade: false, edit_seed };
            match roll {
                0..=69 => plain(Kind::Hit),
                70..=89 => {
                    let (program, config, degrade) = pool[next_variant % pool.len()];
                    next_variant += 1;
                    MixRequest { kind: Kind::Variant, program, config, degrade, edit_seed }
                }
                90..=94 => plain(Kind::Comment),
                _ => plain(Kind::AddClass),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_is_token_wise() {
        let classes = vec!["Basic1".to_string(), "Basic1Helper".to_string()];
        let src = "class Basic1 { Basic10 a; Basic1Helper b; Basic1 c; x.Basic1; }";
        assert_eq!(
            rename_classes(src, &classes, "Z1r2"),
            "class Basic1Z1r2 { Basic10 a; Basic1HelperZ1r2 b; Basic1Z1r2 c; x.Basic1Z1r2; }"
        );
        // Numbers pass through; names inside string literals are tokens too.
        assert_eq!(
            rename_classes("\"Basic1\" 12 Basic1", &classes, "_k"),
            "\"Basic1_k\" 12 Basic1_k"
        );
        assert_eq!(rename_classes(src, &classes, ""), src);
    }

    #[test]
    fn class_names_are_declared_names() {
        let src = "class B extends A {}\n  class A {}\n// a subclass Cx\nclass B {}";
        assert_eq!(class_names(src), vec!["A", "B"]);
    }

    #[test]
    fn large_app_replicas_are_disjoint() {
        let one = large_app(7, 1);
        let three = large_app(7, 3);
        assert_eq!(three.truth.vulnerable.len(), 3 * one.truth.vulnerable.len());
        assert_eq!(three.truth.benign.len(), 3 * one.truth.benign.len());
        assert_eq!(class_names(&three.source).len(), 3 * class_names(&one.source).len());
        assert_eq!(large_app(7, 3).source, three.source);
        assert_ne!(large_app(8, 3).source, three.source);
    }

    #[test]
    fn request_mix_is_a_function_of_the_seed() {
        let a = request_mix(42, 2000, 40);
        assert_eq!(a, request_mix(42, 2000, 40));
        assert_ne!(a, request_mix(43, 2000, 40));
        let share = |k: Kind| a.iter().filter(|r| r.kind == k).count() as f64 / a.len() as f64;
        assert!((share(Kind::Hit) - 0.70).abs() < 0.04);
        assert!((share(Kind::Variant) - 0.20).abs() < 0.03);
        assert!((share(Kind::Comment) - 0.05).abs() < 0.02);
        assert!((share(Kind::AddClass) - 0.05).abs() < 0.02);
        // Variants never repeat a report key while the pool lasts.
        let variants: Vec<_> = a
            .iter()
            .filter(|r| r.kind == Kind::Variant)
            .take(40 * VARIANTS.len())
            .map(|r| (r.program, r.config, r.degrade))
            .collect();
        let mut distinct = variants.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), variants.len());
    }
}
