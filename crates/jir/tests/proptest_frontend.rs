//! Frontend fuzzing: the lexer and parser must never panic, whatever the
//! input; valid programs must survive the full pipeline with valid IR.

use proptest::prelude::*;

/// The input `parser_never_panics` once shrank to, replayed on every run:
/// one three-byte UTF-8 character.
#[test]
fn recorded_multibyte_character_case() {
    let _ = jir::parser::parse("\u{800}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: lexing/parsing may fail, but never panic.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = jir::parser::parse(&input);
    }

    /// Token soup built from language fragments: same requirement, but the
    /// inputs get much deeper into the parser.
    #[test]
    fn parser_survives_token_soup(
        pieces in proptest::collection::vec(
            prop_oneof![
                Just("class"), Just("interface"), Just("method"), Just("field"),
                Just("ctor"), Just("static"), Just("if"), Just("else"),
                Just("while"), Just("for"), Just("return"), Just("throw"),
                Just("try"), Just("catch"), Just("new"), Just("this"),
                Just("X"), Just("y"), Just("String"), Just("int"),
                Just("("), Just(")"), Just("{"), Just("}"), Just("["), Just("]"),
                Just(";"), Just(","), Just("."), Just("="), Just("=="),
                Just("+"), Just("\"s\""), Just("42"), Just("null"),
            ],
            0..60,
        )
    ) {
        let input = pieces.join(" ");
        let _ = jir::parser::parse(&input);
    }

    /// Structured random programs: always parse, lower, expand, and convert
    /// to valid SSA.
    #[test]
    fn generated_programs_build_valid_ir(
        nclasses in 1usize..4,
        nmethods in 1usize..4,
        use_loop in any::<bool>(),
        use_try in any::<bool>(),
    ) {
        let mut src = String::new();
        for c in 0..nclasses {
            src.push_str(&format!("class C{c} {{\n"));
            src.push_str("    field String data;\n    ctor () { }\n");
            for m in 0..nmethods {
                src.push_str(&format!("    method String m{m}(String s, int n) {{\n"));
                if use_loop {
                    src.push_str(
                        "        while (n > 0) { s = s + \"x\"; n = n - 1; }\n",
                    );
                }
                if use_try {
                    src.push_str(
                        "        try { this.data = s; } catch (Exception e) { s = \"err\"; }\n",
                    );
                }
                if m + 1 < nmethods {
                    src.push_str(&format!("        return this.m{}(s, n);\n", m + 1));
                } else {
                    src.push_str("        return s;\n");
                }
                src.push_str("    }\n");
            }
            src.push_str("}\n");
        }
        let program = jir::frontend::build_program(&src)
            .unwrap_or_else(|e| panic!("generated program must build: {e}\n{src}"));
        let errors = jir::validate::validate(&program);
        prop_assert!(errors.is_empty(), "invalid IR: {errors:?}");
    }
}
