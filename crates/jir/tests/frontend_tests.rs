//! Frontend integration tests: parser corner cases, lowering shapes, and
//! golden checks against the jweb language reference (docs/jweb.md).

use jir::frontend::{build_program, parse_program};
use jir::inst::{BinOp, Inst, Terminator};

fn body_of<'p>(p: &'p jir::Program, class: &str, method: &str) -> &'p jir::Body {
    let c = p.class_by_name(class).unwrap();
    let m = p.method_by_name(c, method).unwrap();
    p.method(m).body().unwrap()
}

#[test]
fn comments_everywhere() {
    let p = parse_program(
        r#"
        // leading
        class C { /* inline */ method void f() { // trailing
            int x = 1; /* mid */ x = x + 1;
        } }
        "#,
    );
    assert!(p.is_ok(), "{:?}", p.err());
}

#[test]
fn string_escapes_roundtrip() {
    let p = parse_program(r#"class C { method String f() { return "a\"b\\c\nd\te"; } }"#).unwrap();
    let body = body_of(&p, "C", "f");
    let found = body.blocks.iter().flat_map(|b| &b.insts).any(|i| {
        matches!(i, Inst::Const { value: jir::ConstValue::Str(s), .. }
            if s == "a\"b\\c\nd\te")
    });
    assert!(found);
}

#[test]
fn empty_class_and_interface() {
    let p = parse_program("class A { } interface I { }").unwrap();
    assert!(p.class_by_name("A").is_some());
    let i = p.class_by_name("I").unwrap();
    assert!(p.class(i).is_interface);
}

#[test]
fn multiple_constructors_by_arity() {
    let p = parse_program(
        r#"
        class Pair {
            field String a;
            field String b;
            ctor () { }
            ctor (String a) { this.a = a; }
            ctor (String a, String b) { this.a = a; this.b = b; }
        }
        class Use {
            method Pair f() { return new Pair("x", "y"); }
            method Pair g() { return new Pair(); }
        }
        "#,
    );
    assert!(p.is_ok(), "{:?}", p.err());
}

#[test]
fn nested_blocks_scope_variables() {
    // Inner declarations shadow nothing but go out of scope, whether the
    // name is then written or read.
    for (src, want) in [
        (
            "class C {\n  method void f(boolean c) {\n    if (c) { int x = 1; }\n    x = 2;\n  }\n}",
            "error at 4:0: unknown variable `x`",
        ),
        (
            "class C {\n  method int f(boolean c) {\n    while (c) { int n = 1; }\n    return n;\n  }\n}",
            "error at 4:0: unknown variable `n`",
        ),
    ] {
        assert_eq!(parse_program(src).unwrap_err().to_string(), want, "{src}");
    }
}

#[test]
fn while_with_complex_condition() {
    let p = parse_program(
        r#"
        class C {
            method int f(int a, int b) {
                int n = 0;
                while (a > 0 && b > 0 || n == 0) {
                    n = n + 1;
                    a = a - 1;
                    b = b - 1;
                }
                return n;
            }
        }
        "#,
    )
    .unwrap();
    let body = body_of(&p, "C", "f");
    let ops: Vec<BinOp> = body
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter_map(|i| match i {
            Inst::Binary { op, .. } => Some(*op),
            _ => None,
        })
        .collect();
    assert!(ops.contains(&BinOp::And));
    assert!(ops.contains(&BinOp::Or));
    assert!(ops.contains(&BinOp::Gt));
}

#[test]
fn not_operator_lowering() {
    let p = parse_program(r#"class C { method boolean f(boolean b) { return !b; } }"#).unwrap();
    let body = body_of(&p, "C", "f");
    // `!b` lowers to `b == false`.
    let eq_count = body
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, Inst::Binary { op: BinOp::Eq, .. }))
        .count();
    assert_eq!(eq_count, 1);
}

#[test]
fn chained_field_and_array_access() {
    let p = parse_program(
        r#"
        class Inner { field String[] items; ctor () { } }
        class Outer { field Inner inner; ctor () { } }
        class C {
            method String f(Outer o) {
                return o.inner.items[0];
            }
        }
        "#,
    )
    .unwrap();
    let body = body_of(&p, "C", "f");
    let loads = body
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, Inst::Load { .. }))
        .count();
    let aloads = body
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, Inst::ArrayLoad { .. }))
        .count();
    assert_eq!(loads, 2, "o.inner then .items");
    assert_eq!(aloads, 1, "[0]");
}

#[test]
fn return_in_all_branches() {
    let p = parse_program(
        r#"
        class C {
            method int f(boolean c) {
                if (c) { return 1; } else { return 2; }
            }
        }
        "#,
    )
    .unwrap();
    let body = body_of(&p, "C", "f");
    let returns =
        body.blocks.iter().filter(|b| matches!(b.term, Terminator::Return(Some(_)))).count();
    assert_eq!(returns, 2);
}

#[test]
fn void_method_fallthrough_return() {
    let p = parse_program("class C { method void f() { int x = 1; } }").unwrap();
    let body = body_of(&p, "C", "f");
    assert!(matches!(body.blocks[0].term, Terminator::Return(None)));
}

#[test]
fn full_pipeline_builds_ssa() {
    let p = build_program(
        r#"
        class C {
            method int f(int n) {
                int acc = 0;
                while (n > 0) { acc = acc + n; n = n - 1; }
                return acc;
            }
        }
        "#,
    )
    .unwrap();
    let body = body_of(&p, "C", "f");
    assert!(body.is_ssa);
    let phis =
        body.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Phi { .. })).count();
    assert!(phis >= 2, "acc and n need φs at the loop header, got {phis}");
}

#[test]
fn pretty_printer_covers_all_instructions() {
    let p = build_program(
        r#"
        class Box { field Object v; ctor (Object v) { this.v = v; } }
        class C extends HttpServlet {
            static field String tag;
            method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                String s = req.getParameter("q");
                C.tag = s;
                String t = C.tag;
                Box b = new Box(s);
                Object o = b.v;
                Object[] arr = new Object[] { o };
                Object first = arr[0];
                HashMap m = new HashMap();
                m.put("k", first);
                Object got = m.get("k");
                try { this.boom(); } catch (Exception e) { resp.getWriter().println(e); }
                resp.getWriter().println(s + "!");
            }
            method void boom() { throw new RuntimeException("x"); }
        }
        "#,
    )
    .unwrap();
    let c = p.class_by_name("C").unwrap();
    let m = p.method_by_name(c, "doGet").unwrap();
    let text = jir::pretty::method_to_string(&p, m);
    for needle in ["= const", "new Box", "select(", "catch", "C.tag", "[*]"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

/// The exact text of every frontend error that names an identifier or a
/// token, position included. The daemon sends this text to clients as
/// `parse_error`, so a change to lexing, parsing or lowering must keep it.
#[test]
fn error_text_is_pinned() {
    let rows: &[(&str, &str)] = &[
        // Lexer.
        ("class C { # }", "error at 1:11: unexpected character `#`"),
        ("class C {\n  method void f() {\n    int x = 1 @ 2;\n  }\n}", "error at 3:15: unexpected character `@`"),
        ("class C { } é", "error at 1:13: unexpected character `é`"),
        // Parser.
        ("klass C { }", "error at 1:7: expected `class`/`interface`, found identifier `klass`"),
        ("class C x { }", "error at 1:9: expected `LBrace`, found identifier `x`"),
        ("class C { foo }", "error at 1:11: expected `field`, `method` or `ctor`, found identifier `foo`"),
        ("class C { method void f() { return x y; } }", "error at 1:38: expected `Semi`, found identifier `y`"),
        ("class C {\n  field String $s\n}", "error at 3:1: expected `Semi`, found `RBrace`"),
        ("class { }", "error at 1:7: expected identifier, found `LBrace`"),
        ("class C { method void f() { int x = ; } }", "error at 1:0: expected expression, found `Semi`"),
        ("class C { method void f( { } }", "error at 1:28: expected type, found `LBrace`"),
        ("class C { method void f() { Object o = new int(1); } }", "error at 1:47: cannot construct non-class type Int"),
        (
            "class C { method void f() { g() = 1; } }",
            "error at 1:36: invalid assignment target: Call { base: None, name: \"g\", args: [], line: 1 }",
        ),
        (
            "class C { method void f() { new C().g + x[1] = 2; } }",
            "error at 1:49: invalid assignment target: Binary { op: Plus, lhs: Field { base: New { \
             class: \"C\", args: [], line: 1 }, name: \"g\", line: 1 }, rhs: Index { base: \
             Var(\"x\", 1), index: Int(1) } }",
        ),
        (
            "class C { method void f() { (Foo) new Bar[] { s, !t } = 1; } }",
            "error at 1:58: invalid assignment target: Cast { ty: Named(\"Foo\"), expr: NewArray { \
             elem: Named(\"Bar\"), init: [Var(\"s\", 1), Not(Var(\"t\", 1))], line: 1 }, line: 1 }",
        ),
        (
            "class C { method void f() { a.m(b, (int[]) c) = 1; } }",
            "error at 1:50: invalid assignment target: Call { base: Some(Var(\"a\", 1)), name: \"m\", \
             args: [Var(\"b\", 1), Cast { ty: Array(Int), expr: Var(\"c\", 1), line: 1 }], line: 1 }",
        ),
        // Lowering.
        ("class C extends Missing { }", "error at 1:0: unknown class `Missing`"),
        ("class C implements Nope { }", "error at 1:0: unknown class `Nope`"),
        ("class C {\n  field Gone g;\n}", "error at 1:0: unknown class `Gone`"),
        ("class C {\n  method void f() {\n    Nope n = null;\n  }\n}", "error at 3:0: unknown class `Nope`"),
        ("class C { method void f() { Object o = new Nope(); } }", "error at 1:0: unknown class `Nope`"),
        ("class C { method void f() { Object o = (Nope) null; } }", "error at 1:0: unknown class `Nope`"),
        ("class C { method void f() { try { } catch (Oops e) { } } }", "error: unknown class `Oops`"),
        ("class C {\n  method void f() {\n    x = 2;\n  }\n}", "error at 3:0: unknown variable `x`"),
        ("class C { method void f() { x = 2; } }", "error at 1:0: unknown variable `x`"),
        ("class C { method int f() { return y; } }", "error at 1:0: unknown variable `y`"),
        ("class C { method void f() { C c = null; c.g = 1; } }", "error at 1:0: no field `g` on `C`"),
        ("class C { method void f() { int y = C.nope; } }", "error at 1:0: no field `nope` on `C`"),
        ("class U { } class C { method void f() { U.m(); } }", "error at 1:0: no static method `U.m/0`"),
        ("class B { } class C { method void f() { B b = new B(1); } }", "error at 1:0: no 1-ary constructor on `B`"),
        ("class C { method void f(int x) { int y = x.f; } }", "error at 1:0: field access `f` on non-class type Int"),
        ("class C { method void f(String s) { s.f = 1; } }", "error at 1:0: field access `f` on non-class type Str"),
        ("class U { method void m() { } } class C { method void f() { U.m(); } }", "error at 1:0: `m` is not static"),
        (
            "class C { static method void f() { g(); } method void g() { } }",
            "error at 1:0: unqualified call `g` in static method",
        ),
        ("class C { static method void f() { Object o = this; } }", "error at 1:0: `this` in static method"),
        ("class A { } class A { }", "error: class `A` already defined"),
        ("class HashMap { }", "error: class `HashMap` already defined"),
    ];
    for (src, want) in rows {
        let err = parse_program(src).expect_err(src);
        assert_eq!(err.to_string(), *want, "source {src:?}");
    }
}

/// The tree each binary operator builds: one row per precedence level and
/// both associativity cases, read back from the invalid-assignment error,
/// which prints the whole expression. Then the errors of an operand that
/// is missing or unclosed inside an operator chain.
#[test]
fn binary_operators_keep_precedence_and_left_associativity() {
    let trees: &[(&str, &str)] = &[
        (
            "a - b - c",
            "error at 1:44: invalid assignment target: Binary { op: Minus, lhs: Binary { op: Minus, \
             lhs: Var(\"a\", 1), rhs: Var(\"b\", 1) }, rhs: Var(\"c\", 1) }",
        ),
        (
            "a + b * c - d",
            "error at 1:48: invalid assignment target: Binary { op: Minus, lhs: Binary { op: Plus, \
             lhs: Var(\"a\", 1), rhs: Binary { op: Star, lhs: Var(\"b\", 1), rhs: Var(\"c\", 1) } }, \
             rhs: Var(\"d\", 1) }",
        ),
        (
            "a || b && c || d",
            "error at 1:51: invalid assignment target: Binary { op: OrOr, lhs: Binary { op: OrOr, \
             lhs: Var(\"a\", 1), rhs: Binary { op: AndAnd, lhs: Var(\"b\", 1), rhs: Var(\"c\", 1) } }, \
             rhs: Var(\"d\", 1) }",
        ),
        (
            "a == b != c",
            "error at 1:46: invalid assignment target: Binary { op: NotEq, lhs: Binary { op: EqEq, \
             lhs: Var(\"a\", 1), rhs: Var(\"b\", 1) }, rhs: Var(\"c\", 1) }",
        ),
        (
            "a + b < c * d && e || f",
            "error at 1:58: invalid assignment target: Binary { op: OrOr, lhs: Binary { op: AndAnd, \
             lhs: Binary { op: Lt, lhs: Binary { op: Plus, lhs: Var(\"a\", 1), rhs: Var(\"b\", 1) }, \
             rhs: Binary { op: Star, lhs: Var(\"c\", 1), rhs: Var(\"d\", 1) } }, rhs: Var(\"e\", 1) }, \
             rhs: Var(\"f\", 1) }",
        ),
        (
            "!a == b",
            "error at 1:42: invalid assignment target: Binary { op: EqEq, lhs: Not(Var(\"a\", 1)), \
             rhs: Var(\"b\", 1) }",
        ),
        (
            "(T) a + b",
            "error at 1:44: invalid assignment target: Binary { op: Plus, lhs: Cast { ty: \
             Named(\"T\"), expr: Var(\"a\", 1), line: 1 }, rhs: Var(\"b\", 1) }",
        ),
        (
            "x.f(a + b) * y[i - 1]",
            "error at 1:56: invalid assignment target: Binary { op: Star, lhs: Call { base: \
             Some(Var(\"x\", 1)), name: \"f\", args: [Binary { op: Plus, lhs: Var(\"a\", 1), rhs: \
             Var(\"b\", 1) }], line: 1 }, rhs: Index { base: Var(\"y\", 1), index: Binary { op: \
             Minus, lhs: Var(\"i\", 1), rhs: Int(1) } } }",
        ),
    ];
    for (expr, want) in trees {
        let src = format!("class C {{ method void f() {{ ({expr}) = 1; }} }}");
        let err = parse_program(&src).expect_err(&src);
        assert_eq!(err.to_string(), *want, "expression {expr:?}");
    }
    let errors: &[(&str, &str)] = &[
        ("int x = a + ;", "error at 1:0: expected expression, found `Semi`"),
        ("int x = a * (b + c;", "error at 1:47: expected `RParen`, found `Semi`"),
    ];
    for (stmt, want) in errors {
        let src = format!("class C {{ method void f() {{ {stmt} }} }}");
        let err = parse_program(&src).expect_err(&src);
        assert_eq!(err.to_string(), *want, "statement {stmt:?}");
    }
}

/// The source register of the `Assign` that defines `dst`.
fn assigned_from(body: &jir::Body, dst: jir::Var) -> Option<jir::Var> {
    body.blocks.iter().flat_map(|b| &b.insts).find_map(|i| match i {
        Inst::Assign { dst: d, src, .. } if *d == dst => Some(*src),
        _ => None,
    })
}

/// The first argument of every call in `body`, in block order.
fn first_args(body: &jir::Body) -> Vec<jir::Var> {
    body.blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter_map(|i| match i {
            Inst::Call { args, .. } => args.first().copied(),
            _ => None,
        })
        .collect()
}

fn returned(body: &jir::Body) -> jir::Var {
    body.blocks
        .iter()
        .find_map(|b| match b.term {
            Terminator::Return(Some(v)) => Some(v),
            _ => None,
        })
        .expect("a value is returned")
}

#[test]
fn inner_local_shadows_outer_until_its_block_ends() {
    // Registers: this = v0, a = v1, b = v2, c = v3.
    let p = parse_program(
        r#"
        class C {
            method String f(String a, String b, boolean c) {
                String x = a;
                if (c) { String x = b; this.g(x); }
                this.g(x);
                return x;
            }
            method void g(String s) { }
        }
        "#,
    )
    .unwrap();
    let body = body_of(&p, "C", "f");
    let args = first_args(body);
    assert_eq!(args.len(), 2);
    assert_eq!(assigned_from(body, args[0]), Some(jir::Var(2)), "inner `x` is `b`");
    assert_eq!(assigned_from(body, args[1]), Some(jir::Var(1)), "outer `x` is `a` again");
    assert_eq!(assigned_from(body, returned(body)), Some(jir::Var(1)));
}

#[test]
fn catch_binder_shadows_a_local_only_in_its_handler() {
    let p = parse_program(
        r#"
        class C {
            method void f(String e) {
                try { this.h(); } catch (Exception e) { this.g(e); }
                this.g(e);
            }
            method void h() { }
            method void g(Object o) { }
        }
        "#,
    )
    .unwrap();
    let body = body_of(&p, "C", "f");
    let bound = body
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .find_map(|i| match i {
            Inst::CatchBind { dst, .. } => Some(*dst),
            _ => None,
        })
        .unwrap();
    // The handler block follows the protected region's blocks, so the
    // calls' first arguments in block order are: none for `h`, the binder
    // in the handler, then the parameter after the `try`.
    let mut args = first_args(body);
    args.sort();
    assert_eq!(args, vec![jir::Var(1), bound]);
}

#[test]
fn local_named_like_a_class_is_a_receiver_not_a_class() {
    let p = parse_program(
        r#"
        class Box {
            field String v;
            static field String v2;
            method String get() { return this.v; }
        }
        class C {
            method String f(Box b, String s) {
                Box Box = b;
                Box.v = s;
                String t = Box.v;
                return Box.get();
            }
        }
        "#,
    )
    .unwrap();
    let body = body_of(&p, "C", "f");
    let insts: Vec<&Inst> = body.blocks.iter().flat_map(|b| &b.insts).collect();
    assert!(insts.iter().any(|i| matches!(i, Inst::Store { .. })), "instance store");
    assert!(insts.iter().any(|i| matches!(i, Inst::Load { .. })), "instance load");
    assert!(
        !insts.iter().any(|i| matches!(i, Inst::StaticStore { .. } | Inst::StaticLoad { .. })),
        "no static access through the local"
    );
    assert!(insts.iter().any(|i| matches!(
        i,
        Inst::Call { target: jir::CallTarget::Virtual(_), recv: Some(_), .. }
    )));
}

#[test]
fn names_do_not_leak_into_the_next_method() {
    for src in [
        "class C { method void f(String leak) { } method void g() { this.h(leak); } \
         method void h(String s) { } }",
        "class C { method void f() { String leak = \"x\"; } method void g() { this.h(leak); } \
         method void h(String s) { } }",
    ] {
        let err = parse_program(src).unwrap_err();
        assert_eq!(err.to_string(), "error at 1:0: unknown variable `leak`", "{src}");
    }
}

#[test]
fn length_reads_a_field_unless_the_base_is_an_array() {
    let p = parse_program(
        r#"
        class Cfg { static field int length; }
        class R { field int length; ctor () { } }
        class C {
            method R mk() { return new R(); }
            method int st() { return Cfg.length; }
            method int inst() { return this.mk().length; }
            method int arr(String[] a) { return a.length; }
        }
        "#,
    )
    .unwrap();
    let insts = |m| -> Vec<Inst> {
        body_of(&p, "C", m).blocks.iter().flat_map(|b| b.insts.clone()).collect()
    };
    assert!(insts("st").iter().any(|i| matches!(i, Inst::StaticLoad { .. })), "static field");
    let inst = insts("inst");
    assert_eq!(inst.iter().filter(|i| i.is_call()).count(), 1, "`mk` is called once");
    assert!(inst.iter().any(|i| matches!(i, Inst::Load { .. })), "instance field");
    let arr = insts("arr");
    assert!(
        matches!(arr.as_slice(), [Inst::Const { value: jir::ConstValue::Int(0), .. }]),
        "an array's length is an opaque int: {arr:?}"
    );
}

#[test]
fn calls_resolve_by_name_and_arity() {
    let p = parse_program(
        r#"
        class A { method int m(String a, String b) { return 1; } }
        class U {
            static method String m(String a) { return a; }
            static method String m(String a, String b) { return b; }
            static method String un(String s) { return m(s, s); }
        }
        class V {
            method int m(String a) { return 1; }
            method String m(String a, String b) { return b; }
        }
        class C {
            method String st(String s) { return U.m(s, s); }
            method String virt(V v, String s) { return v.m(s, s) + 1; }
        }
        "#,
    )
    .unwrap();
    let u = p.class_by_name("U").unwrap();
    let two = p.class(u).methods.iter().copied().find(|&m| p.method(m).params.len() == 2).unwrap();
    for (class, method) in [("C", "st"), ("U", "un")] {
        let body = body_of(&p, class, method);
        let target = body.blocks.iter().flat_map(|b| &b.insts).find_map(|i| match i {
            Inst::Call { target: jir::CallTarget::Static(m), .. } => Some(*m),
            _ => None,
        });
        assert_eq!(target, Some(two), "{class}.{method} calls `U.m/2`");
    }
    // `V.m/2` returns a String, so `+ 1` concatenates.
    let body = body_of(&p, "C", "virt");
    assert!(body
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .any(|i| matches!(i, Inst::Binary { op: BinOp::Concat, .. })));
}
