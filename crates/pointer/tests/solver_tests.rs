//! Integration tests for the pointer analysis: dispatch, heap flow,
//! contexts, reflection, exceptions, and budgets.

use std::collections::BTreeSet;

use taj_pointer::{analyze, CGNodeId, InstanceKey, PointerKey, PointsTo, SolverConfig};

fn build(src: &str, entry: (&str, &str)) -> (jir::Program, PointsTo) {
    let mut p = jir::frontend::build_program(src).expect("program builds");
    let c = p.class_by_name(entry.0).expect("entry class");
    let m = p.method_by_name(c, entry.1).expect("entry method");
    p.entrypoints.push(m);
    let pts = analyze(&p, &SolverConfig::default());
    (p, pts)
}

/// Instance keys in `set` rendered as class names, for readable asserts.
fn classes_of(p: &jir::Program, pts: &PointsTo, set: &jir::util::BitSet) -> Vec<String> {
    let mut v: Vec<String> = set
        .iter()
        .map(|raw| match pts.instance_key(taj_pointer::InstanceKeyId(raw)) {
            InstanceKey::Alloc { class, .. } => p.class(*class).name.clone(),
            InstanceKey::AllocArray { .. } => "<array>".into(),
            InstanceKey::ClassObj(c) => format!("Class<{}>", p.class(*c).name),
            InstanceKey::MethodObj(_, m) => format!("Method<{}>", p.method(*m).name),
            InstanceKey::MethodArray(_) => "Method[]".into(),
            InstanceKey::Synthetic { class, .. } => format!("Syn<{}>", p.class(*class).name),
        })
        .collect();
    v.sort();
    v
}

/// Looks up the points-to set of a local in some node of `method`,
/// identified by the variable holding the result of the statement matching
/// `pred`.
fn local_pts_where<'a>(
    p: &jir::Program,
    pts: &'a PointsTo,
    class: &str,
    method: &str,
    pick: impl Fn(&jir::Inst) -> Option<jir::Var>,
) -> Option<&'a jir::util::BitSet> {
    let c = p.class_by_name(class)?;
    let m = p.method_by_name(c, method)?;
    let body = p.method(m).body()?;
    let var = body.blocks.iter().flat_map(|b| &b.insts).find_map(&pick)?;
    for node in pts.callgraph.nodes_of_method(m) {
        if let Some(set) = pts.local(node, var) {
            if !set.is_empty() {
                return Some(set);
            }
        }
    }
    None
}

#[test]
fn allocation_flows_to_local() {
    let (p, pts) = build(
        r#"
        class Main {
            static method void main() { Object o = new Object(); }
        }
        "#,
        ("Main", "main"),
    );
    let set = local_pts_where(&p, &pts, "Main", "main", |i| match i {
        jir::Inst::New { dst, .. } => Some(*dst),
        _ => None,
    })
    .expect("allocation recorded");
    assert_eq!(classes_of(&p, &pts, set), vec!["Object"]);
}

#[test]
fn virtual_dispatch_reaches_override() {
    let (p, pts) = build(
        r#"
        class Animal { method Object speak() { return new Object(); } }
        class Dog extends Animal { method Object speak() { return this; } }
        class Main {
            static method void main() {
                Animal a = new Dog();
                Object r = a.speak();
            }
        }
        "#,
        ("Main", "main"),
    );
    let dog = p.class_by_name("Dog").unwrap();
    let speak_dog = p.method_by_name(dog, "speak").unwrap();
    assert!(!pts.callgraph.nodes_of_method(speak_dog).is_empty(), "Dog.speak must be reachable");
    // And Animal.speak must NOT be invoked (receiver is exactly a Dog).
    let animal = p.class_by_name("Animal").unwrap();
    let speak_animal =
        p.class(animal).methods.iter().copied().find(|&m| p.method(m).name == "speak").unwrap();
    assert!(
        pts.callgraph.nodes_of_method(speak_animal).is_empty(),
        "precise dispatch: Animal.speak unreachable"
    );
}

#[test]
fn field_store_load_flow() {
    let (p, pts) = build(
        r#"
        class Box { field Object v; ctor (Object v) { this.v = v; } method Object get() { return this.v; } }
        class Main {
            static method void main() {
                Box b = new Box(new Object());
                Object r = b.get();
            }
        }
        "#,
        ("Main", "main"),
    );
    let set = local_pts_where(&p, &pts, "Main", "main", |i| match i {
        jir::Inst::Call { dst: Some(d), target: jir::CallTarget::Virtual(_), .. } => Some(*d),
        _ => None,
    })
    .expect("get() result has points-to");
    assert_eq!(classes_of(&p, &pts, set), vec!["Object"]);
}

#[test]
fn two_boxes_do_not_merge() {
    // 1-object-sensitivity: each Box constructor clone keeps its own field.
    let (p, pts) = build(
        r#"
        class A { }
        class B { }
        class Box { field Object v; ctor (Object v) { this.v = v; } method Object get() { return this.v; } }
        class Main {
            static method void main() {
                Box b1 = new Box(new A());
                Box b2 = new Box(new B());
                Object r1 = b1.get();
                Object r2 = b2.get();
            }
        }
        "#,
        ("Main", "main"),
    );
    // Find both call results in main.
    let c = p.class_by_name("Main").unwrap();
    let m = p.method_by_name(c, "main").unwrap();
    let body = p.method(m).body().unwrap();
    let results: Vec<jir::Var> = body
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter_map(|i| match i {
            jir::Inst::Call { dst: Some(d), target: jir::CallTarget::Virtual(_), .. } => Some(*d),
            _ => None,
        })
        .collect();
    assert_eq!(results.len(), 2);
    let node = pts.callgraph.nodes_of_method(m)[0];
    let r1 = classes_of(&p, &pts, pts.local(node, results[0]).unwrap());
    let r2 = classes_of(&p, &pts, pts.local(node, results[1]).unwrap());
    assert_eq!(r1, vec!["A"], "b1.get() sees only A");
    assert_eq!(r2, vec!["B"], "b2.get() sees only B");
}

#[test]
fn cast_filters_instances() {
    let (p, pts) = build(
        r#"
        class A { }
        class B { }
        class Main {
            static method void main() {
                Object o = pick();
                A a = (A) o;
            }
            static method Object pick() { return new A(); }
        }
        class Main2 {
            static method Object both() { return new B(); }
        }
        "#,
        ("Main", "main"),
    );
    let set = local_pts_where(&p, &pts, "Main", "main", |i| match i {
        jir::Inst::Assign { dst, filter: Some(jir::Filter::InstanceOf(_)), .. } => Some(*dst),
        _ => None,
    })
    .expect("cast result");
    assert_eq!(classes_of(&p, &pts, set), vec!["A"]);
}

#[test]
fn map_keys_disambiguate() {
    let (p, pts) = build(
        r#"
        class A { }
        class B { }
        class Main {
            static method void main() {
                HashMap m = new HashMap();
                m.put("a", new A());
                m.put("b", new B());
                Object ra = m.get("a");
                Object rb = m.get("b");
            }
        }
        "#,
        ("Main", "main"),
    );
    let c = p.class_by_name("Main").unwrap();
    let m = p.method_by_name(c, "main").unwrap();
    let body = p.method(m).body().unwrap();
    // After expansion, the gets became Select instructions.
    let selects: Vec<jir::Var> = body
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter_map(|i| match i {
            jir::Inst::Select { dst, .. } => Some(*dst),
            _ => None,
        })
        .collect();
    assert_eq!(selects.len(), 2, "two expanded map reads");
    let node = pts.callgraph.nodes_of_method(m)[0];
    let ra = classes_of(&p, &pts, pts.local(node, selects[0]).unwrap());
    let rb = classes_of(&p, &pts, pts.local(node, selects[1]).unwrap());
    assert_eq!(ra, vec!["A"], "get(\"a\") only sees A");
    assert_eq!(rb, vec!["B"], "get(\"b\") only sees B");
}

#[test]
fn reflection_resolves_constant_forname() {
    let (p, pts) = build(
        r#"
        class Target { method Object id(Object x) { return x; } }
        class Main {
            static method void main() {
                Class k = Class.forName("Target");
                Object t = k.newInstance();
            }
        }
        "#,
        ("Main", "main"),
    );
    let set = local_pts_where(&p, &pts, "Main", "main", |i| match i {
        jir::Inst::Call { dst: Some(d), target: jir::CallTarget::Virtual(sel), .. }
            if p.resolve_selector(*sel).name == "newInstance" =>
        {
            Some(*d)
        }
        _ => None,
    })
    .expect("newInstance result");
    assert_eq!(classes_of(&p, &pts, set), vec!["Target"]);
}

#[test]
fn reflective_invoke_dispatches() {
    let (p, pts) = build(
        r#"
        class Target {
            method Object id(Object x) { return x; }
        }
        class Main {
            static method void main() {
                Class k = Class.forName("Target");
                Method m = k.getMethod("id");
                Target t = new Target();
                Object arg = new Object();
                Object r = m.invoke(t, new Object[] { arg });
            }
        }
        "#,
        ("Main", "main"),
    );
    let target = p.class_by_name("Target").unwrap();
    let id = p.method_by_name(target, "id").unwrap();
    assert!(!pts.callgraph.nodes_of_method(id).is_empty(), "id reachable via invoke");
    // The invoke result aliases the argument.
    let set = local_pts_where(&p, &pts, "Main", "main", |i| match i {
        jir::Inst::Call { dst: Some(d), target: jir::CallTarget::Virtual(sel), .. }
            if p.resolve_selector(*sel).name == "invoke" =>
        {
            Some(*d)
        }
        _ => None,
    })
    .expect("invoke result");
    assert_eq!(classes_of(&p, &pts, set), vec!["Object"]);
}

#[test]
fn getmethods_loop_with_narrowing() {
    // The motivating-example pattern: enumerate methods, pick by name.
    let (p, pts) = build(
        r#"
        class Target {
            method Object id(Object x) { return x; }
            method Object other(Object x) { return new Object(); }
        }
        class Main {
            static method void main() {
                Class k = Class.forName("Target");
                Method[] methods = k.getMethods();
                Method idm = null;
                for (int i = 0; i < methods.length; i = i + 1) {
                    Method m = methods[i];
                    if (m.getName().equals("id")) { idm = m; }
                }
                Target t = new Target();
                Object r = idm.invoke(t, new Object[] { new Object() });
            }
        }
        "#,
        ("Main", "main"),
    );
    let target = p.class_by_name("Target").unwrap();
    let id = p.method_by_name(target, "id").unwrap();
    let other = p.method_by_name(target, "other").unwrap();
    assert!(!pts.callgraph.nodes_of_method(id).is_empty(), "id invoked");
    assert!(
        pts.callgraph.nodes_of_method(other).is_empty(),
        "narrowing filter keeps `other` out of the call graph"
    );
}

#[test]
fn exceptions_flow_to_catch() {
    let (p, pts) = build(
        r#"
        class Main {
            static method void main() {
                try { Main.boom(); } catch (Exception e) { Object o = e; }
            }
            static method void boom() { throw new RuntimeException("x"); }
        }
        "#,
        ("Main", "main"),
    );
    let set = local_pts_where(&p, &pts, "Main", "main", |i| match i {
        jir::Inst::CatchBind { dst, .. } => Some(*dst),
        _ => None,
    })
    .expect("caught exception has points-to");
    assert_eq!(classes_of(&p, &pts, set), vec!["RuntimeException"]);
}

#[test]
fn thread_start_reaches_run() {
    let (p, pts) = build(
        r#"
        class Worker implements Runnable {
            ctor () { }
            method void run() { Object o = new Object(); }
        }
        class Main {
            static method void main() {
                Thread t = new Thread(new Worker());
                t.start();
            }
        }
        "#,
        ("Main", "main"),
    );
    let worker = p.class_by_name("Worker").unwrap();
    let run = p.method_by_name(worker, "run").unwrap();
    assert!(
        !pts.callgraph.nodes_of_method(run).is_empty(),
        "Thread.start must reach Worker.run (via Thread.run -> target.run())"
    );
}

#[test]
fn node_budget_underapproximates() {
    let src = r#"
        class Chain {
            static method void main() { Chain.a(); }
            static method void a() { Chain.b(); }
            static method void b() { Chain.c(); }
            static method void c() { Chain.d(); }
            static method void d() { Object o = new Object(); }
        }
    "#;
    let mut p = jir::frontend::build_program(src).unwrap();
    let c = p.class_by_name("Chain").unwrap();
    p.entrypoints.push(p.method_by_name(c, "main").unwrap());
    let full = analyze(&p, &SolverConfig::default());
    let bounded = analyze(&p, &SolverConfig { max_cg_nodes: Some(2), ..Default::default() });
    assert!(full.stats.nodes > bounded.stats.nodes);
    assert!(bounded.budget_exhausted);
    assert!(!full.budget_exhausted);
}

#[test]
fn priority_mode_matches_fifo_when_unbounded() {
    let src = r#"
        class Main {
            static method void main() {
                Box b = new Box(new Object());
                Object r = b.get();
            }
        }
        class Box { field Object v; ctor (Object v) { this.v = v; } method Object get() { return this.v; } }
    "#;
    let mut p = jir::frontend::build_program(src).unwrap();
    let c = p.class_by_name("Main").unwrap();
    p.entrypoints.push(p.method_by_name(c, "main").unwrap());
    let fifo = analyze(&p, &SolverConfig::default());
    let prio = analyze(&p, &SolverConfig { priority: true, ..Default::default() });
    assert_eq!(fifo.stats.nodes, prio.stats.nodes, "order must not change the fixpoint");
    assert_eq!(fifo.stats.pts_entries, prio.stats.pts_entries);
}

#[test]
fn session_attribute_flow_through_request() {
    let (p, pts) = build(
        r#"
        class A { }
        class Main {
            static method void main() {
                HttpServletRequest req = new HttpServletRequest();
                HttpSession s1 = req.getSession();
                HttpSession s2 = req.getSession();
                s1.setAttribute("k", new A());
                Object r = s2.getAttribute("k");
            }
        }
        "#,
        ("Main", "main"),
    );
    let set = local_pts_where(&p, &pts, "Main", "main", |i| match i {
        jir::Inst::Select { dst, .. } => Some(*dst),
        _ => None,
    })
    .expect("attribute read");
    assert_eq!(
        classes_of(&p, &pts, set),
        vec!["A"],
        "both getSession() calls must return the same session object"
    );
}

#[test]
fn every_pointer_key_is_found_by_its_own_lookup() {
    let (p, pts) = build(
        r#"
        class Box { field Object f; }
        class Animal { method Object speak() { return new Object(); } }
        class Dog extends Animal { method Object speak() { return this; } }
        class Target { method Object id(Object x) { return x; } }
        class Main {
            static field Object shared;
            static method void main() {
                Animal a = new Dog();
                Box b = new Box();
                b.f = a.speak();
                Object[] arr = new Object[] { b.f };
                Main.shared = arr[0];
                try { Main.boom(); } catch (Exception e) { Object o = e; }
                Class k = Class.forName("Target");
                Method m = k.getMethod("id");
                Object r = m.invoke(new Target(), new Object[] { Main.shared });
                int untouched = 1;
            }
            static method void boom() { throw new RuntimeException("x"); }
        }
        "#,
        ("Main", "main"),
    );
    let mut kinds = BTreeSet::new();
    let mut registers = BTreeSet::new();
    for (id, key, set) in pts.iter_pointer_keys() {
        let found = |got: Option<&jir::util::BitSet>| got.is_some_and(|s| std::ptr::eq(s, set));
        assert!(found(pts.pts_of(key)), "{id:?} {key:?}: pts_of finds its own set");
        let kind = match *key {
            PointerKey::Local { node, var } => {
                assert!(found(pts.local(node, var)), "{id:?} {key:?}: local agrees");
                registers.insert((node, var));
                "register"
            }
            PointerKey::Ret(_) => "return",
            PointerKey::Exc(_) => "exception",
            PointerKey::Field { ik, field } => {
                assert!(found(pts.field_pts(ik, field)), "{id:?} {key:?}: field_pts agrees");
                "field"
            }
            PointerKey::ArrayElem(ik) => {
                assert!(found(pts.array_pts(ik)), "{id:?} {key:?}: array_pts agrees");
                "array"
            }
            PointerKey::Static(_) => "static",
        };
        kinds.insert(kind);
    }
    assert_eq!(
        kinds,
        ["array", "exception", "field", "register", "return", "static"].into_iter().collect(),
        "the program makes every kind of pointer key"
    );
    assert!(!pts.invoke_bindings.is_empty(), "the reflective invoke is bound");

    // Registers without a key, and registers or nodes that do not exist,
    // have no points-to set.
    let num_vars =
        |node: CGNodeId| p.method(pts.callgraph.method_of(node)).body().map_or(0, |b| b.num_vars);
    let mut untouched = 0;
    for node in pts.callgraph.iter_nodes() {
        for var in (0..num_vars(node)).map(jir::Var) {
            if !registers.contains(&(node, var)) {
                assert_eq!(pts.local(node, var), None, "{node:?} {var:?} was never touched");
                untouched += 1;
            }
        }
        // A register bound off by one or two must not reach the node's
        // return or exception key.
        for var in [num_vars(node), num_vars(node) + 1, u32::MAX].map(jir::Var) {
            assert_eq!(pts.local(node, var), None, "{node:?} {var:?} is past num_vars");
        }
    }
    assert!(untouched > 0, "some register (the int) never gets a key");
    let void_nodes: Vec<CGNodeId> = pts
        .callgraph
        .iter_nodes()
        .filter(|&n| p.method(pts.callgraph.method_of(n)).ret == p.types.void())
        .collect();
    assert!(!void_nodes.is_empty(), "main and boom return nothing");
    for node in void_nodes {
        assert_eq!(pts.pts_of(&PointerKey::Ret(node)), None, "{node:?} returns nothing");
    }
    for node in [CGNodeId::new(pts.callgraph.len()), CGNodeId(u32::MAX)] {
        assert_eq!(pts.local(node, jir::Var(0)), None, "{node:?} is past the call graph");
        assert_eq!(pts.pts_of(&PointerKey::Ret(node)), None);
        assert_eq!(pts.pts_of(&PointerKey::Exc(node)), None);
    }
}
