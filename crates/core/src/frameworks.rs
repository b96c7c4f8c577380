//! Web-framework modeling (§4.2.2): entrypoint synthesis for servlets,
//! Struts actions (tainted `ActionForm` population guided by cast
//! constraints), and EJB remote-call modeling driven by a deployment
//! descriptor.

use jir::class::Class;
use jir::inst::{CallTarget, Inst, Terminator, Var};
use jir::method::{BasicBlock, Body, Method, MethodKind};
use jir::{ClassId, Filter, MethodId, Program, TypeId};

/// Name of the synthetic class holding synthesized entrypoints.
pub const ENTRY_CLASS: &str = "$Entrypoints";

/// An EJB deployment descriptor: what the paper reads from `ejb-jar.xml`
/// to bypass the container (§4.2.2).
#[derive(Clone, Debug, Default)]
pub struct DeploymentDescriptor {
    /// One entry per deployed bean.
    pub entries: Vec<EjbEntry>,
}

/// One deployed enterprise bean.
#[derive(Clone, Debug)]
pub struct EjbEntry {
    /// JNDI name used in `InitialContext.lookup`.
    pub jndi_name: String,
    /// The home interface (declares `create`).
    pub home_interface: String,
    /// The bean implementation class.
    pub bean_class: String,
}

/// Small helper for building synthetic method bodies.
struct BodyBuilder {
    body: Body,
}

impl BodyBuilder {
    fn new() -> Self {
        let mut body = Body::default();
        body.blocks.push(BasicBlock::default());
        BodyBuilder { body }
    }

    fn fresh(&mut self, p: &mut Program, ty: TypeId) -> Var {
        let v = self.body.fresh_var();
        self.body.var_types.push(ty);
        let _ = p;
        v
    }

    fn emit(&mut self, inst: Inst) {
        self.body.blocks[0].insts.push(inst);
    }

    /// `v = new C; C.<init>()` (0-ary constructor when present).
    fn new_object(&mut self, p: &mut Program, class: ClassId) -> Var {
        let ty = p.types.class(class);
        let v = self.fresh(p, ty);
        self.emit(Inst::New { dst: v, class });
        if let Some(init) = find_ctor(p, class, 0) {
            self.emit(Inst::Call {
                dst: None,
                target: CallTarget::Special(init),
                recv: Some(v),
                args: vec![],
            });
        }
        v
    }

    fn finish(mut self) -> Body {
        self.body.blocks[0].term = Terminator::Return(None);
        self.body
    }
}

fn find_ctor(p: &Program, class: ClassId, arity: usize) -> Option<MethodId> {
    let mut cur = Some(class);
    while let Some(c) = cur {
        if let Some(m) = p.class(c).methods.iter().copied().find(|&m| {
            let meth = p.method(m);
            meth.name == "<init>" && meth.params.len() == arity
        }) {
            return Some(m);
        }
        cur = p.class(c).superclass;
    }
    None
}

/// Ensures the synthetic entrypoint class exists and returns it.
fn entry_class(p: &mut Program) -> ClassId {
    if let Some(c) = p.class_by_name(ENTRY_CLASS) {
        return c;
    }
    let mut class = Class::new(ENTRY_CLASS);
    class.superclass = p.class_by_name("Object");
    p.add_class(class)
}

fn add_entry_method(p: &mut Program, name: String, body: Body) -> MethodId {
    let owner = entry_class(p);
    let void = p.types.void();
    let mid = p.add_method(Method {
        name,
        owner,
        params: vec![],
        ret: void,
        is_static: true,
        kind: MethodKind::Body(body),
        is_factory: false,
    });
    p.entrypoints.push(mid);
    mid
}

/// Synthesizes all entrypoints: `main` methods, servlet lifecycles, and
/// Struts actions. Returns the number of entrypoints created.
///
/// Entrypoints are application code, so only the program's own classes
/// and methods are visited, never the shared model library's.
pub fn synthesize_entrypoints(p: &mut Program) -> usize {
    let before = p.entrypoints.len();
    collect_main_entrypoints(p);
    synthesize_servlet_entrypoints(p);
    synthesize_struts_entrypoints(p);
    p.entrypoints.len() - before
}

fn collect_main_entrypoints(p: &mut Program) {
    let mains: Vec<MethodId> = p
        .own_method_ids()
        .filter(|&id| {
            let m = p.method(id);
            m.is_static
                && m.name == "main"
                && m.params.is_empty()
                && m.body().is_some()
                && !p.class(m.owner).is_library
        })
        .collect();
    for m in mains {
        if !p.entrypoints.contains(&m) {
            p.entrypoints.push(m);
        }
    }
}

/// For each concrete application subclass of `HttpServlet`, synthesize
/// `$entry$<C>()` driving `doGet` and `doPost` with fresh request/response
/// objects (whose constructors wire up the session).
fn synthesize_servlet_entrypoints(p: &mut Program) {
    let Some(servlet) = p.class_by_name("HttpServlet") else { return };
    let Some(req_c) = p.class_by_name("HttpServletRequest") else { return };
    let Some(resp_c) = p.class_by_name("HttpServletResponse") else { return };
    let subclasses: Vec<ClassId> = p
        .own_class_ids()
        .filter(|&id| {
            let c = p.class(id);
            !c.is_library && !c.is_interface && id != servlet && p.is_subtype(id, servlet)
        })
        .collect();
    for sc in subclasses {
        let mut b = BodyBuilder::new();
        let servlet_obj = b.new_object(p, sc);
        let req = b.new_object(p, req_c);
        let resp = b.new_object(p, resp_c);
        for lifecycle in ["doGet", "doPost"] {
            if let Some(m) = p.method_by_name(sc, lifecycle) {
                if p.method(m).body().is_some() && !p.class(p.method(m).owner).is_library {
                    let sel = p.selector(lifecycle, 2);
                    b.emit(Inst::Call {
                        dst: None,
                        target: CallTarget::Virtual(sel),
                        recv: Some(servlet_obj),
                        args: vec![req, resp],
                    });
                }
            }
        }
        let name = format!("$entry${}", p.class(sc).name);
        add_entry_method(p, name, b.finish());
    }
}

/// For each concrete application subclass of `Action`, synthesize an
/// entrypoint that populates compatible `ActionForm` subtypes with tainted
/// values (recursively, as fields may be of compound types — §4.2.2) and
/// invokes `execute`.
fn synthesize_struts_entrypoints(p: &mut Program) {
    let Some(action) = p.class_by_name("Action") else { return };
    let Some(form_base) = p.class_by_name("ActionForm") else { return };
    let Some(mapping_c) = p.class_by_name("ActionMapping") else { return };
    let Some(req_c) = p.class_by_name("HttpServletRequest") else { return };
    let Some(resp_c) = p.class_by_name("HttpServletResponse") else { return };
    let Some(struts) = p.class_by_name("Struts") else { return };
    let Some(tainted_input) = p.method_by_name(struts, "taintedInput") else { return };

    let actions: Vec<ClassId> = p
        .own_class_ids()
        .filter(|&id| {
            let c = p.class(id);
            !c.is_library && !c.is_interface && id != action && p.is_subtype(id, action)
        })
        .collect();
    for ac in actions {
        let Some(execute) = p.method_by_name(ac, "execute") else { continue };
        if p.class(p.method(execute).owner).is_library {
            continue; // no override: nothing interesting to drive
        }
        // Which ActionForm subtypes does execute cast its form to?
        let cast_targets = cast_constraints(p, execute, form_base);
        let forms: Vec<ClassId> = if cast_targets.is_empty() {
            p.own_class_ids()
                .filter(|&id| {
                    let c = p.class(id);
                    !c.is_interface && !c.is_library && p.is_subtype(id, form_base)
                })
                .collect()
        } else {
            cast_targets
        };

        let mut b = BodyBuilder::new();
        let a = b.new_object(p, ac);
        let mapping = b.new_object(p, mapping_c);
        let req = b.new_object(p, req_c);
        let resp = b.new_object(p, resp_c);
        for form_class in forms {
            let f = b.new_object(p, form_class);
            populate_tainted(p, &mut b, f, form_class, tainted_input, 0);
            let sel = p.selector("execute", 4);
            b.emit(Inst::Call {
                dst: None,
                target: CallTarget::Virtual(sel),
                recv: Some(a),
                args: vec![mapping, f, req, resp],
            });
        }
        let name = format!("$entry${}", p.class(ac).name);
        add_entry_method(p, name, b.finish());
    }
}

/// Finds `InstanceOf` cast filters inside `method` whose target is a
/// subtype of `bound` — the constraint-driven form-subtype selection.
fn cast_constraints(p: &Program, method: MethodId, bound: ClassId) -> Vec<ClassId> {
    let mut out = Vec::new();
    let Some(body) = p.method(method).body() else { return out };
    for block in &body.blocks {
        for inst in &block.insts {
            if let Inst::Assign { filter: Some(Filter::InstanceOf(c)), .. } = inst {
                if p.is_subtype(*c, bound) && !p.class(*c).is_interface && !out.contains(c) {
                    out.push(*c);
                }
            }
        }
    }
    out
}

/// Recursively assigns tainted values to every field of `obj` (the
/// "synthetic constructor which assigns tainted values to all its fields…
/// done recursively, as fields may be of compound types").
fn populate_tainted(
    p: &mut Program,
    b: &mut BodyBuilder,
    obj: Var,
    class: ClassId,
    tainted_input: MethodId,
    depth: usize,
) {
    if depth > 2 {
        return;
    }
    let str_ty = p.types.string();
    // Collect the whole field set up the superclass chain.
    let mut fields = Vec::new();
    let mut cur = Some(class);
    while let Some(c) = cur {
        fields.extend(p.class(c).fields.iter().copied());
        cur = p.class(c).superclass;
    }
    for field in fields {
        let fdecl = p.field(field);
        if fdecl.is_static {
            continue;
        }
        let fty = fdecl.ty;
        if fty == str_ty {
            let t = b.fresh(p, str_ty);
            b.emit(Inst::Call {
                dst: Some(t),
                target: CallTarget::Static(tainted_input),
                recv: None,
                args: vec![],
            });
            b.emit(Inst::Store { base: obj, field, src: t });
        } else if let jir::Type::Class(c2) = p.types.resolve(fty) {
            let c2_decl = p.class(c2);
            if !c2_decl.is_interface && !c2_decl.is_library {
                let inner = b.new_object(p, c2);
                populate_tainted(p, b, inner, c2, tainted_input, depth + 1);
                b.emit(Inst::Store { base: obj, field, src: inner });
            }
        }
    }
}

/// Applies EJB modeling (§4.2.2): synthesizes a container-bypassing home
/// class per descriptor entry and rewrites matching `lookup` calls into
/// allocations of it. Returns the number of rewritten lookup sites.
pub fn apply_ejb_descriptor(p: &mut Program, descriptor: &DeploymentDescriptor) -> usize {
    let mut rewritten = 0;
    for entry in &descriptor.entries {
        let Some(home_iface) = p.class_by_name(&entry.home_interface) else { continue };
        let Some(bean) = p.class_by_name(&entry.bean_class) else { continue };
        // Synthetic home implementation.
        let home_name = format!("$EJBHome${}", entry.bean_class);
        let home_class = match p.class_by_name(&home_name) {
            Some(c) => c,
            None => {
                let mut class = Class::new(home_name.clone());
                class.superclass = p.class_by_name("Object");
                class.interfaces.push(home_iface);
                class.is_library = true; // container glue
                let cid = p.add_class(class);
                // method create() { b = new Bean; <init>; return b; }
                let bean_ty = p.types.class(bean);
                let mut body = Body::default();
                body.blocks.push(BasicBlock::default());
                let this_v = body.fresh_var();
                body.var_types.push(p.types.class(cid));
                debug_assert_eq!(this_v, Var(0));
                let bv = body.fresh_var();
                body.var_types.push(bean_ty);
                body.blocks[0].insts.push(Inst::New { dst: bv, class: bean });
                if let Some(init) = find_ctor(p, bean, 0) {
                    body.blocks[0].insts.push(Inst::Call {
                        dst: None,
                        target: CallTarget::Special(init),
                        recv: Some(bv),
                        args: vec![],
                    });
                }
                body.blocks[0].term = Terminator::Return(Some(bv));
                p.add_method(Method {
                    name: "create".into(),
                    owner: cid,
                    params: vec![],
                    ret: bean_ty,
                    is_static: false,
                    kind: MethodKind::Body(body),
                    is_factory: false,
                });
                cid
            }
        };
        // Rewrite `lookup("<jndi>")` calls (resolved by receiver static
        // type) into `new $EJBHome$Bean`.
        rewritten += rewrite_lookups(p, &entry.jndi_name, home_class);
    }
    rewritten
}

fn rewrite_lookups(p: &mut Program, jndi: &str, home_class: ClassId) -> usize {
    let Some(ic) = p.class_by_name("InitialContext") else { return 0 };
    let Some(lookup) = p.method_by_name(ic, "lookup") else { return 0 };
    let mut count = 0;
    // The shared library's bodies call no `lookup`.
    for mid in p.own_method_ids() {
        let Some(body) = p.method_mut(mid).body_mut() else { continue };
        let mut body = std::mem::take(body);
        let dm_keys: Vec<(usize, usize, Var)> = {
            // Built on the body's first `lookup` call: most bodies have none.
            let mut dm: Option<jir::constprop::DefMap<'_>> = None;
            let mut hits = Vec::new();
            for (bi, block) in body.blocks.iter().enumerate() {
                for (ii, inst) in block.insts.iter().enumerate() {
                    if let Inst::Call { dst: Some(d), target, recv: Some(r), args } = inst {
                        let is_lookup = match target {
                            CallTarget::Virtual(sel) => {
                                let s = p.resolve_selector(*sel);
                                s.name == "lookup"
                                    && s.arity == 1
                                    && body
                                        .var_types
                                        .get(r.index())
                                        .and_then(|t| p.types.resolve(*t).as_class())
                                        .map(|c| p.resolve_virtual(c, *sel) == Some(lookup))
                                        .unwrap_or(false)
                            }
                            CallTarget::Special(m) | CallTarget::Static(m) => *m == lookup,
                        };
                        if is_lookup {
                            let dm = dm.get_or_insert_with(|| jir::constprop::DefMap::build(&body));
                            if let Some(&arg) = args.first() {
                                if dm.constant_string(arg) == Some(jndi) {
                                    hits.push((bi, ii, *d));
                                }
                            }
                        }
                    }
                }
            }
            hits
        };
        for (bi, ii, d) in dm_keys {
            body.blocks[bi].insts[ii] = Inst::New { dst: d, class: home_class };
            count += 1;
        }
        *p.method_mut(mid).body_mut().expect("has body") = body;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn servlet_entrypoint_synthesized() {
        let mut p = jir::frontend::parse_program(
            r#"
            class MyServlet extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) { }
            }
            "#,
        )
        .unwrap();
        let n = synthesize_entrypoints(&mut p);
        assert_eq!(n, 1);
        let entry = p.entrypoints[0];
        assert_eq!(p.method(entry).name, "$entry$MyServlet");
        let body = p.method(entry).body().unwrap();
        let calls = body.blocks[0].insts.iter().filter(|i| i.is_call()).count();
        assert!(calls >= 1, "drives doGet");
    }

    #[test]
    fn main_method_is_entrypoint() {
        let mut p =
            jir::frontend::parse_program("class App { static method void main() { } }").unwrap();
        synthesize_entrypoints(&mut p);
        assert_eq!(p.entrypoints.len(), 1);
        assert_eq!(p.method(p.entrypoints[0]).name, "main");
    }

    #[test]
    fn struts_action_populated_with_cast_constraint() {
        let mut p = jir::frontend::parse_program(
            r#"
            class LoginForm extends ActionForm {
                field String user;
                ctor () { }
            }
            class OtherForm extends ActionForm {
                field String other;
                ctor () { }
            }
            class LoginAction extends Action {
                ctor () { }
                method void execute(ActionMapping m, ActionForm f,
                                    HttpServletRequest req, HttpServletResponse resp) {
                    LoginForm lf = (LoginForm) f;
                }
            }
            "#,
        )
        .unwrap();
        synthesize_entrypoints(&mut p);
        let entry = *p.entrypoints.last().unwrap();
        assert_eq!(p.method(entry).name, "$entry$LoginAction");
        let body = p.method(entry).body().unwrap();
        // Only LoginForm should be instantiated (cast constraint), with a
        // tainted store into its `user` field.
        let login_form = p.class_by_name("LoginForm").unwrap();
        let other_form = p.class_by_name("OtherForm").unwrap();
        let news: Vec<ClassId> = body.blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::New { class, .. } => Some(*class),
                _ => None,
            })
            .collect();
        assert!(news.contains(&login_form));
        assert!(!news.contains(&other_form), "cast constraint excludes OtherForm");
        let stores = body.blocks[0].insts.iter().filter(|i| matches!(i, Inst::Store { .. }));
        assert!(stores.count() >= 1, "tainted field population");
    }

    #[test]
    fn struts_without_casts_uses_all_forms() {
        let mut p = jir::frontend::parse_program(
            r#"
            class FormA extends ActionForm { field String a; ctor () { } }
            class FormB extends ActionForm { field String b; ctor () { } }
            class AnyAction extends Action {
                ctor () { }
                method void execute(ActionMapping m, ActionForm f,
                                    HttpServletRequest req, HttpServletResponse resp) { }
            }
            "#,
        )
        .unwrap();
        synthesize_entrypoints(&mut p);
        let entry = *p.entrypoints.last().unwrap();
        let body = p.method(entry).body().unwrap();
        let fa = p.class_by_name("FormA").unwrap();
        let fb = p.class_by_name("FormB").unwrap();
        let news: Vec<ClassId> = body.blocks[0]
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::New { class, .. } => Some(*class),
                _ => None,
            })
            .collect();
        assert!(news.contains(&fa) && news.contains(&fb));
    }

    #[test]
    fn ejb_lookup_rewritten() {
        let mut p = jir::frontend::parse_program(
            r#"
            interface EB2Home { method EB2Bean create(); }
            class EB2Bean {
                ctor () { }
                method void m2() { }
            }
            class Caller {
                method void call() {
                    InitialContext ctx = new InitialContext();
                    Object o = ctx.lookup("java:comp/env/ejb/EB2");
                    EB2Home home = (EB2Home) PortableRemoteObject.narrow(o, null);
                    EB2Bean bean = home.create();
                    bean.m2();
                }
            }
            "#,
        )
        .unwrap();
        let descriptor = DeploymentDescriptor {
            entries: vec![EjbEntry {
                jndi_name: "java:comp/env/ejb/EB2".into(),
                home_interface: "EB2Home".into(),
                bean_class: "EB2Bean".into(),
            }],
        };
        let n = apply_ejb_descriptor(&mut p, &descriptor);
        assert_eq!(n, 1, "one lookup rewritten");
        assert!(p.class_by_name("$EJBHome$EB2Bean").is_some());
        // The lookup call is now an allocation.
        let caller = p.class_by_name("Caller").unwrap();
        let call = p.method_by_name(caller, "call").unwrap();
        let body = p.method(call).body().unwrap();
        let has_home_alloc = body.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(i, Inst::New { class, .. }
                if p.class(*class).name == "$EJBHome$EB2Bean")
        });
        assert!(has_home_alloc);
    }

    /// The library's bodies are fixed points of the passes that rewrite
    /// bodies, which is why those passes visit only a program's own
    /// methods. Here the library is the program's own, so each pass visits
    /// its bodies too, beside an application class that each pass rewrites.
    #[test]
    fn library_bodies_are_fixed_points_of_the_modeling_passes() {
        let mut p = jir::stdlib::library_program();
        let library: Vec<MethodId> = p.own_method_ids().collect();
        let app = jir::parser::parse(
            r#"
            interface H { method Object create(); }
            class B { ctor () { } }
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) {
                    HashMap m = new HashMap();
                    m.put("k", req.getParameter("q"));
                    InitialContext ctx = new InitialContext();
                    Object home = ctx.lookup("java:comp/env/ejb/B");
                    try { this.render(m); } catch (Exception e) { m.put("e", e); }
                }
                method void render(HashMap m) { }
            }
            "#,
        )
        .unwrap();
        jir::lower::lower(&mut p, &app).unwrap();
        let printed = |p: &Program| -> Vec<String> {
            library.iter().map(|&m| jir::pretty::method_to_string(p, m)).collect()
        };
        let before = printed(&p);
        let descriptor = DeploymentDescriptor {
            entries: vec![EjbEntry {
                jndi_name: "java:comp/env/ejb/B".into(),
                home_interface: "H".into(),
                bean_class: "B".into(),
            }],
        };
        assert_eq!(apply_ejb_descriptor(&mut p, &descriptor), 1);
        assert_eq!(crate::exceptions::model_exceptions(&mut p).len(), 1);
        jir::expand::expand_models(&mut p);
        assert!(p.find_synthetic_field("$map$k").is_some(), "the application's put expands");
        assert_eq!(printed(&p), before);
    }

    /// `synthesize_entrypoints` visits only a program's own classes and
    /// methods. Here the library is the program's own, so the pass visits
    /// every library class too, and must synthesize the same entrypoints
    /// as on the shared library.
    #[test]
    fn entrypoints_come_from_application_classes_only() {
        const APP: &str = r#"
            class Form extends ActionForm { field String s; ctor () { } }
            class Act extends Action {
                ctor () { }
                method void execute(ActionMapping m, ActionForm f,
                                    HttpServletRequest req, HttpServletResponse resp) { }
            }
            class Page extends HttpServlet {
                method void doGet(HttpServletRequest req, HttpServletResponse resp) { }
                method void doPost(HttpServletRequest req, HttpServletResponse resp) { }
            }
            class Tool { static method void main() { } }
        "#;
        let mut shared = jir::frontend::parse_program(APP).unwrap();
        let mut own = jir::stdlib::library_program();
        jir::lower::lower(&mut own, &jir::parser::parse(APP).unwrap()).unwrap();
        assert_eq!(synthesize_entrypoints(&mut shared), 3);
        assert_eq!(synthesize_entrypoints(&mut own), 3);
        let printed = |p: &Program| -> Vec<String> {
            p.entrypoints.iter().map(|&m| jir::pretty::method_to_string(p, m)).collect()
        };
        assert_eq!(printed(&shared), printed(&own));
        let names: Vec<&str> =
            shared.entrypoints.iter().map(|&m| shared.method(m).name.as_str()).collect();
        assert_eq!(names, ["main", "$entry$Page", "$entry$Act"]);
    }

    #[test]
    fn unmatched_jndi_not_rewritten() {
        let mut p = jir::frontend::parse_program(
            r#"
            interface H { method Object create(); }
            class B { ctor () { } }
            class Caller {
                method void call() {
                    InitialContext ctx = new InitialContext();
                    Object o = ctx.lookup("some/other/name");
                }
            }
            "#,
        )
        .unwrap();
        let descriptor = DeploymentDescriptor {
            entries: vec![EjbEntry {
                jndi_name: "java:comp/env/ejb/B".into(),
                home_interface: "H".into(),
                bean_class: "B".into(),
            }],
        };
        assert_eq!(apply_ejb_descriptor(&mut p, &descriptor), 0);
    }
}
