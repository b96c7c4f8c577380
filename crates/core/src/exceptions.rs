//! Exception modeling (§4.1.2): at every catch site, synthesize
//! `msg = e.getMessage(); e.$excmsg = msg;` and mark the synthesized
//! `getMessage` call as an information-leakage source.
//!
//! The store makes the caught exception a *taint carrier* (§4.1.1), so a
//! subsequent `resp.getWriter().println(e)` is flagged through carrier
//! detection — reproducing the common `catch (Exception e) { out.println(e) }`
//! leak the paper highlights.

use jir::inst::{CallTarget, Inst, Loc};
use jir::{MethodId, Program};

/// Name of the synthetic field holding the leaked message.
pub const EXC_MSG_FIELD: &str = "$excmsg";

/// Instruments every catch site in `program`. Returns the synthesized
/// source call sites as `(method, loc)` pairs (the driver widens them to
/// call-graph nodes after pointer analysis).
///
/// Must run before SSA construction.
pub fn model_exceptions(program: &mut Program) -> Vec<(MethodId, Loc)> {
    let throwable = match program.class_by_name("Throwable") {
        Some(c) => c,
        None => return Vec::new(),
    };
    let get_message = match program.method_by_name(throwable, "getMessage") {
        Some(m) => m,
        None => return Vec::new(),
    };
    let str_ty = program.types.string();
    let msg_field = program.synthetic_field(EXC_MSG_FIELD, str_ty);

    let mut sites = Vec::new();
    for method_id in program.own_method_ids() {
        let method = program.method(method_id);
        // Skip library code: the paper instruments application catch
        // blocks (the leak is an application bug).
        if program.class(method.owner).is_library {
            continue;
        }
        let Some(body) = method.body() else { continue };
        // Find CatchBind instructions.
        let mut targets: Vec<(usize, usize, jir::Var)> = Vec::new();
        for (b, block) in body.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate() {
                if let Inst::CatchBind { dst, .. } = inst {
                    targets.push((b, i, *dst));
                }
            }
        }
        if targets.is_empty() {
            continue;
        }
        let body = program.method_mut(method_id).body_mut().expect("checked body");
        // Insert from the back so earlier indices stay valid.
        targets.sort_by(|a, b| b.cmp(a));
        for (b, i, evar) in targets {
            let msg_var = body.fresh_var();
            body.var_types.push(str_ty);
            let call = Inst::Call {
                dst: Some(msg_var),
                target: CallTarget::Special(get_message),
                recv: Some(evar),
                args: vec![],
            };
            let store = Inst::Store { base: evar, field: msg_field, src: msg_var };
            body.blocks[b].insts.insert(i + 1, store);
            body.blocks[b].insts.insert(i + 1, call);
            sites.push((method_id, Loc::new(jir::BlockId(b as u32), i + 1)));
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_sites_instrumented() {
        let mut p = jir::frontend::parse_program(
            r#"
            class C {
                method void f() {
                    try { this.g(); } catch (Exception e) { this.h(e); }
                }
                method void g() { }
                method void h(Exception e) { }
            }
            "#,
        )
        .unwrap();
        let sites = model_exceptions(&mut p);
        assert_eq!(sites.len(), 1);
        let (m, loc) = sites[0];
        let body = p.method(m).body().unwrap();
        let inst = &body.blocks[loc.block.index()].insts[loc.idx as usize];
        assert!(
            matches!(inst, Inst::Call { target: CallTarget::Special(_), .. }),
            "synthesized getMessage call at recorded site, got {inst:?}"
        );
        // Followed by the carrier store.
        let store = &body.blocks[loc.block.index()].insts[loc.idx as usize + 1];
        assert!(matches!(store, Inst::Store { .. }));
        assert!(p.find_synthetic_field(EXC_MSG_FIELD).is_some());
    }

    #[test]
    fn library_catches_untouched() {
        let mut p = jir::frontend::parse_program(
            r#"
            library class L {
                method void f() {
                    try { this.g(); } catch (Exception e) { this.h(e); }
                }
                method void g() { }
                method void h(Exception e) { }
            }
            "#,
        )
        .unwrap();
        let sites = model_exceptions(&mut p);
        assert!(sites.is_empty(), "library catch sites are not instrumented");
    }

    #[test]
    fn no_catch_no_change() {
        let mut p = jir::frontend::parse_program("class C { method void f() { } }").unwrap();
        let before: usize =
            p.iter_methods().filter_map(|(_, m)| m.body()).map(|b| b.num_insts()).sum();
        let sites = model_exceptions(&mut p);
        let after: usize =
            p.iter_methods().filter_map(|(_, m)| m.body()).map(|b| b.num_insts()).sum();
        assert!(sites.is_empty());
        assert_eq!(before, after);
    }
}
