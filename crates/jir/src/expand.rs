//! Model expansion: rewrites container/builder intrinsic calls into plain
//! loads and stores over synthetic fields, so downstream analyses see
//! ordinary heap traffic.
//!
//! This is TAJ's constant-key dictionary modeling (§4.2.1): `m.put("k", v)`
//! with a statically-constant key becomes a store to the synthetic field
//! `$map$k` of the map object, and `m.get("k")` a load of `$map$k` (plus
//! the unknown-key summary field `$map$*`). Reads with non-constant keys
//! conservatively load every key field. String builders store into
//! `$content`; collections into `$elems`.

use std::collections::BTreeSet;

use crate::class::FieldId;
use crate::constprop::DefMap;
use crate::inst::{CallTarget, Inst, Var};
use crate::method::{Body, Intrinsic, MethodKind};
use crate::program::Program;
use crate::types::TypeId;

/// Field names used by the expansion.
pub mod fields {
    /// Collection element summary field.
    pub const ELEMS: &str = "$elems";
    /// String-builder content field.
    pub const CONTENT: &str = "$content";
    /// Prefix for constant map keys: `$map$<key>`.
    pub const MAP_PREFIX: &str = "$map$";
    /// Summary field for non-constant map keys.
    pub const MAP_UNKNOWN: &str = "$map$*";
}

/// Runs model expansion over every body in `program`. Idempotent.
///
/// Only the program's own bodies are visited: the library's hold no call
/// that expands.
pub fn expand_models(program: &mut Program) {
    // Pass 1: collect the global set of constant map keys (so non-constant
    // reads can conservatively cover them all).
    let mut keys: BTreeSet<String> = BTreeSet::new();
    for mid in program.own_method_ids() {
        let Some(body) = program.method(mid).body() else { continue };
        // Built on the body's first `MapPut`: most bodies have none.
        let mut dm: Option<DefMap<'_>> = None;
        for block in &body.blocks {
            for inst in &block.insts {
                if let Inst::Call { target, args, .. } = inst {
                    if resolve_intrinsic(program, body, target, inst) == Some(Intrinsic::MapPut) {
                        let dm = dm.get_or_insert_with(|| DefMap::build(body));
                        if let Some(k) = args.first().and_then(|&k| dm.constant_string(k)) {
                            keys.insert(k.to_owned());
                        }
                    }
                }
            }
        }
    }

    // Pre-create synthetic fields (needs &mut Program).
    let object_ty = {
        let obj = program.class_by_name("Object").expect("Object exists");
        program.types.class(obj)
    };
    let str_ty = program.types.string();
    let elems = program.synthetic_field(fields::ELEMS, object_ty);
    let content = program.synthetic_field(fields::CONTENT, str_ty);
    let map_unknown = program.synthetic_field(fields::MAP_UNKNOWN, object_ty);
    let mut key_fields: Vec<(String, FieldId)> = Vec::new();
    for k in &keys {
        let f = program.synthetic_field(&format!("{}{k}", fields::MAP_PREFIX), object_ty);
        key_fields.push((k.clone(), f));
    }

    // Pass 2: rewrite bodies.
    let fields = Fields { elems, content, map_unknown, keys: &key_fields, object_ty };
    for mid in program.own_method_ids() {
        let Some(body) = program.method_mut(mid).body_mut() else { continue };
        let mut body = std::mem::take(body);
        rewrite_body(program, &mut body, &fields);
        *program.method_mut(mid).body_mut().expect("checked body presence") = body;
    }
}

struct Fields<'a> {
    elems: FieldId,
    content: FieldId,
    map_unknown: FieldId,
    keys: &'a [(String, FieldId)],
    object_ty: TypeId,
}

impl Fields<'_> {
    fn key_field(&self, key: &str) -> Option<FieldId> {
        self.keys.iter().find(|(k, _)| k == key).map(|&(_, f)| f)
    }
}

/// Resolves which intrinsic (if any) a call statically targets, using the
/// receiver's declared type for virtual calls.
fn resolve_intrinsic(
    program: &Program,
    body: &Body,
    target: &CallTarget,
    inst: &Inst,
) -> Option<Intrinsic> {
    let mid = match target {
        CallTarget::Static(m) | CallTarget::Special(m) => Some(*m),
        CallTarget::Virtual(sel) => {
            let Inst::Call { recv: Some(r), .. } = inst else { return None };
            let rty = body.var_types.get(r.index())?;
            let class = program.types.resolve(*rty).as_class()?;
            program.resolve_virtual(class, *sel)
        }
    }?;
    match &program.method(mid).kind {
        MethodKind::Intrinsic(i) => Some(*i),
        _ => None,
    }
}

/// Whether `intr` is one that [`expand_call`] rewrites.
fn expands(intr: Intrinsic) -> bool {
    matches!(
        intr,
        Intrinsic::MapPut
            | Intrinsic::MapGet
            | Intrinsic::CollAdd
            | Intrinsic::CollGet
            | Intrinsic::IterAlias
            | Intrinsic::BuilderAppend
            | Intrinsic::BuilderToString
            | Intrinsic::ReturnReceiver
    )
}

/// Rewrites the blocks of `body` that hold a call that expands, and leaves
/// the others alone. A rewritten block's instructions move into a new list;
/// while it fills, the block itself is empty, and [`constant_key`] sees the
/// list's prefix plus the rest of the body.
fn rewrite_body(program: &Program, body: &mut Body, fields: &Fields<'_>) {
    for b in 0..body.blocks.len() {
        let intrinsic = |body: &Body, inst: &Inst| match inst {
            Inst::Call { target, .. } => {
                resolve_intrinsic(program, body, target, inst).filter(|&i| expands(i))
            }
            _ => None,
        };
        let Some(first) =
            body.blocks[b].insts.iter().position(|inst| intrinsic(body, inst).is_some())
        else {
            continue;
        };
        let mut insts = std::mem::take(&mut body.blocks[b].insts).into_iter();
        let mut out: Vec<Inst> = Vec::with_capacity(insts.len());
        out.extend(insts.by_ref().take(first));
        for inst in insts {
            let expanded =
                intrinsic(body, &inst).and_then(|i| expand_call(body, fields, &inst, i, &out));
            match expanded {
                Some(new_insts) => out.extend(new_insts),
                None => out.push(inst),
            }
        }
        body.blocks[b].insts = out;
    }
}

fn expand_call(
    body: &mut Body,
    fields: &Fields<'_>,
    inst: &Inst,
    intr: Intrinsic,
    emitted: &[Inst],
) -> Option<Vec<Inst>> {
    let Inst::Call { dst, recv, args, .. } = inst else { return None };
    let recv = *recv;
    let fresh = |body: &mut Body, ty: TypeId| -> Var {
        let v = body.fresh_var();
        body.var_types.push(ty);
        v
    };
    match intr {
        Intrinsic::MapPut => {
            let base = recv?;
            let key = *args.first()?;
            let value = *args.get(1)?;
            let field = constant_key(body, emitted, key)
                .and_then(|k| fields.key_field(&k))
                .unwrap_or(fields.map_unknown);
            Some(vec![Inst::Store { base, field, src: value }])
        }
        Intrinsic::MapGet => {
            let base = recv?;
            let key = *args.first()?;
            let Some(dst) = *dst else {
                return Some(vec![]); // value discarded: nothing to model
            };
            let mut loads: Vec<FieldId> = match constant_key(body, emitted, key) {
                Some(k) => match fields.key_field(&k) {
                    Some(f) => vec![f, fields.map_unknown],
                    None => vec![fields.map_unknown],
                },
                // Unknown key: read every key field plus the summary.
                None => fields
                    .keys
                    .iter()
                    .map(|&(_, f)| f)
                    .chain(std::iter::once(fields.map_unknown))
                    .collect(),
            };
            loads.dedup();
            let mut insts = Vec::with_capacity(loads.len() + 1);
            let mut tmps = Vec::with_capacity(loads.len());
            for f in loads {
                let t = fresh(body, fields.object_ty);
                insts.push(Inst::Load { dst: t, base, field: f });
                tmps.push(t);
            }
            insts.push(Inst::Select { dst, srcs: tmps });
            Some(insts)
        }
        Intrinsic::CollAdd => {
            let base = recv?;
            let value = *args.first()?;
            Some(vec![Inst::Store { base, field: fields.elems, src: value }])
        }
        Intrinsic::CollGet => {
            let base = recv?;
            let dst = (*dst)?;
            Some(vec![Inst::Load { dst, base, field: fields.elems }])
        }
        Intrinsic::IterAlias => {
            let base = recv?;
            let dst = (*dst)?;
            Some(vec![Inst::Assign { dst, src: base, filter: None }])
        }
        Intrinsic::BuilderAppend => {
            let base = recv?;
            let value = *args.first()?;
            let mut insts = vec![Inst::Store { base, field: fields.content, src: value }];
            if let Some(d) = *dst {
                insts.push(Inst::Assign { dst: d, src: base, filter: None });
            }
            Some(insts)
        }
        Intrinsic::BuilderToString => {
            let base = recv?;
            let dst = (*dst)?;
            Some(vec![Inst::Load { dst, base, field: fields.content }])
        }
        Intrinsic::ReturnReceiver => {
            let base = recv?;
            let dst = (*dst)?;
            Some(vec![Inst::Assign { dst, src: base, filter: None }])
        }
        _ => None,
    }
}

/// Resolves the key register to a constant string, looking at both the
/// already-rewritten prefix of the current block and the untouched rest of
/// the body.
fn constant_key(body: &Body, emitted: &[Inst], key: Var) -> Option<String> {
    // Fast path: scan the emitted prefix (where the key literal usually
    // sits, immediately before the call).
    for inst in emitted.iter().rev() {
        match inst {
            Inst::Const { dst, value: crate::inst::ConstValue::Str(s) } if *dst == key => {
                return Some(s.clone())
            }
            _ => {
                if inst.def() == Some(key) {
                    return None;
                }
            }
        }
    }
    crate::constprop::constant_string(body, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn expanded(src: &str) -> Program {
        let mut p = frontend::parse_program(src).expect("parses");
        expand_models(&mut p);
        p
    }

    fn body_insts<'p>(p: &'p Program, class: &str, method: &str) -> Vec<&'p Inst> {
        let c = p.class_by_name(class).unwrap();
        let m = p.method_by_name(c, method).unwrap();
        p.method(m).body().unwrap().blocks.iter().flat_map(|b| &b.insts).collect()
    }

    #[test]
    fn const_key_put_becomes_keyed_store() {
        let p = expanded(
            r#"
            class C {
                method void f(HashMap m, Object v) { m.put("user", v); }
            }
            "#,
        );
        let f = p.find_synthetic_field("$map$user").expect("key field created");
        let insts = body_insts(&p, "C", "f");
        assert!(
            insts.iter().any(|i| matches!(i, Inst::Store { field, .. } if *field == f)),
            "expected store to $map$user, got {insts:?}"
        );
        assert!(!insts.iter().any(|i| i.is_call()), "call should be gone");
    }

    #[test]
    fn const_key_get_reads_key_and_summary() {
        let p = expanded(
            r#"
            class C {
                method Object f(HashMap m, Object v) {
                    m.put("a", v);
                    return m.get("a");
                }
            }
            "#,
        );
        let fa = p.find_synthetic_field("$map$a").unwrap();
        let fu = p.find_synthetic_field("$map$*").unwrap();
        let insts = body_insts(&p, "C", "f");
        let loaded: Vec<FieldId> = insts
            .iter()
            .filter_map(|i| match i {
                Inst::Load { field, .. } => Some(*field),
                _ => None,
            })
            .collect();
        assert!(loaded.contains(&fa));
        assert!(loaded.contains(&fu));
        assert!(insts.iter().any(|i| matches!(i, Inst::Select { .. })));
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let p = expanded(
            r#"
            class C {
                method Object f(HttpSession s, Object o1) {
                    s.setAttribute("a", o1);
                    return s.getAttribute("b");
                }
            }
            "#,
        );
        let fa = p.find_synthetic_field("$map$a").unwrap();
        let insts = body_insts(&p, "C", "f");
        let loaded: Vec<FieldId> = insts
            .iter()
            .filter_map(|i| match i {
                Inst::Load { field, .. } => Some(*field),
                _ => None,
            })
            .collect();
        assert!(!loaded.contains(&fa), "get(\"b\") must not read $map$a");
    }

    #[test]
    fn nonconst_get_reads_all_keys() {
        let p = expanded(
            r#"
            class C {
                method Object f(HashMap m, Object v, String k) {
                    m.put("x", v);
                    return m.get(k);
                }
            }
            "#,
        );
        let fx = p.find_synthetic_field("$map$x").unwrap();
        let insts = body_insts(&p, "C", "f");
        let loaded: Vec<FieldId> = insts
            .iter()
            .filter_map(|i| match i {
                Inst::Load { field, .. } => Some(*field),
                _ => None,
            })
            .collect();
        assert!(loaded.contains(&fx), "unknown-key get must cover $map$x");
    }

    #[test]
    fn builder_append_expands() {
        let p = expanded(
            r#"
            class C {
                method String f(String s) {
                    StringBuilder sb = new StringBuilder();
                    sb.append(s);
                    return sb.toString();
                }
            }
            "#,
        );
        let content = p.find_synthetic_field("$content").unwrap();
        let insts = body_insts(&p, "C", "f");
        assert!(insts.iter().any(|i| matches!(i, Inst::Store { field, .. } if *field == content)));
        assert!(insts.iter().any(|i| matches!(i, Inst::Load { field, .. } if *field == content)));
    }

    #[test]
    fn collection_add_get_expand() {
        let p = expanded(
            r#"
            class C {
                method Object f(ArrayList l, Object v) {
                    l.add(v);
                    return l.get(0);
                }
            }
            "#,
        );
        let elems = p.find_synthetic_field("$elems").unwrap();
        let insts = body_insts(&p, "C", "f");
        assert!(insts.iter().any(|i| matches!(i, Inst::Store { field, .. } if *field == elems)));
        assert!(insts.iter().any(|i| matches!(i, Inst::Load { field, .. } if *field == elems)));
    }

    #[test]
    fn non_intrinsic_calls_survive() {
        let p = expanded(
            r#"
            class C {
                method void f(HttpServletRequest r) { r.getParameter("x"); }
            }
            "#,
        );
        let insts = body_insts(&p, "C", "f");
        assert!(insts.iter().any(|i| i.is_call()), "source call must remain a call");
    }

    #[test]
    fn expansion_is_idempotent() {
        let src = r#"
            class C {
                method Object f(HashMap m, Object v) { m.put("k", v); return m.get("k"); }
            }
        "#;
        let mut p = frontend::parse_program(src).unwrap();
        expand_models(&mut p);
        let before: usize =
            p.iter_methods().filter_map(|(_, m)| m.body()).map(|b| b.num_insts()).sum();
        expand_models(&mut p);
        let after: usize =
            p.iter_methods().filter_map(|(_, m)| m.body()).map(|b| b.num_insts()).sum();
        assert_eq!(before, after);
    }
}
