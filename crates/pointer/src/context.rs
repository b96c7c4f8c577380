//! Calling contexts and the TAJ context-sensitivity policy (§3.1).
//!
//! The policy assigns:
//! - **1-object-sensitivity** to ordinary instance methods (context = the
//!   receiver's abstract object);
//! - **1-call-string** contexts to library factory methods and to
//!   taint-relevant APIs (sources/sinks/sanitizers), so distinct call
//!   sites of e.g. `getParameter` are distinguished even on one receiver;
//! - **context-insensitive** treatment to other static methods;
//! - **unlimited-depth object sensitivity** to collections, realized as
//!   full-context heap cloning of collection allocations (with a recursion
//!   cut) — see [`crate::keys::InstanceKey::Alloc`].

use jir::util::FxHashSet;
use jir::{MethodId, Program};

use crate::keys::{InstanceKeyId, Site};

jir::index_type! {
    /// Interned id of a context: none or one [`ContextElem`].
    pub struct ContextId, "ctx"
}

/// One element of a calling context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContextElem {
    /// Object sensitivity: the receiver's abstract object.
    Receiver(InstanceKeyId),
    /// Call-string sensitivity: the call site.
    Site(Site),
}

/// The empty (root) context. Interners guarantee it is id 0.
pub const ROOT_CONTEXT: ContextId = ContextId(0);

/// Configuration of the TAJ context policy.
#[derive(Clone, Debug, Default)]
pub struct PolicyConfig {
    /// Taint-relevant API methods (sources, sinks, sanitizers): analyzed
    /// with one level of call-string context (§3.1).
    pub taint_methods: FxHashSet<MethodId>,
}

/// How a callee should be contextualized at a given call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContextChoice {
    /// Use the call site (1-call-string).
    CallSite,
    /// Use the receiver object (1-object-sensitivity).
    Receiver,
    /// Empty context (context-insensitive).
    Insensitive,
}

impl PolicyConfig {
    /// Decides the context shape for calling `callee` (with or without a
    /// receiver).
    pub fn choose(&self, program: &Program, callee: MethodId, has_receiver: bool) -> ContextChoice {
        let m = program.method(callee);
        if self.taint_methods.contains(&callee) || m.is_factory {
            ContextChoice::CallSite
        } else if has_receiver && !m.is_static {
            ContextChoice::Receiver
        } else {
            ContextChoice::Insensitive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jir::frontend;

    #[test]
    fn taint_api_gets_call_site_context() {
        let p = frontend::parse_program("class A { }").unwrap();
        let req = p.class_by_name("HttpServletRequest").unwrap();
        let gp = p.method_by_name(req, "getParameter").unwrap();
        let mut cfg = PolicyConfig::default();
        cfg.taint_methods.insert(gp);
        assert_eq!(cfg.choose(&p, gp, true), ContextChoice::CallSite);
    }

    #[test]
    fn factory_gets_call_site_context() {
        let p = frontend::parse_program("class A { }").unwrap();
        let resp = p.class_by_name("HttpServletResponse").unwrap();
        let gw = p.method_by_name(resp, "getWriter").unwrap();
        let cfg = PolicyConfig::default();
        assert_eq!(cfg.choose(&p, gw, true), ContextChoice::CallSite);
    }

    #[test]
    fn instance_methods_get_receiver_context() {
        let p = frontend::parse_program("class A { method void f() { } }").unwrap();
        let a = p.class_by_name("A").unwrap();
        let f = p.method_by_name(a, "f").unwrap();
        let cfg = PolicyConfig::default();
        assert_eq!(cfg.choose(&p, f, true), ContextChoice::Receiver);
    }

    #[test]
    fn statics_are_insensitive() {
        let p = frontend::parse_program("class A { static method void f() { } }").unwrap();
        let a = p.class_by_name("A").unwrap();
        let f = p.method_by_name(a, "f").unwrap();
        let cfg = PolicyConfig::default();
        assert_eq!(cfg.choose(&p, f, false), ContextChoice::Insensitive);
    }
}
