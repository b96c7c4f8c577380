//! The [`Program`]: the whole-program container every analysis consumes.

use std::collections::HashMap;

use crate::class::{Class, ClassId, Field, FieldId, Selector, SelectorId};
use crate::method::{Method, MethodId, MethodKind};
use crate::types::{Type, TypeId, TypeTable};
use crate::util::Interner;

/// A whole program: classes, fields, methods, plus interners for types and
/// selectors, and the designated entrypoints.
#[derive(Debug, Default, Clone)]
pub struct Program {
    /// All classes.
    pub classes: Vec<Class>,
    /// All fields.
    pub fields: Vec<Field>,
    /// All methods.
    pub methods: Vec<Method>,
    /// Type interner.
    pub types: TypeTable,
    selectors: Interner<Selector>,
    class_by_name: HashMap<String, ClassId>,
    /// Methods where analysis starts (synthesized servlet/Struts
    /// entrypoints plus any `main`).
    pub entrypoints: Vec<MethodId>,
    /// Cache of synthetic model fields (`$map$k`, `$elems`, `$content`, …)
    /// created by model expansion, keyed by name.
    synthetic_fields: HashMap<String, FieldId>,
}

impl Program {
    /// Creates an empty program with a seeded type table.
    pub fn new() -> Self {
        Program { types: TypeTable::new(), ..Default::default() }
    }

    // ----- classes -----

    /// Adds a class, returning its id.
    ///
    /// # Panics
    /// Panics if a class with the same name already exists.
    pub fn add_class(&mut self, class: Class) -> ClassId {
        assert!(!self.class_by_name.contains_key(&class.name), "duplicate class `{}`", class.name);
        let id = ClassId::new(self.classes.len());
        self.class_by_name.insert(class.name.clone(), id);
        self.classes.push(class);
        id
    }

    /// Access a class.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Mutable access to a class.
    pub fn class_mut(&mut self, id: ClassId) -> &mut Class {
        &mut self.classes[id.index()]
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Iterates over `(ClassId, &Class)`.
    pub fn iter_classes(&self) -> impl Iterator<Item = (ClassId, &Class)> {
        self.classes.iter().enumerate().map(|(i, c)| (ClassId::new(i), c))
    }

    // ----- fields -----

    /// Adds a field to its owner class, returning its id.
    pub fn add_field(&mut self, field: Field) -> FieldId {
        let id = FieldId::new(self.fields.len());
        let owner = field.owner;
        self.fields.push(field);
        self.classes[owner.index()].fields.push(id);
        id
    }

    /// Access a field.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Finds a field by name on `class` or any superclass.
    pub fn field_by_name(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &f in &self.class(c).fields {
                if self.field(f).name == name {
                    return Some(f);
                }
            }
            cur = self.class(c).superclass;
        }
        None
    }

    /// Returns (creating on first use) a synthetic model field with the
    /// given name, owned by the root object class. Model expansion uses
    /// these for container contents, builder contents, and map keys.
    pub fn synthetic_field(&mut self, name: &str, ty: TypeId) -> FieldId {
        if let Some(&f) = self.synthetic_fields.get(name) {
            return f;
        }
        let owner = ClassId::new(0); // root object class by convention
        let f = self.add_field(Field { name: name.to_string(), owner, ty, is_static: false });
        self.synthetic_fields.insert(name.to_string(), f);
        f
    }

    /// Looks up an existing synthetic field without creating it.
    pub fn find_synthetic_field(&self, name: &str) -> Option<FieldId> {
        self.synthetic_fields.get(name).copied()
    }

    /// All synthetic map-key fields created so far (name starts with
    /// `$map$`), used to expand non-constant-key `get` conservatively.
    /// Sorted by id, so the order is the program's, not the hash map's.
    pub fn map_key_fields(&self) -> Vec<FieldId> {
        let mut fields: Vec<FieldId> = self
            .synthetic_fields
            .iter()
            .filter(|(n, _)| n.starts_with("$map$"))
            .map(|(_, &f)| f)
            .collect();
        fields.sort_unstable();
        fields
    }

    // ----- methods -----

    /// Adds a method to its owner class, returning its id.
    pub fn add_method(&mut self, method: Method) -> MethodId {
        let id = MethodId::new(self.methods.len());
        let owner = method.owner;
        self.methods.push(method);
        self.classes[owner.index()].methods.push(id);
        id
    }

    /// Access a method.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Mutable access to a method.
    pub fn method_mut(&mut self, id: MethodId) -> &mut Method {
        &mut self.methods[id.index()]
    }

    /// Iterates over `(MethodId, &Method)`.
    pub fn iter_methods(&self) -> impl Iterator<Item = (MethodId, &Method)> {
        self.methods.iter().enumerate().map(|(i, m)| (MethodId::new(i), m))
    }

    /// Interns a selector.
    pub fn selector(&mut self, name: &str, arity: usize) -> SelectorId {
        SelectorId(self.selectors.intern(Selector { name: name.to_string(), arity }))
    }

    /// Looks up an interned selector.
    pub fn find_selector(&self, name: &str, arity: usize) -> Option<SelectorId> {
        self.selectors.lookup(&Selector { name: name.to_string(), arity }).map(SelectorId)
    }

    /// Resolves a selector id.
    pub fn resolve_selector(&self, id: SelectorId) -> &Selector {
        self.selectors.resolve(id.0)
    }

    /// Finds the method matching `selector` declared on `class` itself
    /// (no superclass search).
    pub fn declared_method(&self, class: ClassId, selector: SelectorId) -> Option<MethodId> {
        let sel = self.resolve_selector(selector);
        self.class(class).methods.iter().copied().find(|&m| {
            let meth = self.method(m);
            meth.name == sel.name && meth.params.len() == sel.arity
        })
    }

    /// Resolves virtual dispatch: walks from `class` up the superclass chain
    /// for a concrete method matching `selector`.
    pub fn resolve_virtual(&self, class: ClassId, selector: SelectorId) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) = self.declared_method(c, selector) {
                if !matches!(self.method(m).kind, MethodKind::Abstract) {
                    return Some(m);
                }
            }
            cur = self.class(c).superclass;
        }
        None
    }

    /// Finds the method with `name` and `arity` on `class` or its nearest
    /// superclass that declares one: jweb identifies a method by name and
    /// arity.
    pub(crate) fn method_by_arity(
        &self,
        class: ClassId,
        name: &str,
        arity: usize,
    ) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) = self.class(c).methods.iter().copied().find(|&m| {
                let meth = self.method(m);
                meth.name == name && meth.params.len() == arity
            }) {
                return Some(m);
            }
            cur = self.class(c).superclass;
        }
        None
    }

    /// Finds a method by class and name (first match over arities), mostly
    /// for tests and rule specifications.
    pub fn method_by_name(&self, class: ClassId, name: &str) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) =
                self.class(c).methods.iter().copied().find(|&m| self.method(m).name == name)
            {
                return Some(m);
            }
            cur = self.class(c).superclass;
        }
        None
    }

    // ----- hierarchy -----

    /// Whether `sub` is `sup` or a transitive subclass/implementor of it.
    pub fn is_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        if sub == sup {
            return true;
        }
        let c = self.class(sub);
        if let Some(s) = c.superclass {
            if self.is_subtype(s, sup) {
                return true;
            }
        }
        c.interfaces.iter().any(|&i| self.is_subtype(i, sup))
    }

    /// All concrete (non-interface) classes that are subtypes of `class`,
    /// including itself if concrete.
    pub fn concrete_subtypes(&self, class: ClassId) -> Vec<ClassId> {
        self.iter_classes()
            .filter(|(id, c)| !c.is_interface && self.is_subtype(*id, class))
            .map(|(id, _)| id)
            .collect()
    }

    /// Whether a value of runtime class `sub` passes a cast to type `ty`.
    pub fn passes_cast(&self, sub: ClassId, ty: TypeId) -> bool {
        match self.types.resolve(ty) {
            Type::Class(sup) => self.is_subtype(sub, sup),
            _ => true,
        }
    }

    // ----- statistics -----

    /// Counts of (application, total) classes and methods — the raw material
    /// of Table 2.
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats::default();
        for (_, c) in self.iter_classes() {
            s.total_classes += 1;
            if !c.is_library {
                s.app_classes += 1;
            }
        }
        for (id, m) in self.iter_methods() {
            s.total_methods += 1;
            if !self.class(m.owner).is_library {
                s.app_methods += 1;
            }
            if let Some(b) = self.method(id).body() {
                s.total_insts += b.num_insts();
                if !self.class(m.owner).is_library {
                    s.app_insts += b.num_insts();
                }
            }
        }
        s
    }
}

/// Program size statistics (Table 2 raw material).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProgramStats {
    /// Application (non-library) class count.
    pub app_classes: usize,
    /// Total class count including the model library.
    pub total_classes: usize,
    /// Application method count.
    pub app_methods: usize,
    /// Total method count.
    pub total_methods: usize,
    /// Application IR instruction count.
    pub app_insts: usize,
    /// Total IR instruction count.
    pub total_insts: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodKind;

    fn prog_with_hierarchy() -> (Program, ClassId, ClassId, ClassId) {
        let mut p = Program::new();
        let obj = p.add_class(Class::new("Object"));
        let mut animal = Class::new("Animal");
        animal.superclass = Some(obj);
        let animal = p.add_class(animal);
        let mut dog = Class::new("Dog");
        dog.superclass = Some(animal);
        let dog = p.add_class(dog);
        (p, obj, animal, dog)
    }

    #[test]
    fn subtype_chain() {
        let (p, obj, animal, dog) = prog_with_hierarchy();
        assert!(p.is_subtype(dog, obj));
        assert!(p.is_subtype(dog, animal));
        assert!(p.is_subtype(dog, dog));
        assert!(!p.is_subtype(animal, dog));
    }

    #[test]
    fn interface_subtyping() {
        let mut p = Program::new();
        let obj = p.add_class(Class::new("Object"));
        let mut iface = Class::new("Runnable");
        iface.is_interface = true;
        let iface = p.add_class(iface);
        let mut worker = Class::new("Worker");
        worker.superclass = Some(obj);
        worker.interfaces.push(iface);
        let worker = p.add_class(worker);
        assert!(p.is_subtype(worker, iface));
        assert_eq!(p.concrete_subtypes(iface), vec![worker]);
    }

    #[test]
    fn virtual_resolution_walks_superclasses() {
        let (mut p, _obj, animal, dog) = prog_with_hierarchy();
        let void = p.types.void();
        let speak = p.add_method(Method {
            name: "speak".into(),
            owner: animal,
            params: vec![],
            ret: void,
            is_static: false,
            kind: MethodKind::Intrinsic(crate::method::Intrinsic::Nop),
            is_factory: false,
        });
        let sel = p.selector("speak", 0);
        assert_eq!(p.resolve_virtual(dog, sel), Some(speak));
        assert_eq!(p.resolve_virtual(animal, sel), Some(speak));
    }

    #[test]
    fn override_shadows_super() {
        let (mut p, _obj, animal, dog) = prog_with_hierarchy();
        let void = p.types.void();
        let mk = |owner| Method {
            name: "speak".into(),
            owner,
            params: vec![],
            ret: void,
            is_static: false,
            kind: MethodKind::Intrinsic(crate::method::Intrinsic::Nop),
            is_factory: false,
        };
        let _base = p.add_method(mk(animal));
        let over = p.add_method(mk(dog));
        let sel = p.selector("speak", 0);
        assert_eq!(p.resolve_virtual(dog, sel), Some(over));
    }

    #[test]
    fn synthetic_fields_are_cached() {
        let mut p = Program::new();
        p.add_class(Class::new("Object"));
        let str_ty = p.types.string();
        let a = p.synthetic_field("$map$user", str_ty);
        let b = p.synthetic_field("$map$user", str_ty);
        assert_eq!(a, b);
        assert_eq!(p.map_key_fields(), vec![a]);
        assert_eq!(p.find_synthetic_field("$map$user"), Some(a));
        assert_eq!(p.find_synthetic_field("$nope"), None);
    }

    /// Each program's field map hashes with its own random keys; the
    /// key fields must still come back in one order, the creation order.
    #[test]
    fn map_key_fields_are_in_id_order() {
        let orders: Vec<Vec<FieldId>> = (0..17)
            .map(|_| {
                let mut p = Program::new();
                p.add_class(Class::new("Object"));
                let str_ty = p.types.string();
                for key in ["user", "pass", "id", "name", "token"] {
                    p.synthetic_field(&format!("$map${key}"), str_ty);
                }
                p.synthetic_field("$elems", str_ty);
                p.map_key_fields()
            })
            .collect();
        let first = &orders[0];
        assert_eq!(first.len(), 5);
        assert!(first.windows(2).all(|w| w[0] < w[1]), "{first:?}");
        assert!(orders.iter().all(|o| o == first), "{orders:?}");
    }

    #[test]
    fn field_lookup_walks_superclasses() {
        let (mut p, obj, _animal, dog) = prog_with_hierarchy();
        let str_ty = p.types.string();
        let f =
            p.add_field(Field { name: "name".into(), owner: obj, ty: str_ty, is_static: false });
        assert_eq!(p.field_by_name(dog, "name"), Some(f));
        assert_eq!(p.field_by_name(dog, "missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_class_panics() {
        let mut p = Program::new();
        p.add_class(Class::new("X"));
        p.add_class(Class::new("X"));
    }
}
