//! The [`Program`]: the whole-program container every analysis consumes,
//! and the `Library` it extends.
//!
//! A program sits on a shared, immutable library: its ids number the
//! library's classes, fields, methods, types and selectors first and its
//! own after them, and its tables hold only what it adds. A pass that
//! changes a library entity copies that one entity into the program
//! (copy-on-write, by entity); every reader goes through the accessors,
//! which look in the program's copies first and in the library after.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::class::{Class, ClassId, Field, FieldId, Selector, SelectorId};
use crate::method::{Method, MethodId, MethodKind};
use crate::types::{Type, TypeId, TypeTable};
use crate::util::{FxHashMap, Interner};

/// Classes, fields, methods, types and selectors that many programs
/// share: the model library in prepared form ([`crate::stdlib`]), or the
/// empty library under [`Program::new`].
#[derive(Debug)]
pub(crate) struct Library {
    classes: Vec<Class>,
    fields: Vec<Field>,
    methods: Vec<Method>,
    types: TypeTable,
    selectors: Interner<Selector>,
    /// Hashed with Fx, although lookups bring client text: the keys are the
    /// library's own names, so a crafted name can at most probe this small
    /// fixed table, and each miss (most lookups) stays cheap.
    class_by_name: FxHashMap<String, ClassId>,
}

impl Library {
    /// The library with no classes, whose types are the primitives.
    fn empty() -> &'static Library {
        static EMPTY: OnceLock<Library> = OnceLock::new();
        EMPTY.get_or_init(|| Library {
            classes: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
            types: TypeTable::new(),
            selectors: Interner::new(),
            class_by_name: FxHashMap::default(),
        })
    }

    /// Freezes `program`, built on the empty library, into a library
    /// that other programs extend.
    ///
    /// # Panics
    /// Panics if `program` extends another library or holds synthetic
    /// fields or entrypoints, which belong to each program.
    pub(crate) fn freeze(program: Program) -> Library {
        assert!(std::ptr::eq(program.lib, Library::empty()), "a library extends no other");
        assert!(
            program.synthetic_fields.is_empty() && program.entrypoints.is_empty(),
            "synthetic fields and entrypoints belong to each program"
        );
        Library {
            classes: program.classes.own,
            fields: program.fields.own,
            methods: program.methods.own,
            types: program.types.flatten(),
            selectors: program.selectors,
            class_by_name: program.class_by_name.into_iter().collect(),
        }
    }
}

/// One entity table of a program: the library's entities, the ones this
/// program copied from it to change, and its own, numbered after the
/// library's.
#[derive(Debug, Clone)]
struct Table<T: 'static> {
    base: &'static [T],
    /// `(index, entity)` for each library entity this program changed,
    /// sorted by index.
    copied: Vec<(usize, T)>,
    own: Vec<T>,
}

impl<T: Clone> Table<T> {
    fn on(base: &'static [T]) -> Self {
        Table { base, copied: Vec::new(), own: Vec::new() }
    }

    fn len(&self) -> usize {
        self.base.len() + self.own.len()
    }

    #[inline]
    fn get(&self, i: usize) -> &T {
        match i.checked_sub(self.base.len()) {
            Some(j) => &self.own[j],
            None if self.copied.is_empty() => &self.base[i],
            None => match self.copied.binary_search_by_key(&i, |&(k, _)| k) {
                Ok(at) => &self.copied[at].1,
                Err(_) => &self.base[i],
            },
        }
    }

    /// The entity at `i`, copied into the program first if it is the
    /// library's.
    fn get_mut(&mut self, i: usize) -> &mut T {
        if let Some(j) = i.checked_sub(self.base.len()) {
            return &mut self.own[j];
        }
        let at = match self.copied.binary_search_by_key(&i, |&(k, _)| k) {
            Ok(at) => at,
            Err(at) => {
                self.copied.insert(at, (i, self.base[i].clone()));
                at
            }
        };
        &mut self.copied[at].1
    }

    fn push(&mut self, entity: T) -> usize {
        self.own.push(entity);
        self.len() - 1
    }

    /// Indices of the program's own entities.
    fn own_range(&self) -> std::ops::Range<usize> {
        self.base.len()..self.len()
    }

    /// Every entity in id order, as [`Table::get`] reads them.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let mut copied = self.copied.iter().peekable();
        let base = self.base.iter().enumerate().map(move |(i, entity)| {
            copied.next_if(|&&(k, _)| k == i).map_or(entity, |(_, copy)| copy)
        });
        base.chain(&self.own)
    }
}

/// A whole program: classes, fields, methods, plus interners for types and
/// selectors, and the designated entrypoints, on top of a shared library
/// (the model library of [`crate::stdlib`], or none under
/// [`Program::new`]).
///
/// The tables are private: [`Program::num_classes`],
/// [`Program::num_fields`] and [`Program::num_methods`] count the
/// library's entities with the program's own, and the accessors read
/// either.
#[derive(Debug, Clone)]
pub struct Program {
    lib: &'static Library,
    classes: Table<Class>,
    fields: Table<Field>,
    methods: Table<Method>,
    /// Type interner; the library's types come first.
    pub types: TypeTable,
    /// Selectors this program interned beyond the library's, numbered
    /// after them.
    selectors: Interner<Selector>,
    /// Classes this program added, by name.
    class_by_name: HashMap<String, ClassId>,
    /// Methods where analysis starts (synthesized servlet/Struts
    /// entrypoints plus any `main`).
    pub entrypoints: Vec<MethodId>,
    /// Synthetic model fields (`$map$k`, `$elems`, `$content`, …) created
    /// by model expansion, sorted by name.
    synthetic_fields: Vec<FieldId>,
}

impl Default for Program {
    fn default() -> Self {
        Program::new()
    }
}

impl Program {
    /// Creates an empty program (on the empty library) with a seeded type
    /// table.
    pub fn new() -> Self {
        Program::on(Library::empty())
    }

    /// Creates a program that extends `lib`: it starts with the library's
    /// entities, and its own ids follow them.
    pub(crate) fn on(lib: &'static Library) -> Self {
        Program {
            lib,
            classes: Table::on(&lib.classes),
            fields: Table::on(&lib.fields),
            methods: Table::on(&lib.methods),
            types: TypeTable::extending(&lib.types),
            selectors: Interner::new(),
            class_by_name: HashMap::new(),
            entrypoints: Vec::new(),
            synthetic_fields: Vec::new(),
        }
    }

    // ----- classes -----

    /// Adds a class, returning its id.
    ///
    /// # Panics
    /// Panics if a class with the same name already exists.
    pub fn add_class(&mut self, class: Class) -> ClassId {
        assert!(self.class_by_name(&class.name).is_none(), "duplicate class `{}`", class.name);
        let id = ClassId::new(self.classes.len());
        self.class_by_name.insert(class.name.clone(), id);
        self.classes.push(class);
        id
    }

    /// Number of classes, the library's included.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Access a class.
    pub fn class(&self, id: ClassId) -> &Class {
        self.classes.get(id.index())
    }

    /// Mutable access to a class (a library class is copied into the
    /// program first).
    pub fn class_mut(&mut self, id: ClassId) -> &mut Class {
        self.classes.get_mut(id.index())
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.lib.class_by_name.get(name).or_else(|| self.class_by_name.get(name)).copied()
    }

    /// Iterates over `(ClassId, &Class)`.
    pub fn iter_classes(&self) -> impl Iterator<Item = (ClassId, &Class)> {
        self.classes.iter().enumerate().map(|(i, c)| (ClassId::new(i), c))
    }

    /// Ids of the classes this program added to its library, in id order.
    /// A pass that looks only at application classes visits only these:
    /// every library class is `is_library`.
    pub fn own_class_ids(&self) -> impl Iterator<Item = ClassId> {
        self.classes.own_range().map(ClassId::new)
    }

    // ----- fields -----

    /// Adds a field to its owner class, returning its id.
    pub fn add_field(&mut self, field: Field) -> FieldId {
        let owner = field.owner;
        let id = FieldId::new(self.fields.push(field));
        self.class_mut(owner).fields.push(id);
        id
    }

    /// Number of fields, the library's included.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Access a field.
    pub fn field(&self, id: FieldId) -> &Field {
        self.fields.get(id.index())
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
        match self.synthetic_slot(name) {
            Ok(at) => self.synthetic_fields[at],
            Err(at) => {
                let owner = ClassId::new(0); // root object class by convention
                let f =
                    self.add_field(Field { name: name.to_string(), owner, ty, is_static: false });
                self.synthetic_fields.insert(at, f);
                f
            }
        }
    }

    /// Where `name` is, or would go, in the synthetic fields.
    fn synthetic_slot(&self, name: &str) -> Result<usize, usize> {
        self.synthetic_fields.binary_search_by(|&f| self.field(f).name.as_str().cmp(name))
    }

    /// Looks up an existing synthetic field without creating it.
    pub fn find_synthetic_field(&self, name: &str) -> Option<FieldId> {
        self.synthetic_slot(name).ok().map(|at| self.synthetic_fields[at])
    }

    /// All synthetic map-key fields created so far (name starts with
    /// `$map$`), used to expand non-constant-key `get` conservatively.
    /// Sorted by id, so the order is the program's, not the names'.
    pub fn map_key_fields(&self) -> Vec<FieldId> {
        let mut fields: Vec<FieldId> = self
            .synthetic_fields
            .iter()
            .copied()
            .filter(|&f| self.field(f).name.starts_with("$map$"))
            .collect();
        fields.sort_unstable();
        fields
    }

    // ----- methods -----

    /// Adds a method to its owner class, returning its id.
    pub fn add_method(&mut self, method: Method) -> MethodId {
        let owner = method.owner;
        let id = MethodId::new(self.methods.push(method));
        self.class_mut(owner).methods.push(id);
        id
    }

    /// Number of methods, the library's included.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Access a method.
    pub fn method(&self, id: MethodId) -> &Method {
        self.methods.get(id.index())
    }

    /// Mutable access to a method (a library method is copied into the
    /// program first).
    pub fn method_mut(&mut self, id: MethodId) -> &mut Method {
        self.methods.get_mut(id.index())
    }

    /// Iterates over `(MethodId, &Method)`.
    pub fn iter_methods(&self) -> impl Iterator<Item = (MethodId, &Method)> {
        self.methods.iter().enumerate().map(|(i, m)| (MethodId::new(i), m))
    }

    /// Ids of the methods this program added to its library. A pass that
    /// rewrites bodies visits only these: the library's bodies are in
    /// SSA form and fixed points of every modeling pass.
    pub fn own_method_ids(&self) -> impl Iterator<Item = MethodId> {
        self.methods.own_range().map(MethodId::new)
    }

    /// Interns a selector.
    pub fn selector(&mut self, name: &str, arity: usize) -> SelectorId {
        let sel = Selector { name: name.to_string(), arity };
        match self.lib.selectors.lookup(&sel) {
            Some(id) => SelectorId(id),
            None => SelectorId(self.lib.selectors.len() as u32 + self.selectors.intern(sel)),
        }
    }

    /// Looks up an interned selector.
    pub fn find_selector(&self, name: &str, arity: usize) -> Option<SelectorId> {
        let sel = Selector { name: name.to_string(), arity };
        match self.lib.selectors.lookup(&sel) {
            Some(id) => Some(SelectorId(id)),
            None => self
                .selectors
                .lookup(&sel)
                .map(|id| SelectorId(self.lib.selectors.len() as u32 + id)),
        }
    }

    /// Resolves a selector id.
    pub fn resolve_selector(&self, id: SelectorId) -> &Selector {
        match id.0.checked_sub(self.lib.selectors.len() as u32) {
            Some(own) => self.selectors.resolve(own),
            None => self.lib.selectors.resolve(id.0),
        }
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

    /// The key fields come back in one order, the creation order, not
    /// the order of their names.
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
    fn a_program_extends_the_library_without_changing_it() {
        let library = crate::stdlib::stdlib_program();
        let object = library.class_by_name("Object").unwrap();
        let types = library.types.len();

        let mut p = crate::stdlib::stdlib_program();
        let app = p.add_class(Class::new("App"));
        assert_eq!(app.index(), library.num_classes(), "own ids follow the library's");
        assert_eq!(p.class_by_name("App"), Some(app));
        let render = p.selector("render", 1);
        assert_eq!(p.resolve_selector(render).name, "render");
        assert_eq!(p.selector("render", 1), render);
        let elems = p.synthetic_field("$elems", p.types.string());
        assert_eq!(elems.index(), library.num_fields());
        assert_eq!(p.class(object).fields, vec![elems], "`Object` is copied, then changed");
        assert!(p.types.class(object).index() < types, "a library type keeps its id");
        let app_ty = p.types.class(app);
        let array = p.types.array(app_ty);
        assert_eq!(array.index(), types + 1, "own types follow the library's");
        assert_eq!(p.types.resolve(array), Type::Array(TypeId::new(types)));

        let next = crate::stdlib::stdlib_program();
        assert!(next.class(object).fields.is_empty(), "the library's `Object` is unchanged");
        assert_eq!(next.num_classes(), library.num_classes());
        assert_eq!(next.class_by_name("App"), None);
        assert_eq!(next.find_selector("render", 1), None);
        assert_eq!(next.types.len(), types);
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_class_panics() {
        let mut p = Program::new();
        p.add_class(Class::new("X"));
        p.add_class(Class::new("X"));
    }
}
