//! The (deliberately small) type system of the jweb IR: primitives, class
//! references, and arrays, interned in a [`TypeTable`].

use crate::class::ClassId;
use crate::index_type;
use crate::util::{FxBuildHasher, Interner};

index_type! {
    /// Interned id of a [`Type`].
    pub struct TypeId, "ty"
}

/// A jweb type.
///
/// `String` is a primitive at the IR level: following TAJ's *string carrier*
/// modeling (§4.2.1 of the paper), string values are handled "as if they were
/// primitive values", so they never receive heap instance keys and flow only
/// through def-use and store/load dependencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void`, only valid as a return type.
    Void,
    /// 32-bit integers (also used for booleans after lowering comparisons).
    Int,
    /// Booleans.
    Boolean,
    /// Strings, treated as primitive string-carrier values.
    Str,
    /// The type of `null`.
    Null,
    /// A class or interface reference.
    Class(ClassId),
    /// An array with the given element type.
    Array(TypeId),
}

impl Type {
    /// Whether values of this type can point into the heap (receive
    /// points-to sets in the pointer analysis).
    pub fn is_reference(self) -> bool {
        matches!(self, Type::Class(_) | Type::Array(_) | Type::Null)
    }

    /// Returns the class id if this is a class type.
    pub fn as_class(self) -> Option<ClassId> {
        match self {
            Type::Class(c) => Some(c),
            _ => None,
        }
    }
}

/// The id every [`TypeTable`] gives the `null` type, for code that has
/// no table at hand.
pub(crate) const NULL: TypeId = TypeId(4);

/// Interner for [`Type`]s; guarantees `TypeId` equality iff type equality.
///
/// A table may extend a shared base table (the model library's):
/// the base's types keep their ids, and the table's own follow them.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    base: Option<&'static TypeTable>,
    /// Keys are ids the program mints, so they hash with Fx.
    inner: Interner<Type, FxBuildHasher>,
}

impl TypeTable {
    /// Creates a table pre-seeded with the primitive types so their ids are
    /// stable and cheap to obtain.
    pub fn new() -> Self {
        let mut t = TypeTable::default();
        // Seed in a fixed order; see the `WellKnown` accessors below.
        t.intern(Type::Void);
        t.intern(Type::Int);
        t.intern(Type::Boolean);
        t.intern(Type::Str);
        t.intern(Type::Null);
        t
    }

    /// Creates a table that extends `base`, which must extend no other.
    pub(crate) fn extending(base: &'static TypeTable) -> Self {
        assert!(base.base.is_none(), "a base type table extends no other");
        TypeTable { base: Some(base), inner: Interner::default() }
    }

    /// The same types under the same ids, in one table of its own.
    pub(crate) fn flatten(&self) -> TypeTable {
        let mut flat = TypeTable::default();
        for i in 0..self.len() {
            flat.inner.intern(self.resolve(TypeId(i as u32)));
        }
        flat
    }

    fn base_len(&self) -> u32 {
        self.base.map_or(0, |b| b.inner.len() as u32)
    }

    /// Interns a type.
    pub fn intern(&mut self, ty: Type) -> TypeId {
        if let Some(id) = self.base.and_then(|b| b.inner.lookup(&ty)) {
            return TypeId(id);
        }
        TypeId(self.base_len() + self.inner.intern(ty))
    }

    /// Resolves a type id.
    #[inline]
    pub fn resolve(&self, id: TypeId) -> Type {
        match self.base {
            Some(b) => match id.0.checked_sub(b.inner.len() as u32) {
                Some(own) => *self.inner.resolve(own),
                None => *b.inner.resolve(id.0),
            },
            None => *self.inner.resolve(id.0),
        }
    }

    /// The id of `void`.
    pub fn void(&self) -> TypeId {
        TypeId(0)
    }

    /// The id of `int`.
    pub fn int(&self) -> TypeId {
        TypeId(1)
    }

    /// The id of `boolean`.
    pub fn boolean(&self) -> TypeId {
        TypeId(2)
    }

    /// The id of `String`.
    pub fn string(&self) -> TypeId {
        TypeId(3)
    }

    /// The id of the `null` type.
    pub fn null(&self) -> TypeId {
        NULL
    }

    /// Interns `Class(c)`.
    pub fn class(&mut self, c: ClassId) -> TypeId {
        self.intern(Type::Class(c))
    }

    /// Interns `Array(elem)`.
    pub fn array(&mut self, elem: TypeId) -> TypeId {
        self.intern(Type::Array(elem))
    }

    /// Number of distinct types, the base's included.
    pub fn len(&self) -> usize {
        self.base_len() as usize + self.inner.len()
    }

    /// Whether the table holds no types (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_preseeded() {
        let t = TypeTable::new();
        assert_eq!(t.resolve(t.void()), Type::Void);
        assert_eq!(t.resolve(t.int()), Type::Int);
        assert_eq!(t.resolve(t.string()), Type::Str);
        assert_eq!(t.resolve(t.null()), Type::Null);
        assert_eq!(t.resolve(t.boolean()), Type::Boolean);
    }

    #[test]
    fn class_and_array_types_are_deduped() {
        let mut t = TypeTable::new();
        let c = ClassId(7);
        let a = t.class(c);
        let b = t.class(c);
        assert_eq!(a, b);
        let arr1 = t.array(a);
        let arr2 = t.array(b);
        assert_eq!(arr1, arr2);
        assert_eq!(t.resolve(arr1), Type::Array(a));
    }

    #[test]
    fn reference_classification() {
        let mut t = TypeTable::new();
        let c = t.class(ClassId(0));
        assert!(t.resolve(c).is_reference());
        assert!(!Type::Int.is_reference());
        assert!(!Type::Str.is_reference(), "strings are primitive string carriers");
        assert_eq!(t.resolve(c).as_class(), Some(ClassId(0)));
    }
}
