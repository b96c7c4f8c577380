//! The intrinsic model library: TAJ's "synthetic models" (§4.2).
//!
//! TAJ never analyzes the real Java standard library or the Java EE
//! container; it substitutes concise models that capture taint-relevant
//! behaviour. This module plays the same role: it defines the library
//! surface (servlet API, collections, string builders, reflection, JDBC,
//! threads, Struts/EJB hooks) in jweb source, then patches selected
//! body-less methods with [`Intrinsic`] semantics.
//!
//! The library is built once per process, in prepared form: lowered,
//! intrinsics patched, bodies in SSA. Every program extends that one
//! shared library rather than a copy of it.

use std::sync::OnceLock;

use crate::method::{Intrinsic, MethodKind};
use crate::program::{Library, Program};

/// jweb source of the model library. Body-less methods are patched to
/// intrinsics by [`stdlib_program`]; methods with bodies are analyzed like
/// application code (but live in `library` classes).
pub const STDLIB_SRC: &str = r#"
library class Object {
    method String toString();
    method boolean equals(Object other);
    method int hashCode();
}

library class Throwable {
    field String msg;
    ctor () { }
    ctor (String m) { this.msg = m; }
    method String getMessage();
    method void printStackTrace();
    method String toString();
}
library class Exception extends Throwable {
    ctor () { }
    ctor (String m) { this.msg = m; }
}
library class RuntimeException extends Exception {
    ctor () { }
    ctor (String m) { this.msg = m; }
}
library class IOException extends Exception {
    ctor () { }
    ctor (String m) { this.msg = m; }
}

library class StringBuilder {
    ctor () { }
    method StringBuilder append(String s);
    method String toString();
}
library class StringBuffer {
    ctor () { }
    method StringBuffer append(String s);
    method String toString();
}

library interface Map {
    method void put(String key, Object value);
    method Object get(String key);
}
library class HashMap implements Map {
    ctor () { }
    method void put(String key, Object value);
    method Object get(String key);
}
library class Hashtable implements Map {
    ctor () { }
    method void put(String key, Object value);
    method Object get(String key);
}
library interface Iterator {
    method boolean hasNext();
    method Object next();
}
library interface List {
    method void add(Object value);
    method Object get(int index);
    method Iterator iterator();
    method int size();
}
library class ArrayList implements List {
    ctor () { }
    method void add(Object value);
    method Object get(int index);
    method Iterator iterator();
    method Object next();
    method boolean hasNext();
    method int size();
}
library class Vector implements List {
    ctor () { }
    method void add(Object value);
    method Object get(int index);
    method Iterator iterator();
    method Object next();
    method boolean hasNext();
    method int size();
}

library class HttpSession {
    ctor () { }
    method void setAttribute(String key, Object value);
    method Object getAttribute(String key);
}
library class Cookie {
    ctor () { }
    method String getName();
    method String getValue();
}
library class HttpServletRequest {
    field HttpSession session;
    ctor () { this.session = new HttpSession(); }
    method String getParameter(String name);
    method String getHeader(String name);
    method String getQueryString();
    method Cookie[] getCookies();
    method HttpSession getSession() { return this.session; }
}
library class PrintWriter {
    method void println(Object value);
    method void print(Object value);
    method void write(String value);
}
library class HttpServletResponse {
    ctor () { }
    method PrintWriter getWriter();
    method void sendRedirect(String url);
    method void addHeader(String name, String value);
}
library class HttpServlet {
    ctor () { }
    method void doGet(HttpServletRequest req, HttpServletResponse resp) { }
    method void doPost(HttpServletRequest req, HttpServletResponse resp) { }
    method void service(HttpServletRequest req, HttpServletResponse resp) {
        this.doGet(req, resp);
        this.doPost(req, resp);
    }
}

library class URLEncoder {
    static method String encode(String s);
}
library class Encoder {
    static method String encodeForHTML(String s);
    static method String encodeForSQL(String s);
    static method String encodeForOS(String s);
    static method String canonicalize(String s);
}

library class Statement {
    method ResultSet executeQuery(String sql);
    method int executeUpdate(String sql);
}
library class ResultSet {
    method String getString(String column);
    method boolean next();
}
library class Connection {
    method Statement createStatement();
}
library class DriverManager {
    static method Connection getConnection(String url);
}

library class Runtime {
    static method Runtime getRuntime();
    method Process exec(String command);
}
library class Process {
    ctor () { }
}
library class File {
    field String path;
    ctor (String path) { this.path = path; }
}
library class FileInputStream {
    field String path;
    ctor (String path) { this.path = path; }
    method String read();
}
library class FileWriter {
    field String path;
    ctor (String path) { this.path = path; }
    method void write(String data);
}

library class Class {
    static method Class forName(String name);
    method Method[] getMethods();
    method Method getMethod(String name);
    method Object newInstance();
}
library class Method {
    method String getName();
    method Object invoke(Object receiver, Object[] args);
}

library interface Runnable {
    method void run();
}
library class Thread implements Runnable {
    field Runnable target;
    ctor () { }
    ctor (Runnable r) { this.target = r; }
    method void start();
    method void run() {
        Runnable t = this.target;
        t.run();
    }
}

library class ByteBuffer {
    field String data;
    ctor () { }
    method String asString() { return this.data; }
}
library class RandomAccessFile {
    field String path;
    ctor (String path) { this.path = path; }
    method void readFully(ByteBuffer buffer);
}

library class Integer {
    static method int parseInt(String s);
    static method String asText(int value);
}

library class Date {
    static method String getDate();
}
library class System {
    static method String getProperty(String name);
}

library class ActionForm {
    ctor () { }
}
library class ActionMapping {
    ctor () { }
}
library class Action {
    ctor () { }
    method void execute(ActionMapping mapping, ActionForm form,
                        HttpServletRequest req, HttpServletResponse resp) { }
}
library class Struts {
    static method String taintedInput();
}

library class InitialContext {
    ctor () { }
    method Object lookup(String name);
}
library class PortableRemoteObject {
    static method Object narrow(Object ref, Class target);
}
library interface EJBHome {
}
library interface EJBObject {
}
"#;

/// Returns a program containing exactly the model library, with intrinsic
/// semantics patched in, collection/factory markers set and bodies in SSA
/// form.
///
/// The library is parsed, lowered and converted once per process, and
/// every program returned extends that one shared library: it holds
/// only what is added to it, and a pass that changes a library class or
/// method (a whitelist, the synthetic fields on `Object`) changes the
/// program's own copy of that entity.
///
/// # Panics
/// Panics if the embedded library source fails to parse (a bug, covered by
/// tests).
pub fn stdlib_program() -> Program {
    static LIBRARY: OnceLock<Library> = OnceLock::new();
    Program::on(LIBRARY.get_or_init(|| {
        let mut p = library_program();
        crate::ssa::program_to_ssa(&mut p);
        Library::freeze(p)
    }))
}

/// Builds the model library afresh as a program of its own, on the empty
/// library and before SSA: what the shared library is made from. A pass
/// run on it visits the library's bodies, which a program returned by
/// [`stdlib_program`] never does.
///
/// # Panics
/// Panics if the embedded library source fails to parse.
pub fn library_program() -> Program {
    let mut p = Program::new();
    let ast = crate::parser::parse(STDLIB_SRC).expect("stdlib source parses");
    crate::lower::lower(&mut p, &ast).expect("stdlib source lowers");

    // Collections get unlimited-depth object sensitivity (§3.1).
    for name in ["HashMap", "Hashtable", "ArrayList", "Vector", "HttpSession"] {
        let c = p.class_by_name(name).expect("collection class exists");
        p.class_mut(c).is_collection = true;
    }

    // Intrinsic semantics for body-less methods.
    let patches: &[(&str, &str, usize, Intrinsic)] = &[
        ("Object", "toString", 0, Intrinsic::Propagate),
        ("Object", "equals", 1, Intrinsic::Fresh),
        ("Object", "hashCode", 0, Intrinsic::Fresh),
        ("Throwable", "getMessage", 0, Intrinsic::GetMessage),
        ("Throwable", "printStackTrace", 0, Intrinsic::Nop),
        ("Throwable", "toString", 0, Intrinsic::Propagate),
        ("StringBuilder", "append", 1, Intrinsic::BuilderAppend),
        ("StringBuilder", "toString", 0, Intrinsic::BuilderToString),
        ("StringBuffer", "append", 1, Intrinsic::BuilderAppend),
        ("StringBuffer", "toString", 0, Intrinsic::BuilderToString),
        ("HashMap", "put", 2, Intrinsic::MapPut),
        ("HashMap", "get", 1, Intrinsic::MapGet),
        ("Hashtable", "put", 2, Intrinsic::MapPut),
        ("Hashtable", "get", 1, Intrinsic::MapGet),
        ("ArrayList", "add", 1, Intrinsic::CollAdd),
        ("ArrayList", "get", 1, Intrinsic::CollGet),
        ("ArrayList", "iterator", 0, Intrinsic::IterAlias),
        ("ArrayList", "next", 0, Intrinsic::CollGet),
        ("ArrayList", "hasNext", 0, Intrinsic::Fresh),
        ("ArrayList", "size", 0, Intrinsic::Fresh),
        ("Vector", "add", 1, Intrinsic::CollAdd),
        ("Vector", "get", 1, Intrinsic::CollGet),
        ("Vector", "iterator", 0, Intrinsic::IterAlias),
        ("Vector", "next", 0, Intrinsic::CollGet),
        ("Vector", "hasNext", 0, Intrinsic::Fresh),
        ("Vector", "size", 0, Intrinsic::Fresh),
        ("HttpSession", "setAttribute", 2, Intrinsic::MapPut),
        ("HttpSession", "getAttribute", 1, Intrinsic::MapGet),
        ("Cookie", "getName", 0, Intrinsic::Fresh),
        ("Cookie", "getValue", 0, Intrinsic::Fresh),
        ("HttpServletRequest", "getParameter", 1, Intrinsic::Fresh),
        ("HttpServletRequest", "getHeader", 1, Intrinsic::Fresh),
        ("HttpServletRequest", "getQueryString", 0, Intrinsic::Fresh),
        ("PrintWriter", "println", 1, Intrinsic::Nop),
        ("PrintWriter", "print", 1, Intrinsic::Nop),
        ("PrintWriter", "write", 1, Intrinsic::Nop),
        ("HttpServletResponse", "sendRedirect", 1, Intrinsic::Nop),
        ("HttpServletResponse", "addHeader", 2, Intrinsic::Nop),
        ("URLEncoder", "encode", 1, Intrinsic::Propagate),
        ("Encoder", "encodeForHTML", 1, Intrinsic::Propagate),
        ("Encoder", "encodeForSQL", 1, Intrinsic::Propagate),
        ("Encoder", "encodeForOS", 1, Intrinsic::Propagate),
        ("Encoder", "canonicalize", 1, Intrinsic::Propagate),
        ("Statement", "executeUpdate", 1, Intrinsic::Fresh),
        ("ResultSet", "getString", 1, Intrinsic::Fresh),
        ("ResultSet", "next", 0, Intrinsic::Fresh),
        ("FileInputStream", "read", 0, Intrinsic::Fresh),
        ("FileWriter", "write", 1, Intrinsic::Nop),
        ("Class", "forName", 1, Intrinsic::ClassForName),
        ("Class", "getMethods", 0, Intrinsic::GetMethods),
        ("Class", "getMethod", 1, Intrinsic::GetMethod),
        ("Class", "newInstance", 0, Intrinsic::ClassNewInstance),
        ("Method", "getName", 0, Intrinsic::MethodGetName),
        ("Method", "invoke", 2, Intrinsic::MethodInvoke),
        ("Thread", "start", 0, Intrinsic::ThreadStart),
        ("RandomAccessFile", "readFully", 1, Intrinsic::Nop),
        ("Integer", "parseInt", 1, Intrinsic::Fresh),
        ("Integer", "asText", 1, Intrinsic::Fresh),
        ("Date", "getDate", 0, Intrinsic::Fresh),
        ("System", "getProperty", 1, Intrinsic::Fresh),
        ("Struts", "taintedInput", 0, Intrinsic::Fresh),
        ("InitialContext", "lookup", 1, Intrinsic::Fresh),
        ("PortableRemoteObject", "narrow", 2, Intrinsic::Propagate),
    ];
    for &(class, method, arity, intr) in patches {
        patch_intrinsic(&mut p, class, method, arity, intr);
    }

    // Allocation-returning intrinsics need their class id.
    let writer = p.class_by_name("PrintWriter").expect("PrintWriter");
    patch_intrinsic(&mut p, "HttpServletResponse", "getWriter", 0, Intrinsic::FreshObject(writer));
    let result_set = p.class_by_name("ResultSet").expect("ResultSet");
    patch_intrinsic(&mut p, "Statement", "executeQuery", 1, Intrinsic::FreshObject(result_set));
    let statement = p.class_by_name("Statement").expect("Statement");
    patch_intrinsic(&mut p, "Connection", "createStatement", 0, Intrinsic::FreshObject(statement));
    let connection = p.class_by_name("Connection").expect("Connection");
    patch_intrinsic(
        &mut p,
        "DriverManager",
        "getConnection",
        1,
        Intrinsic::FreshObject(connection),
    );
    let runtime = p.class_by_name("Runtime").expect("Runtime");
    patch_intrinsic(&mut p, "Runtime", "getRuntime", 0, Intrinsic::FreshObject(runtime));
    let process = p.class_by_name("Process").expect("Process");
    patch_intrinsic(&mut p, "Runtime", "exec", 1, Intrinsic::FreshObject(process));
    patch_intrinsic(&mut p, "HttpServletRequest", "getCookies", 0, Intrinsic::Fresh);

    // Library factory methods get one level of call-string context (§3.1).
    for (class, method) in [
        ("HttpServletResponse", "getWriter"),
        ("Connection", "createStatement"),
        ("DriverManager", "getConnection"),
        ("Runtime", "getRuntime"),
        ("Statement", "executeQuery"),
    ] {
        let c = p.class_by_name(class).expect("factory class exists");
        let m = p.method_by_name(c, method).expect("factory method exists");
        p.method_mut(m).is_factory = true;
    }

    p
}

fn patch_intrinsic(p: &mut Program, class: &str, method: &str, arity: usize, intr: Intrinsic) {
    let c = p.class_by_name(class).unwrap_or_else(|| panic!("stdlib class `{class}`"));
    let m = p
        .class(c)
        .methods
        .iter()
        .copied()
        .find(|&m| p.method(m).name == method && p.method(m).params.len() == arity)
        .unwrap_or_else(|| panic!("stdlib method `{class}.{method}/{arity}`"));
    p.method_mut(m).kind = MethodKind::Intrinsic(intr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Intrinsic;

    #[test]
    fn stdlib_builds() {
        let p = stdlib_program();
        assert!(p.class_by_name("Object").is_some());
        assert!(p.class_by_name("HttpServletRequest").is_some());
        assert!(p.class_by_name("Method").is_some());
    }

    #[test]
    fn object_is_class_zero() {
        let p = stdlib_program();
        // `Program::synthetic_field` assumes class 0 is the root object.
        assert_eq!(p.class_by_name("Object").unwrap().index(), 0);
    }

    #[test]
    fn collections_marked() {
        let p = stdlib_program();
        let hm = p.class_by_name("HashMap").unwrap();
        assert!(p.class(hm).is_collection);
        let sb = p.class_by_name("StringBuilder").unwrap();
        assert!(
            !p.class(sb).is_collection,
            "builders are modeled via $content, not as collections"
        );
    }

    #[test]
    fn intrinsics_patched() {
        let p = stdlib_program();
        let req = p.class_by_name("HttpServletRequest").unwrap();
        let gp = p.method_by_name(req, "getParameter").unwrap();
        assert_eq!(p.method(gp).intrinsic(), Some(Intrinsic::Fresh));
        let map = p.class_by_name("HashMap").unwrap();
        let put = p.method_by_name(map, "put").unwrap();
        assert_eq!(p.method(put).intrinsic(), Some(Intrinsic::MapPut));
    }

    #[test]
    fn get_session_has_real_body() {
        let p = stdlib_program();
        let req = p.class_by_name("HttpServletRequest").unwrap();
        let gs = p.method_by_name(req, "getSession").unwrap();
        assert!(p.method(gs).body().is_some(), "getSession reads a real field");
    }

    #[test]
    fn factories_marked() {
        let p = stdlib_program();
        let resp = p.class_by_name("HttpServletResponse").unwrap();
        let gw = p.method_by_name(resp, "getWriter").unwrap();
        assert!(p.method(gw).is_factory);
        assert!(matches!(p.method(gw).intrinsic(), Some(Intrinsic::FreshObject(_))));
    }

    #[test]
    fn hierarchy_sane() {
        let p = stdlib_program();
        let exc = p.class_by_name("Exception").unwrap();
        let thr = p.class_by_name("Throwable").unwrap();
        let obj = p.class_by_name("Object").unwrap();
        assert!(p.is_subtype(exc, thr));
        assert!(p.is_subtype(exc, obj));
        let thread = p.class_by_name("Thread").unwrap();
        let runnable = p.class_by_name("Runnable").unwrap();
        assert!(p.is_subtype(thread, runnable));
    }

    #[test]
    fn all_library_classes_flagged() {
        let p = stdlib_program();
        for (_, c) in p.iter_classes() {
            assert!(c.is_library, "stdlib class `{}` must be library", c.name);
        }
    }
}
