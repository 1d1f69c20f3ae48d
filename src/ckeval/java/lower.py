"""Lowering from parsed source units into the class model.

Reference extraction is token-pattern based, not semantic: method bodies
are scanned for local declarations, bare identifiers, ``recv.member`` and
``recv.member(...)`` chains, ``this.member`` and ``new Type(...)``.
Receiver names resolve in order: local variable types, own field types,
same-package classes, imported classes, then the unresolved marker.

Static members couple like instance members; uses of a class's own static
fields stay out of the cohesion sets. Field initializers are not scanned.

Each body is scanned once, left to right, over its kind and text columns
padded with end-of-file entries, so every look-ahead is a direct index. An
identifier's dotted chain is collected once and serves both the
local-declaration check and the reference patterns. The field tables each
body resolves against are built once per class.

A call's arity is the number of arguments between its parentheses, and
any token there makes at least one, so the sole argument of ``step((n))``
is ``(n)``. The same scan keeps a stack of open brackets, all three kinds
on one stack: a comma counts for the innermost one, and a call is recorded
with its arity when the bracket that closes its ``(`` pops it, or at the
end of the body if none does. No argument list is scanned twice, so
lowering stays linear in the body however deeply calls nest.
"""

from ..errors import DuplicateClassError
from ..model import ClassInfo, ClassModel, FieldInfo, build_model, make_method
from .lexer import PRIMITIVES
from .parser import ClassDecl, MethodDecl, SourceUnit

# builds a ``FieldInfo`` or ``ClassInfo`` in C, as the document reader does
_new_tuple = tuple.__new__
# the longest look-ahead past a body token is three tokens: this . x (
_PAD_KINDS = ("eof",) * 3
_PAD_TEXTS = ("",) * 3
# tokens that may start a pattern, besides identifiers; only keyword
# tokens have these texts
_PATTERN_KEYWORDS = frozenset({"this", "new"}) | PRIMITIVES
# what may follow the name in a local declaration `Type name`; only
# punctuation tokens have these texts
_DECLARATOR_END = frozenset("=;,:)")
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")


def qualified_name(package: str, simple: str) -> str:
    return f"{package}.{simple}" if package else simple


def lower_to_model(units: list[SourceUnit], project_name: str = "") -> ClassModel:
    """Join parsed units into one validated ClassModel; a class declared
    twice raises DuplicateClassError naming the files of both."""
    package_index: dict[str, dict[str, str]] = {}
    declared_in: dict[str, str] = {}  # qualified name -> its unit's path
    for unit in units:
        bucket = package_index.setdefault(unit.package_name, {})
        for decl in unit.classes:
            name = bucket[decl.name] = qualified_name(unit.package_name, decl.name)
            if name in declared_in:
                first = declared_in[name]
                raise DuplicateClassError(name, f"twice in {first}" if first == unit.path
                                          else f"in {first} and {unit.path}")
            declared_in[name] = unit.path

    classes: list[ClassInfo] = []
    for unit in units:
        # simple name -> qualified name: the package's table, plus the
        # unit's single-type imports while the unit is lowered; a
        # same-package class hides an import of the same simple name. A
        # written type name n resolves to names.get(n, n): a dotted name is
        # never a key, so it stays.
        names = package_index[unit.package_name]
        added = {simple: q for q, on_demand in unit.imports
                 if not on_demand and (simple := q.rsplit(".", 1)[-1]) not in names}
        names.update(added)
        for decl in unit.classes:
            own_name = qualified_name(unit.package_name, decl.name)
            classes.append(_lower_class(decl, own_name, names))
        for simple in added:
            del names[simple]
    return build_model(project_name, classes)


def _lower_class(decl: ClassDecl, own_name: str, names: dict[str, str]) -> ClassInfo:
    # each field's type: the class it names, None for a primitive type
    types = [None if f.type.is_primitive else names.get(f.type.text, f.type.text)
             for f in decl.fields]
    field_types = {f.name: t for f, t in zip(decl.fields, types)}
    # interface fields are implicitly static
    instance_fields = frozenset() if decl.kind == "interface" else frozenset(
        f.name for f in decl.fields if not f.is_static)
    methods = tuple(make_method(m.name, m.arity,
                                *_scan_body(m, own_name, names, instance_fields, field_types))
                    for m in decl.methods)

    if decl.kind == "interface":
        # interfaces carry abstract methods only; their extends list is
        # interface inheritance, which stays off the class tree
        interfaces = tuple(names.get(n, n) for n in decl.extends + decl.implements)
        return _new_tuple(ClassInfo, (own_name, None, interfaces, (), methods, False))

    superclass = names.get(decl.extends[0], decl.extends[0]) if decl.extends else None
    interfaces = tuple(names.get(n, n) for n in decl.implements)
    fields = tuple([_new_tuple(FieldInfo, (f.name, t))
                    for f, t in zip(decl.fields, types)])
    return _new_tuple(ClassInfo, (own_name, superclass, interfaces, fields, methods, False))


def _scan_body(method: MethodDecl, own_name: str, classes: dict[str, str],
               instance_fields: frozenset[str], field_types: dict[str, str | None]):
    """The used fields, (class, name, arity) calls and referenced classes
    of one method body, none for a method without one.

    Names resolve through ``classes`` (simple name -> qualified name) and
    ``field_types`` (own field -> the class its type names, None for a
    primitive type); only ``instance_fields`` count as used fields.
    """
    body = method.body
    if body is None:
        return (), (), ()
    kinds = body.kinds + _PAD_KINDS
    texts = body.texts + _PAD_TEXTS
    n = len(body)
    # local name -> the class its type names, None for a primitive type
    local_types = {name: None if t.is_primitive else classes.get(t.text, t.text)
                   for t, name in method.params}
    used_fields: set[str] = set()
    calls: set[tuple[str | None, str, int]] = set()
    referenced: set[str] = set()
    # the open brackets, innermost last, as [index, commas directly inside,
    # class and name of the call it opens]; the name is None if no call
    brackets: list[list] = []

    i = 0
    while i < n:
        kind = kinds[i]
        if kind == "punct":
            text = texts[i]
            if text == ",":
                if brackets:
                    brackets[-1][1] += 1
            elif text in _OPENERS:
                brackets.append([i, 0, None, None])
            elif text in _CLOSERS and brackets:
                start, commas, target, name = brackets.pop()
                if name is not None:
                    calls.add((target, name, commas + 1 if i > start + 1 else 0))
            i += 1

        elif kind == "ident":
            # texts[-1] is padding, so the first token needs no check
            if texts[i - 1] == ".":
                i += 1
                continue
            # the chain texts[i], texts[i + 2], ..., texts[j - 1]
            j = i + 1
            while texts[j] == "." and kinds[j + 1] == "ident":
                j += 2
            name = texts[i]
            # a local declaration: the chain is its type
            k = j
            while texts[k] == "[" and texts[k + 1] == "]":
                k += 2
            if kinds[k] == "ident" and texts[k + 1] in _DECLARATOR_END:
                written = ".".join(texts[i:j:2])
                local_types[texts[k]] = classes.get(written, written)
                i = k + 1
                continue

            is_call = texts[j] == "("
            if j == i + 1:
                if is_call:
                    brackets.append([j, 0, own_name, name])
                    i = j + 1
                    continue
                if name in instance_fields and name not in local_types:
                    used_fields.add(name)
                i = j
                continue

            # name is the receiver of a chain
            if name in local_types:
                target = local_types[name]
            else:
                if name in instance_fields:
                    used_fields.add(name)
                target = field_types[name] if name in field_types else classes.get(name)
            if target is not None and target != own_name:
                referenced.add(target)
            if is_call:
                # chains deeper than recv.member lose the receiver type
                brackets.append([j, 0, target if j == i + 3 else None,
                                 texts[j - 1]])
                i = j + 1
            else:
                i = j

        elif kind == "keyword" and texts[i] in _PATTERN_KEYWORDS:
            text = texts[i]
            if text == "this":
                if texts[i + 1] == "." and kinds[i + 2] == "ident":
                    member = texts[i + 2]
                    if texts[i + 3] == "(":
                        brackets.append([i + 3, 0, own_name, member])
                        i += 4
                        continue
                    if member in instance_fields:
                        used_fields.add(member)
                    i += 3
                    continue
            elif text == "new":
                if kinds[i + 1] == "ident":
                    j = i + 2
                    while texts[j] == "." and kinds[j + 1] == "ident":
                        j += 2
                    if texts[j] == "(":
                        written = ".".join(texts[i + 1:j:2])
                        resolved = classes.get(written, written)
                        brackets.append([j, 0, resolved, texts[j - 1]])
                        if resolved != own_name:
                            referenced.add(resolved)
                        i = j + 1
                    else:
                        i = j  # array allocation or similar: nothing to record
                    continue
            else:  # a primitive type, perhaps of a local declaration
                k = i + 1
                while texts[k] == "[" and texts[k + 1] == "]":
                    k += 2
                if kinds[k] == "ident" and texts[k + 1] in _DECLARATOR_END:
                    local_types[texts[k]] = None
                    i = k + 1
                    continue
            i += 1
        else:
            i += 1

    # brackets still open close at the end of the body
    for start, commas, target, name in brackets:
        if name is not None:
            calls.add((target, name, commas + 1 if n > start + 1 else 0))
    return used_fields, calls, referenced
