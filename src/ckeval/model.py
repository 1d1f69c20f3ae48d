"""Language-neutral class model: the substrate all metric math runs on.

A model is a set of classes with their methods, fields, inheritance edges
and member references. Models come from the Java frontend or from class
model documents (JSON, ``schemaVersion: 1``); both paths normalize and
validate before anything downstream sees the data.

The document reader checks each class, method and call entry in one pass,
in a fixed order, and spells out an entry's location (such as
``classes[3].methods[0].calls[2].arity``) only when a check fails. A call
entry as a JSON parser gives it (a ``dict`` whose values are exactly
``str``, ``int`` or ``None``) passes one exact-type test; any other entry,
such as a ``str`` subclass, a ``bool`` arity or an ``OrderedDict``, goes
through the ``isinstance`` checks, which accept or refuse it as before. An
array of names is checked by one ``str.join``. The reader keeps members in
document order: ``build_model`` is the one step that sorts and
de-duplicates them, for both paths, and keeps a class whose members are
already in order. ``_check`` is the one validation pass.

Every value type here is a ``NamedTuple``: it is iterable, equals and
hashes as its plain tuple of fields, orders against plain tuples, and is
copied with ``_replace``. The reader builds ``FieldInfo``, ``CallRef``,
``MethodInfo`` and ``ClassInfo`` in C with ``tuple.__new__``, not through
the ``NamedTuple``'s Python-level ``__new__``. ``ClassModel`` keeps its
caches, built on first use, in its instance ``__dict__``: they take no part
in ``==``, ``repr`` or ``hash``, and a ``_replace`` copy starts without them.
The reader and the Java lowering both build a method through
``make_method``, which turns each call triple into a ``CallRef`` and gives
every method without used fields, calls or referenced classes one shared
empty ``frozenset``.
"""

from functools import cached_property
import json
from operator import attrgetter
from typing import NamedTuple

from .errors import DuplicateClassError, InheritanceCycleError, SchemaError

SCHEMA_VERSION = 1


class FieldInfo(NamedTuple):
    name: str
    declared_type: str | None = None


class CallRef(NamedTuple):
    """One called method: target class (None when unresolved), name, arity.

    Arity is optional in documents; the frontend always records it. A
    ``CallRef`` is a tuple: it equals, hashes and orders as its triple.
    """

    class_name: str | None
    method: str
    arity: int | None = None

    def sort_key(self) -> tuple:
        return (self.class_name or "", self.method, -1 if self.arity is None else self.arity)


# the member set of every method that has none: many methods use no field
# or make no call, and on 3.11 each ``frozenset()`` call builds a new set
_NO_MEMBERS: frozenset = frozenset()


class MethodInfo(NamedTuple):
    name: str
    arity: int
    used_fields: frozenset[str] = _NO_MEMBERS
    called_methods: frozenset[CallRef] = _NO_MEMBERS
    referenced_classes: frozenset[str] = _NO_MEMBERS


_new_tuple = tuple.__new__


def make_method(name: str, arity: int, used_fields, calls, referenced_classes) -> MethodInfo:
    """The ``MethodInfo`` of ``name``/``arity`` with the given used fields,
    ``(class_name, method, arity)`` call triples and referenced classes.

    Equal to ``MethodInfo(name, arity, frozenset(used_fields),
    frozenset(CallRef(*t) for t in calls), frozenset(referenced_classes))``,
    built in C with ``tuple.__new__``; an empty member set is one shared
    ``frozenset()``.
    """
    return _new_tuple(MethodInfo, (
        name, arity,
        frozenset(used_fields) if used_fields else _NO_MEMBERS,
        frozenset([_new_tuple(CallRef, t) for t in calls]) if calls else _NO_MEMBERS,
        frozenset(referenced_classes) if referenced_classes else _NO_MEMBERS))


class ClassInfo(NamedTuple):
    qualified_name: str
    superclass: str | None = None
    interfaces: tuple[str, ...] = ()
    fields: tuple[FieldInfo, ...] = ()
    methods: tuple[MethodInfo, ...] = ()
    is_external: bool = False


class ClassModel(NamedTuple("ClassModel", [("project_name", str),
                                             ("classes", tuple[ClassInfo, ...])])):
    @cached_property
    def _by_name(self) -> dict[str, ClassInfo]:
        return {c.qualified_name: c for c in self.classes}

    def get(self, qualified_name: str) -> ClassInfo | None:
        return self._by_name.get(qualified_name)

    def __contains__(self, qualified_name: str) -> bool:
        return qualified_name in self._by_name

    def internal_classes(self) -> tuple[ClassInfo, ...]:
        return tuple(c for c in self.classes if not c.is_external)


class Diagnostic(NamedTuple):
    code: str
    location: str
    message: str


def validate_model(model: ClassModel) -> list[Diagnostic]:
    """Check every model invariant; an empty list means the model is sound."""
    return _check(model)[0]


def _check(model: ClassModel) -> tuple[list[Diagnostic], list[str] | None]:
    """One validation pass: all diagnostics, and the extends cycle if any."""
    diags: list[Diagnostic] = []
    seen: dict[str, ClassInfo] = {}
    for cls in model.classes:
        if cls.qualified_name in seen:
            diags.append(Diagnostic("DUPLICATE_CLASS", cls.qualified_name,
                                    "qualified class name declared more than once"))
            continue
        seen[cls.qualified_name] = cls

    for cls in seen.values():
        loc = cls.qualified_name
        if cls.superclass == cls.qualified_name:
            diags.append(Diagnostic("SELF_EXTENDS", loc, "class extends itself"))
        elif cls.superclass is not None and cls.superclass not in seen:
            diags.append(Diagnostic("UNKNOWN_SUPERCLASS", loc,
                                    f"superclass {cls.superclass!r} is not in the model"))
        if cls.is_external and (cls.methods or cls.fields or cls.superclass):
            diags.append(Diagnostic("EXTERNAL_WITH_MEMBERS", loc,
                                    "external stub must not carry members or a superclass"))

        field_names: set[str] = set()
        for f in cls.fields:
            if f.name in field_names:
                diags.append(Diagnostic("DUPLICATE_FIELD", f"{loc}.{f.name}",
                                        "field name declared more than once"))
            field_names.add(f.name)

        signatures: set[tuple[str, int]] = set()
        for m in cls.methods:
            sig = (m.name, m.arity)
            if sig in signatures:
                diags.append(Diagnostic("DUPLICATE_METHOD", f"{loc}.{m.name}/{m.arity}",
                                        "method signature (name, arity) declared more than once"))
            signatures.add(sig)
            if not field_names.issuperset(m.used_fields):
                for used in sorted(m.used_fields):
                    if used not in field_names:
                        diags.append(Diagnostic("UNKNOWN_FIELD", f"{loc}.{m.name}/{m.arity}",
                                                f"method uses undeclared field {used!r}"))

    cycle = _find_cycle(seen)
    if cycle is not None and len(cycle) > 1:  # a self-extends is reported above
        diags.append(Diagnostic("INHERITANCE_CYCLE", cycle[0],
                                "extends cycle: " + " -> ".join(cycle)))
    return diags, cycle


def _find_cycle(classes: dict[str, ClassInfo]) -> list[str] | None:
    """The first extends cycle met walking up from each class in name order.

    Each class has at most one superclass, so a walk is a single path; it
    ends at a class already cleared, at a root, or back on its own trail.
    """
    cleared: set[str] = set()
    for start in sorted(classes):
        trail: list[str] = []
        position: dict[str, int] = {}
        name = start
        while name in classes and name not in cleared:
            if name in position:
                return trail[position[name]:]
            position[name] = len(trail)
            trail.append(name)
            name = classes[name].superclass
        cleared.update(trail)
    return None


_QUALIFIED_NAME = attrgetter("qualified_name")
_FIELD_KEY = attrgetter("name")
_METHOD_KEY = attrgetter("name", "arity")


def build_model(project_name: str, classes: list[ClassInfo]) -> ClassModel:
    """Normalize, auto-stub unknown superclasses, and validate.

    Superclass references that name no class in the input get an external
    stub entry, so inheritance chains stay resolvable; anything else that
    violates an invariant raises: a duplicate name first, then a cycle,
    then the first other diagnostic.
    """
    known = {c.qualified_name for c in classes}
    stubs = []
    for cls in classes:
        if cls.superclass is not None and cls.superclass not in known:
            if cls.superclass != cls.qualified_name:
                known.add(cls.superclass)
                stubs.append(ClassInfo(qualified_name=cls.superclass, is_external=True))
    normalized = [_normalize(cls) for cls in classes]
    normalized.extend(stubs)
    normalized.sort(key=_QUALIFIED_NAME)
    model = ClassModel(project_name=project_name, classes=tuple(normalized))

    diags, cycle = _check(model)
    for d in diags:
        if d.code == "DUPLICATE_CLASS":
            raise DuplicateClassError(d.location)
    if cycle is not None:
        raise InheritanceCycleError(cycle)
    if diags:
        d = diags[0]
        raise SchemaError(d.location, f"{d.code}: {d.message}")
    return model


def _normalize(cls: ClassInfo) -> ClassInfo:
    """``cls`` with sorted, de-duplicated interfaces and fields and methods in
    name (then arity) order; ``cls`` itself when it is already in that form.

    Sorting members that are already in order costs one comparison per
    member, so a class whose members are in order is checked, not copied.
    """
    interfaces = tuple(sorted(set(cls.interfaces)))
    fields = tuple(sorted(cls.fields, key=_FIELD_KEY))
    methods = tuple(sorted(cls.methods, key=_METHOD_KEY))
    if interfaces == cls.interfaces and fields == cls.fields and methods == cls.methods:
        return cls
    return cls._replace(interfaces=interfaces, fields=fields, methods=methods)


# --- document loading -------------------------------------------------------

def load_class_model(document: str | dict, project_name: str = "") -> ClassModel:
    """Parse and validate a class model document (text or parsed JSON).

    The model is named by the document's ``projectName``, or by
    ``project_name`` when the document has none.
    """
    doc = _parse_json(document, "class model")
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be an object")
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise SchemaError("schemaVersion", f"expected {SCHEMA_VERSION}")
    project = read_project_name(doc, project_name)
    raw_classes = doc.get("classes")
    if not isinstance(raw_classes, list):
        raise SchemaError("classes", _ARRAY)

    classes = [_read_class(entry, i) for i, entry in enumerate(raw_classes)]
    first: dict[str, int] = {}
    for i, cls in enumerate(classes):
        j = first.setdefault(cls.qualified_name, i)
        if j != i:
            raise DuplicateClassError(cls.qualified_name, f"at classes[{j}] and classes[{i}]")
    return build_model(project, classes)


def read_project_name(doc: dict, default: str = "") -> str:
    """A document's ``projectName``; ``default`` when it has none."""
    project = doc.get("projectName", default)
    if not isinstance(project, str):
        raise SchemaError("projectName", "must be a string")
    return project


def _parse_json(document: str | dict, what: str):
    if isinstance(document, (dict, list)):
        return document
    if not isinstance(document, (str, bytes, bytearray)):
        raise SchemaError("$", f"{what} must be JSON text or a parsed document")
    try:
        return json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("$", f"not valid JSON ({what}): {exc}") from None


_NON_EMPTY = "must be a non-empty string"
_ARRAY = "must be an array"
_STRINGS = "must be an array of strings"


def _read_class(entry, i: int) -> ClassInfo:
    """``classes[i]`` of a document, checked key by key in one pass.

    Checks run in a fixed order: name, external, extends, self-extends,
    implements, fields (an array, then each entry's type and name),
    methods, then the external-stub rule; the first that fails raises, and only then is its
    location spelled out. Members stay in document order for ``build_model``
    to sort.
    """
    if not isinstance(entry, dict):
        raise SchemaError(f"classes[{i}]", "class entry must be an object")
    get = entry.get
    name = get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"classes[{i}].name", _NON_EMPTY)
    external = get("external", False)
    if not isinstance(external, bool):
        raise SchemaError(f"classes[{i}].external", "must be a boolean")
    extends = get("extends")
    if extends is not None and not isinstance(extends, str):
        raise SchemaError(f"classes[{i}].extends", "must be a string")
    if extends == name:
        raise SchemaError(f"classes[{i}].extends", "class must not extend itself")

    implements = get("implements", [])
    if not isinstance(implements, list) or not _all_strings(implements):
        raise SchemaError(f"classes[{i}].implements", _STRINGS)

    raw_fields = get("fields", [])
    if not isinstance(raw_fields, list):
        raise SchemaError(f"classes[{i}].fields", _ARRAY)
    fields = []
    for k, f in enumerate(raw_fields):
        if not isinstance(f, dict):
            raise SchemaError(f"classes[{i}].fields[{k}]", "field entry must be an object")
        ftype = f.get("type")
        if ftype is not None and not isinstance(ftype, str):
            raise SchemaError(f"classes[{i}].fields[{k}].type", "must be a string or null")
        fname = f.get("name")
        if not isinstance(fname, str) or not fname:
            raise SchemaError(f"classes[{i}].fields[{k}].name", _NON_EMPTY)
        fields.append(_new_tuple(FieldInfo, (fname, ftype)))

    raw_methods = get("methods", [])
    if not isinstance(raw_methods, list):
        raise SchemaError(f"classes[{i}].methods", _ARRAY)
    methods = [_read_method(m, i, j) for j, m in enumerate(raw_methods)]

    if external and (fields or methods or extends):
        raise SchemaError(f"classes[{i}]", "external stub must not carry members or extends")

    return _new_tuple(ClassInfo, (name, extends, tuple(implements), tuple(fields),
                                  tuple(methods), external))


def _read_method(m, i: int, j: int) -> MethodInfo:
    """``classes[i].methods[j]``: name, arity, usesFields, calls (an array,
    then each call's class, arity and method), then touchesClasses.

    A call entry that a JSON parser gives (a ``dict`` of ``str``, ``int``
    and ``None`` values) is checked by exact type; any other entry goes to
    ``_read_call``, which checks it as the reader always has.
    """
    if not isinstance(m, dict):
        raise SchemaError(f"classes[{i}].methods[{j}]", "method entry must be an object")
    get = m.get
    name = get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"classes[{i}].methods[{j}].name", _NON_EMPTY)
    arity = get("arity")
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
        raise SchemaError(f"classes[{i}].methods[{j}].arity", "must be a non-negative integer")

    uses = get("usesFields", [])
    if not isinstance(uses, list) or not _all_strings(uses):
        raise SchemaError(f"classes[{i}].methods[{j}].usesFields", _STRINGS)

    raw_calls = get("calls", [])
    if not isinstance(raw_calls, list):
        raise SchemaError(f"classes[{i}].methods[{j}].calls", _ARRAY)
    calls = []
    for c in raw_calls:
        if c.__class__ is dict:
            target = c.get("class")
            method = c.get("method")
            call_arity = c.get("arity")
            if ((target is None or target.__class__ is str) and method.__class__ is str
                    and method and (call_arity is None
                                    or call_arity.__class__ is int and call_arity >= 0)):
                calls.append((target, method, call_arity))
                continue
        calls.append(_read_call(c, i, j, len(calls)))

    touches = get("touchesClasses", [])
    if not isinstance(touches, list) or not _all_strings(touches):
        raise SchemaError(f"classes[{i}].methods[{j}].touchesClasses", _STRINGS)

    return make_method(name, arity, uses, calls, touches)


def _read_call(c, i: int, j: int, k: int) -> tuple:
    """The ``(class, method, arity)`` triple of ``classes[i].methods[j].calls[k]``:
    an object, then its class, arity and method, each by ``isinstance``."""
    if not isinstance(c, dict):
        raise SchemaError(f"classes[{i}].methods[{j}].calls[{k}]",
                          "call entry must be an object")
    target = c.get("class")
    if target is not None and not isinstance(target, str):
        raise SchemaError(f"classes[{i}].methods[{j}].calls[{k}].class",
                          "must be a string or null (unresolved)")
    call_arity = c.get("arity")
    if call_arity is not None and (not isinstance(call_arity, int)
                                   or isinstance(call_arity, bool) or call_arity < 0):
        raise SchemaError(f"classes[{i}].methods[{j}].calls[{k}].arity",
                          "must be a non-negative integer when present")
    method = c.get("method")
    if not isinstance(method, str) or not method:
        raise SchemaError(f"classes[{i}].methods[{j}].calls[{k}].method", _NON_EMPTY)
    return target, method, call_arity


def _all_strings(items: list) -> bool:
    """Whether every item is a ``str``: ``str.join`` refuses the first that
    is not, in C."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def model_to_document(model: ClassModel) -> dict:
    """Canonical document form; load_class_model(serialize) round-trips."""
    classes = []
    for cls in model.classes:
        entry: dict = {"name": cls.qualified_name}
        if cls.is_external:
            entry["external"] = True
            if cls.interfaces:
                entry["implements"] = list(cls.interfaces)
            classes.append(entry)
            continue
        if cls.superclass is not None:
            entry["extends"] = cls.superclass
        if cls.interfaces:
            entry["implements"] = list(cls.interfaces)
        entry["fields"] = [
            {"name": f.name, "type": f.declared_type} for f in cls.fields
        ]
        entry["methods"] = [
            {
                "name": m.name,
                "arity": m.arity,
                "usesFields": sorted(m.used_fields),
                "calls": [
                    {"class": c.class_name, "method": c.method, "arity": c.arity}
                    for c in sorted(m.called_methods, key=CallRef.sort_key)
                ],
                "touchesClasses": sorted(m.referenced_classes),
            }
            for m in cls.methods
        ]
        classes.append(entry)
    return {"schemaVersion": SCHEMA_VERSION, "projectName": model.project_name,
            "classes": classes}


def serialize_model(model: ClassModel) -> str:
    return json.dumps(model_to_document(model), indent=2, ensure_ascii=False) + "\n"
