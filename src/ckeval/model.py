"""Language-neutral class model: the substrate all metric math runs on.

A model is a set of classes with their methods, fields, inheritance edges
and member references. Models come from the Java frontend or from class
model documents (JSON, ``schemaVersion: 1``); both paths normalize and
validate before anything downstream sees the data.
"""

from dataclasses import dataclass
import json

from .errors import DuplicateClassError, InheritanceCycleError, SchemaError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FieldInfo:
    name: str
    declared_type: str | None = None


@dataclass(frozen=True, order=True)
class CallRef:
    """One called method: target class (None when unresolved), name, arity.

    Arity is optional in documents; the frontend always records it.
    """

    class_name: str | None
    method: str
    arity: int | None = None

    def sort_key(self) -> tuple:
        return (self.class_name or "", self.method, -1 if self.arity is None else self.arity)


@dataclass(frozen=True)
class MethodInfo:
    name: str
    arity: int
    used_fields: frozenset[str] = frozenset()
    called_methods: frozenset[CallRef] = frozenset()
    referenced_classes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ClassInfo:
    qualified_name: str
    superclass: str | None = None
    interfaces: tuple[str, ...] = ()
    fields: tuple[FieldInfo, ...] = ()
    methods: tuple[MethodInfo, ...] = ()
    is_external: bool = False

    def field_names(self) -> frozenset[str]:
        return frozenset(f.name for f in self.fields)


@dataclass(frozen=True)
class ClassModel:
    project_name: str
    classes: tuple[ClassInfo, ...]

    def __post_init__(self):
        object.__setattr__(self, "_by_name",
                           {c.qualified_name: c for c in self.classes})

    def get(self, qualified_name: str) -> ClassInfo | None:
        return self._by_name.get(qualified_name)

    def __contains__(self, qualified_name: str) -> bool:
        return qualified_name in self._by_name

    def internal_classes(self) -> tuple[ClassInfo, ...]:
        return tuple(c for c in self.classes if not c.is_external)

    def ancestors(self, qualified_name: str) -> list[str]:
        """Names along the extends chain, nearest first; stops at externals."""
        chain: list[str] = []
        seen: set[str] = set()
        current = self.get(qualified_name)
        while current is not None and current.superclass is not None:
            parent = self.get(current.superclass)
            if parent is None or current.superclass in seen:
                break
            seen.add(current.superclass)
            chain.append(current.superclass)
            current = parent
        return chain


@dataclass(frozen=True)
class Diagnostic:
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
            for used in sorted(m.used_fields):
                if used not in field_names:
                    diags.append(Diagnostic("UNKNOWN_FIELD", f"{loc}.{m.name}/{m.arity}",
                                            f"method uses undeclared field {used!r}"))

    cycle = _find_cycle(seen)
    if cycle is not None:
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


def find_inheritance_cycle(model: ClassModel) -> list[str] | None:
    return _find_cycle({c.qualified_name: c for c in model.classes})


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
    model = ClassModel(project_name=project_name,
                       classes=_normalize_classes(list(classes) + stubs))

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


def _normalize_classes(classes: list[ClassInfo]) -> tuple[ClassInfo, ...]:
    normalized = []
    for cls in classes:
        normalized.append(ClassInfo(
            qualified_name=cls.qualified_name,
            superclass=cls.superclass,
            interfaces=tuple(sorted(set(cls.interfaces))),
            fields=tuple(sorted(cls.fields, key=lambda f: f.name)),
            methods=tuple(sorted(cls.methods, key=lambda m: (m.name, m.arity))),
            is_external=cls.is_external,
        ))
    normalized.sort(key=lambda c: c.qualified_name)
    return tuple(normalized)


# --- document loading -------------------------------------------------------

def load_class_model(document: str | dict) -> ClassModel:
    """Parse and validate a class model document (text or parsed JSON)."""
    doc = _parse_json(document, "class model")
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be an object")
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise SchemaError("schemaVersion", f"expected {SCHEMA_VERSION}")
    project = doc.get("projectName", "")
    if not isinstance(project, str):
        raise SchemaError("projectName", "must be a string")
    raw_classes = doc.get("classes")
    if not isinstance(raw_classes, list):
        raise SchemaError("classes", "must be an array")

    classes = [_read_class(entry, f"classes[{i}]") for i, entry in enumerate(raw_classes)]
    return build_model(project, classes)


def _parse_json(document: str | dict, what: str):
    if isinstance(document, (dict, list)):
        return document
    try:
        return json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("$", f"not valid JSON ({what}): {exc}") from None


def _read_class(entry, path: str) -> ClassInfo:
    if not isinstance(entry, dict):
        raise SchemaError(path, "class entry must be an object")
    name = _req_str(entry, "name", path)
    external = entry.get("external", False)
    if not isinstance(external, bool):
        raise SchemaError(f"{path}.external", "must be a boolean")
    extends = entry.get("extends")
    if extends is not None and not isinstance(extends, str):
        raise SchemaError(f"{path}.extends", "must be a string")
    if extends == name:
        raise SchemaError(f"{path}.extends", "class must not extend itself")

    implements = entry.get("implements", [])
    if not isinstance(implements, list) or any(not isinstance(x, str) for x in implements):
        raise SchemaError(f"{path}.implements", "must be an array of strings")

    fields = []
    for i, f in enumerate(entry.get("fields", [])):
        fpath = f"{path}.fields[{i}]"
        if not isinstance(f, dict):
            raise SchemaError(fpath, "field entry must be an object")
        ftype = f.get("type")
        if ftype is not None and not isinstance(ftype, str):
            raise SchemaError(f"{fpath}.type", "must be a string or null")
        fields.append(FieldInfo(name=_req_str(f, "name", fpath), declared_type=ftype))

    methods = []
    for i, m in enumerate(entry.get("methods", [])):
        methods.append(_read_method(m, f"{path}.methods[{i}]"))

    if external and (fields or methods or extends):
        raise SchemaError(path, "external stub must not carry members or extends")

    return ClassInfo(qualified_name=name, superclass=extends,
                     interfaces=tuple(implements), fields=tuple(fields),
                     methods=tuple(methods), is_external=external)


def _read_method(m, path: str) -> MethodInfo:
    if not isinstance(m, dict):
        raise SchemaError(path, "method entry must be an object")
    name = _req_str(m, "name", path)
    arity = m.get("arity")
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
        raise SchemaError(f"{path}.arity", "must be a non-negative integer")

    uses = m.get("usesFields", [])
    if not isinstance(uses, list) or any(not isinstance(x, str) for x in uses):
        raise SchemaError(f"{path}.usesFields", "must be an array of strings")

    calls = []
    for i, c in enumerate(m.get("calls", [])):
        cpath = f"{path}.calls[{i}]"
        if not isinstance(c, dict):
            raise SchemaError(cpath, "call entry must be an object")
        target = c.get("class")
        if target is not None and not isinstance(target, str):
            raise SchemaError(f"{cpath}.class", "must be a string or null (unresolved)")
        call_arity = c.get("arity")
        if call_arity is not None and (not isinstance(call_arity, int)
                                       or isinstance(call_arity, bool) or call_arity < 0):
            raise SchemaError(f"{cpath}.arity", "must be a non-negative integer when present")
        calls.append(CallRef(class_name=target,
                             method=_req_str(c, "method", cpath),
                             arity=call_arity))

    touches = m.get("touchesClasses", [])
    if not isinstance(touches, list) or any(not isinstance(x, str) for x in touches):
        raise SchemaError(f"{path}.touchesClasses", "must be an array of strings")

    return MethodInfo(name=name, arity=arity, used_fields=frozenset(uses),
                      called_methods=frozenset(calls),
                      referenced_classes=frozenset(touches))


def _req_str(obj: dict, key: str, path: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}.{key}", "must be a non-empty string")
    return value


def model_to_document(model: ClassModel) -> dict:
    """Canonical document form; load_class_model(serialize) round-trips."""
    classes = []
    for cls in model.classes:
        entry: dict = {"name": cls.qualified_name}
        if cls.is_external:
            entry["external"] = True
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
