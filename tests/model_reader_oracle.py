"""The class-model document reader as it was before the one-pass rewrite.

Test-only oracle: ``load`` reads a class model document entry by entry,
building the location string of every entry up front, and ``build_model``
normalizes every class into a fresh copy and sorts every method's used
fields while validating. ``tests/test_class_model.py`` checks that
``ckeval.model.load_class_model`` and ``build_model`` give equal models and
raise the same errors, with the same locations and messages.
"""

from ckeval.errors import DuplicateClassError, InheritanceCycleError, SchemaError
from ckeval.model import (
    SCHEMA_VERSION,
    CallRef,
    ClassInfo,
    ClassModel,
    Diagnostic,
    FieldInfo,
    MethodInfo,
    _find_cycle,
    _parse_json,
)


def load(document: str | dict) -> ClassModel:
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

    classes = [read_class(entry, f"classes[{i}]") for i, entry in enumerate(raw_classes)]
    return build_model(project, classes)


def read_class(entry, path: str) -> ClassInfo:
    if not isinstance(entry, dict):
        raise SchemaError(path, "class entry must be an object")
    name = req_str(entry, "name", path)
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
        fields.append(FieldInfo(name=req_str(f, "name", fpath), declared_type=ftype))

    methods = []
    for i, m in enumerate(entry.get("methods", [])):
        methods.append(read_method(m, f"{path}.methods[{i}]"))

    if external and (fields or methods or extends):
        raise SchemaError(path, "external stub must not carry members or extends")

    return ClassInfo(qualified_name=name, superclass=extends,
                     interfaces=tuple(implements), fields=tuple(fields),
                     methods=tuple(methods), is_external=external)


def read_method(m, path: str) -> MethodInfo:
    if not isinstance(m, dict):
        raise SchemaError(path, "method entry must be an object")
    name = req_str(m, "name", path)
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
                             method=req_str(c, "method", cpath),
                             arity=call_arity))

    touches = m.get("touchesClasses", [])
    if not isinstance(touches, list) or any(not isinstance(x, str) for x in touches):
        raise SchemaError(f"{path}.touchesClasses", "must be an array of strings")

    return MethodInfo(name=name, arity=arity, used_fields=frozenset(uses),
                      called_methods=frozenset(calls),
                      referenced_classes=frozenset(touches))


def req_str(obj: dict, key: str, path: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}.{key}", "must be a non-empty string")
    return value


def build_model(project_name: str, classes: list[ClassInfo]) -> ClassModel:
    known = {c.qualified_name for c in classes}
    stubs = []
    for cls in classes:
        if cls.superclass is not None and cls.superclass not in known:
            if cls.superclass != cls.qualified_name:
                known.add(cls.superclass)
                stubs.append(ClassInfo(qualified_name=cls.superclass, is_external=True))
    model = ClassModel(project_name=project_name,
                       classes=normalize_classes(list(classes) + stubs))

    diags, cycle = check(model)
    for d in diags:
        if d.code == "DUPLICATE_CLASS":
            raise DuplicateClassError(d.location)
    if cycle is not None:
        raise InheritanceCycleError(cycle)
    if diags:
        d = diags[0]
        raise SchemaError(d.location, f"{d.code}: {d.message}")
    return model


def normalize_classes(classes: list[ClassInfo]) -> tuple[ClassInfo, ...]:
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


def check(model: ClassModel) -> tuple[list[Diagnostic], list[str] | None]:
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
    if cycle is not None and len(cycle) > 1:  # a self-extends is SELF_EXTENDS alone
        diags.append(Diagnostic("INHERITANCE_CYCLE", cycle[0],
                                "extends cycle: " + " -> ".join(cycle)))
    return diags, cycle
