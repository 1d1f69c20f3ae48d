"""Seeded generator of Java-subset projects with a plan of every reference.

Each emitted statement is recorded in the plan together with the effect
that the README's resolution rules give it: receivers resolve through
local types, then own field types, then same-package classes, then
single-type imports, and otherwise stay unresolved; ``recv.a.m()`` chains
lose the receiver type; field initializers are not scanned; static fields
stay out of cohesion sets. ``oracle.ck_metrics`` turns the plan into the
expected metrics table.
"""

import random

from docgen import spread, superclasses

N_PACKAGES = 20


class _Method:
    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity
        self.used: set[str] = set()
        self.calls: set[tuple] = set()
        self.refs: set[str] = set()

    def plan(self) -> dict:
        return {
            "name": self.name,
            "arity": self.arity,
            "usesFields": sorted(self.used),
            "calls": [{"class": c, "method": m, "arity": a}
                      for c, m, a in sorted(self.calls, key=str)],
            "touchesClasses": sorted(self.refs),
        }


class _Writer:
    """Emits one compilation unit and records what each statement means."""

    def __init__(self, rng: random.Random, project: "_Project", cls: dict):
        self.rng = rng
        self.project = project
        self.cls = cls
        self.imports: set[str] = set()
        self.style: dict[str, str] = {}  # target -> "simple" | "import" | "qualified"

    # --- type names ---

    def type_text(self, target: str) -> str:
        """How this file spells a class name; resolution gives back target."""
        info = self.project.classes[target]
        if info["package"] == self.cls["package"]:
            return info["simple"]
        style = self.style.get(target)
        if style is None:
            style = "import" if self.rng.random() < 0.6 else "qualified"
            self.style[target] = style
        if style == "import":
            self.imports.add(target)
            return info["simple"]
        return target

    def resolves_by_name(self, target: str) -> bool:
        """Whether the bare simple name is a resolvable receiver here."""
        info = self.project.classes[target]
        return (info["package"] == self.cls["package"]
                or self.style.get(target) == "import")

    # --- statements ---

    def args(self, method: _Method, ctx: dict) -> tuple[str, int]:
        rng = self.rng
        parts = []
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            roll = rng.random()
            if roll < 0.25:
                parts.append(str(rng.randint(0, 99)))
            elif roll < 0.40:
                parts.append(f'"{rng.choice(_WORDS)}, {rng.choice(_WORDS)}"')
            elif roll < 0.45:
                parts.append("','")
            elif roll < 0.60 and ctx["ints"]:
                parts.append(rng.choice(ctx["ints"]))
            elif roll < 0.70 and ctx["strings"]:
                parts.append(rng.choice(ctx["strings"]))
            elif roll < 0.85 and self.cls["prim_fields"]:
                name = rng.choice(self.cls["prim_fields"])
                method.used.add(name)
                parts.append(name)
            else:
                target = rng.choice(self.project.concrete)
                arity = rng.randint(0, 2)
                inner = ", ".join(str(rng.randint(0, 9)) for _ in range(arity))
                self.record_new(method, target, arity)
                parts.append(f"new {self.type_text(target)}({inner})")
        return ", ".join(parts), len(parts)

    def record_new(self, method: _Method, target: str, arity: int) -> None:
        method.calls.add((target, self.project.classes[target]["simple"], arity))
        if target != self.cls["name"]:
            method.refs.add(target)

    def record_call(self, method: _Method, target: str | None, name: str,
                    arity: int) -> None:
        method.calls.add((target, name, arity))
        if target is not None and target != self.cls["name"]:
            method.refs.add(target)

    def pick_method(self, target: str) -> str:
        methods = self.project.classes[target]["method_names"]
        return self.rng.choice(methods) if methods else "size"

    def statement(self, method: _Method, ctx: dict) -> str:
        rng = self.rng
        cls = self.cls
        own = cls["name"]
        kind = rng.choices(_KINDS, weights=_WEIGHTS)[0]

        if kind == "new_local":
            target = rng.choice(self.project.concrete)
            var = f"v{ctx['next']}"
            ctx["next"] += 1
            args, arity = self.args(method, ctx)
            self.record_new(method, target, arity)
            ctx["objects"].append((var, target))
            spelled = self.type_text(target)
            return f"{spelled} {var} = new {spelled}({args});"
        if kind == "iface_local" and self.project.interfaces and ctx["objects"]:
            target = rng.choice(self.project.interfaces)
            var = f"w{ctx['next']}"
            ctx["next"] += 1
            ctx["objects"].append((var, target))
            source = rng.choice(ctx["objects"])[0]
            return f"{self.type_text(target)} {var} = {source};"
        if kind == "local_call" and ctx["objects"]:
            var, target = rng.choice(ctx["objects"])
            name = self.pick_method(target)
            args, arity = self.args(method, ctx)
            self.record_call(method, target, name, arity)
            if rng.random() < 0.2:
                # the call's result type is unknown: the second call is lost
                return f"{var}.{name}({args}).{self.pick_method(target)}();"
            return f"{var}.{name}({args});"
        if kind == "field_call" and cls["obj_fields"]:
            field, target = rng.choice(cls["obj_fields"])
            name = self.pick_method(target)
            args, arity = self.args(method, ctx)
            method.used.add(field)
            self.record_call(method, target, name, arity)
            return f"{field}.{name}({args});"
        if kind == "static_field_call" and cls["static_fields"]:
            field, target = rng.choice(cls["static_fields"])
            name = self.pick_method(target)
            args, arity = self.args(method, ctx)
            self.record_call(method, target, name, arity)
            return f"{field}.{name}({args});"
        if kind == "param_call" and ctx["params"]:
            var, target = rng.choice(ctx["params"])
            name = self.pick_method(target)
            args, arity = self.args(method, ctx)
            self.record_call(method, target, name, arity)
            return f"{var}.{name}({args});"
        if kind == "class_call":
            target = rng.choice(self.project.concrete)
            name = self.pick_method(target)
            spelled = self.type_text(target)
            args, arity = self.args(method, ctx)
            if self.resolves_by_name(target):
                self.record_call(method, target, name, arity)
            else:
                # a qualified receiver starts with a package name: unresolved
                self.record_call(method, None, name, arity)
            return f"{spelled}.{name}({args});"
        if kind == "deep_chain" and (ctx["objects"] or cls["obj_fields"]):
            if ctx["objects"] and (not cls["obj_fields"] or rng.random() < 0.5):
                var, target = rng.choice(ctx["objects"])
            else:
                var, target = rng.choice(cls["obj_fields"])
                method.used.add(var)
            name = self.pick_method(target)
            args, arity = self.args(method, ctx)
            if target != own:
                method.refs.add(target)
            method.calls.add((None, name, arity))
            return f"{var}.next.{name}({args});"
        if kind == "unresolved":
            receiver = rng.choice(("Log", "System.out", "Util"))
            name = rng.choice(("info", "println", "trace", "check"))
            args, arity = self.args(method, ctx)
            method.calls.add((None, name, arity))
            return f"{receiver}.{name}({args});"
        if kind == "own_call":
            name, arity = rng.choice(cls["signatures"])
            args = ", ".join(str(rng.randint(0, 9)) for _ in range(arity))
            method.calls.add((own, name, arity))
            prefix = "this." if rng.random() < 0.5 else ""
            return f"{prefix}{name}({args});"
        if kind == "field_write" and (cls["prim_fields"] or cls["obj_fields"]):
            fields = cls["prim_fields"] + [f for f, _ in cls["obj_fields"]]
            field = rng.choice(fields)
            method.used.add(field)
            if field in cls["prim_fields"]:
                if rng.random() < 0.5:
                    return f"this.{field} = this.{field} + {rng.randint(1, 9)};"
                return f"{field} = {field} * 2 + {rng.randint(0, 9)};"
            return f"this.{field} = null;"
        if kind == "static_counter" and cls["has_counter"]:
            return "COUNT = COUNT + 1;"
        if kind == "label" and cls["has_label"]:
            method.used.add("label")
            return f'label = "{rng.choice(_WORDS)}, {rng.choice(_WORDS)}";'
        if kind == "int_local":
            var = f"k{ctx['next']}"
            ctx["next"] += 1
            ctx["ints"].append(var)
            return f"int {var} = {rng.randint(0, 999)};"
        if kind == "string_local":
            var = f"t{ctx['next']}"
            ctx["next"] += 1
            ctx["strings"].append(var)
            return f'String {var} = "{rng.choice(_WORDS)}, ({rng.choice(_WORDS)}), x";'
        return f"// {rng.choice(_WORDS)}, {rng.choice(_WORDS)}; no code here"


_KINDS = ("new_local", "iface_local", "local_call", "field_call",
          "static_field_call", "param_call", "class_call", "deep_chain",
          "unresolved", "own_call", "field_write", "static_counter", "label",
          "int_local", "string_local", "comment")
_WEIGHTS = (10, 2, 12, 9, 2, 4, 4, 3, 3, 4, 8, 1, 1, 3, 2, 2)
_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "red", "green", "blue",
          "north", "south", "east", "west")


class _Project:
    def __init__(self, rng: random.Random, n_classes: int):
        self.classes: dict[str, dict] = {}
        packages = [f"app.p{k:02d}" for k in range(N_PACKAGES)]
        self.concrete: list[str] = []
        self.interfaces: list[str] = []

        n_interfaces = max(1, n_classes // 12)
        for j, n_methods in enumerate(spread(rng, n_interfaces, (1, 2, 3))):
            pkg = rng.choice(packages)
            name = f"{pkg}.Api{j:03d}"
            self.classes[name] = {
                "name": name, "simple": f"Api{j:03d}", "package": pkg,
                "kind": "interface",
                "method_names": [f"op{k}" for k in range(n_methods)],
            }
            self.interfaces.append(name)
        for i in range(n_classes - n_interfaces):
            pkg = packages[i % N_PACKAGES] if i < N_PACKAGES else rng.choice(packages)
            name = f"{pkg}.K{i:04d}"
            self.classes[name] = {"name": name, "simple": f"K{i:04d}",
                                  "package": pkg, "kind": "class"}
            self.concrete.append(name)

        n = len(self.concrete)
        parents = superclasses(rng, self.concrete, "lib.Base")
        shapes = zip(self.concrete,
                     spread(rng, n, (True, False, False)),      # implements
                     spread(rng, n, (0, 1, 2, 3)),              # int fields
                     spread(rng, n, (0, 1, 2, 3)),              # typed fields
                     spread(rng, n, (0, 1)),                    # static fields
                     spread(rng, n, (True, False, False)),      # COUNT
                     spread(rng, n, (True, False, False, False, False)),  # label
                     spread(rng, n, tuple(range(1, 9))),        # methods
                     spread(rng, n, (True, False)))             # constructor
        for name, implements, n_prim, n_obj, n_static, counter, label, \
                n_methods, ctor in shapes:
            cls = self.classes[name]
            cls["extends"] = parents[name]
            cls["implements"] = [rng.choice(self.interfaces)] if implements else []
            cls["prim_fields"] = [f"n{k}" for k in range(n_prim)]
            cls["obj_fields"] = [(f"r{k}", rng.choice(self.concrete + self.interfaces))
                                 for k in range(n_obj)]
            cls["static_fields"] = [(f"g{k}", rng.choice(self.concrete))
                                    for k in range(n_static)]
            cls["has_counter"] = counter
            cls["has_label"] = label
            cls["method_names"] = [f"m{k}" for k in range(n_methods)]
            cls["signatures"] = [(f"m{k}", rng.randint(0, 3)) for k in range(n_methods)]
            if ctor:
                cls["signatures"].append((cls["simple"], rng.randint(0, 2)))


def generate_project(rng: random.Random, n_classes: int) -> tuple[dict[str, str], list[dict]]:
    """Source files (relative path -> text) and the plan of every class."""
    project = _Project(rng, n_classes)
    files: dict[str, str] = {}
    plan: list[dict] = []
    for name, info in project.classes.items():
        path = name.replace(".", "/") + ".java"
        if info["kind"] == "interface":
            files[path], entry = _interface_unit(rng, project, info)
        else:
            files[path], entry = _class_unit(rng, project, info)
        plan.append(entry)
    return files, plan


def _interface_unit(rng: random.Random, project: _Project, info: dict) -> tuple[str, dict]:
    lines = [f"package {info['package']};", "",
             f"/** Generated interface, see {info['simple']}; no fields. */",
             f"public interface {info['simple']} {{"]
    methods = []
    for name in info["method_names"]:
        arity = rng.randint(0, 2)
        params = ", ".join(f"int p{k}" for k in range(arity))
        lines.append(f"    void {name}({params});")
        methods.append({"name": name, "arity": arity, "usesFields": [],
                        "calls": [], "touchesClasses": []})
    lines.append("}")
    return "\n".join(lines) + "\n", {"name": info["name"], "extends": None,
                                     "methods": methods}


def _class_unit(rng: random.Random, project: _Project, cls: dict) -> tuple[str, dict]:
    w = _Writer(rng, project, cls)
    header = []
    if cls["extends"] is not None and cls["extends"] in project.classes:
        header.append(f"extends {w.type_text(cls['extends'])}")
    elif cls["extends"] is not None:
        header.append(f"extends {cls['extends']}")
    if cls["implements"]:
        header.append("implements " + ", ".join(w.type_text(t) for t in cls["implements"]))

    body = []
    for field in cls["prim_fields"]:
        body.append(f"    private int {field};")
    for field, target in cls["obj_fields"]:
        spelled = w.type_text(target)
        if rng.random() < 0.3 and target in project.concrete:
            # initializers are not scanned, so this new adds no coupling
            body.append(f"    {spelled} {field} = new {spelled}(1, \"a, b\");")
        else:
            body.append(f"    protected {spelled} {field};")
    for field, target in cls["static_fields"]:
        body.append(f"    static {w.type_text(target)} {field};")
    if cls["has_counter"]:
        body.append("    static int COUNT = 0;")
    if cls["has_label"]:
        body.append('    String label = "x, y", note = "(z)";')

    methods = []
    for name, arity in cls["signatures"]:
        method = _Method(name, arity)
        ctx = {"next": 0, "objects": [], "ints": [], "strings": [], "params": []}
        params = []
        for k in range(arity):
            if rng.random() < 0.4:
                target = rng.choice(project.concrete)
                params.append(f"{w.type_text(target)} p{k}")
                ctx["params"].append((f"p{k}", target))
            else:
                params.append(f"int p{k}")
                ctx["ints"].append(f"p{k}")
        statements = [w.statement(method, ctx) for _ in range(rng.randint(2, 9))]
        is_ctor = name == cls["simple"]
        returns_int = not is_ctor and rng.random() < 0.4
        if returns_int:
            if cls["prim_fields"] and rng.random() < 0.5:
                field = rng.choice(cls["prim_fields"])
                method.used.add(field)
                statements.append(f"return {field};")
            else:
                statements.append("return 0;")
        if is_ctor:
            signature = f"    public {name}({', '.join(params)})"
        else:
            result = "int" if returns_int else "void"
            mod = rng.choice(("public ", "", "protected ", "private "))
            signature = f"    {mod}{result} {name}({', '.join(params)})"
        if rng.random() < 0.15:
            body.append("    @Override")
        body.append(signature + " {")
        if rng.random() < 0.3:
            body.append(f"        /* {rng.choice(_WORDS)}, {rng.choice(_WORDS)}: "
                        "called from {x, y} */")
        body.extend(f"        {s}" for s in statements)
        body.append("    }")
        methods.append(method)

    lines = [f"package {cls['package']};", ""]
    lines.extend(f"import {t};" for t in sorted(w.imports))
    if rng.random() < 0.3:
        lines.append("import java.util.*;")
    lines.append("")
    lines.append(f"// {cls['simple']}: generated; see a, b, c")
    lines.append(f"public class {cls['simple']} {' '.join(header)} {{".replace("  ", " "))
    lines.extend(body)
    lines.append("}")

    fields = [{"name": f} for f in cls["prim_fields"]]
    fields += [{"name": f} for f, _ in cls["obj_fields"]]
    if cls["has_label"]:
        fields += [{"name": "label"}, {"name": "note"}]
    entry = {"name": cls["name"], "extends": cls["extends"],
             "fields": fields, "methods": [m.plan() for m in methods]}
    return "\n".join(lines) + "\n", entry
