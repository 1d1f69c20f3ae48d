"""The six Chidamber & Kemerer class metrics.

WMC   weighted methods per class (unit complexity: method count)
DIT   depth of inheritance tree (extends edges up to the model boundary)
NOC   number of children (direct subclasses)
CBO   coupling between object classes (uses or used-by, inheritance excluded)
RFC   response for a class (own methods plus distinct called methods)
LCOM  lack of cohesion in methods (disjoint pairs minus sharing pairs, >= 0)

All functions are pure; per-class results are independent of each other.

DIT, NOC and CBO need the whole model. They read a per-model index, built
in linear time on first use and kept on the model: the internal class
names, the reverse use sets (who uses each name), child counts, and the
extends forest with each class's DIT and its preorder interval, so "A is an
ancestor of B" is two comparisons. All six metrics over a model then cost
O(classes + references + inheritance edges), whatever the inheritance depth.
"""

from dataclasses import dataclass
from typing import Callable

from .model import ClassInfo, ClassModel, MethodInfo

METRICS = ("WMC", "DIT", "NOC", "CBO", "RFC", "LCOM")


@dataclass(frozen=True)
class MetricRecord:
    class_name: str
    wmc: int
    dit: int
    noc: int
    cbo: int
    rfc: int
    lcom: int

    def value(self, metric: str) -> int:
        return getattr(self, metric.lower())

    def values(self) -> tuple[int, int, int, int, int, int]:
        return (self.wmc, self.dit, self.noc, self.cbo, self.rfc, self.lcom)


@dataclass(frozen=True)
class ProjectMetrics:
    project_name: str
    per_class: tuple[MetricRecord, ...]
    means: dict[str, float]

    def __post_init__(self):
        # not a field, so == and repr are unchanged; the first row of a name wins
        object.__setattr__(self, "_by_class",
                           {rec.class_name: rec for rec in reversed(self.per_class)})

    def record(self, class_name: str) -> MetricRecord | None:
        return self._by_class.get(class_name)


def wmc(cls: ClassInfo, complexity: Callable[[MethodInfo], int] | None = None) -> int:
    """Sum of per-method complexities; defaults to 1 per method."""
    if complexity is None:
        return len(cls.methods)
    return sum(complexity(m) for m in cls.methods)


def dit(cls: ClassInfo, model: ClassModel) -> int:
    """Extends edges from the class up to the model boundary.

    External stubs contribute no depth: a class whose superclass chain
    immediately leaves the model has depth 0.
    """
    return _index(model).depth.get(cls.qualified_name, 0)


def noc(cls: ClassInfo, model: ClassModel) -> int:
    """Direct subclasses only; stubs carry no extends edges."""
    return _index(model).children.get(cls.qualified_name, 0)


def _uses(cls: ClassInfo) -> set[str]:
    """Classes whose methods or fields this class's methods touch."""
    out: set[str] = set()
    for m in cls.methods:
        out.update(m.referenced_classes)
        out.update(c.class_name for c in m.called_methods if c.class_name is not None)
    out.discard(cls.qualified_name)
    return out


def cbo(cls: ClassInfo, model: ClassModel) -> int:
    """Distinct other classes coupled by use in either direction.

    Counts classes, not references. Pairs related by inheritance are
    excluded, as are external stubs and unresolved targets. The class's own
    uses come from ``cls``; who uses it, and the hierarchy, from ``model``.
    """
    index = _index(model)
    name = cls.qualified_name
    partners = (_uses(cls) | index.used_by.get(name, set())) & index.internal
    return sum(1 for other in partners if not index.related(name, other))


class _Index:
    """Whole-model lookups behind DIT, NOC and CBO; read-only once built.

    Names resolve as ``ClassModel.get`` resolves them. The extends forest
    follows each name's superclass while it names a class in the model; an
    extends cycle, possible only in a model that was never validated, is cut
    at one member, and every class that reaches the cycle counts all of its
    members as ancestors, as a walk up the chain would.
    """

    def __init__(self, model: ClassModel):
        self.internal = {c.qualified_name for c in model.classes if not c.is_external}
        self.used_by: dict[str, set[str]] = {}
        self.children: dict[str, int] = {}
        parent: dict[str, str | None] = {}
        for c in model.classes:
            if c.superclass is not None:
                self.children[c.superclass] = self.children.get(c.superclass, 0) + 1
            if not c.is_external:
                for used in _uses(c):
                    self.used_by.setdefault(used, set()).add(c.qualified_name)
            sup = model.get(c.qualified_name).superclass
            parent[c.qualified_name] = sup if sup in model else None

        def external(name: str) -> bool:
            return model.get(name).is_external

        # a cycle, where cycle[i] extends cycle[i + 1], is cut at cycle[0];
        # a member's depth is the run of non-external members after it, and
        # a walk counts each member once, so depth stops growing at a cycle
        # of internal classes
        self.depth: dict[str, int] = {}
        self.cycle_root: dict[str, str] = {}
        closed: set[str] = set()
        walked: dict[str, str] = {}
        for start in parent:
            trail = []
            name = start
            while name is not None and name not in walked:
                walked[name] = start
                trail.append(name)
                name = parent[name]
            if name is None or walked[name] != start:
                continue
            cycle = trail[trail.index(name):]
            parent[name] = None
            self.cycle_root.update(dict.fromkeys(cycle, name))
            ext = next((i for i, member in enumerate(cycle) if external(member)), None)
            if ext is None:
                closed.update(cycle)
                self.depth.update(dict.fromkeys(cycle, len(cycle)))
                continue
            for i in range(ext - 1, ext - 1 - len(cycle), -1):
                nxt = cycle[(i + 1) % len(cycle)]
                self.depth[cycle[i]] = 0 if external(nxt) else self.depth[nxt] + 1

        kids: dict[str, list[str]] = {}
        for name, sup in parent.items():
            if sup is not None:
                kids.setdefault(sup, []).append(name)
        self.enter: dict[str, int] = {}
        self.last: dict[str, int] = {}
        order = []
        stack = [name for name, sup in parent.items() if sup is None]
        while stack:
            name = stack.pop()
            self.enter[name] = self.last[name] = len(order)
            order.append(name)
            sup = parent[name]
            if name not in self.depth:
                self.depth[name] = (0 if sup is None or external(sup)
                                    else self.depth[sup] + (sup not in closed))
            stack.extend(kids.get(name, ()))
        for name in reversed(order):
            sup = parent[name]
            if sup is not None and self.last[name] > self.last[sup]:
                self.last[sup] = self.last[name]

    def _above(self, a: str, b: str) -> bool:
        """Whether ``a`` is among the ancestors of ``b`` (a != b)."""
        top = self.cycle_root.get(a, a)
        return (top in self.enter and b in self.enter
                and self.enter[top] <= self.enter[b] <= self.last[top])

    def related(self, a: str, b: str) -> bool:
        return self._above(a, b) or self._above(b, a)


def _index(model: ClassModel) -> _Index:
    """The model's metric index, built on first use and kept on the model.

    It is built whole before it is stored, so a reader on another thread
    sees either no index (and builds an equal one) or a complete one.
    """
    index = vars(model).get("_metric_index")
    if index is None:
        index = _Index(model)
        object.__setattr__(model, "_metric_index", index)
    return index


def rfc(cls: ClassInfo) -> int:
    """Size of the response set: own methods united with called methods.

    Identity is (target class or unresolved, name, arity); one call level.
    """
    response: set[tuple[str | None, str, int | None]] = set()
    for m in cls.methods:
        response.add((cls.qualified_name, m.name, m.arity))
    for m in cls.methods:
        for call in m.called_methods:
            response.add((call.class_name, call.method, call.arity))
    return len(response)


def lcom(cls: ClassInfo) -> int:
    """Method pairs with disjoint field sets minus pairs that share, floored at 0.

    A method that touches no instance field carries the empty set, which is
    disjoint with every other set.
    """
    sets = [m.used_fields for m in cls.methods]
    p = q = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                q += 1
            else:
                p += 1
    return max(p - q, 0)


def compute_record(cls: ClassInfo, model: ClassModel) -> MetricRecord:
    return MetricRecord(
        class_name=cls.qualified_name,
        wmc=wmc(cls),
        dit=dit(cls, model),
        noc=noc(cls, model),
        cbo=cbo(cls, model),
        rfc=rfc(cls),
        lcom=lcom(cls),
    )


def project_means(records: list[MetricRecord] | tuple[MetricRecord, ...]) -> dict[str, float]:
    """Per-class arithmetic means; an empty record set means all zeros."""
    if not records:
        return {m: 0.0 for m in METRICS}
    n = len(records)
    return {m: sum(rec.value(m) for rec in records) / n for m in METRICS}


def compute_all(model: ClassModel) -> ProjectMetrics:
    """One record per non-external class, ordered by qualified name."""
    records = tuple(sorted((compute_record(c, model) for c in model.internal_classes()),
                           key=lambda rec: rec.class_name))
    return ProjectMetrics(project_name=model.project_name,
                          per_class=records,
                          means=project_means(records))
