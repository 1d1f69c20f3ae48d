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
names, each internal class's use set and the reverse use sets (who uses
each name), child counts, and the extends forest with each class's DIT and
its preorder interval, so "A is an ancestor of B" is two comparisons. LCOM
counts the method pairs that share a field with one bit mask per field. All
six metrics over a model then cost O(classes + references + inheritance
edges), whatever the inheritance depth, apart from LCOM's word-level term:
each field use costs an OR over (methods in the class)/64 machine words.

``compute_all`` makes one pass over the model's classes with the index's
tables at hand; each record equals the one ``compute_record`` gives, and
CBO's interval test lives in ``_coupled``, which ``cbo`` uses too.

``MetricRecord`` is a ``NamedTuple`` of the class name and the six values
in METRICS order, so ``compute_all`` and the table readers build many of
them in C with ``tuple.__new__``. It equals, hashes and orders as that
7-tuple. ``ProjectMetrics`` is a ``NamedTuple`` of the project name, the
records in class-name order and the per-metric means; it has no by-name
lookup.
"""

from functools import partial
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import CkevalError, InheritanceCycleError, InputError
from .model import ClassInfo, ClassModel, MethodInfo, _find_cycle

METRICS = ("WMC", "DIT", "NOC", "CBO", "RFC", "LCOM")


def check_metric(name: str, error: type[CkevalError] = InputError) -> str:
    """``name`` if it is one of METRICS; otherwise ``error`` says so."""
    if name not in METRICS:
        raise error(f"unknown metric {name!r}; expected one of " + ", ".join(METRICS))
    return name


class MetricRecord(NamedTuple):
    """One class's six metric values; a tuple of the name and the values."""

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
        return self[1:]


def value_getter(metric: str) -> Callable[[MetricRecord], int]:
    """``record.value(metric)`` as a C-level function of the record: an
    ``itemgetter`` of the metric's position in the tuple."""
    return itemgetter(1 + METRICS.index(metric))


class ProjectMetrics(NamedTuple):
    project_name: str
    per_class: tuple[MetricRecord, ...]
    means: dict[str, float]


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


_TARGET = itemgetter(0)  # a CallRef's class_name


def _uses(cls: ClassInfo) -> set[str]:
    """Classes whose methods or fields this class's methods touch."""
    out: set[str] = set()
    for m in cls.methods:
        out.update(m.referenced_classes)
        out.update(map(_TARGET, m.called_methods))
    out.discard(None)  # unresolved call targets
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
    uses = index.uses.get(name) if model.get(name) is cls else None
    if uses is None:  # a stand-in for the model's entry, or an external class
        uses = _uses(cls)
    return _coupled(index, name, uses)


def _coupled(index: "_Index", name: str, uses: set[str]) -> int:
    """CBO of the class named ``name`` whose own use set is ``uses``: its
    internal partners either way, less its ancestors and descendants."""
    partners = (uses | index.used_by.get(name, _NO_NAMES)) & index.internal
    enter, last = index.enter, index.last
    low = enter.get(name)
    if low is None:  # a stand-in whose name is not in the model
        return len(partners)
    high = last[name]
    coupled = 0
    for other in partners:
        at = enter[other]
        if not (low <= at <= high or at <= low <= last[other]):
            coupled += 1
    return coupled


_NO_NAMES: frozenset[str] = frozenset()


class _Index:
    """Whole-model lookups behind DIT, NOC and CBO; read-only once built.

    Names resolve as ``ClassModel.get`` resolves them, and ``uses`` holds
    the use set of each internal class that ``get`` returns. The extends
    forest follows each name's superclass while it names a class in the
    model. A hand-built model that was never validated may hold an extends
    cycle; its index raises InheritanceCycleError, as ``build_model`` does.
    """

    def __init__(self, model: ClassModel):
        by_name = model._by_name
        self.internal = {c.qualified_name for c in model.classes if not c.is_external}
        own_uses: dict[str, set[str]] = {}
        used_by: dict[str, set[str]] = {}
        children: dict[str, int] = {}
        for c in model.classes:
            sup = c.superclass
            if sup is not None:
                children[sup] = children.get(sup, 0) + 1
            if not c.is_external:
                name = c.qualified_name
                uses = _uses(c)
                if by_name[name] is c:
                    own_uses[name] = uses
                for used in uses:
                    users = used_by.get(used)
                    if users is None:
                        used_by[used] = {name}
                    else:
                        users.add(name)
        self.uses, self.used_by, self.children = own_uses, used_by, children

        # each name's superclass, when it names a class in the model
        parent = {name: c.superclass if c.superclass in by_name else None
                  for name, c in by_name.items()}
        kids: dict[str, list[str]] = {}
        for name, sup in parent.items():
            if sup is not None:
                kids.setdefault(sup, []).append(name)
        self.depth: dict[str, int] = {}
        self.enter: dict[str, int] = {}
        self.last: dict[str, int] = {}
        order = []
        stack = [name for name, sup in parent.items() if sup is None]
        while stack:
            name = stack.pop()
            self.enter[name] = self.last[name] = len(order)
            order.append(name)
            sup = parent[name]
            self.depth[name] = (0 if sup is None or by_name[sup].is_external
                                else self.depth[sup] + 1)
            stack.extend(kids.get(name, ()))
        if len(order) < len(parent):  # the missed classes hang off a cycle
            raise InheritanceCycleError(_find_cycle(by_name))
        for name in reversed(order):
            sup = parent[name]
            if sup is not None and self.last[name] > self.last[sup]:
                self.last[sup] = self.last[name]


def _index(model: ClassModel) -> _Index:
    """The model's metric index, built on first use and kept in the model's
    ``__dict__``, where ``cached_property`` keeps the model's own caches.

    It is built whole before it is stored, so a reader on another thread
    sees either no index (and builds an equal one) or a complete one.
    """
    index = vars(model).get("_metric_index")
    if index is None:
        index = vars(model)["_metric_index"] = _Index(model)
    return index


def rfc(cls: ClassInfo) -> int:
    """Size of the response set: own methods united with called methods.

    Identity is (target class or unresolved, name, arity); one call level.
    A ``CallRef`` equals and hashes as that triple.
    """
    own = cls.qualified_name
    response: set[tuple[str | None, str, int | None]] = {
        (own, m.name, m.arity) for m in cls.methods}
    for m in cls.methods:
        response.update(m.called_methods)
    return len(response)


def lcom(cls: ClassInfo) -> int:
    """Method pairs with disjoint field sets minus pairs that share, floored at 0.

    A method that touches no instance field carries the empty set, which is
    disjoint with every other set. Bit i of a field's mask is set when
    method i uses the field, so the OR of a method's field masks holds
    every method it shares a field with; counting only the bits above its
    own index counts each sharing pair once. With Q sharing pairs of n
    methods, P is n(n-1)/2 - Q.
    """
    methods = cls.methods
    masks: dict[str, int] = {}
    for i, m in enumerate(methods):
        bit = 1 << i
        for name in m.used_fields:
            masks[name] = masks.get(name, 0) | bit
    q = 0
    for i, m in enumerate(methods):
        shared = 0
        for name in m.used_fields:
            shared |= masks[name]
        q += (shared >> (i + 1)).bit_count()
    n = len(methods)
    return max(n * (n - 1) // 2 - 2 * q, 0)


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
    columns = zip(*records)
    next(columns)  # the class names
    return {m: total / n for m, total in zip(METRICS, map(sum, columns))}


# a MetricRecord built in C from its seven fields, and a record's class name
_new_record = partial(tuple.__new__, MetricRecord)
_record_name = itemgetter(0)


def compute_all(model: ClassModel) -> ProjectMetrics:
    """One record per non-external class, ordered by qualified name.

    Each record equals ``compute_record(cls, model)``: one pass over the
    classes reads DIT, NOC and the own use set from the index and builds
    the record in C.
    """
    index = _index(model)
    by_name, depth, children, own_uses = model._by_name, index.depth, index.children, index.uses
    records = []
    for cls in model.classes:
        if cls.is_external:
            continue
        name = cls.qualified_name
        # a class that shares its name with a later one is not the model's entry
        uses = own_uses[name] if by_name[name] is cls else _uses(cls)
        records.append(_new_record((
            name, len(cls.methods), depth.get(name, 0), children.get(name, 0),
            _coupled(index, name, uses), rfc(cls), lcom(cls))))
    records.sort(key=_record_name)
    records = tuple(records)
    return ProjectMetrics(model.project_name, records, project_means(records))
