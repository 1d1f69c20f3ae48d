import random
from pathlib import Path
import sys

import pytest

from ckeval.java import lower_to_model, parse_source
from ckeval.model import (
    CallRef,
    ClassInfo,
    ClassModel,
    FieldInfo,
    MethodInfo,
    build_model,
)

FIXTURES = Path(__file__).parent / "fixtures"

# the benchmark's generators and reference results, which do not use ckeval
sys.path.append(str(Path(__file__).parent.parent / "bench"))


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_model() -> ClassModel:
    units = []
    for path in sorted((FIXTURES / "corpus").rglob("*.java")):
        units.append(parse_source(path.read_text(encoding="utf-8"),
                                  path.as_posix()))
    return lower_to_model(units, project_name="shop")


def random_class(rng: random.Random, name: str = "p.C",
                 max_methods: int = 8, max_fields: int = 6) -> ClassInfo:
    """A lone class with random instance-field usage sets."""
    n_fields = rng.randint(0, max_fields)
    fields = tuple(FieldInfo(f"f{i}") for i in range(n_fields))
    methods = []
    for i in range(rng.randint(0, max_methods)):
        used = frozenset(f"f{j}" for j in range(n_fields) if rng.random() < 0.4)
        methods.append(MethodInfo(name=f"m{i}", arity=i, used_fields=used))
    return ClassInfo(qualified_name=name, fields=fields, methods=tuple(methods))


def random_model(rng: random.Random, max_classes: int = 10) -> ClassModel:
    """A random valid model: acyclic inheritance, optional externals,
    random call/reference structure."""
    n = rng.randint(1, max_classes)
    names = [f"p.C{i}" for i in range(n)]
    externals = [f"ext.E{i}" for i in range(rng.randint(0, 2))]
    classes = []
    for i, name in enumerate(names):
        roll = rng.random()
        if i > 0 and roll < 0.35:
            superclass = names[rng.randrange(i)]  # earlier class: stays acyclic
        elif externals and roll < 0.45:
            superclass = rng.choice(externals)
        else:
            superclass = None

        n_fields = rng.randint(0, 4)
        fields = tuple(FieldInfo(f"f{j}") for j in range(n_fields))
        methods = []
        for k in range(rng.randint(0, 6)):
            used = frozenset(f"f{j}" for j in range(n_fields)
                             if rng.random() < 0.4)
            calls: set[CallRef] = set()
            refs: set[str] = set()
            for _ in range(rng.randint(0, 3)):
                pick = rng.random()
                if pick < 0.5:
                    target = rng.choice(names)
                    calls.add(CallRef(target, f"m{rng.randint(0, 5)}",
                                      rng.randint(0, 2)))
                    if target != name:
                        refs.add(target)
                elif pick < 0.65:
                    calls.add(CallRef(None, f"u{rng.randint(0, 3)}",
                                      rng.randint(0, 2)))
                elif externals:
                    target = rng.choice(externals)
                    calls.add(CallRef(target, "em", 0))
                    refs.add(target)
            if n > 1 and rng.random() < 0.2:
                refs.add(rng.choice([x for x in names if x != name]))
            methods.append(MethodInfo(name=f"m{k}", arity=k, used_fields=used,
                                      called_methods=frozenset(calls),
                                      referenced_classes=frozenset(refs)))
        classes.append(ClassInfo(qualified_name=name, superclass=superclass,
                                 fields=fields, methods=tuple(methods)))
    for ext in externals:
        classes.append(ClassInfo(qualified_name=ext, is_external=True))
    return build_model("random", classes)
