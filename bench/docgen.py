"""Seeded generators for the document inputs: class-model version series,
per-class metrics tables and version-means tables.

A class-model document is its own plan: ``oracle.ck_metrics`` reads the
same class list that is written to disk.
"""

import csv
import io
import json
import random

SCHEMA_VERSION = 1
EXTERNALS = ("ext.Lib0", "ext.Lib1", "ext.Lib2")

# Share of classes at inheritance depth 1, 2, ... 6; the rest have none.
DEPTH_SHARES = (0.14, 0.08, 0.04, 0.02, 0.01, 0.01)
EXTERNAL_PARENT_SHARE = 0.04


# The seed decides which class gets which shape, not how many of each
# shape there are, so the work per op is the same for every seed.

def spread(rng: random.Random, n: int, values: tuple) -> list:
    """n values cycling through ``values``, in seeded order."""
    out = [values[k % len(values)] for k in range(n)]
    rng.shuffle(out)
    return out


def superclasses(rng: random.Random, names: list[str],
                 external: str) -> dict[str, str | None]:
    """Extends edges giving a fixed multiset of inheritance depths.

    A class at depth d extends a random class at depth d - 1; a few roots
    extend ``external`` + a digit, a class outside the generated set.
    """
    n = len(names)
    depths = [d for d, share in enumerate(DEPTH_SHARES, start=1)
              for _ in range(round(n * share))]
    roots = n - len(depths)
    depths += [0] * roots
    n_external = round(n * EXTERNAL_PARENT_SHARE)
    rng.shuffle(depths)
    by_depth: dict[int, list[str]] = {}
    for name, depth in zip(names, depths):
        by_depth.setdefault(depth, []).append(name)
    parents: dict[str, str | None] = {}
    for name, depth in zip(names, depths):
        parents[name] = rng.choice(by_depth[depth - 1]) if depth else None
    for k, name in enumerate(by_depth.get(0, [])[:n_external]):
        parents[name] = f"{external}{k % 4}"
    return parents


def _method(rng: random.Random, name: str, fields: list[str],
            targets: list[str]) -> dict:
    calls = []
    seen = set()
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.75:
            target = rng.choice(targets)
        elif roll < 0.85:
            target = rng.choice(EXTERNALS)
        else:
            target = None
        call = (target, f"m{rng.randint(0, 7)}",
                None if rng.random() < 0.1 else rng.randint(0, 3))
        if call not in seen:
            seen.add(call)
            calls.append({"class": call[0], "method": call[1], "arity": call[2]})
    touches = sorted({c["class"] for c in calls
                      if c["class"] is not None and rng.random() < 0.7})
    if rng.random() < 0.2:
        touches = sorted(set(touches) | {rng.choice(targets)})
    return {
        "name": name,
        "arity": rng.randint(0, 3),
        "usesFields": sorted(f for f in fields if rng.random() < 0.35),
        "calls": calls,
        "touchesClasses": touches,
    }


def _model_class(rng: random.Random, name: str, extends: str | None,
                 targets: list[str], n_methods: int, n_fields: int) -> dict:
    fields = [f"f{k}" for k in range(n_fields)]
    methods = [_method(rng, f"m{k}", fields, targets) for k in range(n_methods)]
    entry: dict = {"name": name}
    if extends is not None:
        entry["extends"] = extends
    if rng.random() < 0.2:
        entry["implements"] = ["svc.api.Service"]
    entry["fields"] = [{"name": f, "type": rng.choice((None, "int", "svc.Value"))}
                       for f in fields]
    entry["methods"] = methods
    return entry


def model_version(rng: random.Random, project: str, n_wide: int,
                  chain_depth: int) -> dict:
    """One class-model document: a wide shallow part plus one deep chain.

    About 30% of the wide classes extend another one; the chain is a
    single-inheritance line of ``chain_depth`` classes whose root extends
    an external class that the loader stubs.
    """
    wide = [f"svc.p{i % 8}.C{i:04d}" for i in range(n_wide)]
    chain = [f"svc.chain.L{i:03d}" for i in range(chain_depth)]
    everything = wide + chain
    parents = superclasses(rng, wide, "lib.Framework")
    parents.update({name: chain[i - 1] if i else "lib.Root"
                    for i, name in enumerate(chain)})
    n_methods = spread(rng, n_wide, tuple(range(1, 11))) + spread(rng, chain_depth, (1, 2, 3))
    n_fields = spread(rng, len(everything), (0, 1, 2, 3, 4))
    classes = [_model_class(rng, name, parents[name], everything, m, f)
               for name, m, f in zip(everything, n_methods, n_fields)]
    classes.extend({"name": name, "external": True} for name in EXTERNALS)
    rng.shuffle(classes)
    return {"schemaVersion": SCHEMA_VERSION, "projectName": project,
            "classes": classes}


def model_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# --- metrics tables ------------------------------------------------------------

# Upper ends per metric, past the default base's top band edges.
_METRIC_CAPS = {"WMC": 40, "DIT": 13, "NOC": 14, "CBO": 32, "RFC": 70, "LCOM": 60}


def metrics_rows(rng: random.Random, n_rows: int, tag: str) -> dict[str, dict[str, int]]:
    """Per-class integer metrics, skewed low so every band is reached."""
    rows = {}
    for i in range(n_rows):
        name = f"{tag}.m{i % 17}.Class{i:05d}"
        rows[name] = {m: int(cap * rng.random() ** 2.2)
                      for m, cap in _METRIC_CAPS.items()}
    return rows


def metrics_csv(rows: dict[str, dict[str, int]], metrics: tuple[str, ...]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("CLASS",) + metrics)
    for name, values in rows.items():  # unsorted on purpose: the loader sorts
        writer.writerow([name] + [values[m] for m in metrics])
    return out.getvalue()


def metrics_json(rows: dict[str, dict[str, int]], metrics: tuple[str, ...],
                 project: str) -> str:
    doc = {"schemaVersion": SCHEMA_VERSION, "projectName": project,
           "metrics": [{"class": name, **{m.lower(): values[m] for m in metrics}}
                       for name, values in rows.items()]}
    return json.dumps(doc, indent=2) + "\n"


# --- version-means tables -------------------------------------------------------

def version_rows(rng: random.Random, n_versions: int, tag: str,
                 metrics: tuple[str, ...]) -> list[tuple[str, str, dict[str, str]]]:
    """(version, path, metric -> decimal text) rows with deliberate ties."""
    rows = []
    tied = rng.choice(metrics)
    for i in range(n_versions):
        cells = {m: f"{rng.uniform(0, 25):.3f}" for m in metrics}
        cells["NOC"] = "0"
        if i % 3 == 2:  # repeat an earlier value so extremes can tie
            cells[tied] = rows[i - 1][2][tied]
        rows.append((f"{tag}-{i + 1}", f"releases/{tag}-{i + 1}.csv", cells))
    return rows


def versions_csv(rows, metrics: tuple[str, ...]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("VERSION", "PATH") + metrics)
    for version, path, cells in rows:
        writer.writerow([version, path] + [cells[m] for m in metrics])
    return out.getvalue()


def versions_json(rows, metrics: tuple[str, ...]) -> str:
    doc = {"schemaVersion": SCHEMA_VERSION,
           "versions": [{"version": version, "path": path,
                         "means": {m.lower(): float(cells[m]) for m in metrics}}
                        for version, path, cells in rows]}
    return json.dumps(doc, indent=2) + "\n"
