import random

import pytest

from ckeval.errors import InputError
from ckeval.metrics import METRICS
from ckeval.tables import versions_from_csv, versions_from_document
from ckeval.versions import VersionRecord, compare_versions, load_versions


def record(name, wmc=0.0, dit=0.0, noc=0.0, cbo=0.0, rfc=0.0, lcom=0.0):
    return VersionRecord(version_name=name, source_path=f"{name}.csv",
                         means={"WMC": wmc, "DIT": dit, "NOC": noc,
                                "CBO": cbo, "RFC": rfc, "LCOM": lcom})


FIVE_VERSIONS = [
    record("SÜRÜM-1", 1.409, 0.547, 0, 9.094, 12.642, 0.151),
    record("SÜRÜM-2", 5, 0.17, 0, 2.819, 5.778, 0.047),
    record("SÜRÜM-3", 5, 0.269, 0, 2.023, 5.48, 0.023),
    record("SÜRÜM-4", 2.462, 0.52, 0, 1.117, 6.795, 0.058),
    record("SÜRÜM-5", 0, 0.52, 0, 1.117, 6.795, 0.058),
]


def test_published_wmc_verdict():
    verdict = compare_versions(FIVE_VERSIONS, metrics=["WMC"])[0]
    assert verdict.min_versions == ("SÜRÜM-5",)
    assert verdict.min_value == 0
    assert verdict.max_versions == ("SÜRÜM-2", "SÜRÜM-3")
    assert verdict.max_value == 5
    assert verdict.quality_worst == ("SÜRÜM-2", "SÜRÜM-3")
    assert verdict.quality_best == ("SÜRÜM-5",)
    assert verdict.effort_most == ("SÜRÜM-2", "SÜRÜM-3")
    assert verdict.effort_least == ("SÜRÜM-5",)


def test_published_other_metrics():
    verdicts = {v.metric: v for v in compare_versions(FIVE_VERSIONS)}
    assert verdicts["DIT"].max_versions == ("SÜRÜM-1",)
    assert verdicts["CBO"].min_versions == ("SÜRÜM-4", "SÜRÜM-5")
    assert verdicts["NOC"].min_versions == tuple(r.version_name for r in FIVE_VERSIONS)
    assert verdicts["RFC"].min_versions == ("SÜRÜM-3",)
    assert verdicts["LCOM"].max_versions == ("SÜRÜM-1",)


def test_total_tie():
    records = [record("v1", wmc=2), record("v2", wmc=2), record("v3", wmc=2)]
    verdict = compare_versions(records, metrics=["WMC"])[0]
    assert verdict.min_versions == verdict.max_versions == ("v1", "v2", "v3")


def test_two_versions_noc():
    records = [record("v1", noc=0), record("v2", noc=3)]
    verdict = compare_versions(records, metrics=["NOC"])[0]
    assert verdict.min_versions == ("v1",)
    assert verdict.max_versions == ("v2",)
    assert verdict.quality_worst == ("v2",)  # default: higher NOC is worse


def test_noc_direction_override():
    records = [record("v1", noc=0), record("v2", noc=3)]
    verdict = compare_versions(records, metrics=["NOC"],
                               noc_higher_is_worse=False)[0]
    assert verdict.quality_worst == ("v1",)
    assert verdict.effort_least == ("v2",)


def test_fewer_than_two_versions_rejected():
    with pytest.raises(InputError):
        compare_versions([record("v1")])


def test_unknown_metric_rejected():
    with pytest.raises(InputError):
        compare_versions(FIVE_VERSIONS, metrics=["XYZ"])


def test_input_permutation_changes_no_membership():
    rng = random.Random(31)
    for _ in range(20):
        shuffled = FIVE_VERSIONS[:]
        rng.shuffle(shuffled)
        for metric in METRICS:
            a = compare_versions(FIVE_VERSIONS, metrics=[metric])[0]
            b = compare_versions(shuffled, metrics=[metric])[0]
            assert set(a.min_versions) == set(b.min_versions)
            assert set(a.max_versions) == set(b.max_versions)
            assert a.min_value == b.min_value
            assert a.max_value == b.max_value


def test_strictly_between_version_changes_no_sets():
    base = compare_versions(FIVE_VERSIONS, metrics=["WMC"])[0]
    extended = FIVE_VERSIONS + [record("SÜRÜM-6", wmc=3.0)]
    after = compare_versions(extended, metrics=["WMC"])[0]
    assert after.min_versions == base.min_versions
    assert after.max_versions == base.max_versions


def test_members_share_extreme_value_exactly():
    rng = random.Random(32)
    for _ in range(50):
        records = [record(f"v{i}", wmc=rng.choice([0, 1, 1.5, 2, 2]))
                   for i in range(rng.randint(2, 6))]
        verdict = compare_versions(records, metrics=["WMC"])[0]
        for name in verdict.min_versions:
            rec = next(r for r in records if r.version_name == name)
            assert rec.mean("WMC") == verdict.min_value
        for name in verdict.max_versions:
            rec = next(r for r in records if r.version_name == name)
            assert rec.mean("WMC") == verdict.max_value
        assert verdict.min_value <= verdict.max_value


def test_positive_scaling_keeps_membership():
    for factor in (0.5, 2, 10):
        scaled = [record(r.version_name, wmc=r.means["WMC"] * factor)
                  for r in FIVE_VERSIONS]
        a = compare_versions(FIVE_VERSIONS, metrics=["WMC"])[0]
        b = compare_versions(scaled, metrics=["WMC"])[0]
        assert a.min_versions == b.min_versions
        assert a.max_versions == b.max_versions


# --- loading -------------------------------------------------------------------

def test_load_versions_table_in_order(fixtures):
    records = load_versions([fixtures / "five_versions.csv"],
                            name_prefix="SÜRÜM")
    assert [r.version_name for r in records] == [
        "SÜRÜM-1", "SÜRÜM-2", "SÜRÜM-3", "SÜRÜM-4", "SÜRÜM-5"]
    assert records[0].means["RFC"] == 12.642
    assert records[1].means["DIT"] == 0.17


def test_load_versions_mixed_inputs(fixtures, tmp_path):
    # a metrics table and a class model mix with a versions table; models
    # and tables are reduced to means
    (tmp_path / "t.csv").write_text(
        "CLASS,WMC,DIT,NOC,CBO,RFC,LCOM\nA,2,0,0,0,2,0\nB,4,0,0,0,4,0\n",
        encoding="utf-8")
    (tmp_path / "m.json").write_text(
        '{"schemaVersion": 1, "projectName": "p", "classes": '
        '[{"name": "A", "methods": [{"name": "m", "arity": 0}]}]}',
        encoding="utf-8")
    records = load_versions([tmp_path / "t.csv", tmp_path / "m.json"])
    assert [r.version_name for r in records] == ["VERSION-1", "VERSION-2"]
    assert records[0].means["WMC"] == 3.0
    assert records[1].means["WMC"] == 1.0


def test_load_versions_duplicate_names_rejected(tmp_path):
    table = ("VERSION,WMC,DIT,NOC,CBO,RFC,LCOM\n"
             "v1,1,0,0,0,1,0\n"
             "v1,2,0,0,0,2,0\n")
    (tmp_path / "v.csv").write_text(table, encoding="utf-8")
    with pytest.raises(InputError) as err:
        compare_versions(load_versions([tmp_path / "v.csv"]))
    assert str(err.value) == "duplicate version name: v1"


class CountedName(str):
    """A version name that counts the equality tests made on it."""

    eq_calls = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountedName.eq_calls += 1
        return str.__eq__(self, other)


def test_duplicate_version_check_is_linear_and_names_each_duplicate_once():
    def eq_calls(n: int) -> int:
        names = [f"v{i:05d}" for i in range(n)] + ["v00007", "v00003", "v00007"]
        records = [record(CountedName(name)) for name in names]
        CountedName.eq_calls = 0
        with pytest.raises(InputError) as err:
            compare_versions(records)
        assert str(err.value) == "duplicate version name: v00003, v00007"
        return CountedName.eq_calls

    # hashing compares a name only with the equal-hash names seen before it;
    # counting each name in the list of all names would compare n * n times
    for n in (2000, 8000):
        assert eq_calls(n) <= n


def test_load_versions_unreadable_path(tmp_path):
    with pytest.raises(InputError):
        load_versions([tmp_path / "missing.csv"])


MEANS = {"wmc": 1, "dit": 0, "noc": 0, "cbo": 2, "rfc": 3, "lcom": 0}


@pytest.mark.parametrize("rows, message", [
    ({}, "versions: must be an array"),
    ([[]], "versions[0]: version entry must be an object"),
    ([{"means": MEANS}], "versions[0].version: must be a non-empty string"),
    ([{"version": "", "means": MEANS}], "versions[0].version: must be a non-empty string"),
    ([{"version": "v"}], "versions[0].means: must be an object"),
    ([{"version": "v", "means": {**MEANS, "cbo": "2"}}],
     "versions[0].means.cbo: '2' is not a number"),
    ([{"version": "v", "means": {**MEANS, "noc": True}}],
     "versions[0].means.noc: True is not a number"),
    ([{"version": "v", "means": {"wmc": 1}}], "versions[0].means.dit: None is not a number"),
    ([{"version": "v", "means": MEANS}, {"version": "w", "means": MEANS, "path": 7}],
     "versions[1].path: must be a string"),
], ids=["not-array", "entry", "no-name", "empty-name", "no-means", "text-mean", "bool-mean",
        "missing-mean", "path"])
def test_versions_document_errors_name_their_place(rows, message):
    with pytest.raises(InputError) as err:
        versions_from_document({"schemaVersion": 1, "versions": rows})
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("", "empty versions table"),
    ("VERSION,WMC,DIT,NOC,CBO,RFC,LCOM\nv1,1,0,0,0,1,0\n  ,2,0,0,0,2,0\n",
     "line 3: empty version name"),
], ids=["empty", "empty-name"])
def test_versions_table_errors_name_their_line(text, message):
    with pytest.raises(InputError) as err:
        versions_from_csv(text)
    assert str(err.value) == message
