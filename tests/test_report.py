import json
import math
import os
from pathlib import Path
import subprocess
import sys
import xml.etree.ElementTree as ET

from hypothesis import assume, example, given, settings, strategies as st
import pytest

import ckeval
from ckeval.chart import (
    AXIS_LABEL_CHARS, HEIGHT, ChartSpec, _axis_label, build_chart_svg, emit_chart, escape,
)
from ckeval.errors import InputError
from ckeval.export import (
    assessments_document,
    assessments_text,
    export_structured,
    filters_document,
    filters_text,
    input_provenance,
    verdicts_document,
)
from ckeval.metrics import METRICS, MetricRecord, ProjectMetrics, compute_all
from ckeval.report import (
    ATTRIBUTE_TEXT,
    LEVEL_TEXT_BY_ATTRIBUTE,
    LOCALES,
    Report,
    Section,
    assessment_report,
    assessment_text,
    attribute_text,
    comparison_report,
    filter_report,
    level_text,
    render_text,
)
from ckeval.rules import (
    ATTRIBUTES,
    Assessment,
    Fact,
    Interval,
    LEVEL_NAMES,
    Level,
    RangeFilter,
    ValueSet,
    default_rule_base,
    evaluate_project,
    filter_by_ranges,
    forward_chain,
    load_rules,
    paper_rule_preset,
)
from ckeval.tables import format_value, metrics_from_csv, metrics_to_document
from ckeval.versions import compare_versions
from test_version_compare import FIVE_VERSIONS


def test_render_empty_report_is_title_line_only():
    assert render_text(Report(title="DEĞERLENDİRME SONUÇLARI")) \
        == "DEĞERLENDİRME SONUÇLARI\n"


def test_render_alignment_and_bare_lines():
    report = Report(title="T", sections=(
        Section("section one", (("key", "v1"), ("longer key", "v2"),
                                ("bare line;", None))),
    ))
    text = render_text(report)
    assert text == ("T\n"
                    "\n"
                    "SECTION ONE\n"
                    "key        : v1\n"
                    "longer key : v2\n"
                    "bare line;\n")


def test_render_pads_a_key_to_the_width_of_its_own_section():
    # the same key in sections of different widths, and again in the first
    report = Report(title="T", sections=(
        Section("a", (("key", "1"), ("wider key", "2"))),
        Section("b", (("key", "3"), ("bare", None), ("k", "4"))),
        Section("c", (("key", "5"), ("longer key", "6"))),
        Section("d", (("wider key", "7"), ("key", "8"))),
    ))
    assert render_text(report) == ("T\n"
                                   "\nA\nkey       : 1\nwider key : 2\n"
                                   "\nB\nkey : 3\nbare\nk   : 4\n"
                                   "\nC\nkey        : 5\nlonger key : 6\n"
                                   "\nD\nwider key : 7\nkey       : 8\n")


def test_render_turkish_uppercasing_keeps_dotted_i():
    report = Report(title="T", sections=(Section("değerlendirme için", ()),),
                    locale="tr")
    assert "DEĞERLENDİRME İÇİN" in render_text(report)


def test_turkish_comparison_lines_match_published_wording():
    verdicts = compare_versions(FIVE_VERSIONS, metrics=["WMC"])
    text = render_text(comparison_report(verdicts, locale="tr"))
    assert "ELDE EDİLEN BULGULAR WMC METRİĞİ AÇISINDAN İNCELENDİĞİNDE," in text
    assert "EN KÜÇÜK değere sahip sürüm/ler : SÜRÜM-5 (0)" in text
    assert "EN BÜYÜK değere sahip sürüm/ler : SÜRÜM-2 ve SÜRÜM-3 (5)" in text
    assert "Kod Kalitesi Bakımından;" in text
    assert "En Karışık ve En Düşük" in text
    assert "En Az Karışık ve En Yüksek" in text
    assert "Harcanak Zaman ve İş Gücü;" in text
    assert "En Çok" in text and "En Az" in text


def test_turkish_golden_file(fixtures):
    verdicts = compare_versions(FIVE_VERSIONS, metrics=["WMC"])
    text = render_text(comparison_report(verdicts, locale="tr"))
    golden = (fixtures / "golden" / "five_versions_wmc_tr.txt").read_text(encoding="utf-8")
    assert text == golden


def test_english_comparison_lines():
    verdicts = compare_versions(
        [r for r in FIVE_VERSIONS], metrics=["WMC"])
    text = render_text(comparison_report(verdicts, locale="en"))
    assert "SMALLEST value version/s : SÜRÜM-5 (0)" in text
    assert "LARGEST value version/s  : SÜRÜM-2 and SÜRÜM-3 (5)" in text


def test_attribute_and_level_wording_tr():
    # the conclusion wording of the three published rules, pair by pair
    assert attribute_text("inheritanceDepth", "tr") == "Kalıtım Ağacının Derinliği"
    assert level_text("inheritanceDepth", Level.NORMAL, "tr") == "İstenen Aralıkta"
    assert attribute_text("faultLikelihood", "tr") == "Kod Hata Olma İhtimali"
    assert attribute_text("maintenanceEffort", "tr") \
        == "Bakım, Onarım ve Test Faaliyetleri"
    assert level_text("maintenanceEffort", Level.LOW, "tr") == "Az"
    assert level_text("maintenanceEffort", Level.HIGH, "tr") == "Çok"
    assert level_text("maintenanceEffort", Level.VERY_LOW, "tr") == "Çok Az"
    assert attribute_text("quality", "tr") == "Kalite Düzeyi"
    assert attribute_text("coupling", "tr") == "Bağımlılık Düzeyi"
    assert attribute_text("modularDesign", "tr") == "Modüler Tasarım"
    assert attribute_text("methodCount", "tr") == "Sınıflardaki Metot Sayısı"
    assert attribute_text("robustness", "tr") == "Dayanıklılık"
    assert level_text("quality", Level.VERY_LOW, "tr") == "Çok Düşük"
    assert level_text("quality", Level.HIGH, "tr") == "Yüksek"
    assert level_text("complexity", Level.LOW, "tr") == "Düşük"


def test_assessment_report_renders_published_rule_wording():
    out = forward_chain([Fact("DIT", 5, "moreUnit.actions.JumpAction")],
                        paper_rule_preset())
    text = render_text(assessment_report(out, locale="tr"))
    assert "Kalıtım Ağacının Derinliği" in text
    assert "İstenen Aralıkta" in text
    assert "Bakım, Onarım ve Test Faaliyetleri" in text
    assert "Az" in text
    assert "moreUnit.actions.JumpAction" in text   # class name not mangled
    assert "paper-1" in text


def test_assessment_report_words_every_pair_as_attribute_and_level_text():
    # every registered attribute, one without wording, and the attributes
    # with per-level overrides, at every level
    attributes = sorted(ATTRIBUTES | {"noWording"})
    assert "noWording" not in ATTRIBUTE_TEXT["en"]
    overridden = {pair for locale in LOCALES for pair in LEVEL_TEXT_BY_ATTRIBUTE[locale]}
    assert {a for a, _ in overridden} <= set(attributes)
    assessments = []
    for i, level in enumerate(list(Level) * 2):
        pairs = attributes[i % 3:] + attributes[:i % 3]
        assessments.append(Assessment(scope=f"C{i}", derived=dict.fromkeys(pairs, level),
                                      derived_by=dict.fromkeys(pairs, "r"),
                                      fired_rules=["r"]))
    for locale in LOCALES:
        report = assessment_report(assessments, locale=locale)
        for a, section in zip(assessments, report.sections, strict=True):
            assert section.lines[1:-1] == tuple(
                (attribute_text(attribute, locale), level_text(attribute, level, locale))
                for attribute, level in a.pairs())
        lines = {line for section in report.sections for line in section.lines}
        assert ("noWording", level_text("noWording", Level.LOW, locale)) in lines
        for attribute, level in overridden:
            assert (attribute_text(attribute, locale),
                    LEVEL_TEXT_BY_ATTRIBUTE[locale][attribute, level]) in lines


def test_filter_report_condition_display(fixtures):
    pm = metrics_from_csv((fixtures / "moreunit_classes.csv").read_text(encoding="utf-8"))
    filters = filter_by_ranges(pm, {"WMC": Interval(2, 5),
                                    "LCOM": ValueSet(frozenset({0, 1, 2}))})
    text = render_text(filter_report(filters, locale="en"))
    assert "WMC SELECTION: 2 - 5" in text
    assert "LCOM SELECTION: 0, 1, 2" in text
    assert "moreUnit.elements.ClassTypeFacade (9)" in text  # out of range


def test_render_deterministic():
    verdicts = compare_versions(FIVE_VERSIONS)
    report = comparison_report(verdicts, locale="tr")
    assert render_text(report) == render_text(report)


# --- the fast assessment writer against the rendered report ---------------------

# attributes with and without wording, and of other widths
text_attributes = (st.sampled_from(sorted(ATTRIBUTES | {"noWording"}))
                   | st.text("aiıİ :", max_size=40))
text_assessments = st.lists(st.builds(
    Assessment,
    # None is a bare name line; a non-str scope is formatted as a value
    st.sampled_from(["p.A", "p.B", "İ.i", ""]) | st.none() | st.integers() | st.just(Level.HIGH),
    st.dictionaries(text_attributes, st.sampled_from(list(Level)), max_size=13)
    # a non-str attribute, which the reference refuses
    | st.dictionaries(text_attributes | st.integers(0, 3) | st.tuples(st.text(max_size=2)),
                      st.sampled_from(list(Level)), min_size=1, max_size=4),
    st.builds(dict), st.lists(st.sampled_from(["r1", "wmc-low"]), max_size=6)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(text_assessments, st.sampled_from(LOCALES), st.sampled_from(["class", "project"]),
       st.sampled_from(["", "shop"]))
@example([Assessment(None, {"maintenanceEffort": Level.LOW}, {}, []),
          Assessment("p.A", {}, {}, []),
          Assessment("p.B", {"quality": Level.HIGH, "noWording": Level.LOW}, {}, ["r1"])],
         "en", "class", "")
@example([Assessment("p.A", {"quality": Level.HIGH}, {}, []),
          Assessment("p.B", {1: Level.LOW}, {}, [])], "tr", "class", "")
def test_assessment_text_is_the_rendered_report(assessments, locale, scope, project_name):
    try:
        expected = render_text(assessment_report(assessments, locale, project_name, scope))
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            assessment_text(assessments, locale, project_name, scope)
        assert type(raised.value) is type(exc)
    else:
        assert assessment_text(assessments, locale, project_name, scope) == expected


# --- structured export ----------------------------------------------------------

def test_assessment_export_counts(tmp_path):
    kb = paper_rule_preset()
    out = forward_chain([Fact("DIT", 5, "c")], kb)
    doc = assessments_document(out, kb, "class", inputs=[])
    entry = doc["assessments"][0]
    assert len(entry["conclusions"]) == 8
    assert entry["firedRules"] == ["paper-1"]
    assert {c["rule"] for c in entry["conclusions"]} == {"paper-1"}


def import_structured(text: str) -> dict:
    """A structured document read back, as a reader of the exports would."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid structured document: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("structured document must be an object with a kind")
    return doc


def test_export_import_export_is_byte_stable(tmp_path):
    verdicts = compare_versions(FIVE_VERSIONS)
    path = tmp_path / "in.csv"
    path.write_text("x", encoding="utf-8")
    doc = verdicts_document(verdicts, input_provenance([path]))
    first = export_structured(doc)
    second = export_structured(import_structured(first))
    assert first.encode() == second.encode()


def test_filters_export_carries_partitions(fixtures):
    pm = metrics_from_csv((fixtures / "moreunit_classes.csv").read_text(encoding="utf-8"))
    filters = filter_by_ranges(pm, {"WMC": Interval(2, 5)})
    doc = filters_document(filters, inputs=[])
    assert [row["value"] for row in doc["filters"][0]["inRange"]] \
        == [4, 4, 4, 4, 5]
    assert sorted(row["value"] for row in doc["filters"][0]["outOfRange"]) \
        == [8, 9]


def test_provenance_has_path_and_timestamp(tmp_path):
    target = tmp_path / "f.csv"
    target.write_text("x", encoding="utf-8")
    entries = input_provenance([target])
    assert entries[0]["path"] == str(target)
    assert entries[0]["modified"].endswith("+00:00")


# --- canonical JSON: export_structured against json.dumps ------------------------

def dumps_oracle(document) -> str:
    return json.dumps(document, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def assert_same_as_oracle(document):
    try:
        expected = dumps_oracle(document)
    except (TypeError, ValueError) as exc:  # unsortable keys, say
        with pytest.raises(type(exc)):
            export_structured(document)
        return
    assert export_structured(document) == expected


TRICKY_STRINGS = ["", "{", "}", ",", "\n", "{\n}", '{"a": 1,\n  "b"', "[],{}",
                  "çğıİöşü", "\x00\x1f\x7f", '"\\', "\u2028\u2029", "\ud800", "🙂"]


def test_export_structured_refuses_what_json_refuses():
    for document in ({"a": {1, 2}}, {(1,): [1]}, {"a": {(1,): 2}}, {"a": [object()]}):
        assert_same_as_oracle(document)
    cyclic = {"a": []}
    cyclic["a"].append(cyclic)
    with pytest.raises(ValueError, match="Circular reference"):
        export_structured(cyclic)


def test_export_structured_is_json_dumps_on_result_documents(fixtures, corpus_model, tmp_path):
    pm = metrics_from_csv((fixtures / "moreunit_classes.csv").read_text(encoding="utf-8"))
    inputs = input_provenance([fixtures / "moreunit_classes.csv", tmp_path / "missing.csv"])
    documents = [metrics_to_document(pm), metrics_to_document(compute_all(corpus_model)),
                 verdicts_document(compare_versions(FIVE_VERSIONS), inputs),
                 filters_document(filter_by_ranges(pm, {"WMC": Interval(2, 5),
                                                        "LCOM": ValueSet(frozenset({0, 1, 2}))}),
                                  inputs)]
    for kb in (default_rule_base(), paper_rule_preset()):
        for scope in ("class", "project"):
            documents.append(assessments_document(evaluate_project(pm, kb, scope),
                                                  kb, scope, inputs))
    for document in documents:
        assert export_structured(document) == dumps_oracle(document)


# --- structured assessments written straight from the assessments ---------------

def assert_assessments_text_is_export(assessments, kb, scope, inputs):
    document = assessments_document(assessments, kb, scope, inputs)
    assert assessments_text(assessments, kb, scope, inputs) == dumps_oracle(document)


texts = st.one_of(st.sampled_from(TRICKY_STRINGS), st.text())
rule_ids = st.one_of(st.sampled_from([s for s in TRICKY_STRINGS if s]), st.text(min_size=1))
inputs_lists = st.lists(st.fixed_dictionaries({"path": texts,
                                               "modified": st.one_of(st.none(), texts)}),
                        max_size=2)


@st.composite
def custom_bases(draw):
    """A rules document through load_rules: each rule matches one value of
    its metric, and the values of a metric are distinct, so bands are disjoint."""
    ids = draw(st.lists(rule_ids, min_size=1, max_size=8, unique=True))
    entries = []
    for i, rule_id in enumerate(ids):
        conclusions = draw(st.lists(
            st.fixed_dictionaries({"attribute": st.sampled_from(sorted(ATTRIBUTES)),
                                   "level": st.sampled_from(list(LEVEL_NAMES.values()))}),
            min_size=1, max_size=4))
        entries.append({"id": rule_id, "metric": METRICS[i % len(METRICS)],
                        "values": [i // len(METRICS)], "conclusions": conclusions})
    return load_rules({"name": draw(st.one_of(st.just("custom"), rule_ids)),
                       "rules": entries})


@st.composite
def hand_built_assessments(draw):
    """Assessments as any caller may build them, with or without pairs or
    fired rules, and attributes that name no registered attribute."""
    derived = draw(st.dictionaries(texts, st.sampled_from(list(Level)), max_size=4))
    return Assessment(scope=draw(texts), derived=derived,
                      derived_by={attribute: draw(rule_ids) for attribute in derived},
                      fired_rules=draw(st.lists(rule_ids, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(kb=custom_bases(),
       facts=st.lists(st.tuples(texts, st.sampled_from(METRICS), st.integers(0, 3)),
                      max_size=12),
       extra=st.lists(hand_built_assessments(), max_size=3),
       scope=st.one_of(st.sampled_from(["class", "project"]), texts),
       inputs=inputs_lists)
@example(kb=paper_rule_preset(), facts=[], extra=[], scope="class", inputs=[])
@example(kb=paper_rule_preset(), facts=[("c", "WMC", 0)], extra=[], scope="project", inputs=[])
def test_assessments_text_is_export_of_the_document(kb, facts, extra, scope, inputs):
    # facts of no rule leave an assessment with no pairs and no fired rules
    assessments = forward_chain([Fact(metric, value, name) for name, metric, value in facts], kb)
    assert_assessments_text_is_export(assessments + extra, kb, scope, inputs)


def test_assessments_text_reuses_no_text_across_equal_keys_of_other_types():
    # 1, 1.0 and True are equal keys but json writes them differently
    kb = paper_rule_preset()
    assessments = [Assessment(scope=str(key), derived={key: Level.LOW},
                              derived_by={key: key}, fired_rules=[key])
                   for key in ("1", 1, 1.0, True, "1")]
    assert_assessments_text_is_export(assessments, kb, "class", [])


def test_assessments_text_is_export_on_result_documents(fixtures, tmp_path):
    pm = metrics_from_csv((fixtures / "moreunit_classes.csv").read_text(encoding="utf-8"))
    inputs = input_provenance([fixtures / "moreunit_classes.csv", tmp_path / "missing.csv"])
    for kb in (default_rule_base(), paper_rule_preset()):
        for scope in ("class", "project"):
            assert_assessments_text_is_export(evaluate_project(pm, kb, scope),
                                              kb, scope, inputs)


# --- structured range selections written straight from the filters -------------

def assert_filters_text_is_export(filters, inputs):
    document = filters_document(filters, inputs)
    expected = dumps_oracle(document)
    assert export_structured(document) == expected
    assert filters_text(filters, inputs) == expected


class Count(int):
    pass


class Name(str):
    pass


class_names = st.one_of(st.sampled_from(TRICKY_STRINGS + ['a"b', "a\\b", "\x07\t", "\u2028x",
                                                         "İçğ", "\U0001d518🙂"]),
                        st.text())
# values 0-6 against bounds 0-6, so a partition is often empty or whole
selections = st.dictionaries(st.sampled_from(METRICS), st.one_of(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
        lambda ends: Interval(float(min(ends)), float(max(ends)))),
    st.integers(0, 6).map(lambda lo: Interval(float(lo))),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.25, 3.0, 6.0]), min_size=1, max_size=4).map(
        lambda values: ValueSet(frozenset(values)))), min_size=1, max_size=6)


@st.composite
def metric_tables(draw):
    """Up to 300 records whose names and values come from small pools."""
    pool = draw(st.lists(class_names, min_size=1, max_size=6))
    rng = draw(st.randoms(use_true_random=False))
    return ProjectMetrics("p", tuple(
        MetricRecord(rng.choice(pool), *(rng.randint(0, 6) for _ in METRICS))
        for _ in range(draw(st.integers(0, 300)))), {})


odd_values = st.one_of(st.booleans(), st.floats(), st.integers().map(Count), st.integers(0, 9))
odd_records = st.lists(st.builds(MetricRecord, st.one_of(class_names, class_names.map(Name)),
                                 *[odd_values] * len(METRICS)), max_size=3).map(tuple)
hand_built_filters = st.lists(st.builds(RangeFilter, st.sampled_from(METRICS), selections.map(
    lambda selection: next(iter(selection.values()))), odd_records, odd_records), max_size=2)


@settings(max_examples=60, deadline=None)
@given(pm=metric_tables(), selection=selections, extra=hand_built_filters, inputs=inputs_lists)
@example(pm=ProjectMetrics("p", (), {}), selection={"WMC": Interval(0.0)}, extra=[],
         inputs=[{"path": "t.csv", "modified": None}])
@example(pm=ProjectMetrics("p", (MetricRecord('"\\\u2028🙂', 1, 2, 3, 4, 5, 6),), {}),
         selection={m: ValueSet(frozenset({0.5, 6.0})) for m in METRICS},
         extra=[RangeFilter("CBO", Interval(1.0, 2.0),
                            (MetricRecord(Name("n"), True, 1.5, Count(3), math.nan, -0.0, 7),),
                            ())], inputs=[])
def test_filters_text_is_export_of_the_document(pm, selection, extra, inputs):
    assert_filters_text_is_export(filter_by_ranges(pm, selection) + extra, inputs)


def test_filters_text_of_no_filters_is_export():
    assert_filters_text_is_export([], [])


# --- SVG chart -------------------------------------------------------------------

def spec_from_records(records, metrics=METRICS):
    return ChartSpec(groups=tuple(r.version_name for r in records),
                     series=tuple((m, tuple(r.mean(m) for r in records))
                                  for m in metrics))


def bar_rects(svg: str):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return [r for r in root.iter(f"{ns}rect")
            if r.find(f"{ns}title") is not None]


def test_chart_30_bars_tallest_is_rfc_of_first_version():
    svg = build_chart_svg(spec_from_records(FIVE_VERSIONS))
    bars = bar_rects(svg)
    assert len(bars) == 30
    tallest = max(bars, key=lambda r: float(r.get("height")))
    ns = "{http://www.w3.org/2000/svg}"
    assert tallest.find(f"{ns}title").text == "SÜRÜM-1 RFC: 12.642"


def test_chart_single_all_zero_version():
    spec = ChartSpec(groups=("v1",),
                     series=tuple((m, (0.0,)) for m in METRICS))
    svg = build_chart_svg(spec)
    bars = bar_rects(svg)
    assert len(bars) == 6
    assert all(float(r.get("height")) == 0.0 for r in bars)
    assert ">1</text>" in svg  # degenerate axis maximum


def test_chart_two_versions_one_metric():
    spec = ChartSpec(groups=("v1", "v2"), series=(("WMC", (1.0, 2.0)),))
    assert len(bar_rects(build_chart_svg(spec))) == 2


@pytest.mark.parametrize("peak", [3.2e307, 3.3e307, 1e308, 1.7e308, sys.float_info.max])
def test_chart_of_huge_means_keeps_finite_labels_and_bars(peak):
    svg = build_chart_svg(ChartSpec(groups=("v1", "v2"), series=(("WMC", (peak, 1.0)),)))
    ns = "{http://www.w3.org/2000/svg}"
    labels = [float(t.text) for t in ET.fromstring(svg).iter(f"{ns}text")
              if t.get("font-size") == "11"]
    assert len(labels) == 6 and labels[0] == 0 and all(map(math.isfinite, labels))
    assert labels == sorted(labels) and labels[-1] >= peak
    tall, low = (float(r.get("height")) for r in bar_rects(svg))
    assert 0 < tall <= HEIGHT - 88 and low == 0  # 88: the top and bottom margins


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_chart_refuses_a_value_that_is_not_finite(bad):
    spec = ChartSpec(groups=("a", "b"), series=(("WMC", (1.0, 2.0)), ("CBO", (bad, 1.0))))
    with pytest.raises(InputError, match=r"^series 'CBO' contains a value that is not finite"):
        build_chart_svg(spec)


@pytest.mark.parametrize("series, message", [
    ((("WMC", (1.0, 2.0)), ("CBO", (1.0,))), "series 'CBO' must carry one value per group"),
    ((("WMC", (1.0, 2.0, 3.0)),), "series 'WMC' must carry one value per group"),
    ((("WMC", (1.0, 2.0)), ("CBO", (0.0, -0.5))), "series 'CBO' contains a negative value"),
], ids=["short", "long", "negative"])
def test_chart_refuses_a_series_of_the_wrong_length_or_sign(series, message):
    with pytest.raises(InputError) as err:
        build_chart_svg(ChartSpec(groups=("a", "b"), series=series))
    assert str(err.value) == message


def test_chart_zero_groups_rejected():
    with pytest.raises(InputError):
        build_chart_svg(ChartSpec(groups=(), series=()))


def test_chart_is_wellformed_single_root_and_deterministic(tmp_path):
    spec = spec_from_records(FIVE_VERSIONS)
    svg = build_chart_svg(spec, title="Metrik Değerlerine Göre Sürümler")
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    again = emit_chart(spec, tmp_path / "chart.svg",
                       title="Metrik Değerlerine Göre Sürümler")
    assert again == svg
    assert (tmp_path / "chart.svg").read_text(encoding="utf-8") == svg


@given(st.one_of(st.floats(0, 1e4), st.integers(0, 2 * 10**7).map(lambda k: k / 2000),
                 st.integers(0, 10**8).map(float), st.floats(0, allow_infinity=False)))
@example(0.0005)
@example(2.0005)
@example(1234.5675)
@example(99999999.9994)
@example(99999999.9996)
@example(5e-324)
def test_chart_axis_label_is_the_report_text_where_that_fits(value):
    # a bar's tooltip is _axis_label(value), which a report's text must match
    text = format_value(value)
    assume(len(text) <= AXIS_LABEL_CHARS)
    assert _axis_label(value) == text


def test_chart_legend_lists_all_series():
    svg = build_chart_svg(spec_from_records(FIVE_VERSIONS))
    for metric in METRICS:
        assert f">{metric}</text>" in svg


def modules_after_cli_import(where: str) -> str:
    """The sorted list, as printed, of the modules m in sys.modules for which
    the expression where holds, after a fresh interpreter imports ckeval.cli."""
    package_root = str(Path(ckeval.__file__).parent.parent)
    code = f"import sys, ckeval.cli; print(sorted(m for m in sys.modules if {where}))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root}, check=True)
    return proc.stdout


def test_cli_import_leaves_xml_sax_and_its_network_modules_out():
    # saxutils pulls in urllib.request, http.client, email and ssl on every run
    assert modules_after_cli_import(
        "m.split('.')[0] in ('xml', 'http', 'email', 'ssl') or m == 'urllib.request'") == "[]\n"


def test_cli_import_leaves_decimal_and_numbers_out():
    # project-scope rounding is float arithmetic; decimal would load numbers too
    assert modules_after_cli_import("m in ('decimal', '_decimal', 'numbers')") == "[]\n"


def test_cli_import_leaves_dataclasses_inspect_and_importlib_resources_out():
    # the values are NamedTuples and the built-in bases are read through
    # pkgutil; dataclasses alone would load inspect, ast, dis and tokenize
    assert modules_after_cli_import(
        "m in ('dataclasses', 'inspect', 'importlib.resources')") == "[]\n"


@given(st.text())
@example("a & b < c > d &amp; \"q\" 'r'")
def test_chart_escape_is_saxutils_escape(text):
    from xml.sax.saxutils import escape as sax_escape

    assert escape(text) == sax_escape(text)
