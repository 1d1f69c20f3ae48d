"""Plain-text reports: assessments, range filters, version verdicts.

Rendering is deterministic; the Turkish templates mirror the wording of the
original evaluation screens line by line, English is the default.

The builders return a ``Report`` of ``Section``s, which ``render_text``
writes. ``assessment_text`` is the fast writer of the assessments' text:
it equals ``render_text(assessment_report(...))`` without building a
report, and the CLI writes text assessments with it.
"""

from typing import NamedTuple

from .metrics import value_getter
from .rules import Assessment, Level, RangeFilter
from .tables import format_value
from .versions import VersionVerdict

LOCALES = ("en", "tr")

#: (key, value) line; value None renders the key bare (sub-heading line).
Line = tuple[str, "str | None"]


class Section(NamedTuple):
    heading: str
    lines: tuple[Line, ...] = ()


class Report(NamedTuple):
    title: str
    sections: tuple[Section, ...] = ()
    locale: str = "en"


def render_text(report: Report) -> str:
    """Title, then each section: heading uppercased, keys padded to its widest valued key."""
    out = [report.title]
    for section in report.sections:
        out += ["", _upper(section.heading, report.locale)]
        width = max([len(k) for k, v in section.lines if v is not None], default=0)
        out += [key if value is None else f"{key:<{width}} : {value}"
                for key, value in section.lines]
    out.append("")  # the final newline
    return "\n".join(out)


def _upper(text: str, locale: str) -> str:
    if locale == "tr":
        # Turkish dotted/dotless i must not round-trip through ASCII casing.
        text = text.replace("i", "İ").replace("ı", "I")
    return text.upper()


# --- wording tables ----------------------------------------------------------

STRINGS = {
    "en": {
        "title": "EVALUATION RESULTS",
        "metric_section": "FINDINGS EXAMINED FOR THE {metric} METRIC,",
        "min_key": "SMALLEST value version/s",
        "max_key": "LARGEST value version/s",
        "quality_heading": "In Terms of Code Quality;",
        "worst_quality": "Most Complex and Lowest",
        "best_quality": "Least Complex and Highest",
        "effort_heading": "Time and Labor Spent on Development, "
                          "Maintenance-Repair and Test Activities;",
        "effort_most": "Most",
        "effort_least": "Least",
        "tie_join": " and ",
        "class_heading": "CLASS ASSESSMENT",
        "project_heading": "PROJECT ASSESSMENT",
        "class_key": "Class",
        "project_key": "Project",
        "fired_rules": "Fired rules",
        "selection_section": "{metric} SELECTION: {condition}",
        "in_range": "In range",
        "out_of_range": "Out of range",
        "none": "none",
        "version_prefix": "VERSION",
        "chart_title": "Versions by Metric Values",
    },
    "tr": {
        "title": "DEĞERLENDİRME SONUÇLARI",
        "metric_section": "ELDE EDİLEN BULGULAR {metric} METRİĞİ "
                          "AÇISINDAN İNCELENDİĞİNDE,",
        "min_key": "EN KÜÇÜK değere sahip sürüm/ler",
        "max_key": "EN BÜYÜK değere sahip sürüm/ler",
        "quality_heading": "Kod Kalitesi Bakımından;",
        "worst_quality": "En Karışık ve En Düşük",
        "best_quality": "En Az Karışık ve En Yüksek",
        "effort_heading": "Geliştirilmesi, Bakım-Onarımı ve Test Faaliyetleri "
                          "Bakımından Harcanak Zaman ve İş Gücü;",
        "effort_most": "En Çok",
        "effort_least": "En Az",
        "tie_join": " ve ",
        "class_heading": "SINIF DEĞERLENDİRMESİ",
        "project_heading": "PROJE DEĞERLENDİRMESİ",
        "class_key": "Sınıf",
        "project_key": "Proje",
        "fired_rules": "Kullanılan kurallar",
        "selection_section": "{metric} SEÇİMİ: {condition}",
        "in_range": "Aralıkta",
        "out_of_range": "Aralık dışında",
        "none": "yok",
        "version_prefix": "SÜRÜM",
        "chart_title": "Metrik Değerlerine Göre Sürümler",
    },
}

LEVEL_TEXT = {
    "en": {
        Level.VERY_LOW: "Very Low",
        Level.LOW: "Low",
        Level.NORMAL: "Normal",
        Level.HIGH: "High",
        Level.VERY_HIGH: "Very High",
    },
    "tr": {
        Level.VERY_LOW: "Çok Düşük",
        Level.LOW: "Düşük",
        Level.NORMAL: "Normal",
        Level.HIGH: "Yüksek",
        Level.VERY_HIGH: "Çok Yüksek",
    },
}

# Amount-flavored attributes read as quantities, and the desired-range label
# for inheritance depth, exactly as the original screens word them.
LEVEL_TEXT_BY_ATTRIBUTE = {
    "en": {
        ("maintenanceEffort", Level.VERY_LOW): "Very Little",
        ("maintenanceEffort", Level.LOW): "Little",
        ("maintenanceEffort", Level.HIGH): "Much",
        ("maintenanceEffort", Level.VERY_HIGH): "Very Much",
        ("inheritanceDepth", Level.NORMAL): "In Desired Range",
    },
    "tr": {
        ("maintenanceEffort", Level.VERY_LOW): "Çok Az",
        ("maintenanceEffort", Level.LOW): "Az",
        ("maintenanceEffort", Level.HIGH): "Çok",
        ("maintenanceEffort", Level.VERY_HIGH): "Çok Fazla",
        ("inheritanceDepth", Level.NORMAL): "İstenen Aralıkta",
    },
}

ATTRIBUTE_TEXT = {
    "en": {
        "complexity": "Complexity",
        "understandability": "Understandability",
        "testability": "Testability",
        "reusability": "Reusability",
        "robustness": "Robustness",
        "faultLikelihood": "Fault Likelihood",
        "maintenanceEffort": "Maintenance, Repair and Test Effort",
        "quality": "Quality Level",
        "coupling": "Coupling Level",
        "modularDesign": "Modular Design",
        "inheritanceDepth": "Inheritance Tree Depth",
        "methodCount": "Method Count",
    },
    "tr": {
        "complexity": "Karmaşıklık",
        "understandability": "Anlaşılabilirlik",
        "testability": "Test Edilebilirlik",
        "reusability": "Yeniden Kullanılabilirlik",
        "robustness": "Dayanıklılık",
        "faultLikelihood": "Kod Hata Olma İhtimali",
        "maintenanceEffort": "Bakım, Onarım ve Test Faaliyetleri",
        "quality": "Kalite Düzeyi",
        "coupling": "Bağımlılık Düzeyi",
        "modularDesign": "Modüler Tasarım",
        "inheritanceDepth": "Kalıtım Ağacının Derinliği",
        "methodCount": "Sınıflardaki Metot Sayısı",
    },
}


def level_text(attribute: str, level: Level, locale: str) -> str:
    override = LEVEL_TEXT_BY_ATTRIBUTE[locale].get((attribute, level))
    return override if override is not None else LEVEL_TEXT[locale][level]


def attribute_text(attribute: str, locale: str) -> str:
    return ATTRIBUTE_TEXT[locale].get(attribute, attribute)


# --- report builders ---------------------------------------------------------

def comparison_report(verdicts: list[VersionVerdict], locale: str = "en") -> Report:
    s = STRINGS[locale]
    sections = []
    for v in verdicts:
        join = s["tie_join"].join
        lines: list[Line] = [
            (s["min_key"], f"{join(v.min_versions)} ({format_value(v.min_value)})"),
            (s["max_key"], f"{join(v.max_versions)} ({format_value(v.max_value)})"),
            (s["quality_heading"], None),
            (join(v.quality_worst), s["worst_quality"]),
            (join(v.quality_best), s["best_quality"]),
            (s["effort_heading"], None),
            (join(v.effort_most), s["effort_most"]),
            (join(v.effort_least), s["effort_least"]),
        ]
        sections.append(Section(
            heading=s["metric_section"].format(metric=v.metric),
            lines=tuple(lines)))
    return Report(title=s["title"], sections=tuple(sections), locale=locale)


def assessment_report(assessments: list[Assessment], locale: str = "en",
                      project_name: str = "", scope: str = "class") -> Report:
    """Report assessments made at ``scope``, as ``evaluate_project`` takes
    it: one section per class, or the one project section."""
    s = STRINGS[locale]
    if scope == "project":
        heading, name_key = s["project_heading"], s["project_key"]
    else:
        heading, name_key = s["class_heading"], s["class_key"]
    sections = tuple(Section(heading, (
        (name_key, (project_name or "project") if scope == "project" else a.scope),
        *[(attribute_text(attribute, locale), level_text(attribute, level, locale))
          for attribute, level in a.derived.items()],
        (s["fired_rules"], ", ".join(a.fired_rules) or s["none"]))) for a in assessments)
    return Report(title=s["title"], sections=sections, locale=locale)


class _Widths(dict):
    """attribute -> the width of its text, looked up once per call."""

    def __init__(self, locale: str):
        self.locale = locale

    def __missing__(self, attribute) -> int:
        width = self[attribute] = len(attribute_text(attribute, self.locale))
        return width


class _Lines(dict):
    """(attribute, level) -> its line at one key width, formatted once; the
    name and fired-rules keys padded to that width ride along."""

    def __init__(self, width: int, name_key: str, fired_key: str, locale: str):
        self.width, self.locale = width, locale
        self.name = f"{name_key:<{width}} : "
        self.fired = f"{fired_key:<{width}} : "

    def __missing__(self, pair: tuple[str, Level]) -> str:
        attribute, level = pair
        line = self[pair] = (f"{attribute_text(attribute, self.locale):<{self.width}} : "
                             f"{level_text(attribute, level, self.locale)}")
        return line


def assessment_text(assessments: list[Assessment], locale: str = "en",
                    project_name: str = "", scope: str = "class") -> str:
    """``render_text(assessment_report(...))``, written straight from the
    assessments.

    No ``Section`` or ``Report`` is built. The heading is uppercased once,
    a section's key width is read from a table of attribute text widths,
    and each (attribute, level) line is formatted once per width; a section
    then appends lines it already has, and one join ends the call.
    """
    s = STRINGS[locale]
    if scope == "project":
        heading, name_key = s["project_heading"], s["project_key"]
        name = project_name or "project"
    else:  # each section is named by its assessment's scope
        heading, name_key, name = s["class_heading"], s["class_key"], None
    heading = "\n" + _upper(heading, locale)  # the blank line, then the heading
    fired_key, none = s["fired_rules"], s["none"]
    named_width = max(len(name_key), len(fired_key))
    widths = _Widths(locale).__getitem__
    by_width: dict[int, _Lines] = {}
    out = [s["title"]]
    append, extend = out.append, out.extend
    for a in assessments:
        value = a.scope if name is None else name
        # a bare name line (no value) does not count towards the width
        width = max(named_width if value is not None else len(fired_key),
                    max(map(widths, a.derived), default=0))
        lines = by_width.get(width)
        if lines is None:
            lines = by_width[width] = _Lines(width, name_key, fired_key, locale)
        append(heading)
        append(name_key if value is None else f"{lines.name}{value}")
        extend(map(lines.__getitem__, a.derived.items()))
        append(lines.fired + (", ".join(a.fired_rules) or none))
    append("")  # the final newline
    return "\n".join(out)


def filter_report(filters: list[RangeFilter], locale: str = "en") -> Report:
    s = STRINGS[locale]
    sections = []
    for f in filters:
        column = value_getter(f.metric)

        def names(records) -> str:
            if not records:
                return s["none"]
            return ", ".join(f"{r.class_name} ({column(r)})" for r in records)
        sections.append(Section(
            heading=s["selection_section"].format(
                metric=f.metric, condition=f.condition.describe()),
            lines=(
                (s["in_range"], names(f.in_range)),
                (s["out_of_range"], names(f.out_of_range)),
            )))
    return Report(title=s["title"], sections=tuple(sections), locale=locale)
