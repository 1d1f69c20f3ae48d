"""The report builders as they were before the wording and padding tables.

Test-only oracle: ``assessment_report`` words each (attribute, level) pair
of an assessment one lookup at a time, and ``render_text`` keeps one padded
key per (key, width). ``tests/test_report.py`` checks that ``ckeval.report``
builds equal reports and renders the same bytes.
"""

from ckeval.report import (
    STRINGS,
    Line,
    Report,
    Section,
    _upper,
    attribute_text,
    level_text,
)
from ckeval.rules import Assessment


def render_text(report: Report) -> str:
    out = [report.title]
    append = out.append
    pads: dict[tuple[str, int], str] = {}  # (key, width) -> the line up to its value
    for section in report.sections:
        append("")
        append(_upper(section.heading, report.locale))
        width = max([len(k) for k, v in section.lines if v is not None], default=0)
        for key, value in section.lines:
            if value is None:
                append(key)
                continue
            pad = pads.get((key, width))
            if pad is None:
                pad = pads[key, width] = f"{key:<{width}} : "
            append(f"{pad}{value}")
    append("")
    return "\n".join(out)


def assessment_report(assessments: list[Assessment], locale: str = "en",
                      project_name: str = "", scope: str = "class") -> Report:
    s = STRINGS[locale]
    wording: dict[tuple, Line] = {}  # (attribute, level) -> its line
    sections = []
    for a in assessments:
        if scope == "project":
            heading = s["project_heading"]
            name_line: Line = (s["project_key"], project_name or "project")
        else:
            heading = s["class_heading"]
            name_line = (s["class_key"], a.scope)
        lines: list[Line] = [name_line]
        for pair in a.pairs():
            line = wording.get(pair)
            if line is None:
                attribute, level = pair
                line = wording[pair] = (attribute_text(attribute, locale),
                                        level_text(attribute, level, locale))
            lines.append(line)
        lines.append((s["fired_rules"], ", ".join(a.fired_rules) or s["none"]))
        sections.append(Section(heading=heading, lines=tuple(lines)))
    return Report(title=s["title"], sections=tuple(sections), locale=locale)
