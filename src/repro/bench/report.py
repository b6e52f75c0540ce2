"""Regenerate experiment documentation from benchmark records.

Two outputs, both derived *only* from ``BENCH_*.json`` content so the
same records always produce the same bytes:

* ``docs/EXPERIMENTS_GENERATED.md`` — the full dump: provenance,
  anchor/claim tables, per-layer trace summary, and every data table of
  every committed record;
* marked blocks inside ``EXPERIMENTS.md`` — the hand-written analysis
  keeps its prose, but every table between a
  ``<!-- bench:begin <experiment>:<panel> -->`` /
  ``<!-- bench:end ... -->`` pair is replaced by the generated
  rendering of that panel's anchors and claims, so the quoted numbers
  can never drift from the committed measurements.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from repro.bench.records import fmt
from repro.bench.schema import BenchRecord

__all__ = [
    "anchors_markdown",
    "claims_markdown",
    "panel_block",
    "generate_document",
    "update_marked_file",
    "GENERATED_NOTE",
]

GENERATED_NOTE = (
    "<!-- This file is generated by `python -m repro bench report` from the\n"
    "     committed benchmarks/baselines/BENCH_*.json records.  Do not edit\n"
    "     by hand; rerun the command after refreshing a baseline. -->")

_BEGIN = "<!-- bench:begin {slug} -->"
_END = "<!-- bench:end {slug} -->"


def _md_table(columns: List[str], rows: List[List[str]]) -> str:
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _fmt_delta(delta: Optional[float]) -> str:
    return f"{delta:+.2%}" if delta is not None else "—"


def _fmt_paper(value: Optional[float]) -> str:
    return fmt(value) if value is not None else "—"


def anchors_markdown(record: BenchRecord, group: Optional[str] = None,
                     with_group: bool = False) -> str:
    """Markdown table of the record's anchors (optionally one panel's)."""
    anchors = [a for a in record.anchors
               if group is None or a["group"] == group]
    if not anchors:
        return ""
    columns = ["quantity", "paper", "measured", "delta", "within tol"]
    if with_group:
        columns.insert(1, "panel")
    rows = []
    for a in anchors:
        unit = f" {a['unit']}" if a["unit"] else ""
        row = [a["description"],
               _fmt_paper(a["paper"]) + (unit if a["paper"] is not None else ""),
               fmt(a["measured"]) + unit,
               _fmt_delta(a["delta_rel"]),
               "yes" if a["ok"] else "**NO**"]
        if with_group:
            row.insert(1, a["group"])
        rows.append(row)
    return _md_table(columns, rows)


def claims_markdown(record: BenchRecord, group: Optional[str] = None) -> str:
    """Bullet list of the record's structural claims."""
    claims = [c for c in record.claims
              if group is None or c["group"] == group]
    return "\n".join(
        f"- {'✓' if c['passed'] else '✗ FAILED:'} {c['description']}"
        for c in claims)


def layers_markdown(record: BenchRecord) -> str:
    """Markdown table of the per-layer trace summary."""
    if not record.layers:
        return ""
    rows = [[layer, str(stats["events"]), fmt(stats["time_s"] * 1e3, 3)]
            for layer, stats in sorted(record.layers.items())]
    return _md_table(["layer", "trace events", "instrumented time (ms)"], rows)


def data_table_markdown(record: BenchRecord, panel: str) -> str:
    """One panel's full data table, rendered as markdown."""
    t = record.tables[panel]
    rows = [[fmt(v) for v in row] for row in t["rows"]]
    body = _md_table([str(c) for c in t["columns"]], rows)
    notes = "\n".join(f"- *{note}*" for note in t["notes"])
    return body + ("\n\n" + notes if notes else "")


def panel_block(record: BenchRecord, panel: str) -> str:
    """The content spliced into EXPERIMENTS.md for one panel: its
    anchors table followed by its claim checklist."""
    parts = [anchors_markdown(record, group=panel)]
    claims = claims_markdown(record, group=panel)
    if claims:
        parts.append(claims)
    return "\n\n".join(p for p in parts if p)


def generate_document(records: List[BenchRecord]) -> str:
    """The full ``docs/EXPERIMENTS_GENERATED.md`` text."""
    lines = [
        "# Experiment results (generated)",
        "",
        GENERATED_NOTE,
        "",
        "Paper-vs-measured tables for every committed benchmark record.",
        "See [../EXPERIMENTS.md](../EXPERIMENTS.md) for the analysis and",
        "[ARCHITECTURE.md](ARCHITECTURE.md) for how the layers under",
        "measurement fit together.",
        "",
    ]
    for record in sorted(records, key=lambda r: r.experiment):
        axes = "quick" if record.quick else "full"
        seed = record.seed if record.seed is not None else "driver defaults"
        lines += [
            f"## {record.experiment} — {record.title}",
            "",
            f"*schema v{record.schema_version} · git `{record.git_sha}` · "
            f"{axes} axes · seed: {seed} · "
            f"wall {fmt(record.wall_time_s)} s*",
            "",
        ]
        anchors = anchors_markdown(record, with_group=True)
        if anchors:
            lines += ["### Anchors", "", anchors, ""]
        claims = claims_markdown(record)
        if claims:
            lines += ["### Claims", "", claims, ""]
        layers = layers_markdown(record)
        if layers:
            lines += ["### Cross-layer trace summary", "", layers, ""]
        for panel in sorted(record.tables):
            t = record.tables[panel]
            lines += [f"### Panel {panel} — {t['title']}", "",
                      data_table_markdown(record, panel), ""]
    return "\n".join(lines).rstrip() + "\n"


def update_marked_file(text: str, records: List[BenchRecord]) -> tuple:
    """Replace every ``bench:begin/end`` block in *text* whose slug
    matches a record.

    Slugs are ``<experiment>:<panel>`` (panel block) or
    ``<experiment>:layers`` (trace summary).  Returns
    ``(new_text, updated_slugs, unmatched_slugs)`` — unmatched slugs
    (no committed record) are left untouched for the caller to report.
    """
    by_exp: Dict[str, BenchRecord] = {r.experiment: r for r in records}
    pattern = re.compile(
        r"<!-- bench:begin (?P<slug>[\w:.-]+) -->\n"
        r".*?"
        r"<!-- bench:end (?P=slug) -->",
        re.DOTALL)
    updated, unmatched = [], []

    def _replace(match: "re.Match") -> str:
        slug = match.group("slug")
        exp, _, part = slug.partition(":")
        record = by_exp.get(exp)
        content = None
        if record is not None:
            if part == "layers":
                content = layers_markdown(record)
            elif part in record.tables:
                content = panel_block(record, part)
        if not content:
            unmatched.append(slug)
            return match.group(0)
        updated.append(slug)
        return (_BEGIN.format(slug=slug) + "\n" + content + "\n"
                + _END.format(slug=slug))

    return pattern.sub(_replace, text), updated, unmatched
