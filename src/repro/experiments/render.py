"""Pluggable renderers for :class:`~repro.experiments.api.ResultSet`.

Six renderers ship with the repository:

* ``text`` -- the paper-style fixed-width tables (byte-identical to
  the pre-API ``render()`` output; pinned by the parity snapshots in
  ``tests/golden/text/``).
* ``json`` -- the full structured artifact, round-trippable through
  :meth:`ResultSet.from_json_dict`.
* ``csv`` -- the typed tables as RFC-4180 CSV, one file per
  ``ResultTable`` under ``--out`` (stdout mode concatenates them with
  ``# table:`` separators).
* ``latex`` -- one ``table``/``tabular`` environment per
  ``ResultTable``, cells escaped, ready to ``\\input`` into a paper.
* ``html`` -- a self-contained single-page report (inline SVG charts,
  no matplotlib, no external URLs); the same engine
  (:mod:`repro.experiments.report`) stitches whole artifact trees via
  ``runner report`` -- see REPORTS.md.
* ``mpl`` -- matplotlib paper figures (PNG + SVG) driven by the
  declarative :class:`~repro.experiments.api.PlotSpec` entries.
  matplotlib is imported lazily; on hosts without it the renderer
  raises :class:`RendererUnavailable` with an actionable message
  instead of breaking import of the package.

Add a custom renderer with :func:`register_renderer`::

    class CsvRenderer(Renderer):
        format_name = "csv"
        suffix = ".csv"
        def render(self, result_set): ...

    register_renderer(CsvRenderer())
"""

from __future__ import annotations

import csv
import io
import json
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, List, Sequence

from repro.experiments.api import (
    PlotSpec,
    ResultSet,
    ResultTable,
    split_series,
)


class RendererUnavailable(RuntimeError):
    """The renderer's backing library is not installed."""


def atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via temp file + ``os.replace``.

    Artifacts are served over HTTP by the experiment service while
    sweeps are still writing them; a same-directory rename means a
    concurrent reader sees the complete old file or the complete new
    one, never a truncated write -- the same guarantee the result
    cache makes for pickles.
    """
    from repro.orchestration.cache import atomic_write

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(
        path, lambda handle: handle.write(text),
        text=True, prefix=f".tmp-{path.name}-",
    )


class Renderer(ABC):
    """Turns a ResultSet into human- or machine-consumable output."""

    #: Registry key and ``--format`` value.
    format_name: str = ""
    #: Suffix of files written by :meth:`write`.
    suffix: str = ""

    def check_available(self) -> None:
        """Raise :class:`RendererUnavailable` if a dependency is missing.

        Called by the CLI before any experiment executes, so a missing
        backend fails in milliseconds instead of after minutes of
        simulation.
        """

    @abstractmethod
    def render(self, result_set: ResultSet) -> str:
        """The artifact as a string (raise if inherently file-based)."""

    def write(self, result_set: ResultSet, out_dir: Path) -> List[Path]:
        """Write the artifact under ``out_dir``; return created paths."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{result_set.experiment}{self.suffix}"
        atomic_write_text(path, self.render(result_set) + "\n")
        return [path]


class TextRenderer(Renderer):
    format_name = "text"
    suffix = ".txt"

    def render(self, result_set: ResultSet) -> str:
        return result_set.render_text()


class JsonRenderer(Renderer):
    format_name = "json"
    suffix = ".json"

    def render(self, result_set: ResultSet) -> str:
        return json.dumps(
            result_set.to_json_dict(), indent=2, sort_keys=True
        )


class CsvRenderer(Renderer):
    """The typed tables as CSV -- the analysis-pipeline format.

    ``write`` produces one file per table
    (``<experiment>.<table>.csv``); ``render`` (stdout mode)
    concatenates them behind ``# table: <name>`` comment lines so the
    output stays a single document.  Scalars travel as a synthetic
    two-column ``scalars`` table when present.
    """

    format_name = "csv"
    suffix = ".csv"

    def render(self, result_set: ResultSet) -> str:
        parts = [
            f"# table: {name}\n{body}"
            for name, body in self._documents(result_set)
        ]
        return "\n".join(parts).rstrip("\n")

    def write(self, result_set: ResultSet, out_dir: Path) -> List[Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths: List[Path] = []
        for name, body in self._documents(result_set):
            path = out_dir / f"{result_set.experiment}.{name}{self.suffix}"
            atomic_write_text(path, body)
            paths.append(path)
        return paths

    def _documents(self, result_set: ResultSet) -> List[tuple]:
        documents = []
        if result_set.scalars:
            documents.append(
                ("scalars", self._csv(
                    ("scalar", "value"),
                    sorted(result_set.scalars.items()),
                ))
            )
        documents.extend(
            (table.name, self._csv(table.headers, table.rows))
            for table in result_set.tables
        )
        return documents

    @staticmethod
    def _csv(headers: Sequence, rows: Sequence[Sequence]) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buffer.getvalue()


class LatexRenderer(Renderer):
    """One ``table`` environment per ResultTable, paper-paste ready."""

    format_name = "latex"
    suffix = ".tex"

    #: LaTeX special characters, escaped in cell/caption text.
    _ESCAPES = {
        "\\": r"\textbackslash{}",
        "&": r"\&",
        "%": r"\%",
        "$": r"\$",
        "#": r"\#",
        "_": r"\_",
        "{": r"\{",
        "}": r"\}",
        "~": r"\textasciitilde{}",
        "^": r"\textasciicircum{}",
    }

    def render(self, result_set: ResultSet) -> str:
        blocks = [f"% {result_set.experiment}: {result_set.title}"]
        if result_set.scalars:
            # Headline scalars travel as a synthetic two-column table,
            # mirroring CsvRenderer -- dropping them silently would
            # lose e.g. fig12's mean-improvement numbers.
            blocks.append(self._table(result_set, ResultTable(
                name="scalars",
                headers=("scalar", "value"),
                rows=tuple(sorted(result_set.scalars.items())),
            )))
        for table in result_set.tables:
            blocks.append(self._table(result_set, table))
        return "\n\n".join(blocks)

    # ------------------------------------------------------------------

    def _table(self, result_set: ResultSet, table: ResultTable) -> str:
        columns = "l" * len(table.headers)
        header = " & ".join(
            rf"\textbf{{{self._escape(h)}}}" for h in table.headers
        )
        body = "\n".join(
            "    " + " & ".join(self._cell(cell) for cell in row) + r" \\"
            for row in table.rows
        )
        caption = self._escape(f"{result_set.title} -- {table.name}")
        label = f"tab:{result_set.experiment}-{table.name}"
        return "\n".join([
            r"\begin{table}[h]",
            r"  \centering",
            rf"  \caption{{{caption}}}",
            rf"  \label{{{label}}}",
            rf"  \begin{{tabular}}{{{columns}}}",
            r"    \hline",
            f"    {header} \\\\",
            r"    \hline",
            body,
            r"    \hline",
            r"  \end{tabular}",
            r"\end{table}",
        ])

    def _cell(self, value) -> str:
        if value is None:
            return "--"
        if isinstance(value, float):
            return f"{value:.6g}"
        return self._escape(str(value))

    def _escape(self, text: str) -> str:
        return "".join(self._ESCAPES.get(ch, ch) for ch in text)


class HtmlRenderer(Renderer):
    """A single-ResultSet page of the self-contained HTML report.

    The heavy lifting lives in :mod:`repro.experiments.report`
    (imported lazily to keep this registry module dependency-light);
    charts come from the pure-python SVG plotter, so this renderer is
    available everywhere, matplotlib or not.
    """

    format_name = "html"
    suffix = ".html"

    def render(self, result_set: ResultSet) -> str:
        from repro.experiments.report import build_report

        return build_report(
            [result_set],
            title=result_set.title,
            subtitle=f"experiment: {result_set.experiment}",
        )


class MplRenderer(Renderer):
    """Paper figures via matplotlib, one file pair per PlotSpec."""

    format_name = "mpl"
    suffix = ".png"

    #: File formats written per plot.
    image_formats: Sequence[str] = ("png", "svg")

    def check_available(self) -> None:
        self._matplotlib()

    def render(self, result_set: ResultSet) -> str:
        raise RendererUnavailable(
            "the mpl renderer produces image files; use write(..., out_dir)"
        )

    def write(self, result_set: ResultSet, out_dir: Path) -> List[Path]:
        plt = self._matplotlib()
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths: List[Path] = []
        for spec in result_set.plots:
            figure = self._draw(plt, result_set, spec)
            for image_format in self.image_formats:
                path = (
                    out_dir
                    / f"{result_set.experiment}_{spec.name}.{image_format}"
                )
                figure.savefig(path, bbox_inches="tight", dpi=150)
                paths.append(path)
            plt.close(figure)
        return paths

    # ------------------------------------------------------------------

    @staticmethod
    def _matplotlib():
        try:
            import matplotlib
        except ImportError as error:
            raise RendererUnavailable(
                "matplotlib is not installed; install it (pip install "
                "matplotlib) to render paper figures, or use --format "
                "text/json"
            ) from error
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        return plt

    def _draw(self, plt, result_set: ResultSet, spec: PlotSpec):
        table = result_set.table(spec.table)
        figure, axis = plt.subplots(figsize=(6.4, 3.6))
        series = self._split_series(table, spec)
        if spec.kind == "bar":
            self._bar(axis, series, table, spec)
        else:
            for label, rows in series.items():
                x_index = table.headers.index(spec.x)
                for y_column in spec.y:
                    y_index = table.headers.index(y_column)
                    # None cells are missing data points, not zeros.
                    points = [
                        (row[x_index], row[y_index])
                        for row in rows
                        if row[y_index] is not None
                    ]
                    xs = [x for x, _ in points]
                    ys = [y for _, y in points]
                    plot_label = (
                        label if len(spec.y) == 1 else
                        (f"{label} {y_column}" if label else y_column)
                    )
                    if spec.kind == "line":
                        (line,) = axis.plot(xs, ys, marker="o",
                                            markersize=3, label=plot_label)
                        band_color = line.get_color()
                    else:
                        path = axis.scatter(xs, ys, s=12, label=plot_label)
                        band_color = path.get_facecolor()[0]
                    band = spec.band_for(y_column)
                    if band is not None:
                        # Min--max envelope from the seed-matrix
                        # aggregation layer (see aggregate.py).
                        low_index = table.headers.index(band[0])
                        high_index = table.headers.index(band[1])
                        envelope = [
                            (row[x_index], row[low_index], row[high_index])
                            for row in rows
                            if row[low_index] is not None
                            and row[high_index] is not None
                        ]
                        if envelope:
                            axis.fill_between(
                                [e[0] for e in envelope],
                                [e[1] for e in envelope],
                                [e[2] for e in envelope],
                                color=band_color, alpha=0.15, linewidth=0,
                            )
        if spec.logx:
            axis.set_xscale("log")
        if spec.logy:
            axis.set_yscale("log")
        axis.set_title(spec.title or result_set.title, fontsize=9)
        axis.set_xlabel(spec.xlabel or spec.x)
        axis.set_ylabel(spec.ylabel or ", ".join(spec.y))
        if any(label for label in series) or len(spec.y) > 1:
            axis.legend(fontsize=7)
        axis.grid(True, alpha=0.3)
        return figure

    def _bar(self, axis, series, table: ResultTable, spec: PlotSpec):
        """Grouped bars: categories on x, one bar group per series/y."""
        categories: List = []
        for rows in series.values():
            for row in rows:
                value = row[table.headers.index(spec.x)]
                if value not in categories:
                    categories.append(value)
        groups = [
            (
                (f"{label} {y}" if label and len(spec.y) > 1 else
                 (label or y)),
                y,
                {row[table.headers.index(spec.x)]: row for row in rows},
            )
            for label, rows in series.items()
            for y in spec.y
        ]
        width = 0.8 / max(len(groups), 1)
        for offset, (label, y_column, by_category) in enumerate(groups):
            y_index = table.headers.index(y_column)
            positions = [
                index + offset * width for index in range(len(categories))
            ]
            # Absent categories and None cells both render as no bar.
            heights = [
                value
                if (row := by_category.get(c)) is not None
                and (value := row[y_index]) is not None
                else 0.0
                for c in categories
            ]
            axis.bar(positions, heights, width=width, label=label)
            band = spec.band_for(y_column)
            if band is not None:
                # Min--max whiskers from the seed-matrix aggregation
                # layer, matching the SVG plotter's bar bands.
                low_index = table.headers.index(band[0])
                high_index = table.headers.index(band[1])
                whiskers = [
                    (position, height, row[low_index], row[high_index])
                    for position, height, c in
                    zip(positions, heights, categories)
                    if (row := by_category.get(c)) is not None
                    and row[low_index] is not None
                    and row[high_index] is not None
                ]
                if whiskers:
                    axis.errorbar(
                        [w[0] for w in whiskers],
                        [w[1] for w in whiskers],
                        yerr=[
                            [w[1] - w[2] for w in whiskers],
                            [w[3] - w[1] for w in whiskers],
                        ],
                        fmt="none", ecolor="black", elinewidth=1,
                        capsize=2,
                    )
        axis.set_xticks(
            [
                index + width * (len(groups) - 1) / 2
                for index in range(len(categories))
            ]
        )
        axis.set_xticklabels([str(c) for c in categories], fontsize=7)

    #: Shared with the SVG plotter so both chart paths agree on what
    #: the series are (single definition in api.py).
    _split_series = staticmethod(split_series)


_RENDERERS: Dict[str, Renderer] = {}


def register_renderer(renderer: Renderer) -> Renderer:
    if not renderer.format_name:
        raise ValueError("renderer must set format_name")
    _RENDERERS[renderer.format_name] = renderer
    return renderer


def get_renderer(format_name: str) -> Renderer:
    try:
        return _RENDERERS[format_name]
    except KeyError:
        raise KeyError(
            f"unknown format {format_name!r}; known: {sorted(_RENDERERS)}"
        ) from None


def renderer_names() -> List[str]:
    return sorted(_RENDERERS)


register_renderer(TextRenderer())
register_renderer(JsonRenderer())
register_renderer(CsvRenderer())
register_renderer(LatexRenderer())
register_renderer(HtmlRenderer())
register_renderer(MplRenderer())
