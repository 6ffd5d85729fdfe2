"""Small text-table rendering helpers shared by benchmarks and examples.

The evaluation harness prints its results as plain fixed-width tables so that
``pytest benchmarks/ --benchmark-only -s`` and the example scripts produce
the rows recorded in ``EXPERIMENTS.md`` verbatim.

A table with one row per object declares its columns once, on the row's
dataclass: a field is a column through ``field(metadata={"column": header,
"format": fmt})`` (:func:`column` writes that for you), a property through
:func:`column_property`.  :func:`render_rows` reads the declarations; a
format is a format spec, a callable returning the cell, or ``None`` for
:func:`render_table`'s default.
"""

from __future__ import annotations

import itertools
from dataclasses import field, fields
from operator import attrgetter
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence, Union

#: A cell format: a format spec, a callable returning the cell, or ``None``.
CellFormat = Optional[Union[str, Callable[[Any], str]]]

#: Declaration order of the columns, so a property column declared between
#: two field columns sits between them in the table.
_declared = itertools.count()


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render a fixed-width table with a header rule."""
    str_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        str_rows.append([_fmt(cell) for cell in row])
    widths = [max(len(r[c]) for r in str_rows) for c in range(len(headers))]
    lines = []
    for index, row in enumerate(str_rows):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def column(header: str, fmt: CellFormat = None) -> Any:
    """A dataclass field shown as the table column ``header``."""
    return field(metadata={"column": header, "format": fmt, "order": next(_declared)})


class _ColumnProperty(property):
    metadata: Mapping[str, Any]


def column_property(header: str, fmt: CellFormat = None) -> Callable[[Callable], property]:
    """Decorator: a property shown as the table column ``header``, placed
    where it is declared among the row type's field columns."""
    metadata = {"column": header, "format": fmt, "order": next(_declared)}

    def declare(fget: Callable) -> property:
        prop = _ColumnProperty(fget)
        prop.metadata = metadata
        return prop

    return declare


def render_rows(row_type: type, rows: Iterable[Any]) -> str:
    """Render ``rows`` through the columns declared on the dataclass ``row_type``.

    An empty sweep still renders its header and rule.
    """
    columns = [(f.metadata, attrgetter(f.name))
               for f in fields(row_type) if "column" in f.metadata]
    columns += [(attr.metadata, attr.fget) for attr in vars(row_type).values()
                if isinstance(attr, _ColumnProperty)]
    columns.sort(key=lambda declared: declared[0].get("order", 0))
    return render_table(
        [metadata["column"] for metadata, _ in columns],
        [[_cell(metadata.get("format"), read(row)) for metadata, read in columns]
         for row in rows],
    )


def _cell(fmt: CellFormat, value: Any) -> Any:
    if fmt is None:
        return value
    if callable(fmt):
        return fmt(value)
    return format(value, fmt)


def verdict(ok: bool) -> str:
    """A consistency verdict cell: ``yes``, or a loud ``NO``."""
    return "yes" if ok else "NO"


def yes_no(flag: bool) -> str:
    """A plain boolean cell."""
    return "yes" if flag else "no"


def render_mapping(title: str, mapping: Mapping[Any, Any]) -> str:
    """Render a ``{key: value}`` mapping as a two-column table with a title."""
    body = render_table(["key", "value"], sorted(mapping.items(), key=lambda kv: str(kv[0])))
    return f"{title}\n{body}"


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if isinstance(cell, (tuple, frozenset, set, list)):
        return ", ".join(str(x) for x in sorted(cell, key=str))
    return str(cell)


def edge_label(edge: tuple) -> str:
    """Human-readable label for a directed edge, e.g. ``e_43``."""
    return f"e_{edge[0]}{edge[1]}"
