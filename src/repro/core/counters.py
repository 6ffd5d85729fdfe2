"""Counter declarations: each counter is declared once, on the book that holds it.

A *book* is a dataclass whose fields count something (``RunMetrics``,
``NetworkStats``, ``ChannelWireStats``, a live node's, its tenants' and its
log's counters).  A field declared with :func:`counter` or :func:`gauge`, or
a property declared with :func:`exported`, carries its exported name (the
attribute's own unless given), its kind and its help text.  Every export is
derived from those declarations: :func:`values_of` gives a REPORT dict,
:func:`samples_of` TELEMETRY samples, and
:func:`repro.obs.publish.publish_book` registry families.  A metric is
named ``prefix + name``, plus ``_total`` on a counter (the suffix
:func:`repro.obs.registry.fold_samples` keys on); the prefix is the
exporter's.  Increments stay plain attribute arithmetic on the book.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

COUNTER, GAUGE = "counter", "gauge"
_KEY = "repro.export"


class Export(NamedTuple):
    """One declared counter or gauge of a book type."""

    attr: str  # the attribute read on the book
    name: str  # the exported name: a report key, the stem of a metric name
    kind: str
    help: str

    def metric(self, prefix: str) -> str:
        return f"{prefix}{self.name}_total" if self.kind == COUNTER else prefix + self.name


def counter(help: str, name: Optional[str] = None, default: Any = 0) -> Any:
    """A cumulative dataclass field: it only grows over a book's life."""
    return dataclasses.field(default=default, metadata={_KEY: (name, COUNTER, help)})


def gauge(help: str, name: Optional[str] = None, default: Any = 0) -> Any:
    """An instantaneous dataclass field: it is set, not accumulated."""
    return dataclasses.field(default=default, metadata={_KEY: (name, GAUGE, help)})


class _ExportedProperty(property):
    export: Tuple[Optional[str], str, str]


def exported(kind: str, help: str,
             name: Optional[str] = None) -> Callable[[Callable[[Any], Any]], property]:
    """Declare a read-only property as a counter or gauge of its book."""
    def declare(fget: Callable[[Any], Any]) -> property:
        prop = _ExportedProperty(fget, doc=help)
        prop.export = (name, kind, help)
        return prop
    return declare


@lru_cache(maxsize=None)
def exports(book_type: type) -> Tuple[Export, ...]:
    """A book type's declarations: its fields in order, then its properties."""
    specs = [(spec.name, spec.metadata[_KEY]) for spec in dataclasses.fields(book_type)
             if _KEY in spec.metadata] if dataclasses.is_dataclass(book_type) else []
    specs += [(attr, value.export) for klass in reversed(book_type.__mro__)
              for attr, value in vars(klass).items() if isinstance(value, _ExportedProperty)]
    return tuple(Export(attr, name or attr, kind, help_text)
                 for attr, (name, kind, help_text) in specs)


def values_of(book: Any) -> Dict[str, Any]:
    """The book as a report dict: exported name → value."""
    return {export.name: getattr(book, export.attr) for export in exports(type(book))}


def samples_of(book: Any, prefix: str, labels: tuple) -> List[Tuple[str, tuple, float]]:
    """The book as TELEMETRY samples ``(metric name, labels, value)``."""
    return [(export.metric(prefix), labels, float(getattr(book, export.attr)))
            for export in exports(type(book))]
