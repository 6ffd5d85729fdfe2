"""Import layering: ``core`` and ``wire`` sit below both runtimes.

``repro.net`` (the live runtime) and ``repro.sim`` (the simulator) are the
two drivers of the shared layers and must not reach into each other; the
shared layers must not reach up into either.  Checked on the parsed import
statements, so a lazy import inside a function counts too.  The simulator
sits below the evaluation harness (``repro.analysis``) too.  The same
parsed source guards the shared host surface: the operation path of
``core/host.py`` is not re-forked by a runtime's host subclass nor booked
around by any other module (an apply included), and the live node's
per-frame handlers leave socket writes to the one flush point per wake-up.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
FORBIDDEN = {
    "net": ("sim",),
    "sim": ("net", "analysis"),
    "wire": ("net", "sim"),
    "core": ("net", "sim"),
}


def _imported_modules(path: Path):
    """Absolute dotted names of everything ``path`` imports."""
    package = ("repro",) + path.relative_to(ROOT).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_does_not_import_a_runtime_above_it(layer):
    files = sorted((ROOT / layer).rglob("*.py"))
    assert files, f"no modules found under {ROOT / layer}"
    offending = [
        f"{path.relative_to(ROOT.parent)}:{lineno} imports {module}"
        for path in files
        for lineno, module in _imported_modules(path)
        for banned in FORBIDDEN[layer]
        if module == f"repro.{banned}" or module.startswith(f"repro.{banned}.")
    ]
    assert not offending, "\n".join(offending)


def test_no_module_imports_the_removed_network_facade():
    assert not (ROOT / "sim" / "network.py").exists()
    offending = [
        f"{path.relative_to(ROOT.parent)}:{lineno}"
        for path in sorted(ROOT.rglob("*.py"))
        for lineno, module in _imported_modules(path)
        if module == "repro.sim.network" or module.startswith("repro.sim.network.")
    ]
    assert not offending, "\n".join(offending)


def test_fault_and_reconfig_layers_know_one_delivery_event_type():
    """A delivery is one kernel event: the layers that intercept deliveries
    import ``DeliveryEvent`` from ``sim.engine`` and no sibling of it."""
    prefix = "repro.sim.engine."
    delivery_events = {
        str(path): {
            module[len(prefix):] for _, module in _imported_modules(path)
            if module.startswith(prefix) and module.endswith("DeliveryEvent")
        }
        for path in (ROOT / "sim" / "reconfig.py", ROOT / "sim" / "faults.py")
    }
    assert set().union(*delivery_events.values()) == {"DeliveryEvent"}, delivery_events


#: The operation path both runtimes share: written once, on ``ReplicaHost``.
HOST_OPERATION_PATH = ("perform_write", "perform_read", "deliver",
                       "_apply_ready", "_note_applies", "_note_issue",
                       "_record_operation")


def test_no_replica_host_subclass_forks_the_operation_path():
    """Writes, reads and deliveries run through ``core/host.py`` alone: no
    ``ReplicaHost`` subclass under ``src/`` redefines a step of them (test
    instrumentation outside the package is free to wrap them)."""
    bases = {}
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                names = {base.id if isinstance(base, ast.Name) else
                         getattr(base, "attr", None) for base in node.bases}
                bases[node.name] = (path, node, names)
    hosts = {"ReplicaHost"}
    grown = True
    while grown:
        grown = False
        for name, (_, _, names) in bases.items():
            if name not in hosts and names & hosts:
                hosts.add(name)
                grown = True
    assert {"SimulationHost", "Cluster", "ClientServerCluster", "LiveNode"} <= hosts
    offending = [
        f"{path.relative_to(ROOT.parent)}:{item.lineno} {name}.{item.name}"
        for name in sorted(hosts - {"ReplicaHost"})
        for path, node, _ in [bases[name]]
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in HOST_OPERATION_PATH
    ]
    assert not offending, "\n".join(offending)


#: The host bookkeeping of one operation: only the operation path books it.
HOST_BOOKKEEPING = ("_note_issue", "_record_operation")


def test_only_the_operation_path_books_an_operation():
    """No module under ``src/`` but ``core/host.py`` calls the bookkeeping
    steps of the operation path: a host performs client operations through
    ``perform_write``/``perform_read``, so each is recorded exactly once,
    in the order the path records it (issue before send)."""
    offending = [
        f"{path.relative_to(ROOT.parent)}:{call.lineno} {call.func.attr}()"
        for path in sorted(ROOT.rglob("*.py"))
        if path != ROOT / "core" / "host.py"
        for call in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr in HOST_BOOKKEEPING
    ]
    assert not offending, "\n".join(offending)


#: A host's apply books: only ``ReplicaHost._note_applies`` fills them.
HOST_APPLY_BOOKS = ("applies", "apply_times", "apply_latencies")


def test_only_the_host_books_an_apply():
    """No module under ``src/`` but ``core/host.py`` writes a host's
    ``.metrics.applies``, ``.apply_times`` or ``.apply_latencies`` (an
    assignment to one, or a call of a method on one): an apply made
    outside the delivery path is booked through the host, so it gets the
    latency sample, trace record and hooks every other apply gets."""
    def is_book(node):
        return (isinstance(node, ast.Attribute) and node.attr in HOST_APPLY_BOOKS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "metrics")

    offending = []
    for path in sorted(ROOT.rglob("*.py")):
        if path == ROOT / "core" / "host.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            targets = ()
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else (node.target,)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                targets = (node.func.value,)
            offending += [f"{path.relative_to(ROOT.parent)}:{node.lineno} "
                          f"{ast.unparse(target)}" for target in targets
                          if is_book(target)]
    assert not offending, "\n".join(offending)


#: The live node's per-frame handlers: they append frames to the buffer of
#: the wake-up that runs them, and only that wake-up writes it.
PER_FRAME_HANDLERS = {"LiveNode": ("_handle_frame", "_handle_op", "_handle_batch"),
                      "_PeerStream": ("_flush",)}


def test_live_per_frame_handlers_never_write_or_drain_a_socket():
    """One socket write per wake-up: no ``writer.write(...)``, no
    ``transport.write(...)`` and no ``drain()`` inside a per-frame handler
    of ``net/node.py``, so a per-frame syscall cannot creep back in."""
    path = ROOT / "net" / "node.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found, offending = set(), []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name not in PER_FRAME_HANDLERS:
            continue
        for item in cls.body:
            if not (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in PER_FRAME_HANDLERS[cls.name]):
                continue
            found.add((cls.name, item.name))
            for call in ast.walk(item):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)):
                    continue
                attr = call.func.attr
                receiver = ast.unparse(call.func.value)
                if attr == "drain" or (attr in ("write", "writelines") and (
                        "writer" in receiver or "transport" in receiver)):
                    offending.append(f"{cls.name}.{item.name}:{call.lineno} "
                                     f"{receiver}.{attr}()")
    expected = {(cls, name) for cls, names in PER_FRAME_HANDLERS.items()
                for name in names}
    assert found == expected, f"handlers not found: {expected - found}"
    assert not offending, "\n".join(offending)
