"""L-rules and B-rules: lock discipline and the backend contract.

The concurrent-writer-safe cache (PR 7) holds exactly one invariant: every
byte that lands in a shard file travels through the read-merge-write
sequence under that shard's :func:`~repro.harness.cache.shard_lock`.  A
single write outside the lock reintroduces the lost-update bug the
multi-process stress test was built to kill — and nothing dynamic catches
it until two writers actually collide.  L001 makes the lexical form of
that invariant checkable; L002 guards its in-memory shadow (the
``_evicted`` set, which the locked merge consults to keep deliberate
evictions from resurrecting).

B001 encodes the backend registry contract from PR 4: a registered
backend's ``run`` must route point execution through the shared indexed
worker (``_execute_indexed`` / ``_attempt_point``) — that is where
:class:`~repro.harness.runner.ExecutionPolicy` timeouts, retries and
ordered reassembly live.  A backend that maps ``execute_point`` raw gets
none of them, and the failure mode (policy silently unenforced) is
invisible until a point hangs a distributed sweep.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from .engine import Rule, SourceFile, call_name, register_rule

__all__ = ["SHARD_PATH_NAME"]

#: Variable names that denote a cache shard file (or its temp sibling).
SHARD_PATH_NAME = re.compile(r"(^|_)(shard_path|shard_file|tmp_path)$")

#: Context-manager names that count as holding the shard lock.
_LOCK_CONTEXTS = frozenset({"shard_lock"})

#: ``os``-level calls that mutate the filesystem at their argument paths.
#: Maps call tail -> indices of the arguments that are *written* (for
#: ``os.replace``/``copyfile`` the destination, plus the source for
#: ``replace`` since moving a shard away is also a mutation).
_WRITE_CALLS = {
    "replace": (0, 1),
    "rename": (0, 1),
    "remove": (0,),
    "unlink": (0,),
    "copyfile": (1,),
    "copy": (1,),
    "move": (0, 1),
}

#: ``open(path, mode)`` modes that write.
_WRITE_MODES = ("w", "a", "x", "+")


def _is_shard_path(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and bool(
        SHARD_PATH_NAME.search(node.id))


def _under_shard_lock(source: SourceFile, node: ast.AST) -> bool:
    """Is ``node`` lexically inside ``with shard_lock(...):``?"""
    for ancestor in source.ancestors(node):
        if not isinstance(ancestor, (ast.With, ast.AsyncWith)):
            continue
        for item in ancestor.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                name = call_name(expr)
                if name.split(".")[-1] in _LOCK_CONTEXTS:
                    return True
    return False


def _open_write_mode(node: ast.Call) -> bool:
    mode: Optional[ast.AST] = node.args[1] if len(node.args) > 1 else None
    if mode is None:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in _WRITE_MODES)
    return False


def check_shard_writes_locked(source: SourceFile
                              ) -> Iterator[tuple[int, str]]:
    """L001: every write to a shard path happens under ``shard_lock``."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        tail = name.split(".")[-1] if name else ""
        touched: list[ast.AST] = []
        if tail == "open" and name == "open":
            if node.args and _is_shard_path(node.args[0]) \
                    and _open_write_mode(node):
                touched.append(node.args[0])
        elif tail in _WRITE_CALLS:
            for index in _WRITE_CALLS[tail]:
                if index < len(node.args) and _is_shard_path(
                        node.args[index]):
                    touched.append(node.args[index])
        if not touched:
            continue
        if _under_shard_lock(source, node):
            continue
        yield (node.lineno,
               f"`{name}` writes a cache shard path outside a "
               f"`with shard_lock(...)` block — concurrent flushers "
               f"would reintroduce the lost-update bug")


def _function_touches_dirty_shards(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr == "_dirty_shards":
            return True
    return False


def check_evicted_guarded(source: SourceFile) -> Iterator[tuple[int, str]]:
    """L002: ``_evicted`` mutations stay under the flush guard.

    A mutation counts as guarded when it is lexically inside a
    ``shard_lock`` context *or* its enclosing function also marks the
    affected shard dirty (``_dirty_shards``) — the dirty mark is what
    routes the eviction through the locked read-merge-write flush, so an
    eviction without it silently resurrects on the next merge.
    """
    mutators = ("add", "discard", "remove", "clear", "update", "pop")
    for node in ast.walk(source.tree):
        lineno: Optional[int] = None
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            receiver = node.func.value
            if node.func.attr in mutators and isinstance(
                    receiver, ast.Attribute) \
                    and receiver.attr == "_evicted":
                lineno = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Attribute) and t.attr == "_evicted"
                   for t in targets):
                lineno = node.lineno
        if lineno is None:
            continue
        if _under_shard_lock(source, node):
            continue
        func = source.enclosing_function(node)
        if func is not None and _function_touches_dirty_shards(func):
            continue
        yield (lineno,
               "`_evicted` mutated outside the flush guard: neither under "
               "`shard_lock` nor in a function that marks the shard dirty "
               "(`_dirty_shards`) — the locked merge would resurrect or "
               "drop the eviction")


def _is_stub_body(body: list[ast.stmt]) -> bool:
    """Protocol/ABC stubs (docstring + `...`/pass/raise) are not backends."""
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue  # docstring or bare `...`
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        return False
    return True


def _looks_like_backend_run(method: ast.FunctionDef) -> bool:
    """The ExecutionBackend protocol shape: run(self, points, ...,
    policy=...).  Sweep-level run() methods (``session=`` only, no
    ``points`` parameter) are not backends and are exempt."""
    arg_names = {arg.arg for arg in (method.args.args
                                     + method.args.kwonlyargs)}
    return (method.name == "run" and "policy" in arg_names
            and "points" in arg_names)


def check_backend_contract(source: SourceFile) -> Iterator[tuple[int, str]]:
    """B001: backend ``run`` routes through the indexed policy worker."""
    for node in ast.walk(source.tree):
        # Raw maps of execute_point bypass policy enforcement anywhere.
        if isinstance(node, ast.Call):
            name = call_name(node)
            tail = name.split(".")[-1] if name else ""
            if tail in ("map", "imap", "imap_unordered", "starmap"):
                if any(isinstance(arg, ast.Name)
                       and arg.id == "execute_point" for arg in node.args):
                    yield (node.lineno,
                           "mapping `execute_point` raw bypasses "
                           "ExecutionPolicy (timeout/retries/on_error); "
                           "route through `_execute_indexed`")
            continue
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) \
                    or not _looks_like_backend_run(method):
                continue
            if _is_stub_body(method.body):
                continue  # the ExecutionBackend protocol itself
            routed = False
            for inner in ast.walk(method):
                if isinstance(inner, ast.Name) and inner.id in (
                        "_execute_indexed", "_attempt_point"):
                    routed = True
                    break
                if isinstance(inner, ast.Attribute) and inner.attr in (
                        "_execute_indexed", "_attempt_point"):
                    routed = True
                    break
                # Delegating to another backend's run() (not recursion on
                # self) inherits its policy enforcement.
                if isinstance(inner, ast.Call) and isinstance(
                        inner.func, ast.Attribute) \
                        and inner.func.attr == "run" \
                        and not (isinstance(inner.func.value, ast.Name)
                                 and inner.func.value.id == "self"):
                    routed = True
                    break
            if not routed:
                yield (method.lineno,
                       f"{node.name}.run() never routes points through "
                       f"`_execute_indexed`/`_attempt_point` (or another "
                       f"backend) — ExecutionPolicy timeouts/retries and "
                       f"ordered reassembly are silently unenforced")


register_rule(Rule(
    code="L001", name="shard-writes-locked", category="locking",
    rationale="every shard-file write must sit inside `with shard_lock` — "
              "one unlocked write reintroduces the lost-update bug",
    check=check_shard_writes_locked))

register_rule(Rule(
    code="L002", name="evicted-under-guard", category="locking",
    rationale="_evicted mutations must stay under the flush guard (lock "
              "or dirty-shard mark) so the locked merge honors them",
    check=check_evicted_guarded))

register_rule(Rule(
    code="B001", name="backend-policy-contract", category="backend",
    rationale="a registered backend's run() must route execution through "
              "_execute_indexed/policy enforcement, not raw map",
    check=check_backend_contract))
