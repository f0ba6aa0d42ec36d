"""Trigger / near-miss fixtures for every lint rule KP001-KP012.

Each rule gets at least one snippet that must fire (with the right code)
and one nearby snippet that must stay silent, so the heuristics cannot
drift in either direction unnoticed.  KP001-KP007 are per-file rules
checked via :func:`lint_source`; KP008-KP012 are whole-program rules, so
their fixtures are small synthetic packages written to ``tmp_path`` and
run through :func:`repro.devtools.analysis.analyze_files`.  The repo's
own ``src`` tree must lint clean — that is the acceptance gate CI runs.
"""

from __future__ import annotations

import io
import os

import pytest

from repro.devtools.analysis import analyze_files
from repro.devtools.lint import (
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    run,
)
from repro.devtools.violations import (
    HOT_LOOP_SUFFIXES,
    PARSE_ERROR_CODE,
    RULE_CODES,
    Violation,
)

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def codes(source: str, path: str = "pkg/module.py") -> list[str]:
    return [v.code for v in lint_source(source, path=path)]


def analysis_codes(tmp_path, files: dict[str, str]) -> list[str]:
    """Write a synthetic package to ``tmp_path`` and run KP008-KP012."""
    paths = []
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        package_dir = target.parent
        while package_dir != tmp_path:
            init = package_dir / "__init__.py"
            if not init.exists():
                init.write_text("")
            package_dir = package_dir.parent
        target.write_text(source)
        paths.append(str(target))
    return [v.code for v in analyze_files(sorted(paths))]


# ----------------------------------------------------------------------
# KP001 — raw fraction arithmetic on degree-like values
# ----------------------------------------------------------------------
class TestKP001:
    def test_raw_division_on_degree_triggers(self):
        assert codes("frac = inside / graph.degree(v)\n") == ["KP001"]

    def test_ceil_of_p_times_degree_triggers(self):
        src = "from math import ceil\nt = ceil(p * degree)\n"
        assert codes(src) == ["KP001"]

    def test_division_of_unrelated_names_is_clean(self):
        assert codes("ratio = hits / total\n") == []

    def test_pvalue_module_is_exempt(self):
        source = "value = numerator / denominator\n"
        assert codes(source, path="src/repro/core/pvalue.py") == []
        assert codes(source) == ["KP001"]


# ----------------------------------------------------------------------
# KP002 — exact float equality on p-values
# ----------------------------------------------------------------------
class TestKP002:
    def test_equality_on_p_triggers(self):
        assert codes("flag = pn == previous\n") == ["KP002"]

    def test_inequality_on_fraction_triggers(self):
        assert codes("if frac != level:\n    pass\n") == ["KP002"]

    def test_ordering_comparison_is_clean(self):
        assert codes("if pn <= previous:\n    pass\n") == []

    def test_equality_on_non_p_names_is_clean(self):
        assert codes("done = count == total\n") == []


# ----------------------------------------------------------------------
# KP003 — exported functions must validate or forward p/k
# ----------------------------------------------------------------------
class TestKP003:
    def test_unvalidated_public_p_triggers(self):
        src = (
            '__all__ = ["shrink"]\n'
            "def shrink(graph, k, p):\n"
            "    return [v for v in graph if len(graph[v]) >= k]\n"
        )
        assert "KP003" in codes(src)

    def test_validator_call_is_clean(self):
        src = (
            '__all__ = ["shrink"]\n'
            "from repro.core.pvalue import check_p\n"
            "def shrink(graph, k, p):\n"
            "    check_p(p)\n"
            "    return graph\n"
        )
        assert codes(src) == []

    def test_forwarding_is_clean(self):
        src = (
            '__all__ = ["shrink"]\n'
            "def shrink(graph, k, p):\n"
            "    return _inner(graph, k, p)\n"
        )
        assert codes(src) == []

    def test_unexported_helper_is_not_checked(self):
        src = (
            "__all__ = []\n"
            "def _helper(graph, k, p):\n"
            "    return graph\n"
        )
        assert codes(src) == []


# ----------------------------------------------------------------------
# KP004 — CompactAdjacency snapshot mutation outside graph/compact.py
# ----------------------------------------------------------------------
class TestKP004:
    def test_attribute_assignment_triggers(self):
        assert codes("snapshot.indptr[0] = 1\n") == ["KP004"]

    def test_mutator_method_call_triggers(self):
        assert codes("snapshot.indices.append(3)\n") == ["KP004"]

    def test_compact_module_is_exempt(self):
        source = "self.indices.append(3)\n"
        assert codes(source, path="src/repro/graph/compact.py") == []
        assert codes(source) == ["KP004"]

    def test_other_attributes_are_clean(self):
        assert codes("snapshot.cache = {}\nsnapshot.rows.append(1)\n") == []


# ----------------------------------------------------------------------
# KP005 — __all__ drift
# ----------------------------------------------------------------------
class TestKP005:
    def test_unexported_public_def_triggers(self):
        src = '__all__ = ["f"]\ndef f():\n    pass\ndef g():\n    pass\n'
        assert codes(src) == ["KP005"]

    def test_exported_but_undefined_name_triggers(self):
        assert codes('__all__ = ["ghost"]\n') == ["KP005"]

    def test_private_def_and_assignments_are_clean(self):
        src = (
            '__all__ = ["f"]\n'
            "LIMIT = 10\n"
            "def f():\n    pass\n"
            "def _helper():\n    pass\n"
        )
        assert codes(src) == []

    def test_module_without_dunder_all_is_skipped(self):
        assert codes("def anything():\n    pass\n") == []


# ----------------------------------------------------------------------
# KP006 — per-iteration allocation in the peeling hot loops
# ----------------------------------------------------------------------
class TestKP006:
    HOT_PATH = "src/repro/kcore/compute.py"

    def test_set_constructor_in_while_loop_triggers(self):
        src = "while queue:\n    batch = set()\n"
        assert codes(src, path=self.HOT_PATH) == ["KP006"]

    def test_comprehension_in_while_loop_triggers(self):
        src = "while queue:\n    alive = [v for v in queue]\n"
        assert codes(src, path=self.HOT_PATH) == ["KP006"]

    def test_allocation_before_the_loop_is_clean(self):
        src = "batch = set()\nwhile queue:\n    batch.add(queue.pop())\n"
        assert codes(src, path=self.HOT_PATH) == []

    def test_non_hot_modules_are_not_checked(self):
        src = "while queue:\n    batch = set()\n"
        assert codes(src, path="src/repro/analysis/report.py") == []

    def test_flat_engine_module_is_hot(self):
        src = "while remaining:\n    dirty = []\n"
        assert codes(src, path="src/repro/core/peel_flat.py") == ["KP006"]

    def test_registry_module_is_not_hot(self):
        src = "while remaining:\n    dirty = []\n"
        assert codes(src, path="src/repro/core/peel_engines.py") == []

    def test_message_names_every_hot_module(self):
        for suffix in HOT_LOOP_SUFFIXES:
            assert suffix in RULE_CODES["KP006"], suffix


# ----------------------------------------------------------------------
# KP007 — per-iteration metric recording in the peeling hot loops
# ----------------------------------------------------------------------
class TestKP007:
    HOT_PATH = "src/repro/core/decomposition.py"

    def test_unguarded_metric_call_in_while_loop_triggers(self):
        src = "while heap:\n    obs.inc('decomp.peels')\n"
        assert codes(src, path=self.HOT_PATH) == ["KP007"]

    def test_unguarded_observe_in_for_loop_triggers(self):
        src = "for v in members:\n    collector.observe('x', deg)\n"
        assert codes(src, path=self.HOT_PATH) == ["KP007"]

    def test_collector_lookup_in_loop_triggers_even_if_guarded(self):
        src = (
            "while heap:\n"
            "    obs = get_collector()\n"
            "    if obs is not None:\n"
            "        obs.inc('decomp.peels')\n"
        )
        assert codes(src, path=self.HOT_PATH) == ["KP007"]

    def test_maybe_span_in_loop_triggers(self):
        src = "for k in ks:\n    with maybe_span('peel'):\n        work()\n"
        assert codes(src, path=self.HOT_PATH) == ["KP007"]

    def test_guarded_metric_call_is_clean(self):
        src = (
            "while heap:\n"
            "    if obs is not None:\n"
            "        obs.inc('decomp.peels')\n"
        )
        assert codes(src, path=self.HOT_PATH) == []

    def test_post_loop_flush_is_clean(self):
        src = (
            "rekeys = 0\n"
            "while heap:\n"
            "    rekeys += 1\n"
            "obs = get_collector()\n"
            "if obs is not None:\n"
            "    obs.add('decomp.rekeys', rekeys)\n"
        )
        assert codes(src, path=self.HOT_PATH) == []

    def test_set_add_is_not_mistaken_for_a_metric(self):
        src = "while queue:\n    alive.add(queue.pop())\n"
        assert codes(src, path=self.HOT_PATH) == []

    def test_unguarded_trace_record_in_loop_triggers(self):
        src = "for k in ks:\n    obs.record('trace.peel', a, b)\n"
        assert codes(src, path=self.HOT_PATH) == ["KP007"]

    def test_guarded_trace_record_is_clean(self):
        src = (
            "obs = get_collector()\n"
            "while heap:\n"
            "    if obs is not None:\n"
            "        obs.record('trace.peel', a, b)\n"
        )
        assert codes(src, path=self.HOT_PATH) == []

    def test_post_loop_trace_record_is_clean(self):
        """The peel-kernel shape: hoisted lookup, one record after the loop."""
        src = (
            "obs = get_collector()\n"
            "start = now()\n"
            "while heap:\n"
            "    work()\n"
            "if obs is not None:\n"
            "    obs.record('trace.peel', start, now())\n"
        )
        assert codes(src, path=self.HOT_PATH) == []

    def test_non_collector_event_call_is_not_flagged(self):
        src = "for h in handlers:\n    bus.event('tick')\n"
        assert codes(src, path=self.HOT_PATH) == []

    def test_non_hot_modules_are_not_checked(self):
        src = "while heap:\n    obs.inc('x')\n"
        assert codes(src, path="src/repro/core/maintenance.py") == []

    def test_flat_engine_module_is_hot(self):
        src = "while remaining:\n    obs.inc('decomp.flat.moves')\n"
        assert codes(src, path="src/repro/core/peel_flat.py") == ["KP007"]


# ----------------------------------------------------------------------
# KP008 — lock discipline (whole-program)
# ----------------------------------------------------------------------
_RWLOCK_STUB = (
    "class RWLock:\n"
    "    def read_locked(self):\n"
    "        return self\n"
    "    def write_locked(self):\n"
    "        return self\n"
    "    def __enter__(self):\n"
    "        return self\n"
    "    def __exit__(self, *exc):\n"
    "        return None\n"
)


class TestKP008:
    def test_unlocked_mutation_in_lock_owner_triggers(self, tmp_path):
        server = (
            _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def grow(self, v):\n"
            "        self._index.vertices.append(v)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == ["KP008"]

    def test_mutation_under_write_lock_is_clean(self, tmp_path):
        server = (
            _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def grow(self, v):\n"
            "        with self._lock.write_locked():\n"
            "            self._index.vertices.append(v)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == []

    def test_mutating_call_needs_write_lock_even_under_read_lock(self, tmp_path):
        server = (
            _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def grow(self, v):\n"
            "        with self._lock.read_locked():\n"
            "            self._mutate(v)\n"
            "    def _mutate(self, v):\n"
            "        with self._lock.write_locked():\n"
            "            self._index.vertices.append(v)\n"
        )
        # The call path grow() -> _mutate() holds only the read lock at
        # the call site; _mutate() itself re-locks, so only the call
        # site is flagged.
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == ["KP008"]

    def test_version_read_and_cache_fill_outside_read_lock_triggers(self, tmp_path):
        server = (
            _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def lookup(self, k):\n"
            "        tag = self.index.version(k)\n"
            "        self._cache.put((k, tag), 1)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == ["KP008"]

    def test_version_read_and_cache_fill_in_one_scope_is_clean(self, tmp_path):
        server = (
            _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def lookup(self, k):\n"
            "        with self._lock.read_locked():\n"
            "            tag = self.index.version(k)\n"
            "            self._cache.put((k, tag), 1)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == []

    def test_version_read_and_cache_fill_in_split_scopes_triggers(self, tmp_path):
        server = (
            _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def lookup(self, k):\n"
            "        with self._lock.read_locked():\n"
            "            tag = self.index.version(k)\n"
            "        with self._lock.read_locked():\n"
            "            self._cache.put((k, tag), 1)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == ["KP008"]

    def test_class_without_rwlock_is_not_checked(self, tmp_path):
        module = (
            "class Builder:\n"
            "    def grow(self, v):\n"
            "        self._index.vertices.append(v)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/builder.py": module}) == []


# ----------------------------------------------------------------------
# KP009 — version-bump pairing in core/maintenance.py (whole-program)
# ----------------------------------------------------------------------
class TestKP009:
    def test_mutation_without_bump_triggers(self, tmp_path):
        module = (
            "class Maintainer:\n"
            "    def splice(self, array, v):\n"
            "        array.vertices.append(v)\n"
        )
        files = {"pkg/core/maintenance.py": module}
        assert analysis_codes(tmp_path, files) == ["KP009"]

    def test_mutation_with_bump_is_clean(self, tmp_path):
        module = (
            "class Maintainer:\n"
            "    def splice(self, array, v):\n"
            "        array.vertices.append(v)\n"
            "        self.index.bump_version(1)\n"
        )
        files = {"pkg/core/maintenance.py": module}
        assert analysis_codes(tmp_path, files) == []

    def test_scratch_buffer_mutation_is_not_index_state(self, tmp_path):
        module = (
            "class Maintainer:\n"
            "    def rebuild(self, result, value):\n"
            "        result.p_numbers.append(value)\n"
        )
        files = {"pkg/core/maintenance.py": module}
        assert analysis_codes(tmp_path, files) == []

    def test_other_modules_are_not_checked(self, tmp_path):
        module = (
            "class Maintainer:\n"
            "    def splice(self, array, v):\n"
            "        array.vertices.append(v)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/core/other.py": module}) == []


# ----------------------------------------------------------------------
# KP010 — durable-write protocol (whole-program)
# ----------------------------------------------------------------------
class TestKP010:
    def test_mutation_before_journal_append_triggers(self, tmp_path):
        module = (
            "class Store:\n"
            "    def apply(self, record, v):\n"
            "        self.arrays.vertices.append(v)\n"
            "        self._journal.append(record)\n"
        )
        files = {"pkg/service/store.py": module}
        assert analysis_codes(tmp_path, files) == ["KP010"]

    def test_journal_append_before_mutation_is_clean(self, tmp_path):
        module = (
            "class Store:\n"
            "    def apply(self, record, v):\n"
            "        self._journal.append(record)\n"
            "        self.arrays.vertices.append(v)\n"
        )
        files = {"pkg/service/store.py": module}
        assert analysis_codes(tmp_path, files) == []

    def test_raw_open_for_write_on_persisted_path_triggers(self, tmp_path):
        module = (
            "def save(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(payload)\n"
        )
        files = {"pkg/service/snapshot.py": module}
        assert analysis_codes(tmp_path, files) == ["KP010"]

    def test_read_open_and_unscoped_modules_are_clean(self, tmp_path):
        reader = (
            "def load(path):\n"
            "    with open(path, 'r') as handle:\n"
            "        return handle.read()\n"
        )
        writer = (
            "def export(path, payload):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(payload)\n"
        )
        files = {
            "pkg/service/snapshot.py": reader,
            # Same raw write, but not on a persisted-path module.
            "pkg/reports.py": writer,
        }
        assert analysis_codes(tmp_path, files) == []


# ----------------------------------------------------------------------
# KP011 — process-boundary safety (whole-program)
# ----------------------------------------------------------------------
class TestKP011:
    def test_lambda_shipped_to_pool_triggers(self, tmp_path):
        module = (
            "from multiprocessing import Pool\n"
            "def drive(items):\n"
            "    with Pool(2) as pool:\n"
            "        return list(pool.imap_unordered(lambda item: item, items))\n"
        )
        assert analysis_codes(tmp_path, {"pkg/driver.py": module}) == ["KP011"]

    def test_closure_shipped_to_pool_triggers(self, tmp_path):
        module = (
            "from multiprocessing import Pool\n"
            "def drive(items):\n"
            "    def helper(item):\n"
            "        return item\n"
            "    with Pool(2) as pool:\n"
            "        return pool.map(helper, items)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/driver.py": module}) == ["KP011"]

    def test_lock_in_initargs_triggers(self, tmp_path):
        module = (
            "from multiprocessing import Pool\n"
            "def drive(snapshot, lock):\n"
            "    with Pool(2, initializer=_setup, initargs=(snapshot, lock)) as pool:\n"
            "        return pool\n"
            "def _setup(snapshot, lock):\n"
            "    return None\n"
        )
        assert analysis_codes(tmp_path, {"pkg/driver.py": module}) == ["KP011"]

    def test_module_level_task_and_plain_data_are_clean(self, tmp_path):
        module = (
            "from multiprocessing import Pool\n"
            "def _task(item):\n"
            "    return item\n"
            "def drive(items, snapshot):\n"
            "    with Pool(2, initializer=_setup, initargs=(snapshot,)) as pool:\n"
            "        return list(pool.imap_unordered(_task, items))\n"
            "def _setup(snapshot):\n"
            "    return None\n"
        )
        assert analysis_codes(tmp_path, {"pkg/driver.py": module}) == []

    def test_chunked_scheduler_shape_is_clean(self, tmp_path):
        """The parallel driver's work-stealing shape: module-level chunk
        worker, plain ``list[list[int]]`` payloads, picklable initargs."""
        module = (
            "from multiprocessing import Pool\n"
            "def _peel_chunk(chunk):\n"
            "    return [(k, [k]) for k in chunk]\n"
            "def drive(chunks, snapshot, engine):\n"
            "    with Pool(2, initializer=_setup, initargs=(snapshot, engine)) as pool:\n"
            "        out = []\n"
            "        for peeled in pool.imap_unordered(_peel_chunk, chunks):\n"
            "            out.extend(peeled)\n"
            "    return out\n"
            "def _setup(snapshot, engine):\n"
            "    return None\n"
        )
        assert analysis_codes(tmp_path, {"pkg/driver.py": module}) == []


# ----------------------------------------------------------------------
# KP012 — no blocking I/O under a shared lock scope (whole-program)
# ----------------------------------------------------------------------
class TestKP012:
    def test_fsync_under_write_lock_triggers(self, tmp_path):
        server = (
            "import os\n"
            + _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def flush(self, fd):\n"
            "        with self._lock.write_locked():\n"
            "            os.fsync(fd)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == ["KP012"]

    def test_blocking_helper_inherits_the_lock_scope(self, tmp_path):
        server = (
            "import os\n"
            + _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def flush(self, fd):\n"
            "        with self._lock.write_locked():\n"
            "            self._sync(fd)\n"
            "    def _sync(self, fd):\n"
            "        os.fsync(fd)\n"
        )
        # Both the locked call site and the helper's own fsync (whose
        # every analyzed caller holds the lock) are reported.
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == ["KP012", "KP012"]

    def test_fsync_outside_the_lock_is_clean(self, tmp_path):
        server = (
            "import os\n"
            + _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def flush(self, fd):\n"
            "        os.fsync(fd)\n"
        )
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == []

    def test_helper_also_called_unlocked_is_clean(self, tmp_path):
        server = (
            "import os\n"
            + _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def flush(self, fd):\n"
            "        with self._lock.write_locked():\n"
            "            self._sync(fd)  # noqa: KP012 flush stays exclusive\n"
            "    def startup(self, fd):\n"
            "        self._sync(fd)\n"
            "    def _sync(self, fd):\n"
            "        os.fsync(fd)\n"
        )
        # The entry context is the intersection over call paths: one
        # unlocked caller means _sync() cannot assume the lock is held.
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == []

    def test_noqa_suppresses_analysis_findings(self, tmp_path):
        server = (
            "import os\n"
            + _RWLOCK_STUB
            + "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = RWLock()\n"
            "    def flush(self, fd):\n"
            "        with self._lock.write_locked():\n"
            "            os.fsync(fd)  # noqa: KP012 checkpoint by design\n"
        )
        assert analysis_codes(tmp_path, {"pkg/srv.py": server}) == []


# ----------------------------------------------------------------------
# suppression, parse errors, driver behaviour
# ----------------------------------------------------------------------
class TestSuppression:
    def test_matching_noqa_suppresses(self):
        assert codes("frac = a / degree  # noqa: KP001 hot loop\n") == []

    def test_wrong_code_does_not_suppress(self):
        assert codes("frac = a / degree  # noqa: KP002\n") == ["KP001"]

    def test_bare_noqa_suppresses_everything(self):
        assert codes("frac = pn == a / degree  # noqa\n") == []

    def test_comma_separated_codes(self):
        assert codes("frac = pn == a / degree  # noqa: KP001,KP002\n") == []


def test_syntax_error_reports_kp000():
    violations = lint_source("def broken(:\n", path="bad.py")
    assert [v.code for v in violations] == [PARSE_ERROR_CODE]


def test_violation_render_format():
    v = Violation(path="a/b.py", line=3, col=4, code="KP001", message="msg")
    assert v.render() == "a/b.py:3:4: KP001 msg"


def test_rule_catalogue_covers_all_codes():
    assert set(RULE_CODES) == {f"KP{i:03d}" for i in range(0, 13)}


def test_iter_python_files_rejects_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        iter_python_files([str(tmp_path / "nope")])


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "bad.py").write_text("frac = a / degree\n")
    violations = lint_paths([str(tmp_path)])
    assert [v.code for v in violations] == ["KP001"]
    assert violations[0].path.endswith("bad.py")
    assert lint_file(str(tmp_path / "ok.py")) == []


def test_run_exit_codes(tmp_path):
    clean, dirty = tmp_path / "clean.py", tmp_path / "dirty.py"
    clean.write_text("x = 1\n")
    dirty.write_text("frac = a / degree\n")

    out = io.StringIO()
    assert run([str(clean)], out=out) == 0
    assert "clean: 1 file(s) checked" in out.getvalue()

    out = io.StringIO()
    assert run([str(dirty)], out=out) == 1
    assert "KP001" in out.getvalue()

    out = io.StringIO()
    assert run([str(tmp_path / "missing.py")], out=out) == 2


def test_repo_source_tree_is_clean():
    """The acceptance gate: ``python -m repro lint src`` exits 0."""
    out = io.StringIO()
    assert run([REPO_SRC], out=out) == 0, out.getvalue()


def test_cli_lint_subcommand(tmp_path):
    from repro.cli import main

    dirty = tmp_path / "dirty.py"
    dirty.write_text("frac = a / degree\n")
    assert main(["lint", REPO_SRC]) == 0
    assert main(["lint", str(dirty)]) == 1
    assert main(["lint", "--explain"]) == 0
