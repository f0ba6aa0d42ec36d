"""Executable-documentation tests.

The README quickstart and the docstring examples are promises to users;
these tests execute them so they cannot silently rot.
"""

import doctest
import re
from pathlib import Path

import pytest

import repro
import repro.graph.adjacency
import repro.kcore.maintenance
import repro.bench.timing
import repro.obs.instrumentation
from repro.obs import names

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
OBSERVABILITY = ROOT / "docs" / "observability.md"


@pytest.mark.parametrize(
    "module",
    [
        repro,
        repro.graph.adjacency,
        repro.kcore.maintenance,
        repro.bench.timing,
        repro.obs.instrumentation,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0  # the examples actually exist


def python_blocks(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def readme_code_blocks() -> list[str]:
    return python_blocks(README)


def test_readme_has_python_examples():
    assert len(readme_code_blocks()) >= 1


def test_readme_quickstart_block_runs():
    block = readme_code_blocks()[0]
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)  # noqa: S102
    # the block builds a maintainer and queries it; spot-check the claims
    # stated in the inline comments
    assert sorted(namespace["kp_core_vertices"](namespace["g"], k=2, p=2 / 3))
    index = namespace["index"]
    assert sorted(index.query(k=2, p=2 / 3)) == [0, 1, 2]
    assert index.p_number(0, k=2) == pytest.approx(2 / 3)  # noqa: KP002 exact-double oracle
    maintainer = namespace["maintainer"]
    assert sorted(maintainer.query(k=2, p=1.0)) == [0, 1, 2]


def test_observability_snippets_run(capsys):
    """Every python block of docs/observability.md runs as written and
    yields both views of one collector: metrics and trace events."""
    blocks = python_blocks(OBSERVABILITY)
    assert blocks
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, str(OBSERVABILITY), "exec"), namespace)  # noqa: S102
    obs = namespace["obs"]
    assert obs.snapshot().counter("kpcore.calls") == 1
    assert {event.name for event in obs.events()} >= {
        names.KPCORE_SPAN,
        names.KPCORE_SPAN_PEEL,
    }
    assert "kpcore.calls" in capsys.readouterr().out


def test_observability_catalog_lists_every_name():
    """The catalog tables in docs/observability.md name every counter,
    histogram and span of repro.obs.names, and nothing else."""
    text = OBSERVABILITY.read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `([^`]+)` \|", text, flags=re.MULTILINE))
    catalogued = {name for kind in names.catalog().values() for name in kind}
    assert documented == catalogued
