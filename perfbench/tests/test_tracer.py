"""The tracer wraps every binding of a function, links spans to their
parents, and puts every binding back."""
import sys
import textwrap

import pytest

from tracer import Target, Tracer


@pytest.fixture
def pkg(tmp_path, monkeypatch):
    root = tmp_path / "tracedpkg"
    root.mkdir()
    (root / "__init__.py").write_text("from .a import outer, inner\n")
    (root / "a.py").write_text(textwrap.dedent("""
        def inner(x):
            return hot(x) + 1

        def outer(x):
            return inner(x) + inner(x) + nested(2)

        def nested(depth):
            return 0 if depth == 0 else nested(depth - 1)

        def hot(x):
            return x
    """))
    (root / "b.py").write_text("from .a import outer as alias\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import tracedpkg.b  # noqa: F401
    yield sys.modules
    for name in [m for m in sys.modules if m.startswith("tracedpkg")]:
        del sys.modules[name]


def test_spans_link_parents_and_bindings_are_restored(pkg):
    a, b, init = pkg["tracedpkg.a"], pkg["tracedpkg.b"], pkg["tracedpkg"]
    originals = (a.outer, a.inner, a.hot, b.alias, init.outer, init.inner)
    seen = []
    targets = [
        Target("tracedpkg.a", "outer", "outer_s"),
        Target("tracedpkg.a", "inner", "inner_s"),
        Target("tracedpkg.a", "nested", "nested_s", lambda args, kw, r: seen.append(args)),
        Target("tracedpkg.a", "hot", ""),
        Target("tracedpkg.a", "gone", "gone_s"),
        Target("tracedpkg.missing", "f", "missing_s"),
    ]
    with Tracer("tracedpkg", targets) as tracer:
        assert b.alias is init.outer is not originals[0]
        tracer.command = 7
        assert b.alias(1) == 4
    assert (a.outer, a.inner, a.hot, b.alias, init.outer, init.inner) == originals
    assert tracer.absent == ["a.gone", "missing.f"]

    names = [s.name for s in tracer.spans]
    assert names == ["a.outer", "a.inner", "a.inner", "a.nested", "a.nested", "a.nested"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 0, 3, 4]
    assert {s.command for s in tracer.spans} == {7}
    assert tracer.count("a.hot") == 2 and tracer.count("a.inner") == 2
    # the observer runs once, for the outermost span of its layer
    assert seen == [(2,)]

    own = tracer.self_times()
    outer = tracer.spans[0]
    children = sum(s.end - s.start for s in tracer.spans if s.parent == 0)
    assert own[0] == pytest.approx(outer.end - outer.start - children)
    totals = tracer.layer_self_times()
    assert sum(totals.values()) == pytest.approx(outer.end - outer.start)
    assert set(totals) == {"outer_s", "inner_s", "nested_s", "gone_s", "missing_s"}
