"""Property tests over randomly generated inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cibpath.analytics import wilson_interval
from cibpath.mcda import McdaInput, Persona, rank_pathways
from cibpath.quantify import (
    Dimension,
    Identity,
    QuantifiedPathway,
    enforce_identities,
)


@given(
    n=st.integers(min_value=1, max_value=10_000),
    data=st.data(),
    level=st.floats(min_value=1e-6, max_value=1 - 1e-9),
)
def test_wilson_bounds_bracket_the_proportion(n, data, level):
    s = data.draw(st.integers(min_value=0, max_value=n))
    low, high = wilson_interval(s, n, level)
    eps = 1e-12
    assert 0.0 <= low <= s / n + eps
    assert s / n - eps <= high <= 1.0


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=2
    ),
    scores=st.lists(
        st.lists(st.floats(min_value=1.0, max_value=5.0), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    ),
)
def test_uniform_personas_average_to_single_persona(weights, scores):
    total = sum(weights)
    wv = tuple(w / total for w in weights)
    persona = Persona("a", (("c1", wv[0]), ("c2", wv[1])))
    clones = tuple(
        Persona(f"p{i}", persona.weights) for i in range(3)
    )
    rows = tuple(tuple(r) for r in scores)
    one = rank_pathways(McdaInput(("x", "y"), ("c1", "c2"), rows, (persona,)))
    many = rank_pathways(McdaInput(("x", "y"), ("c1", "c2"), rows, clones))
    assert one.values == many.values


@settings(max_examples=50)
@given(
    a=st.floats(min_value=0.1, max_value=500.0),
    b=st.floats(min_value=0.1, max_value=500.0),
    total=st.floats(min_value=1.0, max_value=1000.0),
)
def test_identity_repair_lands_within_tolerance(a, b, total):
    periods = (2025,)
    dims = (Dimension("a", "", "A"), Dimension("b", "", "A"))
    values = {("a", 2025): a, ("b", 2025): b}
    qp = QuantifiedPathway(dims, periods, values)
    ident = Identity("sum", (("a", 1.0), ("b", 1.0)), ("a", "b"), rhs_value=total)
    out = enforce_identities(qp, (ident,))
    assert abs(out.values["a", 2025] + out.values["b", 2025] - total) <= 1e-9
