"""Property tests for the CSV loader, the kernel grammar and the crossing finder.

The loader round-trips any fleet through ``save_csv`` and ``load_csv`` under
a column mapping given in the CLI's ``--schema`` syntax; ``parse_kernel``
inverts ``format_kernel`` on random sum trees of base kernels; and
``find_eol`` agrees with the dense-scan oracle on curves in generic position.
"""

import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpprog import (
    CapacitySeries,
    Fleet,
    Sum,
    base_kernel,
    find_eol,
    format_kernel,
    load_csv,
    parse_kernel,
    save_csv,
    sum_terms,
)
from gpprog.cli import _parse_schema

from helpers import brute_force_eol

TOKENS = ("SE", "MA3", "MA5", "PER", "NOISE")


@st.composite
def raw_series(draw, cell_id):
    n = draw(st.integers(1, 12))
    cycles = draw(
        st.lists(st.floats(0.0, 1e4, allow_subnormal=False), min_size=n, max_size=n, unique=True)
    )
    capacities = draw(
        st.lists(st.floats(1e-3, 1e3, allow_subnormal=False), min_size=n, max_size=n)
    )
    return CapacitySeries.from_raw(cell_id, cycles, capacities)


@st.composite
def fleets(draw):
    ids = draw(
        st.lists(
            st.text(string.ascii_letters + string.digits + " ,_-", min_size=1, max_size=6),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return Fleet(tuple(draw(raw_series(cid)) for cid in ids))


column_names = st.lists(
    st.text(string.ascii_letters + "_", min_size=1, max_size=8), min_size=3, max_size=3, unique=True
)


@given(fleets(), column_names)
def test_csv_round_trips_through_a_schema_mapping(fleet, names):
    canonical = ("cell_id", "cycle", "capacity")
    schema = _parse_schema(",".join(f"{k}={v}" for k, v in zip(canonical, names)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fleet.csv"
        save_csv(fleet, path, schema)
        assert path.read_text().splitlines()[0] == ",".join(names)
        loaded = load_csv(path, schema)
    assert loaded.cell_ids == fleet.cell_ids
    for got, want in zip(loaded.series, fleet.series):
        assert np.array_equal(got.cycles, want.cycles)
        assert np.array_equal(got.capacities, want.capacities)


sum_trees = st.recursive(
    st.sampled_from(TOKENS).map(base_kernel),
    lambda children: st.builds(Sum, children, children),
    max_leaves=8,
)


@given(sum_trees)
def test_parse_inverts_format_on_kernel_trees(kernel):
    parsed = parse_kernel(format_kernel(kernel))
    # the grammar nests sums to the left, so any tree comes back as the
    # left-nested sum of the same terms in the same order
    assert sum_terms(parsed) == sum_terms(kernel)
    assert parse_kernel(format_kernel(parsed)) == parsed
    terms = sum_terms(kernel)
    left_nested = terms[0]
    for term in terms[1:]:
        left_nested = Sum(left_nested, term)
    assert parsed == left_nested


spelled_tokens = st.tuples(st.sampled_from(TOKENS), st.booleans(), st.booleans())


@given(st.lists(spelled_tokens, min_size=1, max_size=8))
def test_format_inverts_parse_on_expressions(tokens):
    # tokens may come in lower case and padded; the formatted form is canonical
    expression = "+".join(
        (" " if pad else "") + (t.lower() if lower else t) for t, lower, pad in tokens
    )
    assert format_kernel(parse_kernel(expression)) == "+".join(t for t, _, _ in tokens)


THRESHOLD = 0.7
# vertices at least 0.01 away from the threshold, so every dip below it spans
# many steps of the oracle's scan
vertex_values = st.one_of(st.floats(0.4, THRESHOLD - 0.01), st.floats(THRESHOLD + 0.01, 1.1))


@given(
    st.floats(THRESHOLD + 0.01, 1.1),
    st.lists(st.tuples(st.floats(0.5, 5.0), vertex_values), min_size=1, max_size=30),
)
def test_find_eol_agrees_with_dense_scan(first_value, segments):
    # the curve starts above the threshold; each segment adds a step and a vertex
    xs = np.cumsum([0.5, *(gap for gap, _ in segments)])
    values = np.array([first_value, *(value for _, value in segments)])
    start_x = float(xs[0])
    got = find_eol(xs, values, THRESHOLD, start_x)
    expected = brute_force_eol(xs, values, THRESHOLD, start_x)
    if math.isinf(expected):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(expected, abs=1e-6)
