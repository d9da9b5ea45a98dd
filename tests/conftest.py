"""Shared fixtures: a small hand-built deterministic circuit and helpers."""

import contextlib
import json
import warnings

import pytest

# Hypothesis writes the patch for a failing example with libcst, whose import
# raises a DeprecationWarning from mypy_extensions; under filterwarnings =
# ["error"] that ended the run with INTERNALERROR and hid the failure.  Import
# it once here, with only that warning ignored.  Hypothesis does not require
# libcst; without it no patch is written, and there is no warning to pre-empt.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from aaipc.circuit import parse_circuit


def three_var_doc(w_root=("1/3", "1/3", "1/3"), w_left=("0.5", "0.5"),
                  w_right=("0.5", "0.5")):
    """Three binary variables, 3 sums, 7 products, 9 indicators.

    Layout: root sum mixes (X1=0)*S2, (X1=1)*S2 and (X1=1)*S3, where S2 and
    S3 are sums over conjunctions of X2/X3 indicators with disjoint supports,
    so the circuit is smooth, decomposable and deterministic.  Two indicator
    leaves are shared between branches.
    """
    def w(x):
        if isinstance(x, str) and "/" in x:
            num, den = x.split("/")
            return repr(float(num) / float(den))
        return str(x)

    doc = {
        "variables": [{"id": 0, "cardinality": 2},
                      {"id": 1, "cardinality": 2},
                      {"id": 2, "cardinality": 2}],
        "units": [
            # indicator leaves
            {"id": 0, "type": "indicator", "var": 0, "value": 0},   # l1
            {"id": 1, "type": "indicator", "var": 0, "value": 1},   # l2 (shared)
            {"id": 2, "type": "indicator", "var": 2, "value": 0},   # l3
            {"id": 3, "type": "indicator", "var": 1, "value": 0},   # l4
            {"id": 4, "type": "indicator", "var": 2, "value": 1},   # l5
            {"id": 5, "type": "indicator", "var": 1, "value": 1},   # l6 (shared)
            {"id": 6, "type": "indicator", "var": 2, "value": 0},   # l7
            {"id": 7, "type": "indicator", "var": 2, "value": 1},   # l8
            {"id": 8, "type": "indicator", "var": 1, "value": 0},   # l9
            # products over X2, X3 conjunctions
            {"id": 9, "type": "product", "children": [2, 3]},       # X3=0, X2=0
            {"id": 10, "type": "product", "children": [4, 5]},      # X3=1, X2=1
            {"id": 11, "type": "product", "children": [5, 6]},      # X2=1, X3=0
            {"id": 12, "type": "product", "children": [7, 8]},      # X3=1, X2=0
            # interior sums
            {"id": 13, "type": "sum", "children": [9, 10], "weights": [w(w_left[0]), w(w_left[1])]},
            {"id": 14, "type": "sum", "children": [11, 12], "weights": [w(w_right[0]), w(w_right[1])]},
            # top products pairing X1 with an interior sum
            {"id": 15, "type": "product", "children": [0, 13]},
            {"id": 16, "type": "product", "children": [1, 13]},
            {"id": 17, "type": "product", "children": [1, 14]},
            # root
            {"id": 18, "type": "sum", "children": [15, 16, 17],
             "weights": [w(w_root[0]), w(w_root[1]), w(w_root[2])]},
        ],
        "root": 18,
    }
    return doc


@pytest.fixture
def three_var_circuit():
    return parse_circuit(json.dumps(three_var_doc()))


@pytest.fixture
def three_var_distinct():
    """Same structure with distinct weights so max-product has a unique argmax."""
    return parse_circuit(json.dumps(three_var_doc(
        w_root=("0.5", "0.3", "0.2"), w_left=("0.6", "0.4"), w_right=("0.7", "0.3"))))
