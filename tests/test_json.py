import json
import math

import pytest

from rootiso import _json


def test_strict_nulls_every_non_finite_float():
    doc = {"a": [1.5, math.inf, (-math.inf, {"b": math.nan})], "c": (2, True, None, "inf"), "d": 0.0}
    assert _json.strict(doc) == {"a": [1.5, None, [None, {"b": None}]], "c": [2, True, None, "inf"], "d": 0.0}
    # a tuple prints as a list, so the walk leaves finite documents' bytes alone
    finite = {"x": (1, 2.5), "y": [{"z": -3e300}]}
    assert _json.dumps(_json.strict(finite)) == json.dumps(finite, indent=2) + "\n"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_dumps_refuses_an_unwalked_non_finite_value(value):
    with pytest.raises(ValueError):
        _json.dumps({"nested": [value]})
    assert _json.dumps(_json.strict({"nested": [value]}), sort_keys=True) == '{\n  "nested": [\n    null\n  ]\n}\n'
