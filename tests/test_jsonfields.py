"""The one JSON type check, and a guard that every JSON input key has a type."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from ttabench.corpus import manifest
from ttabench.engine import artifacts
from ttabench.engine.config import ADAPTATION_FIELDS, AdaptationConfig
from ttabench.engine.runner import AdaptationTrace, UtteranceRecord
from ttabench.errors import ConfigError
from ttabench.jsonfields import (
    BOOL, INTEGER, NUMBER, NUMBERS, STRINGS, Fields, check_object, or_null,
)
from ttabench.model import reference

_TABLE = Fields(
    {"n": INTEGER, "x": NUMBER, "on": BOOL, "names": STRINGS, "count": or_null(INTEGER)},
    optional=("count",),
)
_VALID = {"n": 1, "x": 2, "on": False, "names": ["a"]}


def test_valid_values_pass_unconverted():
    # an integer where a number is wanted stays an integer
    checked = check_object(json.dumps(_VALID), _TABLE, "t", ConfigError)
    assert checked == _VALID and type(checked["x"]) is int
    assert check_object({**_VALID, "count": None}, _TABLE, "t", ConfigError)["count"] is None


@pytest.mark.parametrize(
    "value, words",
    [
        ({**_VALID, "n": True}, "field 'n' must be an integer, got bool"),
        ({**_VALID, "x": True}, "field 'x' must be a number, got bool"),
        ({**_VALID, "n": 1.0}, "field 'n' must be an integer, got float"),
        ({**_VALID, "on": 0}, "field 'on' must be true or false, got int"),
        ({**_VALID, "names": "ab"}, "field 'names' must be a list of strings, got str"),
        ({**_VALID, "names": ["a", 1]}, "field 'names' must be a list of strings"),
        ({**_VALID, "count": 0.5}, "field 'count' must be an integer or null, got float"),
        ({**_VALID, "extra": 1}, "unknown fields ['extra']"),
        ({k: v for k, v in _VALID.items() if k != "x"}, "missing field 'x'"),
        ([1], "expected a JSON object, got list"),
        ("{", "invalid JSON"),
        ({**_VALID, "x": float("nan")}, "field 'x' must be a number, got nan"),
        ({**_VALID, "x": float("-inf")}, "field 'x' must be a number, got -inf"),
        ('{"n": 1, "x": Infinity, "on": true, "names": []}', "field 'x' must be a number, got inf"),
    ],
)
def test_each_defect_is_one_error_naming_the_key(value, words):
    with pytest.raises(ConfigError, match=r"^t: ") as caught:
        check_object(value, _TABLE, "t", ConfigError)
    assert words in str(caught.value)


def test_a_list_of_numbers_holds_finite_numbers_only():
    table = Fields({"xs": NUMBERS})
    assert check_object('{"xs": [1, 2.5]}', table, "t", ConfigError) == {"xs": [1, 2.5]}
    with pytest.raises(ConfigError, match="field 'xs' must be a list of numbers"):
        check_object('{"xs": [1, NaN]}', table, "t", ConfigError)


def test_open_table_allows_other_keys():
    open_table = Fields(_TABLE.types, optional=("count",), open=True)
    assert check_object({**_VALID, "age": 7}, open_table, "t", ConfigError)["age"] == 7


def test_every_json_input_key_has_a_json_type(tmp_path):
    # a new setting, manifest field, checkpoint key or record field cannot skip the check
    fields = {f.name for f in dataclasses.fields(AdaptationConfig)}
    assert fields == set(ADAPTATION_FIELDS.types)
    assert set(manifest.MANIFEST_FIELDS) == set(manifest._LINE_FIELDS.types)

    path = tmp_path / "m.npz"
    reference.save_checkpoint(reference.build_reference_model(seed=0), path)
    with np.load(path) as data:
        written = json.loads(str(data["__meta__"]))
    assert set(written) == set(reference._META_FIELDS.types)

    trace = AdaptationTrace(
        steps=(), initial_total=None, final_total=None, wall_time_s=0.0, parameters_restored=False
    )
    record = UtteranceRecord("u", "s", "ref", "hyp", count=None, trace=trace)
    row = artifacts.record_to_dict(record)
    assert set(row) == set(artifacts._RECORD_FIELDS.types)
    assert set(row["loss"]) == set(artifacts._RECORD_FIELDS.types["loss"].fields.types)
