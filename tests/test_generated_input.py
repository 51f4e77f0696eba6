"""Generated bad input: the CLI ends in a documented exit code, never a traceback.

Hypothesis mutates small valid inputs of `analyze`: a two-asset synthetic
config and a two-asset tick config (fields set to a pool of hostile values,
deleted, or joined by unknown keys), and one tick file of the tick config
(byte flips, deletions and insertions of `\\r`, quotes, commas, non-UTF-8
bytes, huge numbers and repeated headers).
The property: `cli.main` returns 0, 2, 3 or 4, no exception or warning
escapes, and exit 0 leaves complete output: a directory whose manifest lists
every file in it.

Sizes are bounded by construction, so no example allocates more than a few
MB. The synthetic assets are 2,048 samples long, and every length or grid
size in the value pool (2**63, 1e300) puts sample times past int64 or the
n grid past its 10,000-value limit, which the config check rejects before
anything is built; a small delta_s only moves the horizons past the data.
The tick config samples daily, so a mutated tick anywhere in int64 time
gives a grid of at most about 2.2e5 samples. Its delta_s is never set to a
positive value under a day (1 and 0.5 in the pool), which would grid two
months of ticks into millions of samples; every other value in the pool is
rejected, and no other field of it sets the grid's size.
"""

import copy
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entroport.cli import main
from entroport.config import load_config

DOCUMENTED_EXITS = (0, 2, 3, 4)

SYNTH_CONFIG = {
    "assets": [{"name": f"SYN{seed}", "synth": {"kind": "fbm", "hurst": 0.5,
                                                "length": 2048, "seed": seed}}
               for seed in (1, 2)],
    "delta_s": 3600,
    "year_start": "2018-01-01",
    "n_grid_s": {"min": 7200, "max": 14400, "step": 3600},
    "volatility_windows_s": [10800],
    "horizons": [1, 2],
    "min_clusters": 10,
    "output_dir": "out",
    # the defaults, written out so that they are mutated too
    "aggregation": "sum", "horizon_mode": "expanding", "return_kind": "simple",
}
SYNTH_CONFIG["assets"][0]["synth"]["price_scale"] = 0.001

TICK_CONFIG = {
    "assets": [{"name": "A", "ticks": "a.csv"}, {"name": "B", "ticks": "b.csv"}],
    "delta_s": 86400,
    "year_start": "2018-01-01",
    "n_grid_s": {"min": 172800, "max": 345600, "step": 86400},
    "volatility_windows_s": [172800],
    "horizons": [1, 2],
    "min_clusters": 3,
    "output_dir": "out",
}

VALUES = [None, True, False, 0, 1, -1, 0.5, 2 ** 63, -2 ** 63, 1e300, -1e300,
          math.nan, math.inf, "", "x", "n", "o\x00ut", "\x1f", [], [1], {}, {"x": 1}]


def _tick_bytes(seed: int) -> bytes:
    """About 1,700 ticks from 2018-01-01 on, an hour apart on average, past two months."""
    rng = np.random.default_rng(seed)
    gaps = np.rint(rng.exponential(3600e9, 1700)).astype(np.int64)
    gaps[0] = 0
    stamps = 1514764800 * 10 ** 9 + np.cumsum(gaps)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, len(stamps))))
    lines = [f"{t},{p!r}" for t, p in zip(stamps.tolist(), prices.tolist())]
    return ("timestamp_ns,price\n" + "\n".join(lines) + "\n").encode("ascii")


TICKS_A, TICKS_B = _tick_bytes(1), _tick_bytes(2)


def _paths(node, prefix=()):
    """The path of every node of a JSON tree, the root's () included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutated(base, edits):
    """base with each (path, op, value) edit applied in turn.

    op "set" puts value at path, "delete" removes it, "unknown" adds the key
    "unknown" with value beside it; an edit whose path an earlier one removed
    does nothing. Each value is copied, so no edit reaches VALUES or base.
    """
    cfg = copy.deepcopy(base)
    for path, op, value in edits:
        value = copy.deepcopy(value)
        if not path:
            cfg = value if op == "set" else cfg
            continue
        parent = cfg
        try:
            for key in path[:-1]:
                parent = parent[key]
            if op == "set":
                parent[path[-1]] = value
            elif op == "delete":
                del parent[path[-1]]
            elif isinstance(parent, dict):
                parent["unknown"] = value
        except (KeyError, IndexError, TypeError):
            pass
    return cfg


config_edits = st.lists(st.tuples(st.sampled_from(list(_paths(SYNTH_CONFIG))),
                                  st.sampled_from(["set", "set", "delete", "unknown"]),
                                  st.sampled_from(VALUES)), min_size=1, max_size=3)

#: the pool without a positive delta_s under a day (see the module docstring)
DAILY_DELTA_VALUES = [v for v in VALUES if not (type(v) in (int, float) and 0 < v < 86400)]

tick_config_edits = st.lists(st.sampled_from(list(_paths(TICK_CONFIG))).flatmap(
    lambda path: st.tuples(st.just(path), st.sampled_from(["set", "set", "delete", "unknown"]),
                           st.sampled_from(DAILY_DELTA_VALUES if path == ("delta_s",)
                                           else VALUES))), min_size=1, max_size=3)


TOKENS = [b"\r", b"\r\n", b'"', b",", b"\xff", b"\xc3", b"\x00", b"\x1c", b" ", b"#",
          b"-", b"+", b"_", b"\n", b"nan", b"inf", b"1e300", b"9" * 18, b"9" * 20,
          b"timestamp_ns,price\n"]

byte_edits = st.lists(st.tuples(
    st.integers(min_value=0, max_value=2 ** 20), st.sampled_from(["flip", "insert", "delete"]),
    st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=3))),
    min_size=1, max_size=4)


def _mutated_bytes(data: bytes, edits) -> bytes:
    """data with each (position, op, token) edit applied in turn; position wraps."""
    for pos, op, token in edits:
        pos %= len(data) + 1
        if op == "insert":
            data = data[:pos] + token + data[pos:]
        elif op == "delete":
            data = data[:pos] + data[pos + len(token):]
        elif pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ (token[0] or 1)]) + data[pos + 1:]
    return data


def _analyze(config, files=None) -> int:
    """main(["analyze", ...]) on config (and files) in a fresh working directory.

    Asserts the property: a documented exit code, no warning, and on exit 0 a
    manifest that lists every file of the output directory.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        inputs, run = Path(tmp, "inputs"), Path(tmp, "run")
        inputs.mkdir()
        run.mkdir()
        for name, data in (files or {}).items():
            (inputs / name).write_bytes(data)
        path = inputs / "config.json"
        path.write_text(json.dumps(config))
        os.chdir(run)  # a relative output_dir, mutated or not, stays in tmp
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["analyze", str(path)])
            assert code in DOCUMENTED_EXITS
            assert not caught, [str(w.message) for w in caught]
            if code == 0:
                out = load_config(path).output_dir
                manifest = json.loads((out / "manifest.json").read_text())
                assert sorted(os.listdir(out)) == sorted(manifest["outputs"] + ["manifest.json"])
        finally:
            os.chdir(cwd)
    return code


def test_edits_leave_the_value_pool_alone():
    pool = copy.deepcopy(VALUES)
    _mutated(SYNTH_CONFIG, [((), "set", VALUES[-1]), (("length",), "set", VALUES[-3])])
    assert VALUES == pool and SYNTH_CONFIG["assets"][0]["synth"]["length"] == 2048


def test_the_unmutated_inputs_run():
    assert _analyze(SYNTH_CONFIG) == 0
    assert _analyze(TICK_CONFIG, {"a.csv": TICKS_A, "b.csv": TICKS_B}) == 0


@settings(deadline=None, max_examples=300)
@given(config_edits)
def test_mutated_synth_config_exits_with_a_documented_code(edits):
    _analyze(_mutated(SYNTH_CONFIG, edits))


@settings(deadline=None, max_examples=300)
@given(tick_config_edits)
def test_mutated_tick_config_exits_with_a_documented_code(edits):
    _analyze(_mutated(TICK_CONFIG, edits), {"a.csv": TICKS_A, "b.csv": TICKS_B})


@settings(deadline=None, max_examples=200)
@given(byte_edits)
def test_mutated_tick_file_exits_with_a_documented_code(edits):
    _analyze(TICK_CONFIG, {"a.csv": _mutated_bytes(TICKS_A, edits), "b.csv": TICKS_B})
