"""Tick bytes parsed from a file on disk, the way a run reads them."""

import tempfile
from pathlib import Path

from entroport import parse_ticks


def parse_tick_file(data: bytes, name: str = "ticks.csv", parse=parse_ticks):
    """parse(path) of a new temporary file called `name` that holds `data`.

    A plain function rather than a tmp_path fixture, because Hypothesis
    rejects function-scoped fixtures in its tests.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, name)
        path.write_bytes(data)
        return parse(path)
