"""Output checks for one `analyze` run.

check_invariants holds for any seed: the manifest lists every output, row
counts match the config, and each (method, horizon, T) weight vector is
non-negative and sums to 1. compare_reference holds for the recorded seed:
every CSV matches the stored reference, keys and integer columns exactly and
floats within REL_TOL / ABS_TOL.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from collections import defaultdict
from itertools import product
from pathlib import Path

#: float tolerance against the stored reference; integer and text fields match exactly
REL_TOL = 1e-9
ABS_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9

OUTPUT_CSVS = ("entropy_curves.csv", "indices_by_n.csv", "indices_aggregated.csv",
               "weights.csv", "diagnostics.csv")
SHARPE = "max_sharpe"
METHODS = {"cluster_entropy_high", "cluster_entropy_low", SHARPE, "naive_1_over_N"}


def sha256_outputs(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of a CSV output, header excluded."""
    lines = Path(path).read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line]


def n_grid_samples(cfg: dict) -> list[int]:
    g = cfg["n_grid_s"]
    return [n // cfg["delta_s"] for n in range(g["min"], g["max"] + 1, g["step"])]


def check_invariants(out_dir: Path, cfg: dict) -> list[str]:
    """Problems found in a finished run directory; empty when it is sound."""
    out_dir = Path(out_dir)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    listed = set(manifest.get("outputs", []))
    present = {p.name for p in out_dir.iterdir() if p.is_file()} - {"manifest.json"}
    problems = []
    if listed != present:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(present)}")
    missing = [name for name in OUTPUT_CSVS if name not in present]
    if missing:
        return problems + [f"missing outputs {missing}"]

    names = [a["name"] for a in cfg["assets"]]
    horizons = [str(m) for m in cfg["horizons"]]
    windows = [str(t) for t in cfg["volatility_windows_s"]]
    cells = set(product(names, horizons, windows))
    grid = {str(n) for n in n_grid_samples(cfg)}

    agg = [tuple(r[:3]) for r in read_rows(out_dir / "indices_aggregated.csv")]
    if len(agg) != len(cells) or set(agg) != cells:
        problems.append(f"indices_aggregated.csv: {len(agg)} rows for {len(cells)} cells")

    by_n = [tuple(r[:4]) for r in read_rows(out_dir / "indices_by_n.csv")]
    if len(set(by_n)) != len(by_n):
        problems.append("indices_by_n.csv: duplicate (asset, horizon, T, n) rows")
    if any(k[:3] not in cells or k[3] not in grid for k in by_n):
        problems.append("indices_by_n.csv: key outside the configured sweep")
    if {k[:3] for k in by_n} != cells:
        problems.append("indices_by_n.csv: a cell has no n point")
    curve_keys = {tuple(r[:4]) for r in read_rows(out_dir / "entropy_curves.csv")}
    if curve_keys != set(by_n):
        problems.append("entropy_curves.csv and indices_by_n.csv cover different n points")

    groups: dict[tuple, dict[str, float]] = defaultdict(dict)
    for method, m, t_s, asset, w in read_rows(out_dir / "weights.csv"):
        if asset in groups[(method, m, t_s)]:
            problems.append(f"weights.csv: {asset} twice in {(method, m, t_s)}")
        groups[(method, m, t_s)][asset] = float(w)
    for key, ws in sorted(groups.items()):
        if key[0] not in METHODS or key[1:] not in set(product(horizons, windows)):
            problems.append(f"weights.csv: unexpected group {key}")
        if sorted(ws) != sorted(names):
            problems.append(f"weights.csv: {key} covers {sorted(ws)}")
        if min(ws.values()) < 0 or abs(sum(ws.values()) - 1.0) > WEIGHT_SUM_TOL:
            problems.append(f"weights.csv: {key} is not on the simplex "
                            f"(min {min(ws.values())!r}, sum {sum(ws.values())!r})")
    skipped = sum("max_sharpe skipped" in w for w in manifest.get("warnings", []))
    for method in METHODS:
        expected = len(horizons) * len(windows) - (skipped if method == SHARPE else 0)
        found = sum(1 for k in groups if k[0] == method)
        if found != expected:
            problems.append(f"weights.csv: {found} {method} groups, expected {expected}")
    diag = [tuple(r[:3]) for r in read_rows(out_dir / "diagnostics.csv")]
    if sorted(diag) != sorted(groups):
        problems.append("diagnostics.csv rows do not match the weight groups")
    return problems


def _field_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        int(want)
        return False            # integer fields match exactly
    except ValueError:
        pass
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False            # text fields match exactly
    return math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_reference(out_dir: Path, ref_dir: Path) -> list[str]:
    """Differences between a run's CSVs and the gzipped reference CSVs."""
    problems = []
    refs = sorted(Path(ref_dir).glob("*.csv.gz"))
    if not refs:
        return [f"no reference CSVs under {ref_dir}"]
    for ref in refs:
        name = ref.name[:-len(".gz")]
        try:
            got = (Path(out_dir) / name).read_text().splitlines()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        want = gzip.decompress(ref.read_bytes()).decode().splitlines()
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} lines, reference has {len(want)}")
            continue
        for line_no, (g, w) in enumerate(zip(got, want), start=1):
            gf, wf = g.split(","), w.split(",")
            if len(gf) != len(wf) or not all(map(_field_matches, gf, wf)):
                problems.append(f"{name} line {line_no}: {g!r} != reference {w!r}")
                break
    return problems
