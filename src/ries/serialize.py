"""JSON and CSV conventions for matrices, reports and time series.

Complex scalars are stored as ``[re, im]`` pairs; matrices are row-major
nested lists of such pairs. All JSON emitted by this package is written
with sorted keys and a fixed float format so identical inputs give
byte-identical files, and is standard JSON: a float that is NaN or
infinite is written as null.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from typing import Any

import numpy as np


def is_real(x: Any) -> bool:
    """A finite real JSON number: bools, and integers too large for a float, excluded."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def is_int(x: Any, low: int) -> bool:
    """A JSON integer >= `low` (bools excluded)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def check_fields(doc: Any, allowed: Iterable[str], where: str, one_of: tuple = ()) -> None:
    """`doc` is a JSON object with keys from `allowed`, and exactly one of `one_of` (if
    given); anything else is a ValueError naming `where`, the object's path."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")
    if one_of and (one_of[0] in doc) == (one_of[1] in doc):
        raise ValueError(f"{where} needs exactly one of {one_of[0]!r} or {one_of[1]!r}")


_NUMBER_TYPES = {int, float}  # exact types: a JSON true or false is a bool, which is no number here


def matrix_from_json(data: Any, name: str = "matrix") -> np.ndarray:
    """A complex matrix from row-major nested lists of [re, im] pairs of finite numbers.

    Anything else is a ValueError that names the first entry that is not
    such a pair, or says that the rows differ in length.
    """
    if type(data) is list and all(type(row) is list for row in data):
        pairs = [entry for row in data for entry in row]
        if all(type(entry) is list and len(entry) == 2 for entry in pairs):
            numbers = [x for entry in pairs for x in entry]
            try:
                finite = {type(x) for x in numbers} <= _NUMBER_TYPES and all(map(math.isfinite, numbers))
            except OverflowError:  # an integer past the float range
                finite = False
            if finite:
                if len({len(row) for row in data}) != 1:
                    raise ValueError(f"{name}: expected a matrix, rows of equal length")
                return np.array(numbers, dtype=float).view(complex).reshape(len(data), -1)
    raise ValueError(_first_bad_entry(data, name))


def _first_bad_entry(data: Any, name: str) -> str:
    if isinstance(data, list) and all(isinstance(row, list) for row in data):
        for i, row in enumerate(data):
            for j, entry in enumerate(row):
                if not (isinstance(entry, list) and len(entry) == 2 and all(map(is_real, entry))):
                    return f"{name}[{i}][{j}] must be an [re, im] pair of finite numbers, got {entry!r}"
    return f"{name}: expected a matrix, as nested lists of [re, im] pairs"


def _finite_or_null(obj: Any) -> Any:
    """`obj` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def dump_json(obj: Any, path: str) -> None:
    """Standard JSON: a NaN or infinite float is written as null, never as a NaN token."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path: str, header: list[str], rows) -> None:
    """A header row and rows of Python ints and floats, byte for byte as ``csv.writer``
    writes them: each number as its repr, and every line ended by \\r\\n."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
