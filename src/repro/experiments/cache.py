"""Content-addressed on-disk cache for experiment results.

Every concrete run is keyed by a SHA-256 *spec hash* over the
experiment id, its expanded axis parameters and a model-version salt
(:data:`CACHE_SALT`).  Unchanged experiments are therefore served from
``out/.cache/`` instantly on re-run; bumping the salt (done whenever
the power models change behaviour) invalidates every entry at once.

Results are stored as JSON — :class:`ExperimentResult` round-trips
losslessly because Python's JSON encoder emits ``repr``-exact floats.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro import __version__
from repro.reporting.result import ExperimentResult

__all__ = [
    "CACHE_SALT",
    "DEFAULT_CACHE_DIR",
    "spec_hash",
    "canonical_params",
    "result_to_dict",
    "result_from_dict",
    "ResultCache",
]

#: cache-key salt: package version + a schema generation bumped on
#: model changes that alter results without changing the spec
CACHE_SALT = f"repro-{__version__}-engine-v2"

#: default on-disk location, relative to the working directory
DEFAULT_CACHE_DIR = os.path.join("out", ".cache")


def _canonical(value: Any) -> Any:
    """Reduce a parameter value to a JSON-stable representation."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # dataclass-like configs (SyntheticTableConfig, ...) hash by repr
    return repr(value)


def canonical_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """JSON-stable form of a run's expanded axis parameters."""
    return {name: _canonical(value) for name, value in sorted(params.items())}


def spec_hash(experiment_id: str, params: Mapping[str, Any], salt: str = CACHE_SALT) -> str:
    """Content hash identifying one concrete run of one experiment."""
    payload = json.dumps(
        {"id": experiment_id, "params": canonical_params(params), "salt": salt},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """Serialize a result to a JSON-compatible dict."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "x_label": result.x_label,
        "x_values": np.asarray(result.x_values, dtype=float).tolist(),
        "series": [
            {"label": s.label, "values": np.asarray(s.values, dtype=float).tolist()}
            for s in result.series
        ],
        "notes": list(result.notes),
    }


def result_from_dict(payload: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    result = ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        x_label=payload["x_label"],
        x_values=np.asarray(payload["x_values"], dtype=float),
    )
    for series in payload["series"]:
        result.add_series(series["label"], series["values"])
    for note in payload["notes"]:
        result.add_note(note)
    return result


class ResultCache:
    """Content-addressed experiment-result store under ``root``.

    Entries live at ``<root>/<hash[:2]>/<hash>.json`` so directories
    stay small.  A disabled cache ignores both reads and writes, which
    is how ``--no-cache`` is implemented.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR, *, enabled: bool = True) -> None:
        self.root = root
        self.enabled = enabled

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> ExperimentResult | None:
        """Cached result for ``key``, or ``None`` on miss/disabled."""
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            return result_from_dict(payload)
        except (KeyError, TypeError):
            return None  # stale/corrupt entry: treat as a miss

    def put(self, key: str, result: ExperimentResult) -> None:
        """Store ``result`` under ``key`` (atomic rename)."""
        if not self.enabled:
            return
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(result_to_dict(result), handle)
        os.replace(tmp, path)
