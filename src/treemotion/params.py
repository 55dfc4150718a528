"""Flat parameter vector with a named-slice registry.

All learnable pieces of a tree (coupling-layer weights, metric networks,
learnable leaf velocities) read their coefficients from one flat vector.
The registry records which slice belongs to which component so parameters
can be serialized, diffed and updated as a single array.

Every such piece derives from :class:`Learnable`, the one place that
decides where a component's weights come from: its frozen copy, else
the slice a tree bound it to, else a ``StructureError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecFormatError, StructureError


@dataclass
class ParamVector:
    """Flat real vector of learnable parameters plus a slice registry.

    ``registry`` is a list of ``(name, offset, length)`` triples with
    disjoint, contiguous, in-order slices covering ``values`` exactly.
    """

    values: np.ndarray
    registry: list[tuple[str, int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise StructureError("parameter values must be a flat vector")
        offset = 0
        for name, off, length in self.registry:
            if off != offset or length < 0:
                raise StructureError(
                    f"registry slice for {name!r} is not contiguous/disjoint"
                )
            offset += length
        if offset != self.values.size:
            raise StructureError(
                f"registry covers {offset} values, vector has {self.values.size}"
            )

    @property
    def size(self) -> int:
        return self.values.size

    def slice_of(self, name: str) -> slice:
        for reg_name, off, length in self.registry:
            if reg_name == name:
                return slice(off, off + length)
        raise KeyError(name)

    def get(self, name: str) -> np.ndarray:
        return self.values[self.slice_of(name)]

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), list(self.registry))

    def with_values(self, values: np.ndarray) -> "ParamVector":
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise StructureError("replacement values have the wrong length")
        return ParamVector(values, list(self.registry))

    def zeros_like(self) -> np.ndarray:
        """Gradient accumulator matching this vector."""
        return np.zeros_like(self.values)

    # -- JSON round trip ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "registry": [
                {"name": n, "offset": o, "length": l} for n, o, l in self.registry
            ],
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParamVector":
        try:
            registry = [
                (str(e["name"]), int(e["offset"]), int(e["length"]))
                for e in data["registry"]
            ]
            values = np.asarray(data["values"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecFormatError(f"malformed parameter file: {exc}") from exc
        try:
            return cls(values, registry)
        except StructureError as exc:
            raise SpecFormatError(str(exc)) from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ParamVector":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecFormatError(f"parameter file is not valid JSON: {exc}")
        return cls.from_json_dict(data)


class ParamRegistryBuilder:
    """Assigns disjoint slices to named components, in registration order."""

    def __init__(self):
        self._entries: list[tuple[str, int, int]] = []
        self._chunks: list[np.ndarray] = []
        self._offset = 0

    def register(self, name: str, init: np.ndarray) -> slice:
        init = np.asarray(init, dtype=float).ravel()
        for existing, _, _ in self._entries:
            if existing == name:
                raise StructureError(f"duplicate parameter component {name!r}")
        sl = slice(self._offset, self._offset + init.size)
        self._entries.append((name, self._offset, init.size))
        self._chunks.append(init)
        self._offset += init.size
        return sl

    def build(self) -> ParamVector:
        if self._chunks:
            values = np.concatenate(self._chunks)
        else:
            values = np.zeros(0)
        return ParamVector(values, list(self._entries))


class Learnable:
    """A component whose weights are a slice of the flat parameter vector.

    Subclasses set ``n_params`` and implement ``init_values``. A tree
    binds ``param_slice`` when it is built, once per component however
    many times the component occurs in it. ``freeze()`` fixes the weights
    at ``init_values()`` instead; a frozen component takes no slice.
    """

    #: number of learnable coefficients (0 for fixed or frozen components)
    n_params: int = 0
    #: slice into the flat parameter vector, assigned at tree build time
    param_slice: slice | None = None
    _frozen: np.ndarray | None = None
    #: (weight source, views) of the last ``weight_views`` call
    _view_memo: tuple | None = None

    @property
    def is_learnable(self) -> bool:
        return self.n_params > 0

    def init_values(self) -> np.ndarray:
        """Initial weights registered into the parameter vector."""
        return np.zeros(0)

    def freeze(self) -> None:
        self._frozen = self.init_values()
        self.n_params = 0

    def weights(self, params: ParamVector | None) -> np.ndarray:
        if self._frozen is not None:
            return self._frozen
        if self.param_slice is None:
            raise StructureError(f"{type(self).__name__} has no assigned parameter slice")
        return params.values[self.param_slice]

    def weight_views(self, params: ParamVector | None, build):
        """``build(weights(params))``, built once per weight vector: kept
        while the weights are read from the same array object, the frozen
        copy or ``params.values``. ``build`` returns views of its argument,
        so writes made in place show through; a new vector rebuilds them.
        The memo is one tuple, stored by one assignment."""
        source = getattr(params, "values", None) if self._frozen is None else self._frozen
        memo = self._view_memo
        if memo is None or memo[0] is not source:
            memo = self._view_memo = (source, build(self.weights(params)))
        return memo[1]
