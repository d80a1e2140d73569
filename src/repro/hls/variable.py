"""HLS variable registry: modules, offsets, declaration constraints.

The paper identifies an HLS variable by ``(module, offset)``: "A
variable is identified by the two arguments: the module which
corresponds to the program or the library where the variable is
declared and its offset in the memory area" (section IV-A).  This
module reproduces that layout: variables are declared into
:class:`HLSModule` compilation units which assign densely packed,
aligned offsets; the linker's job of filling module ids is played by
:class:`HLSRegistry`.

Declaration constraints follow OpenMP ``threadprivate`` (section
II-B1): the variable must be "global" (here: registry-level, not local
to a task), must not have been accessed yet, and can be declared HLS at
most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.machine.scopes import ScopeSpec


class HLSDeclarationError(ValueError):
    """Invalid HLS declaration (duplicate, already accessed, unknown...)."""


#: Pseudo-scope for non-HLS globals: one copy per MPI task (the MPC TLS
#: privatization of section VI).  Represented as None in ScopeSpec terms.
PRIVATE = None

_ALIGN = 64


@dataclass
class HLSVariable:
    """One global variable, possibly HLS."""

    name: str
    module: int
    offset: int
    dtype: np.dtype
    shape: Tuple[int, ...]
    scope: Optional[ScopeSpec]       # None = private per task
    initializer: Optional[Callable[[], np.ndarray]] = None
    accessed: bool = False           # set on first get-address
    #: bytes the variable stands for in *memory accounting*; defaults to
    #: the real buffer size.  Lets the memory-footprint experiments use
    #: the paper's true sizes (a 128MB EOS table) while backing them
    #: with small live arrays -- the simulator never needs the bytes,
    #: only the layout and the accounting.
    virtual_bytes: Optional[int] = None
    #: size of the live buffer; shape and dtype are fixed at declare
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    @property
    def accounting_bytes(self) -> int:
        return self.virtual_bytes if self.virtual_bytes is not None else self.nbytes

    @property
    def is_hls(self) -> bool:
        return self.scope is not None

    def initial_value(self) -> np.ndarray:
        """Materialise the initial contents (zeros by default)."""
        if self.initializer is None:
            return np.zeros(self.shape, dtype=self.dtype)
        val = np.asarray(self.initializer(), dtype=self.dtype)
        if val.shape != self.shape:
            raise HLSDeclarationError(
                f"initializer for {self.name!r} produced shape {val.shape}, "
                f"declared {self.shape}"
            )
        return val


class HLSModule:
    """One compilation unit: a packed sequence of global variables."""

    def __init__(self, module_id: int, name: str = "") -> None:
        self.module_id = module_id
        self.name = name or f"module{module_id}"
        self.variables: Dict[str, HLSVariable] = {}
        self._cursor = 0

    def add(
        self,
        name: str,
        *,
        shape: Tuple[int, ...],
        dtype: Any,
        scope: Optional[ScopeSpec],
        initializer: Optional[Callable[[], np.ndarray]] = None,
        virtual_bytes: Optional[int] = None,
    ) -> HLSVariable:
        if name in self.variables:
            raise HLSDeclarationError(f"variable {name!r} already declared")
        dt = np.dtype(dtype)
        offset = (self._cursor + _ALIGN - 1) & ~(_ALIGN - 1)
        var = HLSVariable(
            name=name, module=self.module_id, offset=offset,
            dtype=dt, shape=tuple(int(s) for s in shape),
            scope=scope, initializer=initializer, virtual_bytes=virtual_bytes,
        )
        self._cursor = offset + var.nbytes
        self.variables[name] = var
        return var

    @property
    def image_bytes(self) -> int:
        """Size of this module's data image (real backing buffer)."""
        return max(self._cursor, 1)

    @property
    def accounting_bytes(self) -> int:
        """Bytes this image stands for in memory accounting (virtual
        sizes included)."""
        extra = sum(
            v.accounting_bytes - v.nbytes
            for v in self.variables.values()
            if v.virtual_bytes is not None
        )
        return self.image_bytes + extra

    def by_offset(self, offset: int) -> HLSVariable:
        for var in self.variables.values():
            if var.offset == offset:
                return var
        raise KeyError(f"no variable at offset {offset} in {self.name}")


class HLSRegistry:
    """All modules of one program; resolves names to variables."""

    def __init__(self) -> None:
        self.modules: List[HLSModule] = []
        self._by_name: Dict[str, HLSVariable] = {}
        self.new_module("main")

    def new_module(self, name: str = "") -> HLSModule:
        mod = HLSModule(len(self.modules), name)
        self.modules.append(mod)
        return mod

    def declare(
        self,
        name: str,
        *,
        shape: Tuple[int, ...] = (),
        dtype: Any = np.float64,
        scope: Optional[ScopeSpec] = None,
        initializer: Optional[Callable[[], np.ndarray]] = None,
        module: Optional[HLSModule] = None,
        virtual_bytes: Optional[int] = None,
    ) -> HLSVariable:
        """Declare a global variable; scalars use ``shape=()``."""
        if name in self._by_name:
            raise HLSDeclarationError(f"variable {name!r} already declared")
        mod = module if module is not None else self.modules[0]
        shape = shape if shape else (1,)
        var = mod.add(
            name, shape=shape, dtype=dtype, scope=scope,
            initializer=initializer, virtual_bytes=virtual_bytes,
        )
        self._by_name[name] = var
        return var

    def set_scope(self, name: str, scope: ScopeSpec) -> HLSVariable:
        """Mark an existing variable HLS: the `#pragma hls scope(...)`
        path.  Refused once the variable has been accessed (same rule as
        threadprivate)."""
        var = self[name]
        if var.accessed:
            raise HLSDeclarationError(
                f"variable {name!r} was already accessed; too late to mark HLS"
            )
        if var.scope is not None:
            raise HLSDeclarationError(f"variable {name!r} is already HLS ({var.scope})")
        var.scope = scope
        return var

    def __getitem__(self, name: str) -> HLSVariable:
        try:
            return self._by_name[name]
        except KeyError:
            raise HLSDeclarationError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        return list(self._by_name)

    def hls_variables(self) -> List[HLSVariable]:
        return [v for v in self._by_name.values() if v.is_hls]

    def hls_bytes(self) -> int:
        """Total footprint of one copy of every HLS variable -- the
        quantity the per-node memory saving is proportional to.
        Virtual (accounting) sizes count here."""
        return sum(v.accounting_bytes for v in self.hls_variables())


__all__ = [
    "HLSDeclarationError",
    "HLSVariable",
    "HLSModule",
    "HLSRegistry",
    "PRIVATE",
]
