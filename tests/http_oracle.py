"""The reference header collection for ``repro.http.message.Headers``.

A frozen copy of ``Headers`` before it kept a lowercase-name index
beside its ordered pairs: every lookup lowercases every stored name and
scans the list.  The indexed class must answer ``get``, ``get_all``,
``in``, ``len`` and iteration exactly as this one does after any
sequence of ``add``, ``set`` and ``remove`` calls, with names in any
case.  Apart from this docstring and the class name, only ``__repr__``
and the wire serialization are left out of the original.
"""

from typing import Iterator, List, Optional, Tuple


class ReferenceHeaders:
    """Case-insensitive, order-preserving header collection."""

    def __init__(self, items: Optional[List[Tuple[str, str]]] = None):
        self._items: List[Tuple[str, str]] = []
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header (duplicates allowed, e.g. Set-Cookie)."""
        self._items.append((name, str(value)))

    def set(self, name: str, value: str) -> None:
        """Replace any existing values for ``name``."""
        self.remove(name)
        self.add(name, value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value for ``name`` (case-insensitive), or ``default``."""
        lowered = name.lower()
        for key, value in self._items:
            if key.lower() == lowered:
                return value
        return default

    def get_all(self, name: str) -> List[str]:
        """Every value for ``name``, in insertion order."""
        lowered = name.lower()
        return [value for key, value in self._items if key.lower() == lowered]

    def remove(self, name: str) -> None:
        """Delete all values for ``name``."""
        lowered = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def copy(self) -> "ReferenceHeaders":
        """Independent copy of this header collection."""
        return ReferenceHeaders(list(self._items))

    @classmethod
    def preset(cls, items: List[Tuple[str, str]]) -> "ReferenceHeaders":
        """Construct from already-normalized ``(name, str_value)`` pairs."""
        headers = cls()
        headers._items = list(items)
        return headers
