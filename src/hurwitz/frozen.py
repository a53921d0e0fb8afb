"""The value types' one base class, in place of ``dataclasses``, whose import
(it pulls in ``inspect``) and class building every CLI process would pay."""

__all__ = ["Frozen"]


class Frozen:
    """Fields named by ``__slots__`` in ``__init__``'s order, which sets them
    with ``object.__setattr__``.  Instances compare, hash, print and pickle
    by field values; writes and deletes raise ``AttributeError``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # rebuild through __init__, which alone sets fields
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
