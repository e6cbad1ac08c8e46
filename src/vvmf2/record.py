"""Frozen records: the one base class of the package's plain data types.

``class X(Record):`` with annotated fields is a frozen value type, as
``@dataclass(frozen=True)`` would make it, without the standard library's
dataclass module (which imports ``inspect``, ``ast`` and ``dis`` and
compiles code for every class, a large share of a command's start-up).
The fields are the annotations of the records in the class's MRO, base
first and each in order, and a class attribute with a field's name is
that field's default, which a subclass inherits.  A record is built
from positional or keyword arguments and then runs
``__post_init__``; ``==`` and ``hash`` compare the class and the field
values (the hash is computed once per record), and ``repr`` reads as
the dataclass one.  Records keep an instance ``__dict__``, so
``functools.cached_property`` works on them.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotated, cls._defaults = {}, {}  # base first along the MRO, as a dataclass collects them
        for klass in reversed(cls.__mro__[: cls.__mro__.index(Record)]):
            own = klass.__dict__
            for n in own.get("__annotations__", ()):
                annotated[n] = None
                if n in own:
                    cls._defaults[n] = own[n]
        cls._fields = names = tuple(annotated)
        cls._key = attrgetter(*names) if names else staticmethod(lambda rec: ())
        if "__eq__" in cls.__dict__ and cls.__dict__.get("__hash__") is None:
            cls.__hash__ = Record.__hash__  # an own __eq__ keeps the field hash, as in a frozen dataclass

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)  # not through __dict__, which would slow every later read
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call with keywords or defaults; TypeError for a bad call."""
        names = cls._fields
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        unknown, repeated = kwargs.keys() - names, kwargs.keys() & names[: len(args)]
        if len(args) > len(names) or unknown or repeated or len(values) < len(names):
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(names)}), "
                            f"got {len(args)} positional and the keywords {sorted(kwargs)}")
        return [values[n] for n in names]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # the first call: the fields never change, so neither does their hash
            _set(self, "_hash", hash(self._key(self)))
            return self._hash

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(rec: Record, **changes) -> Record:
    """A copy of rec with some fields changed; the copy runs its checks again."""
    return type(rec)(**{**{n: getattr(rec, n) for n in rec._fields}, **changes})
