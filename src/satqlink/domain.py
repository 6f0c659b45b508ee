"""One domain rule for every numeric parameter: a value passes only if it is a
finite number inside its domain; anything else, NaN and +-inf included, raises
``ConfigError("<name> must be <domain>, got <value>")``. The packs that hold
the parameters are :class:`Record` subclasses, each of whose fields declares
its domain beside it as ``Annotated[kind, DOMAIN]``. Imports only ``math``, so
the command line catches its two errors, one per exit code, without numpy.
"""

import math


class ConfigError(ValueError):
    """A refused input of the run: unreadable, unknown, malformed or out of its domain (exit 1)."""


class SolverFailure(RuntimeError):
    """A phase propagator failed to converge or ended in a non-finite state (exit 2)."""


_LEAST = math.nextafter(0.0, 1.0)  # the least positive float: (0, x] is [_LEAST, x]


class Domain:
    """The finite x with low <= x <= high, named ``text`` in a rejection."""

    def __init__(self, text: str, low: float = -math.inf, high: float = math.inf):
        self.text, self.low, self.high = text, low, high


POSITIVE = Domain("positive and finite", _LEAST)
NON_NEGATIVE = Domain("non-negative and finite", 0.0)
FINITE = Domain("finite")
PROBABILITY = Domain("in [0, 1]", 0.0, 1.0)
TRANSMISSION = Domain("in (0, 1]", _LEAST, 1.0)
ELEVATION = Domain("in (0, pi/2]", _LEAST, math.pi / 2.0)
ELEVATION_DEG = Domain("in (0, 90]", _LEAST, 90.0)
QBER = Domain("in [0, 0.5]", 0.0, 0.5)
AT_LEAST_ONE = Domain("at least 1 and finite", 1.0)
COUNT = Domain("at least 1 and within the float range", 1, math.nextafter(math.inf, 0.0))


def require(domain: Domain, **values) -> None:
    """Raise ConfigError naming the first of ``values`` outside ``domain`` (an int of any size too)."""
    for name, value in values.items():
        if not (abs(value) < math.inf and domain.low <= value <= domain.high):
            raise ConfigError(f"{name} must be {domain.text}, got {value}")


class Record:
    """Base of the frozen parameter and result records.

    The attributes annotated in a subclass's own body are its fields, in
    order, and their class values the defaults. A field annotated
    ``Annotated[kind, domain]`` is checked by :func:`require` against that
    :class:`Domain`; one whose default is ``None`` may also be ``None``.
    Construction takes the fields by position or keyword, checks each
    declared domain in field order, then runs ``__post_init__`` if the
    class has one, which is left for rules that join fields. A field can
    be neither assigned nor deleted; ``==`` holds only between records of
    one type; ``hash`` is that of the tuple of field values and ``repr``
    reads ``Name(field=value, ...)``. Nothing is generated by ``exec``, so
    a record class costs no more to build than a plain one.
    """

    _fields = ()  # the field names in order, set on each subclass
    _domains = {}  # field name -> its Domain, for the fields that declare one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations: on 3.10, cls.__annotations__ can be a base's
        namespace = cls.__dict__
        annotations = namespace.get("__annotations__", {})
        cls._fields = tuple(annotations)
        cls._defaults = {name: namespace[name] for name in cls._fields if name in namespace}
        cls._domains = {name: kind.__metadata__[0] for name, kind in annotations.items()
                        if hasattr(kind, "__metadata__")}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(cls._fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in cls._fields if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(missing)}")
        fields = self.__dict__
        fields.update({name: values.get(name, cls._defaults.get(name)) for name in cls._fields})
        for name, domain in cls._domains.items():
            if fields[name] is not None or cls._defaults.get(name, ()) is not None:  # None only as the default
                require(domain, **{name: fields[name]})
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes`` applied, validated again."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})
