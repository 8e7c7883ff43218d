"""Bases of the record classes, giving what the standard library's record
decorator would generate without its import, which loads inspect, ast and
dis at every start-up. A subclass's fields are the positional parameters of
its __init__, which sets them."""

import operator


def _compare(op):
    def compare(self, other):  # only within one class, as generated
        if other.__class__ is self.__class__:
            return op(self._values(), other._values())
        return NotImplemented
    return compare


class Value:
    """A mutable record: unhashable, as it defines __eq__ and no __hash__."""

    __eq__ = _compare(operator.eq)

    def __init_subclass__(cls):
        if init := vars(cls).get("__init__"):  # a record, not Frozen or Ordered
            cls.__match_args__ = init.__code__.co_varnames[1:init.__code__.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    """An immutable record hashed as its field tuple; __init__ stores past __setattr__."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Ordered(Frozen):
    """A Frozen record ordered as its field tuple."""

    __lt__, __le__, __gt__, __ge__ = map(_compare, (operator.lt, operator.le, operator.gt,
                                                    operator.ge))
