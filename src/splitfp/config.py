"""The problem schema: a JSON ``problem`` document read into a ProblemSpec.

One table per config object maps each key to the parser of its value,
``parse(value, path)``; every error is a ValidationError naming a JSON path.
The presets are documents in this schema, and a run config's ``problem``
object is one.
"""

import math
import sys
from dataclasses import fields
from functools import partial

from .operators import (FixedPointMap, SequenceSpec, class_from_token, map_from_rule,
                        operator_catalog)
from .problems import ProblemSpec, ValidationError
from .projections import Ball, Box, ConvexBody, Halfspace, Intersection, WholeSpace
from .rules import Piecewise1D, Rational1D
from .spaces import LinearMap

__all__ = ["build_spec_from_config"]


def _check_keys(doc, known, path=""):
    """Raise a ValidationError naming each key of ``doc`` not in ``known``."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValidationError("unknown keys %s (known: %s)" % (
            ", ".join(path + key for key in unknown), ", ".join(known)))


def _kind(test, what):
    """The parser of a JSON value that ``test`` accepts, as it is."""
    def parse(value, path):
        if not test(value):
            raise ValidationError("%s: expected %s, got %r"
                                  % (path or "top level", what, value))
        return value
    return parse


def _real(v):   # a JSON number a double holds: no bool, no NaN, no huge integer
    return (isinstance(v, float) and v == v or isinstance(v, int)
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


def _parse(parse, value, path):
    """``parse(value, path)``; a ValueError or TypeError it raises names the path."""
    try:
        return parse(value, path)
    except ValidationError:
        raise
    except (ValueError, TypeError) as err:
        raise ValidationError("%s: %s" % (path, err)) from None


def _object(make, table, value, path):
    """``make(**parsed)`` of a JSON object, read key by key through ``table``."""
    _check_keys(_dict(value, path), table, path + "." if path else "")
    return make(**{key: _parse(table[key], v, path + "." + key if path else key)
                   for key, v in value.items()})


def _list(item, value, path):
    return tuple(_parse(item, v, "%s[%d]" % (path, i))
                 for i, v in enumerate(_array(value, path)))


def _bounds(default):   # null is unbounded, and float() reads a string such as "inf"
    return partial(_list, lambda v, path: default if v is None else _number(
        float(v) if isinstance(v, str) else v, path))


def _set(value, path):
    body = _object(dict, _SET, value, path)
    if len(body) != 1:
        raise ValidationError("%s: a set takes one key of %s" % (path, ", ".join(_SET)))
    kind, body = body.popitem()
    if body._empty:   # an intersection of non-empty members is found empty at run time
        raise ValidationError("%s.%s: %r is empty" % (path, kind, body))
    return body


def _make_rule(**doc):
    return (Piecewise1D if "breakpoint" in doc else Rational1D)(**doc)


def _operator(value, path, cat):
    """A catalog id, ``{"catalog": id}``, or an inline rule with its map's keys."""
    value = {"catalog": value} if isinstance(value, str) else value
    doc = _object(dict, _OPERATOR, value, path)
    if "catalog" in doc:
        _check_keys(doc, ("catalog",), path + ".")
        known = _kind(cat.__contains__, "a catalog operator")
        return cat[known(doc["catalog"], path + ".catalog")]
    rule = _make_rule(**{key: doc.pop(key) for key in _RULE if key in doc})
    return map_from_rule(rule, doc.get("domain", WholeSpace(1)), doc.get("class"),
                         [[v] for v in doc.get("fixed_points", ())],
                         doc.get("name", "inline"), doc.get("extra_classes", ()))


def _sequence(value, path):
    """A number, or {"constant": c}, {"table": [...], "tail": t} or {"formula": f}."""
    if not _real(value) and sorted(_object(dict, _SEQUENCE, value, path)) not in (
            ["constant"], ["formula"], ["table", "tail"]):
        raise ValidationError("%s: a sequence takes the keys constant, table and tail, "
                              "or formula" % path)
    return SequenceSpec.from_config(value)


def build_spec_from_config(problem):
    """Build a ProblemSpec from the ``problem`` object of a run config."""
    operator = partial(_operator, cat=operator_catalog())
    kinds = _KINDS | {FixedPointMap | None: operator,
                      tuple[FixedPointMap, ...]: partial(_list, operator)}
    table = {key: kinds[kind] for key, kind in _PROBLEM_TYPES.items()}
    kwargs = {_FIELD.get(key, key): v
              for key, v in _object(dict, table, problem, "problem").items()}
    if "family" not in kwargs:
        raise ValidationError("problem.family: missing")
    try:
        return ProblemSpec(**kwargs)
    except (ValueError, TypeError) as err:
        slot, colon, _ = str(err).partition(": ")   # "C: ...", "U_family[0]: ..."
        named = colon and slot.partition("[")[0] in _PROBLEM_TYPES
        raise ValidationError(("problem." if named else "problem: ") + str(err)) from None


# the schema: JSON kinds, then the tables
_number = _kind(_real, "a number")
_integer = _kind(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_string = _kind(lambda v: isinstance(v, str), "a string")
_boolean = _kind(lambda v: isinstance(v, bool), "true or false")
_dict = _kind(lambda v: isinstance(v, dict), "an object")
_array = _kind(lambda v: isinstance(v, list), "a list")
_vector = partial(_list, _number)
_finites = partial(_list, _kind(lambda v: _real(v) and math.isfinite(v), "a finite number"))
# an infinite offset or radius is the whole space; an infinite normal or
# centre describes no set
_SET = {
    "whole_space": lambda v, path: WholeSpace(_integer(v, path)),
    "box": partial(_object, Box, {"lower": _bounds(-math.inf),
                                  "upper": _bounds(math.inf)}),
    "halfspace": partial(_object, Halfspace, {"a": _finites, "b": _number}),
    "ball": partial(_object, Ball, {"center": _finites, "radius": _number}),
    "intersection": lambda v, path: Intersection(_list(_set, v, path)),
}
_RULE = {"num": _vector, "den": _vector, "breakpoint": _number, "left_closed": _boolean}
_RULE["left"] = _RULE["right"] = partial(_object, _make_rule, _RULE)
_OPERATOR = {"catalog": _string, **_RULE, "domain": _set,
             "class": lambda v, path: class_from_token(_string(v, path)),
             "fixed_points": _vector, "name": _string}
_OPERATOR["extra_classes"] = partial(_list, _OPERATOR["class"])
_SEQUENCE = {"constant": _number, "table": _vector, "tail": _number, "formula": _string}
# the parser of a ProblemSpec or StoppingRule field, by its annotation
_KINDS = {
    str: _string, int: _integer, bool: _boolean, tuple[float, ...]: _vector,
    float | None: _kind(lambda v: v is None or _real(v), "a number or null"),
    tuple | None: partial(_list, lambda v, path: (   # x*, or [x*, y*]
        _vector if isinstance(v, list) else _number)(v, path)),
    LinearMap | None: lambda v, path: LinearMap(_list(_vector, v, path)),
    ConvexBody | None: _set, SequenceSpec | None: _sequence,
}
# run-config keys that set a ProblemSpec field of another name
_FIELD = {"reference": "reference_solution", "wq_branch": "branch_assignment",
          "gamma_bound": "gamma_bound_choice"}
# the annotation of the field each ``problem`` key sets
_PROBLEM_TYPES = {"reference" if f.name == "reference_solution" else f.name: f.type
                  for f in fields(ProblemSpec) if f.init}
