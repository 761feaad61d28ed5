"""Versioned JSON shapes for the file formats the command line accepts,
plus a validator that reports failures as JSON-pointer paths.

Scalar entries appear as strings in the ``format_scalar`` grammar (or
bare integers); table objects map basis-element names to sparse columns.
"""

from .scalars import parse_scalar

_SCALAR = {"type": ["string", "integer"]}

_SPARSE_MAP = {
    "type": "object",
    "additionalProperties": {
        "type": "object",
        "additionalProperties": _SCALAR,
    },
}

_VLA_BODY = {
    "type": "object",
    "properties": {
        "format": {"const": "vla.v1"},
        "ring": {"type": ["string", "null"]},
        "central": {"type": "boolean"},
        "generators": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "weight"],
                "properties": {
                    "name": {"type": "string"},
                    "weight": {"type": ["integer", "string"]},
                    "parity": {"enum": [0, 1]},
                    "charge": {"type": "integer"},
                    "ghost": {"type": "integer"},
                },
                "additionalProperties": False,
            },
        },
        "brackets": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["a", "b", "n"],
                "properties": {
                    "a": {"type": "string"},
                    "b": {"type": "string"},
                    "n": {"type": "integer", "minimum": 0},
                    "value": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["gen", "coeff"],
                            "properties": {
                                "gen": {"type": "string"},
                                "dpow": {"type": "integer", "minimum": 0},
                                "coeff": _SCALAR,
                            },
                            "additionalProperties": False,
                        },
                    },
                    "central_coeff": _SCALAR,
                },
                "additionalProperties": False,
            },
        },
    },
    "required": ["generators"],
    "additionalProperties": False,
}

# the matter of a brst.v1 file may have no generators, as the pure-ghost
# datum has none; a vla.v1 file has one at least
_MATTER_BODY = dict(_VLA_BODY, properties=dict(
    _VLA_BODY["properties"],
    generators=dict(_VLA_BODY["properties"]["generators"], minItems=0)))

SCHEMAS = {
    "vla.v1": _VLA_BODY,
    "brst.v1": {
        "type": "object",
        "properties": {
            "format": {"const": "brst.v1"},
            "basis": {"type": "array", "minItems": 1,
                      "items": {"type": "string"}},
            "structure": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["a", "b", "terms"],
                    "properties": {
                        "a": {"type": "string"},
                        "b": {"type": "string"},
                        "terms": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["gen", "coeff"],
                                "properties": {"gen": {"type": "string"},
                                               "coeff": _SCALAR},
                                "additionalProperties": False,
                            },
                        },
                    },
                    "additionalProperties": False,
                },
            },
            "matter": _MATTER_BODY,
            "currents": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["gen", "terms"],
                    "properties": {
                        "gen": {"type": "string"},
                        "terms": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["coeff", "factors"],
                                "properties": {
                                    "coeff": _SCALAR,
                                    "factors": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["gen"],
                                            "properties": {
                                                "gen": {"type": "string"},
                                                "dpow": {
                                                    "type": "integer",
                                                    "minimum": 0},
                                            },
                                            "additionalProperties": False,
                                        },
                                    },
                                },
                                "additionalProperties": False,
                            },
                        },
                    },
                    "additionalProperties": False,
                },
            },
            "cutoff": {"type": "integer", "minimum": 0},
            "charge_window": {"type": "array", "minItems": 2,
                              "maxItems": 2,
                              "items": {"type": "integer"}},
            "ghost_charges": {
                "type": "object",
                "additionalProperties": {"type": "integer"},
            },
        },
        "required": ["format", "basis", "matter", "cutoff"],
        "additionalProperties": False,
    },
    "mixed.v1": {
        "type": "object",
        "properties": {
            "format": {"const": "mixed.v1"},
            "tokens": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "degree"],
                    "properties": {"name": {"type": "string"},
                                   "degree": {"type": "integer"}},
                    "additionalProperties": False,
                },
            },
            "d": _SPARSE_MAP,
            "h": {"type": "array", "items": _SPARSE_MAP},
        },
        "required": ["tokens"],
        "additionalProperties": False,
    },
    "localize": {
        # the fixed and total complexes are mixed.v1 documents, checked
        # against that schema on their own so that errors name the part
        "type": "object",
        "properties": {
            "fixed": {"type": "object"},
            "total": {"type": "object"},
            "map": _SPARSE_MAP,
            "invert": {"type": "array", "items": _SCALAR},
        },
        "required": ["fixed", "total"],
        "additionalProperties": False,
    },
    "cartan.v1": {
        "type": "object",
        "properties": {
            "format": {"const": "cartan.v1"},
            "weights": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "anyOf": [
                        {"type": "integer"},
                        {"type": "array", "minItems": 1,
                         "items": {"type": "integer"}},
                    ],
                },
            },
            "cutoff": {"type": "integer", "minimum": 1},
        },
        "required": ["weights", "cutoff"],
        "additionalProperties": False,
    },
    "alg.v1": {
        "type": "object",
        "properties": {
            "format": {"const": "alg.v1"},
            "basis": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["name", "degree"],
                    "properties": {"name": {"type": "string"},
                                   "degree": {"type": "integer"},
                                   "parity": {"enum": [0, 1]}},
                    "additionalProperties": False,
                },
            },
            "ring": {
                "type": "object",
                "required": ["var"],
                "properties": {"var": {"type": "string"},
                               "degree": {"type": "integer"}},
                "additionalProperties": False,
            },
            "tables": {
                "type": "object",
                "properties": {"m": _SPARSE_MAP, "pi": _SPARSE_MAP,
                               "delta": _SPARSE_MAP, "d": _SPARSE_MAP},
                "additionalProperties": False,
            },
            "pi_degree": {"type": "integer"},
            "pi_parity": {"enum": [0, 1]},
            "delta_parity": {"enum": [0, 1]},
        },
        "required": ["basis", "tables"],
        "additionalProperties": False,
    },
}


class SchemaViolation(ValueError):
    def __init__(self, schema_name, pointer, message):
        self.schema_name = schema_name
        self.pointer = pointer
        self.message = message
        super().__init__("%s: %s at %s" % (schema_name, message, pointer))


def escape(name):
    """A name as one reference token of a JSON pointer (RFC 6901)."""
    return name.replace("~", "~0").replace("/", "~1")


def name_index(names, what, schema_name, pointer):
    """The resolver of references to a list of declared names: a
    function (name, at) -> position of the name.  A name declared again
    at position k is refused at the JSON pointer ``pointer % k``, since
    every reference to it would resolve to one of the two; a reference
    to a name never declared, which the schema cannot see, is refused at
    its own pointer ``at`` as an undeclared ``what``."""
    pos = {}
    for k, name in enumerate(names):
        if name in pos:
            raise SchemaViolation(schema_name, pointer % k,
                                  "duplicate name %r" % name)
        pos[name] = k

    def resolve(name, at):
        if name not in pos:
            raise SchemaViolation(schema_name, at,
                                  "undeclared %s %r" % (what, name))
        return pos[name]
    return resolve


def nested(schema_name, data, key, step, *args):
    """``step(data[key], *args)`` for a document nested in ``data``; a
    refusal inside it is reported under ``schema_name`` at its pointer
    re-rooted under /key, e.g. /matter/brackets/0/a."""
    try:
        return step(data[key], *args)
    except SchemaViolation as e:
        raise SchemaViolation(schema_name, "/" + escape(key) + e.pointer,
                              e.message)


def scalar_at(value, schema_name, pointer):
    """``parse_scalar`` of a file entry; an entry that does not parse is
    refused with its JSON pointer."""
    try:
        return parse_scalar(str(value))
    except ValueError as e:
        raise SchemaViolation(schema_name, pointer, str(e))


def one_variable(schema_name, var=None, what="table"):
    """``scalar_at`` for the coefficients of one file: each is over the
    variable ``var``, or, when that is None, over the first variable an
    entry shows.  Two variables would meet only in arithmetic, so an
    entry over another one is refused with its JSON pointer."""
    def coeff_at(value, pointer):
        nonlocal var
        s = scalar_at(value, schema_name, pointer)
        if s.var is not None and s.var != var:
            if var is not None:
                raise SchemaViolation(
                    schema_name, pointer, "coefficient %r is a polynomial "
                    "in %r, but the %s is over %r" % (value, s.var, what,
                                                      var))
            var = s.var
        return s
    return coeff_at


def rational_at(value, schema_name, pointer):
    """``scalar_at`` of an entry of a map over Q: a polynomial entry is
    refused with its JSON pointer too."""
    s = scalar_at(value, schema_name, pointer)
    if not s.is_const():
        raise SchemaViolation(schema_name, pointer,
                              "entry %r is not a rational number" % value)
    return s


def validate(data, schema_name):
    """Check data against the named schema; raise SchemaViolation with a
    JSON-pointer path to the first offending spot.  ``jsonschema`` is
    imported here, on the first validation: loaded before the other
    opelab modules, it raises the peak RSS of a command-line run by
    ~2 MiB, and a run that validates no file never needs it."""
    import jsonschema
    if schema_name not in SCHEMAS:
        raise ValueError("unknown schema %r" % schema_name)
    validator = jsonschema.Draft202012Validator(SCHEMAS[schema_name])
    best = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if best is not None:
        pointer = "/" + "/".join(str(p) for p in best.absolute_path)
        raise SchemaViolation(schema_name, pointer, best.message)
    return data
