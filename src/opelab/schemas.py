"""Versioned JSON shapes for the file formats the command line accepts,
plus a validator that reports failures as JSON-pointer paths.

Scalar entries appear as strings in the ``format_scalar`` grammar (or
bare integers); table objects map basis-element names to sparse columns.
"""

import jsonschema

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

SCHEMAS = {
    "vla.v1": _VLA_BODY,
    "voa.v1": {
        # report shape emitted by the ope and envelope-dims verbs
        "type": "object",
        "properties": {
            "format": {"const": "voa.v1"},
            "verb": {"enum": ["ope", "envelope-dims"]},
            "source": {"type": "string"},
            "level": {"type": ["string", "null"]},
            "a": {"type": "string"},
            "b": {"type": "string"},
            "poles": {
                "type": "object",
                "patternProperties": {r"^[0-9]+$": {"type": "string"}},
                "additionalProperties": False,
            },
            "dims": {
                "type": "object",
                "additionalProperties": {"type": "integer"},
            },
            "charge": {"type": ["integer", "null"]},
        },
        "required": ["format", "verb"],
        "additionalProperties": False,
    },
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
            "matter": _VLA_BODY,
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


def scalar_at(value, schema_name, pointer):
    """``parse_scalar`` of a file entry; an entry that does not parse is
    refused with its JSON pointer."""
    try:
        return parse_scalar(str(value))
    except ValueError as e:
        raise SchemaViolation(schema_name, pointer, str(e))


def validate(data, schema_name):
    """Check data against the named schema; raise SchemaViolation with a
    JSON-pointer path to the first offending spot."""
    if schema_name not in SCHEMAS:
        raise ValueError("unknown schema %r" % schema_name)
    validator = jsonschema.Draft202012Validator(SCHEMAS[schema_name])
    best = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if best is not None:
        pointer = "/" + "/".join(str(p) for p in best.absolute_path)
        raise SchemaViolation(schema_name, pointer, best.message)
    return data
