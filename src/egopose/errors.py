"""Exception types shared across the package.

Every recoverable failure raises one of these so callers (and the CLI) can
map problems to exit codes without string matching. load_json_object is the
one reader of JSON model files, so a file of the wrong shape fails the same
way for every model, and model_fields names the file when one of its fields
has the wrong type or value.
"""

import json
from contextlib import contextmanager


def load_json_object(path) -> dict:
    """The JSON object a model file holds; ValueError naming the file when
    it holds anything else."""
    with open(path) as f:
        rec = json.load(f)
    if not isinstance(rec, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(rec).__name__}")
    return rec


@contextmanager
def model_fields(path):
    """Scope in which a model is built from the record read from path: a
    TypeError or ValueError raised there, from a field of the wrong JSON
    type or value, leaves it as a ValueError naming the file."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from e


class EgoPoseError(Exception):
    """Base class for all package errors."""


# skeleton
class DegeneratePose(EgoPoseError):
    """Shoulders coincide or the shoulder line is parallel to up."""


class FrameMismatch(EgoPoseError):
    """Operation requires both poses in the same (wearer-local) frame."""


# geometry
class InsufficientPoints(EgoPoseError):
    """Fewer than 4 correspondences."""


class DegenerateConfiguration(EgoPoseError):
    """Correspondences do not determine a homography (rank-deficient system)."""


class NormalizationFailure(EgoPoseError):
    """Top-left entry too small to normalize to 1."""


class SingularMatrix(EgoPoseError):
    """Matrix inversion or determinant-scaling impossible."""


class OutOfRange(EgoPoseError):
    """Window does not fit inside the available frames."""


# clustering
class TooFewPoses(EgoPoseError):
    """Fewer poses than requested clusters."""


# classify
class DegenerateLabels(EgoPoseError):
    """Training set has a single class."""


class DimMismatch(EgoPoseError):
    """Feature dimensionality inconsistent with the model or training set."""


class EmptyModel(EgoPoseError):
    """Query against a model with no training points."""


class LengthMismatch(EgoPoseError):
    """Per-frame input length disagrees with the frame count."""


class InvalidProbability(EgoPoseError):
    """A sitting probability is non-finite or outside [0, 1]."""


# pathopt
class Infeasible(EgoPoseError):
    """No finite-energy path through the trellis."""


class StateExplosion(EgoPoseError):
    """Exact solver state space exceeds its budget."""


class TooLarge(EgoPoseError):
    """Brute-force enumeration exceeds its budget."""


class InfeasiblePath(EgoPoseError):
    """A supplied path uses a transition between non-neighbor clusters."""


# evaluation
class EmptyLabel(EgoPoseError):
    """No training pose carries the requested sit/stand label."""


# synth
class ScriptError(EgoPoseError):
    """Motion script violates the sit/stand transition rules."""
