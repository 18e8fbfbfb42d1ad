"""Exception types shared across the package.

Every recoverable failure raises one of these so callers (and the CLI) can
map problems to exit codes without string matching. A file of the wrong
shape is not one of them: the readers in records.py raise ValueError naming
the file, and the line for a JSONL stream.
"""


class EgoPoseError(Exception):
    """Base class for all package errors."""


class Degenerate(EgoPoseError):
    """Infeasible or degenerate input: the CLI exits 4, not 3."""


# skeleton
class DegeneratePose(Degenerate):
    """Shoulders coincide or the shoulder line is parallel to up."""


class FrameMismatch(EgoPoseError):
    """Operation requires both poses in the same (wearer-local) frame."""


# geometry
class InsufficientPoints(EgoPoseError):
    """Fewer than 4 correspondences."""


class DegenerateConfiguration(Degenerate):
    """Correspondences do not determine a homography (rank-deficient system)."""


class NormalizationFailure(Degenerate):
    """Top-left entry too small to normalize to 1."""


class SingularMatrix(Degenerate):
    """Matrix inversion or determinant-scaling impossible."""


class OutOfRange(EgoPoseError):
    """Window does not fit inside the available frames."""


# clustering
class TooFewPoses(EgoPoseError):
    """Fewer poses than requested clusters."""


# classify
class DegenerateLabels(Degenerate):
    """Training set has a single class."""


class DimMismatch(EgoPoseError):
    """Feature dimensionality inconsistent with the model or training set."""


class EmptyModel(EgoPoseError):
    """Query against a model with no training points."""


class LengthMismatch(EgoPoseError):
    """Per-frame input length disagrees with the frame count."""


class InvalidProbability(EgoPoseError):
    """A probability (a static sitting probability, or a classifier's
    cluster probability) is NaN, infinite or outside [0, 1]."""


# pathopt
class Infeasible(Degenerate):
    """No finite-energy path through the trellis."""


class StateExplosion(Degenerate):
    """Exact solver state space exceeds its budget."""


class TooLarge(Degenerate):
    """Brute-force enumeration exceeds its budget."""


class InfeasiblePath(Degenerate):
    """A supplied path uses a transition between non-neighbor clusters."""


# evaluation
class EmptyLabel(EgoPoseError):
    """No training pose carries the requested sit/stand label."""


# synth
class ScriptError(EgoPoseError):
    """Motion script violates the sit/stand transition rules."""
