"""Exception types raised across the package."""


class MipclassError(Exception):
    """Base class for every error this package raises on purpose."""


# --- binary I/O (NIfTI, tensor blobs) ---

class BadMagic(MipclassError):
    """File does not start with (or carry) the expected magic bytes."""


class UnsupportedDtype(MipclassError):
    """On-disk element type is not one we read or write."""


class TruncatedPayload(MipclassError):
    """Declared payload extends past the end of the file."""


class HeaderError(MipclassError):
    """Header fields are inconsistent, out of range, or unsupported
    (big-endian layouts, non-3D volumes, non-finite scale factors)."""


class NonInvertibleAffine(MipclassError):
    """Voxel-to-world matrix is singular or non-finite."""


class IoFailure(MipclassError):
    """Underlying filesystem operation failed."""


class LengthMismatch(MipclassError):
    """Payload byte length disagrees with the declared dimensions."""


# --- geometry ---

class WidthTooSmall(MipclassError):
    """Volume too narrow to split into left/right halves."""


# --- stack construction ---

class TooFewPhases(MipclassError):
    """Study has fewer than two post-contrast phases."""


class MissingPre(MipclassError):
    """Study has no pre-contrast phase."""


class NonBinaryMask(MipclassError):
    """Mask values fall outside [0, 1] beyond tolerance, or are NaN."""


class GridMismatch(MipclassError):
    """Operands do not share shape and affine."""


class AlreadyNormalized(MipclassError):
    """Stack was normalized before; refusing to normalize twice."""


# --- classification head ---

class EmptyClass(MipclassError):
    """A class has no samples; weights or training are undefined."""


class DimMismatch(MipclassError):
    """Array dimensions disagree with the head parameters."""


class Diverged(MipclassError):
    """Training left the finite range: the learning rate is too high."""


# --- evaluation ---

class TooFewPatients(MipclassError):
    """Fewer patients than folds."""


class DegenerateLabels(MipclassError):
    """Only one class present; the metric is undefined."""


class EmptyGroup(MipclassError):
    """Nothing to ensemble."""


# --- pipeline ---

class ManifestParse(MipclassError):
    """Manifest file is malformed."""


class MissingBlob(MipclassError):
    """Expected preprocessed stack file is absent."""


class SchemaMismatch(MipclassError):
    """CSV/JSON artifact does not match the expected schema."""


class BadArgument(MipclassError):
    """A command-line value is outside the range its inputs allow."""
