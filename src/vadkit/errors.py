"""Exception types shared across the toolkit.

Every error raised on a bad input derives from VadKitError so the CLI can
map it to a single "bad input" exit code.
"""


class VadKitError(Exception):
    """Base class for all toolkit errors."""


class IoFailure(VadKitError):
    """File could not be read or written."""


class MalformedWav(VadKitError):
    """WAV container is structurally broken (header, chunk sizes, data length)."""


class UnsupportedFormat(VadKitError):
    """WAV format code, subformat or sample width outside PCM 16/24/32 bits and FLOAT32."""


class OutOfRange(VadKitError):
    """Sample values violate the output format's range constraints."""


class InvalidRate(VadKitError):
    """Sample rate is zero or negative."""


class InvalidSpec(VadKitError):
    """Filter specification violates edge ordering, Nyquist, or order rules."""


class RateMismatch(VadKitError):
    """Buffer sample rate disagrees with the consumer's expected rate."""


class EmptySignal(VadKitError):
    """Operation requires at least one sample."""


class NoFrames(VadKitError):
    """Operation requires at least one frame."""


class LengthMismatch(VadKitError):
    """Buffers must have equal length."""


class SilentComponent(VadKitError):
    """SNR-targeted mixing needs both components to carry power."""


class InvalidFft(VadKitError):
    """FFT size must be a positive power of two."""


class LabelOutOfRange(VadKitError):
    """Ground-truth intervals fall outside the clip."""


class SweepFailure(VadKitError):
    """A sweep grid is empty, or a grid value cannot form a detector config."""


class BadConfig(VadKitError):
    """Config file is unreadable, malformed, or holds unknown keys."""
