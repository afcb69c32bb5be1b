"""Exception types shared across the package."""


class FloodgateError(Exception):
    """Base class for every error this package raises on purpose."""


class UnknownLabel(FloodgateError):
    """Label text matches no known traffic class alias."""


class BadRatios(FloodgateError):
    """Split ratios are not three positive finite numbers summing to 1."""


class EmptyClass(FloodgateError):
    """A traffic class has too few records to split."""


class EmptyDataset(FloodgateError):
    """An operation that needs records received none."""


class MalformedRow(FloodgateError):
    """A CSV header or row does not match the expected schema."""


class DimensionMismatch(FloodgateError):
    """An input array does not have the expected shape."""


class NonFiniteLoss(FloodgateError):
    """Training diverged: the unclamped loss stopped being finite."""


class BadMagic(FloodgateError):
    """A file does not start with the expected magic bytes/token."""


class VersionMismatch(FloodgateError):
    """A model file declares a version this code does not support."""


class CorruptModel(FloodgateError):
    """A model file is structurally invalid (shapes, counts, values)."""


class InvalidClass(FloodgateError):
    """A per-attack operation was asked about the normal class."""


class TruncatedRecord(FloodgateError):
    """A pcap record header claims more bytes than the file holds."""


class UnsupportedLinkType(FloodgateError):
    """A pcap file uses a link type other than Ethernet."""


class FrameTooLarge(FloodgateError):
    """A frame exceeds the pcap writer's 65535-byte limit."""


class UnsortedInput(FloodgateError):
    """A packet sequence is not ordered by timestamp."""


class OverlappingTruth(FloodgateError):
    """Ground-truth label intervals overlap."""


class BadScenario(FloodgateError):
    """A scenario configuration is syntactically or semantically invalid."""
