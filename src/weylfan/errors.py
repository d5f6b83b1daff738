"""Exception hierarchy shared across the library and the CLI."""

from __future__ import annotations


class WeylfanError(Exception):
    """Base class; `code` is the stable machine-readable identifier."""

    code = "Error"

    def payload(self) -> dict:
        return {"code": self.code, "message": str(self)}


class NonRootSystem(WeylfanError):
    code = "NonRootSystem"


class NotEssential(WeylfanError):
    code = "NotEssential"


class DegenerateJ(WeylfanError):
    code = "DegenerateJ"


class PartitionFailure(WeylfanError):
    code = "PartitionFailure"


class TypeMismatch(WeylfanError):
    code = "TypeMismatch"


class DimensionMismatch(WeylfanError):
    code = "DimensionMismatch"


class NonReduced(WeylfanError):
    code = "NonReduced"


class Unspanned(WeylfanError):
    code = "Unspanned"


class EmptyFacet(WeylfanError):
    code = "EmptyFacet"


class EmptyCone(WeylfanError):
    code = "EmptyCone"


class ProfileMismatch(WeylfanError):
    code = "ProfileMismatch"


class InconsistentProfile(WeylfanError):
    code = "InconsistentProfile"


class InternalDisagreement(WeylfanError):
    code = "InternalDisagreement"


class ParseError(WeylfanError):
    code = "ParseError"
