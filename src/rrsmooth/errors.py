"""Exception types shared across the package."""


class MeshError(Exception):
    """Base class for all rrsmooth errors."""


class DegenerateElement(MeshError):
    """An element has non-positive or vanishing measure (inverted/collapsed)."""

    def __init__(self, message, cell=None):
        super().__init__(message if cell is None else f"cell {cell}: {message}")
        self.cell = cell


class NonPlanarPatch(MeshError):
    """Sliding boundary classification hit a curved boundary patch."""


class NoFixedVertices(MeshError):
    """Preconditioner assembly needs at least one fixed vertex."""


class DisconnectedMesh(MeshError):
    """A component of the mesh vertex graph has no fixed vertex."""


class IndefiniteMatrix(MeshError):
    """CG detected non-positive curvature; the operator is not SPD."""


class LineSearchFailed(MeshError):
    """No acceptable step length was found along the search direction."""


class ParseError(MeshError):
    """Mesh file could not be parsed."""

    def __init__(self, message, path=None, line=None):
        loc = "" if path is None else str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class UnsupportedFormat(MeshError):
    """File format or dialect not handled by the readers/writers."""


class EmptyMesh(MeshError):
    """A mesh file contained no usable cells."""


class InvalidSpec(MeshError):
    """Mesh generator parameters are out of range."""
