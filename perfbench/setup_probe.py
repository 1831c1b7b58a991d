"""One cold start of ``rrsmooth optimize``: import, load, validate, classify.

Usage: python3 perfbench/setup_probe.py SRC_DIR MESH_FILE

Prints the seconds from just before ``import rrsmooth`` to the moment the
classified mesh is ready for its first iteration. Interpreter start-up is
not counted. Run in a fresh process each time, so the import is paid again.
"""

import sys
import time


def main():
    src, path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from rrsmooth.mesh import FIX_ALL, classify_boundary, validate
    from rrsmooth.meshio import load_mesh

    mesh = load_mesh(path)
    if validate(mesh):
        raise SystemExit(f"{path}: invalid input mesh")
    classify_boundary(mesh, FIX_ALL)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
