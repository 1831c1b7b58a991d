"""Structured meshes and perturbations: the array builders against the loop
builders of ``conftest``, bit for bit, and the specs ``gen_mesh`` and
``perturb_mesh`` refuse."""

import numpy as np
import pytest

from rrsmooth.errors import InvalidSpec
from rrsmooth.generate import (
    CUBE,
    EQUILATERAL,
    SQUARE,
    GeneratorSpec,
    PlantSliver,
    RandomJitter,
    gen_mesh,
    perturb_mesh,
)

from conftest import reference_gen_mesh, reference_jitter, reference_plant_slivers

# (kind, n, jitter amplitude, slivers, meshes per run) of the benchmark's
# workloads; perfbench/run.py's make_inputs jitters mesh i of a run at seed S
# with seed meshes * S + i, then plants the slivers with eps 0.01.
BENCHMARK_RECIPES = (
    (CUBE, 10, 0.1, 5, 2),
    (SQUARE, 40, 0.3, 0, 2),
    (CUBE, 6, 0.1, 5, 6),
)


def assert_same_bits(mesh, reference):
    assert mesh.cells.dtype == reference.cells.dtype
    np.testing.assert_array_equal(mesh.cells, reference.cells)
    assert mesh.vertices.dtype == reference.vertices.dtype
    assert mesh.vertices.tobytes() == reference.vertices.tobytes()


@pytest.mark.parametrize("n", [*range(1, 9), 16])
@pytest.mark.parametrize("kind", [EQUILATERAL, SQUARE, CUBE])
def test_lattices_equal_the_loop_builders(kind, n):
    assert_same_bits(gen_mesh(GeneratorSpec(kind, n)), reference_gen_mesh(kind, n))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("recipe", BENCHMARK_RECIPES, ids=lambda r: f"{r[0]}{r[1]}")
def test_benchmark_inputs_equal_the_loop_forms(recipe, seed):
    kind, n, amplitude, slivers, meshes = recipe
    base = gen_mesh(GeneratorSpec(kind, n))
    for i in range(meshes):
        mesh = perturb_mesh(base, RandomJitter(amplitude, meshes * seed + i))
        reference = reference_jitter(reference_gen_mesh(kind, n), amplitude, meshes * seed + i)
        assert_same_bits(mesh, reference)
        if slivers:
            mesh = perturb_mesh(mesh, PlantSliver(slivers, 0.01))
            assert_same_bits(mesh, reference_plant_slivers(reference, slivers, 0.01))


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None], ids=repr)
def test_gen_mesh_refuses_a_subdivision_that_is_no_integer(n):
    with pytest.raises(InvalidSpec, match="GeneratorSpec n must be an integer"):
        gen_mesh(GeneratorSpec(CUBE, n))


@pytest.mark.parametrize("count", [2.0, 1.5, True])
def test_plant_sliver_refuses_a_count_that_is_no_integer(count):
    with pytest.raises(InvalidSpec, match="PlantSliver count must be an integer"):
        perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 4)), PlantSliver(count, 0.01))


@pytest.mark.parametrize("seed", [1.7, 1.0, True])
def test_random_jitter_refuses_a_seed_that_is_no_integer(seed):
    mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
    for amplitude in (0.3, 0.0):
        with pytest.raises(InvalidSpec, match="RandomJitter seed must be an integer"):
            perturb_mesh(mesh, RandomJitter(amplitude, seed))


def test_random_jitter_seeds_are_the_64_bit_states():
    # The PRNG keeps a seed's low 64 bits, so 2**64 + 1 jittered as 1 did
    # and -1 as 2**64 - 1; a seed outside [0, 2**64) is refused instead.
    mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(InvalidSpec, match=rf"RandomJitter seed must be in \[0, {2**64}\)"):
            perturb_mesh(mesh, RandomJitter(0.3, seed))
    top = perturb_mesh(mesh, RandomJitter(0.3, 2**64 - 1))
    assert_same_bits(top, perturb_mesh(mesh, RandomJitter(0.3, np.uint64(2**64 - 1))))
    assert not np.array_equal(top.vertices, perturb_mesh(mesh, RandomJitter(0.3, 0)).vertices)


@pytest.mark.parametrize("amplitude", [True, "0.1"], ids=repr)
def test_random_jitter_refuses_an_amplitude_that_is_no_number(amplitude):
    # True used to jitter at amplitude 1.
    mesh = gen_mesh(GeneratorSpec(SQUARE, 4))
    with pytest.raises(InvalidSpec, match="RandomJitter amplitude must be a real number"):
        perturb_mesh(mesh, RandomJitter(amplitude, 3))


@pytest.mark.parametrize("eps", [True, "0.01"], ids=repr)
def test_plant_sliver_refuses_an_eps_that_is_no_number(eps):
    with pytest.raises(InvalidSpec, match="PlantSliver eps must be a real number"):
        perturb_mesh(gen_mesh(GeneratorSpec(CUBE, 4)), PlantSliver(1, eps))


@pytest.mark.parametrize(
    "kind, n, mode, message",
    [
        (CUBE, 2, "jitter", "unknown perturbation mode 'jitter'"),
        (SQUARE, 4, PlantSliver(1, 0.01), "slivers can only be planted in tetrahedral meshes"),
        (CUBE, 4, PlantSliver(1, 0.0), r"PlantSliver eps must be in \(0, 1\), got 0.0"),
        (CUBE, 4, PlantSliver(1, 1.0), r"PlantSliver eps must be in \(0, 1\), got 1.0"),
        (CUBE, 2, PlantSliver(1, 0.01), "mesh has no fully interior tets to flatten"),
        # Every vertex already lies within 0.99 mean edge lengths of its opposite face.
        (CUBE, 3, PlantSliver(1, 0.99), "could only plant 0 of 1 requested slivers"),
        (CUBE, 3, PlantSliver(1000, 0.01), "could only plant [0-9]+ of 1000 requested slivers"),
    ],
    ids=["unknown-mode", "2d", "eps-0", "eps-1", "no-interior-tet", "too-flat", "too-many"],
)
def test_perturb_mesh_refuses(kind, n, mode, message):
    with pytest.raises(InvalidSpec, match=f"^{message}$"):
        perturb_mesh(gen_mesh(GeneratorSpec(kind, n)), mode)


def test_numpy_floats_are_amounts():
    mesh = gen_mesh(GeneratorSpec(CUBE, 4))
    jittered = perturb_mesh(mesh, RandomJitter(np.float64(0.1), 3))
    assert_same_bits(jittered, perturb_mesh(mesh, RandomJitter(0.1, 3)))
    slivered = perturb_mesh(jittered, PlantSliver(2, np.float64(0.01)))
    assert_same_bits(slivered, perturb_mesh(jittered, PlantSliver(2, 0.01)))


def test_numpy_integers_are_counts():
    for integer in (np.int64, np.int32, np.uint8):
        mesh = gen_mesh(GeneratorSpec(CUBE, integer(4)))
        assert_same_bits(mesh, gen_mesh(GeneratorSpec(CUBE, 4)))
        jittered = perturb_mesh(mesh, RandomJitter(0.1, integer(3)))
        assert_same_bits(jittered, perturb_mesh(mesh, RandomJitter(0.1, 3)))
        slivered = perturb_mesh(jittered, PlantSliver(integer(2), 0.01))
        assert_same_bits(slivered, perturb_mesh(jittered, PlantSliver(2, 0.01)))
