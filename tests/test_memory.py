"""Peak memory of the routines that build or read an n x n distance matrix.

Each routine holds its output and at most one n x n float work array, a
row block of at most 2 MiB; quasiconvexity_constant holds its path lengths,
a boolean mask and its eps-graph, which its directed search reads without
copying it, as the matrix is exactly symmetric; disconnection_constant holds
the subdominant matrix rho, one row block of rho / d and then the same
eps-graph at the bottleneck.  A boolean mask counts as 1/8 of an array, and
the bounds allow 1/4 of an array more for small arrays.  The command line's
summary of a space reads no n x n array.  Inputs are built before tracing.
"""

import tracemalloc

import numpy as np
import pytest

from finset import (FiniteMetricSpace, RealLineSpace, disconnection_constant,
                    quasiconvexity_constant, rescale, subdominant_ultrametric)
from finset import cli, metric
from finset.generators import dendrogram_space, random_dendrogram
from finset.metric import as_finite_space

N = 600
ARRAY = N * N * 8  # bytes of one n x n float array


def traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cloud():
    return [tuple(p) for p in np.random.default_rng(0).uniform(size=(N, 2)).tolist()]


def test_from_coords_peaks_at_its_matrix_and_one_work_array(cloud):
    assert traced_peak(lambda: FiniteMetricSpace.from_coords(cloud)) <= 2.25 * ARRAY


def test_pair_checks_peak_at_the_copy_and_one_work_array(cloud):
    # an exactly symmetric matrix, and one made so in place: each entry
    # below the diagonal one ulp larger than its mirror
    sp = FiniteMetricSpace.from_coords(cloud)
    points, skewed = sp.points, sp.dist.copy()
    lower = np.tril_indices(N, -1)
    skewed[lower] = np.nextafter(skewed[lower], np.inf)
    for D in (sp.dist, skewed):
        assert traced_peak(lambda: FiniteMetricSpace(points, D, validate=False)) <= 2.25 * ARRAY


def test_adopted_matrix_gets_its_pair_checks_in_one_row_block(cloud):
    # the finiteness check reads the matrix's min and max, without a mask
    sp = FiniteMetricSpace.from_coords(cloud)
    bound = metric._BLOCK_CELLS * 8 + ARRAY / 16
    assert traced_peak(lambda: FiniteMetricSpace._adopt(sp.points, sp.dist)) <= bound


def test_space_summary_reads_no_matrix(cloud):
    sp = FiniteMetricSpace.from_coords(cloud)
    assert traced_peak(lambda: cli._space_summary(sp)) <= ARRAY / 4


def test_line_points_peak_at_their_matrix_and_one_work_array():
    line = RealLineSpace(np.random.default_rng(1).uniform(size=N).tolist())
    assert traced_peak(lambda: as_finite_space(line)) <= 2.25 * ARRAY


def test_min_positive_distance_holds_one_row_block(cloud):
    sp = FiniteMetricSpace.from_coords(cloud)
    assert traced_peak(sp.min_positive_distance) <= metric._BLOCK_CELLS * 8 + ARRAY / 8


@pytest.mark.parametrize("eps", [0.1, 0.5, 2.0])  # 3%, 49% and all pairs are edges
def test_quasiconvexity_peaks_at_its_lengths_and_its_eps_graph_once(cloud, eps):
    sp = FiniteMetricSpace.from_coords(cloud)
    assert quasiconvexity_constant(sp, eps).connected  # imports scipy.sparse untraced
    edges = int(np.count_nonzero(sp.dist <= eps)) - N
    # the path lengths beside the graph at 12 bytes an edge or beside one
    # boolean mask, or the graph's build at 20 bytes an edge, its int64 edge
    # index included; 1/16 of an array is left for small arrays, too little
    # for an n x n mask kept alive through the build
    bound = max(1.125 * ARRAY, ARRAY + 12 * edges, 20 * edges) + ARRAY / 16
    assert traced_peak(lambda: quasiconvexity_constant(sp, eps)) <= bound


def test_disconnection_peaks_at_rho_one_row_block_and_its_eps_graph(cloud):
    sp = FiniteMetricSpace.from_coords(cloud)
    report = disconnection_constant(sp)  # imports scipy untraced
    a, b = (sp.index(p) for p in report.witness)
    bottleneck = subdominant_ultrametric(sp).dist[a, b]
    edges = int(np.count_nonzero(sp.dist <= bottleneck)) - N
    assert traced_peak(lambda: disconnection_constant(sp)) <= 2.25 * ARRAY + 12 * edges


def test_rescale_peaks_at_its_matrix_and_one_work_array(cloud):
    sp = FiniteMetricSpace.from_coords(cloud)
    assert traced_peak(lambda: rescale(sp, 3.0)) <= 2.25 * ARRAY


def test_subdominant_ultrametric_peaks_at_its_matrix_and_one_work_array(cloud):
    # its output, then scipy's condensed vectors, half an array each
    sp = FiniteMetricSpace.from_coords(cloud)
    subdominant_ultrametric(sp)  # imports scipy.cluster untraced
    assert traced_peak(lambda: subdominant_ultrametric(sp)) <= 2.25 * ARRAY


def test_dendrogram_space_peaks_at_its_matrix_and_one_work_array():
    tree = random_dendrogram(N, seed=1)
    assert traced_peak(lambda: dendrogram_space(tree)) <= 2.25 * ARRAY
