import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomfit.cloud import center
from geomfit.errors import DimensionMismatch, ObjectiveOverflow
from geomfit.vectors import Vector, dot, norm, norm_sq

from conftest import EX1, EX2

# Magnitudes bounded away from the underflow region so squares of products
# never leave the normal float range.
finite_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e50),
    st.floats(min_value=-1e50, max_value=-1e-100),
)
scalar_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-10, max_value=1e10),
    st.floats(min_value=-1e10, max_value=-1e-10),
)
vectors = st.lists(finite_floats, min_size=1, max_size=40).map(Vector)


def vector_pairs():
    return st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(finite_floats, min_size=n, max_size=n).map(Vector),
            st.lists(finite_floats, min_size=n, max_size=n).map(Vector),
        )
    )


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Vector([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Vector([1.0, bad])

    def test_float64_array_components_are_python_floats(self):
        np = pytest.importorskip("numpy")
        v = Vector(np.array([1.5, -0.0, 1e308]))
        assert v.components == (1.5, -0.0, 1e308)
        assert all(type(c) is float for c in v)

    def test_immutable(self):
        v = Vector([1.0, 2.0])
        with pytest.raises(AttributeError):
            v.components = (3.0,)


class TestDot:
    def test_three_terms(self):
        assert dot(Vector([1, 2, 3]), Vector([4, 5, 6])) == 32.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot(Vector([1, 2]), Vector([1, 2, 3]))

    def test_example1_centered_columns(self, ex1_cloud):
        c = center(ex1_cloud)
        assert dot(c.u_vec, c.i_vec) == pytest.approx(EX1["ui"], abs=0.01)

    def test_example2_centered_columns(self, ex2_cloud):
        c = center(ex2_cloud)
        assert dot(c.u_vec, c.i_vec) == pytest.approx(EX2["ui"], abs=1.0)


class TestNorms:
    def test_norm_sq_345(self):
        assert norm_sq(Vector([3, 4])) == 25.0

    def test_norm_sq_zero_vector(self):
        assert norm_sq(Vector([0.0] * 7)) == 0.0

    def test_norm_345(self):
        assert norm(Vector([3, 4])) == 5.0

    def test_example2_days_quadrance_exact(self, ex2_cloud):
        c = center(ex2_cloud)
        assert norm_sq(c.i_vec) == 1150.0

    def test_example1_norms(self, ex1_cloud):
        c = center(ex1_cloud)
        assert norm(c.u_vec) == pytest.approx(EX1["norm_u"], abs=1e-3)
        assert norm(c.i_vec) == pytest.approx(EX1["norm_i"], abs=1e-3)

    @pytest.mark.parametrize("fn, args, what", [
        (dot, (Vector([1e308, 1e308]), Vector([1, 1])), "the dot product"),  # fsum's own overflow
        (norm_sq, (Vector([1e200]),), "the squared norm"),  # an inf term
        (norm, (Vector([1e200]),), "the squared norm"),
    ], ids=["dot", "norm_sq", "norm"])
    def test_overflow_raises(self, fn, args, what):
        with pytest.raises(ObjectiveOverflow, match=f"^{what} overflows float64$"):
            fn(*args)


class TestSubScaleOnes:
    """Identities of differences, multiples and the all-ones vector, built by comprehension."""

    def test_residual_orthogonal_to_predictor(self, ex1_cloud):
        c = center(ex1_cloud)
        a = dot(c.u_vec, c.i_vec) / norm_sq(c.i_vec)
        res = [u - a * i for u, i in zip(c.u_vec, c.i_vec)]
        assert abs(dot(res, c.i_vec)) <= 1e-9 * norm(c.u_vec) * norm(c.i_vec)

    @pytest.mark.parametrize("n", [1, 5, 17])
    def test_ones_quadrance_is_n(self, n):
        assert norm_sq([1.0] * n) == float(n)

    def test_ones_orthogonal_to_centered_example1(self, ex1_cloud):
        c = center(ex1_cloud)
        assert abs(dot([1.0] * 12, c.i_vec)) <= 1e-9


class TestProperties:
    @given(vector_pairs())
    def test_dot_symmetric(self, pair):
        a, b = pair
        assert dot(a, b) == dot(b, a)

    @given(vector_pairs(), scalar_floats)
    def test_bilinearity(self, pair, c):
        a, b = pair
        lhs = dot([c * x for x in a], b)
        rhs = c * dot(a, b)
        bound = 1e-12 * max(abs(rhs), abs(c) * norm(a) * norm(b))
        assert abs(lhs - rhs) <= bound

    @given(vector_pairs())
    def test_cauchy_schwarz(self, pair):
        a, b = pair
        assert abs(dot(a, b)) <= norm(a) * norm(b) * (1 + 1e-12)

    @given(vectors, scalar_floats)
    def test_norm_of_scale(self, a, c):
        assert norm([c * x for x in a]) == pytest.approx(abs(c) * norm(a), rel=1e-12, abs=0.0)

    @given(vectors)
    def test_norm_sq_nonnegative(self, a):
        assert norm_sq(a) >= 0.0
