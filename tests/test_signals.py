import numpy as np
import pytest

from lineport import PoleLocus, Signal, Trajectory, ValidationError, signals, write_csv
from lineport.signals import FLOAT_FMT

AWKWARD = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 3.0, -2.0, 1e22])


def test_write_csv_output_contract(tmp_path):
    table = np.column_stack([AWKWARD, AWKWARD[::-1], -AWKWARD])
    path = tmp_path / "awkward.csv"
    write_csv(path, "a,b,c,d", (AWKWARD, table))
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    assert lines[0] == b"a,b,c,d"
    assert lines[-1] == b"" and b"\r" not in raw
    rows = [line.decode().split(",") for line in lines[1:-1]]
    expected = np.column_stack([AWKWARD, table])
    assert len(rows) == len(expected)
    for fields, values in zip(rows, expected):
        assert fields == ["%.17g" % v for v in values]
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back, expected)
    assert np.array_equal(np.signbit(back), np.signbit(expected))


def test_writers_share_the_one_format(tmp_path):
    t = np.linspace(0.0, 1.0, len(AWKWARD))
    phi = np.column_stack([AWKWARD, 0.5 * AWKWARD])
    q = np.column_stack([-AWKWARD, AWKWARD[::-1]])
    traj = Trajectory(t_grid=t, phi=phi, q=q, q0=AWKWARD[::-1], v0=0.25 * AWKWARD)
    traj.to_csv(tmp_path / "traj.csv")
    write_csv(tmp_path / "traj_ref.csv", "t,phi1,phi2,q1,q2,q0,v0",
              (t, phi, q, traj.q0, traj.v0))
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "traj_ref.csv").read_bytes()

    branches = np.column_stack([AWKWARD + 1j * AWKWARD[::-1], -AWKWARD - 0.0j,
                                0.1 - 1j * AWKWARD])
    g = np.linspace(0.1, 0.9, len(AWKWARD))
    PoleLocus(alpha=1.0, g_grid=g, branches=branches).to_csv(tmp_path / "locus.csv")
    write_csv(tmp_path / "locus_ref.csv", "g,re_s1,im_s1,re_s2,im_s2,re_s3,im_s3",
              (g, *[part for s in branches.T for part in (s.real, s.imag)]))
    assert (tmp_path / "locus.csv").read_bytes() == (tmp_path / "locus_ref.csv").read_bytes()


def percent_rows(table):
    """The rows of ``table`` printed one ``%`` per row: the reference the
    numpy kernel must match byte for byte."""
    row_fmt = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    return "".join(row_fmt % tuple(row) for row in table.tolist()).encode()


def test_kernel_matches_percent_on_random_bit_patterns():
    """2**20 raw float64 bit patterns, both signs, every exponent, NaN and
    infinity included."""
    rng = np.random.default_rng(16)
    for _ in range(16):
        bits = rng.integers(0, 2 ** 64, size=2 ** 16, dtype=np.uint64)
        table = bits.view(np.float64).reshape(-1, 64)
        assert signals._format_rows(table) == percent_rows(table)


def neighbours(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


EDGES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    2.0 ** 53, 2.0 ** 53 + 2,
    # decimal exponent X = -5, -4, 16 and 17: the fixed/exponential boundaries
    1.5e-5, 9.9999999999999991e-05, 1.5e-4, 0.00012345678901234567,
    1.2345678901234567e16, 99999999999999984.0, 1.5e17, 1.2345678901234567e17,
    *[u for k in range(-30, 31) for u in neighbours(float(f"1e{k}"))],
]


def test_kernel_matches_percent_on_edge_values():
    values = np.array(EDGES)
    table = np.concatenate([values, -values]).reshape(-1, 2)
    assert signals._format_rows(table) == percent_rows(table)


def test_rounding_tie_takes_the_exact_path(tmp_path):
    """A value whose 17-digit rounding is a true tie is left to ``%``, which
    rounds half to even."""
    values = np.array([1234567890123456.75, -1234567890123456.75, 0.1])
    assert signals._decimal(values)[2].tolist() == [True, True, False]
    write_csv(tmp_path / "tie.csv", "v", (values,))
    assert (tmp_path / "tie.csv").read_bytes() == (
        b"v\n1234567890123456.8\n-1234567890123456.8\n0.10000000000000001\n")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Signal(t0=0.0, dt=1.0, samples=np.zeros((2, 2))),
                 "signal samples must be one-dimensional", id="samples-2d"),
    pytest.param(lambda: Signal(t0=0.0, dt=1.0, samples=np.zeros(3))(0.5, extend="wrap"),
                 "unknown extend policy 'wrap'", id="unknown-extend"),
    pytest.param(lambda: Signal(t0=0.0, dt=0.1, samples=np.ones(11))(2.0),
                 r"time 2 outside signal domain \[0, 1\]", id="out-of-domain")])
def test_malformed_arguments_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()
