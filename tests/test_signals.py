import numpy as np

from lineport import PoleLocus, Trajectory, write_csv

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
