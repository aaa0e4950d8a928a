"""Pin the bytes of the CLI's result files.

A fixed set of small invocations runs in-process, and the sha256 of every file
each one writes is compared with the digests below. A change that moves any
result byte must update these digests and say in CHANGES.md why the bytes
changed; a refactor that claims identical output leaves them alone.

The ``poles`` and ``impulse`` bytes depend on the SIMD code numpy dispatches
to (np.exp and np.log round differently on its AVX-512 and AVX2 paths), so
their digests are kept per numpy version and dispatch target, ``TARGET``; the
others hold on every target.
"""
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lineport.cli import main

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

#: numpy's version and the SIMD dispatch targets it enables in this process
TARGET = (np.__version__,
          tuple(t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)))
#: the targets an AVX-512 host disables to run numpy's AVX2 path
AVX512_TARGETS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

LC_NETLIST = "C 1 2 1.0\nL 1 2 1.0\nCOUPLE 0.42857142857142855\nGROUND auto\n"
JOSEPHSON_NETLIST = "C 1 3 1.0\nJ 1 2 0.5 1.0\nC 2 3 1.0\nL 2 3 1.0\nCOUPLE 0.4\n"
# a triangular flux pulse of height 0.5 on x in [0, 4], sampled every 0.25
PULSE_CSV = "x,phi0\n" + "".join(
    f"{0.25 * k!r},{0.5 * max(0.0, 1.0 - abs(0.25 * k - 2.0) / 2.0)!r}\n" for k in range(25))
SIM_FLAGS = ["--ell", "2.0", "--c-per-len", "0.5", "--t-max", "5", "--samples", "51",
             "--n-sections", "100"]

RUNS = {
    "reduce-lc": ["reduce", "{tmp}/lc.net"],
    "poles": ["poles", "--g-step", "0.01"],
    "impulse": ["impulse", "--n", "4096"],
    "impulse-65536": ["impulse", "--n", "65536"],
    "impulse-near-double": ["impulse", "--g", "0.9368188312392204", "--alpha", "0.5"],
    # a near-double pole at a t_max that 16384 samples refuse
    "impulse-near-double-65536": ["impulse", "--g", "0.9368188312392204", "--alpha", "0.5",
                                  "--n", "65536", "--t-max", "10000"],
    "simulate-lc": ["simulate", "{tmp}/lc.net", *SIM_FLAGS],
    # the ladder benchmark's shape: 1000 sections, 1001 samples over 10 T_r
    "simulate-lc-1000": ["simulate", "{tmp}/lc.net", "--ell", "2.0", "--c-per-len", "0.5",
                         "--t-max", "62.83185307179586", "--samples", "1001",
                         "--n-sections", "1000"],
    "simulate-lc-pulse": ["simulate", "{tmp}/lc.net", *SIM_FLAGS,
                          "--phi0-csv", "{tmp}/pulse.csv"],
    "simulate-josephson-pulse": ["simulate", "{tmp}/jj.net", *SIM_FLAGS,
                                 "--phi0-csv", "{tmp}/pulse.csv"],
}

DIGESTS = {
    'reduce-lc': {
        'reduced_model.json':
            'd67afe110f263e73ea2cafceb8f8356462b28a85907e0e279f10aec84b963040',
    },
    'simulate-josephson-pulse': {
        'simulate_summary.json':
            'ce47b20cdc4313b7492ba2c2cf6099467964a41714fc2ddff30450a8de8ecd06',
        'trajectory_ladder.csv':
            '334508037bcca84a568cbacf9a260357500714c49d6505189ae2a9f05b746afa',
        'trajectory_reduced.csv':
            '9bb22dcd2c7ec4d4ca1336cc58140b7838983f3e625d00da0e1de9e070a3d041',
    },
    'simulate-lc': {
        'simulate_summary.json':
            '862d4a3a439de5e7d09f55b5e408918296dc9e257286327b4cba8224c4b017a0',
        'trajectory_ladder.csv':
            '98a66b3a43e4dce1f32729e691c7bc8888b988dc3841fea554d17a67bc510a94',
        'trajectory_reduced.csv':
            '8586c5cb514f3207827796e33adf03a8051e29767b662a70dc54b8bc59b5d187',
    },
    'simulate-lc-1000': {
        'simulate_summary.json':
            'ec0858b0de67e8262cf36c8b246e9c2db5ec9ce50d7a0b63ec9772f9cddb65bd',
        'trajectory_ladder.csv':
            '7ecd8e1c4eb782071cb61f7c902b35565cebd3bffb7731bd380566e792989589',
        'trajectory_reduced.csv':
            '65883c26427aa5df5a769297cbce012dda4e86ca2b23f98df02f6d46492ac264',
    },
    'simulate-lc-pulse': {
        'simulate_summary.json':
            '27537b5004c850dc7db6001f463a0cbd7ca230d34d6cbc79c264fe54e0bcabdf',
        'trajectory_ladder.csv':
            '5bd7986260f95628480d840e563131352a4c60f83f4978a6329d26d956fea3b7',
        'trajectory_reduced.csv':
            '5ea94981a449726871148e066f7e9ed7d27b2a00816f09159d99bcf058af253c',
    },
}

#: the digests of the runs that read np.exp, np.log or the poles, per ``TARGET``
SIMD_DIGESTS = {
    # every dispatch target of an AVX-512 host
    ('2.4.6', ('X86_V3', 'X86_V4', 'AVX512_ICL', 'AVX512_SPR')): {
        'impulse': {
            'impulse_g0.3_alpha2.csv':
                'beed9816aee533c3cf39de3adcf5c07a3db6bfa6b9153cbc2811a8f681f6e42e',
            'impulse_g0.3_alpha2.json':
                'b092be620cfd1be56532bbaead45bf90364b82320905d7fda23a7c3770890bff',
            'impulse_g0.3_alpha2_pf.csv':
                '700ca052f877830d4d90ec14d7236008061b8015d25cf70a37b4d85043fcf0a9',
            'impulse_g0.8_alpha2.csv':
                'efc338e08be1c789faee9842c7eee8ffbcd1b6a5168904a1261c237411a48f4e',
            'impulse_g0.8_alpha2.json':
                '9dc9e615d5a13408255777a2b405eddf512d37bbaae86b1e47362d1d656186c2',
            'impulse_g0.8_alpha2_pf.csv':
                '3f687c9d137cb8b34fcf434162c2e37716d34c405a18a0e3610431f74de61931',
        },
        'impulse-65536': {
            'impulse_g0.3_alpha2.csv':
                '0da2c044c9278dad43ab6c0f91d9a2cdeb1fd245c599a93037acab49c8d8421c',
            'impulse_g0.3_alpha2.json':
                '8f1f6f445079c32ae5267dbfc170c35c3fa2be179a8338fbe8cf2791761635b1',
            'impulse_g0.3_alpha2_pf.csv':
                '6cf9babb588da44c68b56fa7db1e0a5ec2b8a7c89628e79c829e81c8f830465a',
            'impulse_g0.8_alpha2.csv':
                '531c3681d8d97b6c028fbca9a92abf7ba2a1f8e53f484bcaf94facf1011d84fa',
            'impulse_g0.8_alpha2.json':
                '123510237702a0b0883440541cf062f84f386c99fd06a66a9e0de28d77c41980',
            'impulse_g0.8_alpha2_pf.csv':
                '0a6344fc9c77f6211c78656e774f0eb8a9602cb47474073b6ffdb4d259b0d626',
        },
        'impulse-near-double': {
            'impulse_g0.936819_alpha0.5.csv':
                'a7c55a30ba975e071cfc8b6772ae11957ef17d34e49046a1013ee3cd5c6adf4d',
            'impulse_g0.936819_alpha0.5.json':
                'b387f19d1a841e4035638b3d93bd6ef6a32792613a6b4c6cf7efef7f11a4c138',
            'impulse_g0.936819_alpha0.5_pf.csv':
                'ab8b995befff154f11496431132960ec8dafaf0512951802445dc77fd1de8d31',
        },
        'impulse-near-double-65536': {
            'impulse_g0.936819_alpha0.5.csv':
                '38f0a9c52bdcc0e05f9a708b8499f1b90bb07570fb951807d010c91819046d97',
            'impulse_g0.936819_alpha0.5.json':
                '4cda83cb518b9a1c14d088ec9775a40acae744ae9d74004f9a91d89fddb8852a',
            'impulse_g0.936819_alpha0.5_pf.csv':
                '1cb34b8d11ad766f89b0f15e3760c4d79073d11e26e5adaa1f1e968e38d2f6f1',
        },
        'poles': {
            'poles_alpha0.5.csv':
                '018124002e64084ca43b5a3d6eb85e0dd337ccd45b7b908d7c2e066dbd64d9b0',
            'poles_alpha1.csv':
                '63fe937a99e2592fa449b251521cfbe5e1d1122d032516bd0a571ee59b90be2c',
            'poles_alpha2.csv':
                'bc6434454ce230d18c85dd92242ec2bfbd29758a9302e9cebc17ab624a4a48fb',
            'poles_params.json':
                '1bf892580e742b9491390e516c632bc0a64d688cdc25208d9ebe8eccae0b8a76',
        },
    },
    # the same host with NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"
    ('2.4.6', ('X86_V3',)): {
        'impulse': {
            'impulse_g0.3_alpha2.csv':
                '6c85010bd3f3c76481197339e8f12d508f33370a008dcad63a5812d394a316c9',
            'impulse_g0.3_alpha2.json':
                'b092be620cfd1be56532bbaead45bf90364b82320905d7fda23a7c3770890bff',
            'impulse_g0.3_alpha2_pf.csv':
                '700ca052f877830d4d90ec14d7236008061b8015d25cf70a37b4d85043fcf0a9',
            'impulse_g0.8_alpha2.csv':
                '1fb97925bc29d4e74bd7b192fdcf789a2da48c9ca3a62f7f8ff348c3a468732c',
            'impulse_g0.8_alpha2.json':
                '9dc9e615d5a13408255777a2b405eddf512d37bbaae86b1e47362d1d656186c2',
            'impulse_g0.8_alpha2_pf.csv':
                '3f687c9d137cb8b34fcf434162c2e37716d34c405a18a0e3610431f74de61931',
        },
        'impulse-65536': {
            'impulse_g0.3_alpha2.csv':
                'cf38b48e10941b5c761e9f3e8eca06becef1a57e11a4ad4db3235032c357228f',
            'impulse_g0.3_alpha2.json':
                '8f1f6f445079c32ae5267dbfc170c35c3fa2be179a8338fbe8cf2791761635b1',
            'impulse_g0.3_alpha2_pf.csv':
                '6cf9babb588da44c68b56fa7db1e0a5ec2b8a7c89628e79c829e81c8f830465a',
            'impulse_g0.8_alpha2.csv':
                '642979731a5c4215485348910b3b67aaeb092efb2379d2f12a981ae0f9584e67',
            'impulse_g0.8_alpha2.json':
                '123510237702a0b0883440541cf062f84f386c99fd06a66a9e0de28d77c41980',
            'impulse_g0.8_alpha2_pf.csv':
                '0a6344fc9c77f6211c78656e774f0eb8a9602cb47474073b6ffdb4d259b0d626',
        },
        'impulse-near-double': {
            'impulse_g0.936819_alpha0.5.csv':
                '26278baa518fd195daae4256bf46c1f40f18dea834e22725b9ca74afcbb15d2b',
            'impulse_g0.936819_alpha0.5.json':
                'b387f19d1a841e4035638b3d93bd6ef6a32792613a6b4c6cf7efef7f11a4c138',
            'impulse_g0.936819_alpha0.5_pf.csv':
                'ab8b995befff154f11496431132960ec8dafaf0512951802445dc77fd1de8d31',
        },
        'impulse-near-double-65536': {
            'impulse_g0.936819_alpha0.5.csv':
                '1d4cb5524eb131917931c1b1ffa7404933c884f57754d6bec2cadf00bc183417',
            'impulse_g0.936819_alpha0.5.json':
                '4cda83cb518b9a1c14d088ec9775a40acae744ae9d74004f9a91d89fddb8852a',
            'impulse_g0.936819_alpha0.5_pf.csv':
                '1cb34b8d11ad766f89b0f15e3760c4d79073d11e26e5adaa1f1e968e38d2f6f1',
        },
        'poles': {
            'poles_alpha0.5.csv':
                '018124002e64084ca43b5a3d6eb85e0dd337ccd45b7b908d7c2e066dbd64d9b0',
            'poles_alpha1.csv':
                '63fe937a99e2592fa449b251521cfbe5e1d1122d032516bd0a571ee59b90be2c',
            'poles_alpha2.csv':
                'bc6434454ce230d18c85dd92242ec2bfbd29758a9302e9cebc17ab624a4a48fb',
            'poles_params.json':
                '1bf892580e742b9491390e516c632bc0a64d688cdc25208d9ebe8eccae0b8a76',
        },
    },
}


def digests_of(run, tmp_path):
    """Run ``RUNS[run]`` in ``tmp_path`` and return the sha256 of each file it wrote."""
    (tmp_path / "lc.net").write_text(LC_NETLIST)
    (tmp_path / "jj.net").write_text(JOSEPHSON_NETLIST)
    (tmp_path / "pulse.csv").write_text(PULSE_CSV)
    out = tmp_path / "out"
    with warnings.catch_warnings():  # a dt warning is part of a run, not of its files
        warnings.simplefilter("ignore")
        assert main([a.format(tmp=tmp_path) for a in RUNS[run]] + ["--out", str(out)]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_result_files_keep_their_bytes(tmp_path, capsys, run):
    want = DIGESTS[run] if run in DIGESTS else SIMD_DIGESTS.get(TARGET, {}).get(run)
    assert want is not None, f"no {run} digests recorded for numpy {TARGET[0]} on {TARGET[1]}"
    assert digests_of(run, tmp_path) == want


def test_simd_runs_keep_their_bytes_on_the_avx2_path(tmp_path):
    """The SIMD-dependent runs again, in a fresh interpreter whose numpy has
    its AVX-512 targets disabled (``NPY_DISABLE_CPU_FEATURES``), against the
    AVX2 digests."""
    if "X86_V3" not in TARGET[1]:
        pytest.skip(f"numpy enables no AVX2 target (X86_V3) here: {TARGET[1]}")
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(
        disabled + [t for t in AVX512_TARGETS if t in TARGET[1]]))
    tests = Path(__file__).parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                                      env.get("PYTHONPATH")]))
    code = ("import json, pathlib, sys\n"
            "import test_result_bytes as t\n"
            "tmp = pathlib.Path(sys.argv[1])\n"
            "digests = {}\n"
            "for run in sorted(set(t.RUNS) - set(t.DIGESTS)):\n"
            "    (tmp / run).mkdir()\n"
            "    digests[run] = t.digests_of(run, tmp / run)\n"
            "(tmp / 'digests.json').write_text(json.dumps([t.TARGET, digests]))\n")
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                   timeout=300, capture_output=True)
    (version, target), got = json.loads((tmp_path / "digests.json").read_text())
    assert (version, tuple(target)) == (np.__version__, ("X86_V3",))
    assert got == SIMD_DIGESTS[version, ("X86_V3",)]
