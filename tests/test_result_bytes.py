"""Pin the bytes of the CLI's result files.

A fixed set of small invocations runs in-process, and the sha256 of every file
each one writes is compared with the digests below. A change that moves any
result byte must update these digests and say in CHANGES.md why the bytes
changed; a refactor that claims identical output leaves them alone.
"""
import hashlib
import warnings

import pytest

from lineport.cli import main

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
    # the fallback at the caller's n, where a 16384-sample re-inversion was refused
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
    'impulse': {
        'impulse_g0.3_alpha2.csv':
            'bfbe2db76bd3693613cebd720a8f05ed516720093116ced3ed7764d73571c20d',
        'impulse_g0.3_alpha2.json':
            '29b20019f792dd16ffeae018cca5ecad8f7d886ecc149bab8eb059f21cd9e674',
        'impulse_g0.3_alpha2_pf.csv':
            '6061f6d0ddf3570b85b2f4e666722ad03949e1393ef6f0cbf16782e8c08ee6c7',
        'impulse_g0.8_alpha2.csv':
            '7f074b375e7b18e3ae047fbbe144a477feae371c15d0e3467e81c53b29a57e29',
        'impulse_g0.8_alpha2.json':
            '6907d6b5a1566fa934d894255d5ec1530468a5e8cda266345c6777aac4e742e2',
        'impulse_g0.8_alpha2_pf.csv':
            '4989e657fd8d856968e11b86fd6f9880b463ebe35c3492ebd496a994a5c97279',
    },
    'impulse-65536': {
        'impulse_g0.3_alpha2.csv':
            'f018653f3b8703ac6c66d56713c60f8268f8e27ba82be7d20bbda5ff4821d53f',
        'impulse_g0.3_alpha2.json':
            'db652de762a5d6915495a777afe86ccc7f92684b3d41edeaa96e681f94606504',
        'impulse_g0.3_alpha2_pf.csv':
            'e7c72635acada2ed619550f094bd034a3faefcc8dfccb49cb978538be801fcbe',
        'impulse_g0.8_alpha2.csv':
            '531c3681d8d97b6c028fbca9a92abf7ba2a1f8e53f484bcaf94facf1011d84fa',
        'impulse_g0.8_alpha2.json':
            '372af55adb6b0b1baf42cca2c842ddf9300fd924457b4603c873debf88ed6018',
        'impulse_g0.8_alpha2_pf.csv':
            '90b54aafb0d32ce078af1481fd637aed972212d56c2c3d39f900fcff7fcc7b46',
    },
    'impulse-near-double': {
        'impulse_g0.936819_alpha0.5.csv':
            '8053abca72f7ee905d42b78287910e85bb3e50e3197b84324aba17789cb96fb1',
        'impulse_g0.936819_alpha0.5.json':
            '6ad29e29add91d00cdcf1a98cea808d716441c76723626f0dba1694440d362ac',
        'impulse_g0.936819_alpha0.5_pf.csv':
            '8053abca72f7ee905d42b78287910e85bb3e50e3197b84324aba17789cb96fb1',
    },
    'impulse-near-double-65536': {
        'impulse_g0.936819_alpha0.5.csv':
            'a1de8a412a760c9b902a5d3708d3bfbc299d9ce04d9523ae2ba4555312d51e6f',
        'impulse_g0.936819_alpha0.5.json':
            '7f02db80aa2e98702fe0327cf838ee7e9e053f526ef61bc32b0af1c3241302f8',
        'impulse_g0.936819_alpha0.5_pf.csv':
            'a1de8a412a760c9b902a5d3708d3bfbc299d9ce04d9523ae2ba4555312d51e6f',
    },
    'poles': {
        'poles_alpha0.5.csv':
            'e6cc38e156e9f1f02d6e81028ac4bf60f2fa604d20028ca4f3fe5a80d63e9265',
        'poles_alpha1.csv':
            '4c6ad915bdf3579ac5e7bd3b708b9204b6687b9bf06c2cf9bc9f259c91aff870',
        'poles_alpha2.csv':
            '27ab3259716113ea85ba4804472901ffafe6361095272edee364dc997c718f0b',
        'poles_params.json':
            '1bf892580e742b9491390e516c632bc0a64d688cdc25208d9ebe8eccae0b8a76',
    },
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


@pytest.mark.parametrize("run", sorted(RUNS))
def test_result_files_keep_their_bytes(tmp_path, capsys, run):
    (tmp_path / "lc.net").write_text(LC_NETLIST)
    (tmp_path / "jj.net").write_text(JOSEPHSON_NETLIST)
    (tmp_path / "pulse.csv").write_text(PULSE_CSV)
    out = tmp_path / "out"
    with warnings.catch_warnings():  # a dt warning is part of a run, not of its files
        warnings.simplefilter("ignore")
        assert main([a.format(tmp=tmp_path) for a in RUNS[run]] + ["--out", str(out)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.iterdir())}
    assert got == DIGESTS[run]
