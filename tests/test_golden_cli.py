"""Byte-identical output of a fixed set of fast CLI commands.

Each command runs in-process; the sha256 of its stdout is pinned, so a
refactor of the checks, the beta rows, the sampling tasks or the search
split cannot change these bytes unnoticed.  A deliberate output change
re-records the digests and says why in CHANGES.md.
"""

import hashlib

import pytest

from hilbertdepth.cli import main

# an ideal on 9 variables: the first eight generators of the compressed
# complex with alpha(S/I) = (1, 9, 36, 82, 105, 91, 40, 0, 0, 0)
N9_GENS = ("x6*x8*x9, x7*x8*x9, x1*x2*x8*x9, x1*x3*x8*x9, x2*x3*x8*x9, "
           "x1*x4*x8*x9, x2*x4*x8*x9, x3*x4*x8*x9")

GOLDEN = [
    (("compute", "-n", "4", "x1*x2, x2*x3*x4", "--format", "json", "--deterministic"),
     "74c28f817f7a6ad0626b47d1e91d57f7ca70c6d6b6429c5441e7cb0fe54b1c15"),
    (("compute", "-n", "4", "x1*x2, x2*x3*x4"),
     "7566745d986fbd02e0e79b6adc2aa2d1564b8ddd10b766d17f177b0eeee587a0"),
    (("compute", "-n", "4", "x1*x2, x2*x3*x4", "--format", "csv"),
     "2fa5263f91004c125ae86b5f30076fe6a0dbe695a27061fdc05e837a3e5d852c"),
    (("compute", "-n", "9", N9_GENS, "--format", "json", "--deterministic"),
     "7b97375649c660e798cf7cdbdaa67322bdef9ae97a9e363ae1ea8fb57432d486"),
    (("verify", "--tables"),
     "cd8b3fb7b8a6bdd5207d54fb51f44c6c786c369730f3784ba2c15f64c1c40314"),
    (("verify", "--tables", "--format", "json", "--deterministic"),
     "9919d5c2fe49f2e649770e9cb6ea19942ad1ab24936e32d15b5ad220046ce9d4"),
    (("verify", "--exhaustive", "--n-range", "1..5", "--format", "json", "--deterministic"),
     "e7e7951196a20b27ce7595fc7f89a570a02084058acf63d5f8faa67c1b9de6e6"),
    (("search", "--predicate", "main", "--exhaustive", "-n", "5", "--format", "json",
      "--deterministic"),
     "608dfdfed497e90de17f2be85bdf5a11587607d3c1f122878fbdf95edd9f6116"),
    (("search", "--predicate", "main", "--exhaustive", "-n", "5"),
     "b79366781d4b3e986ea139b91a07ef38352815c5648f7b83e5f0addcc7b88928"),
    (("verify", "--exhaustive", "-n", "4", "--format", "csv"),
     "3fab671e369374ed5af3fbcf898c58a51f3942d4b48114faa8342cd4d44cd066"),
    (("verify", "--random", "--n-range", "7..9", "--samples", "600", "--seed", "5",
      "--format", "json", "--deterministic"),
     "e71c890d4603d00111a93e02b6c3f1f22d8da967a28be6a92c1c53946880c1ff"),
    (("verify", "--random", "-n", "8", "--samples", "200", "--seed", "1", "--format", "csv"),
     "7d47f3f797a3ddda8a51a2b6ba28d36709f635a2ca03b06460f385c9c14e008b"),
    (("search", "--predicate", "beta47-bound", "--n-range", "10..12", "--samples", "300",
      "--seed", "7", "--format", "json", "--deterministic"),
     "5213bc6ad373213f8af808c8778fa8d9868fa6bedc063deb9faaf52a178f9a0f"),
    (("search", "--predicate", "main", "--n-range", "7..9", "--samples", "900", "--seed", "3"),
     "92b3c96e117a54315293e0736060a7899187a78f236b1631e47e6393e997eaca"),
    (("search", "--predicate", "q6-bounds", "-n", "9", "--samples", "4500", "--seed", "2",
      "--workers", "2", "--format", "json", "--deterministic"),
     "7ae458c9bf21f013d7fc038260f9f6a92b814440b49a7135ce31b85c5088fc6f"),
]


# the whole n = 6 census (about 1 s), with its own id: in GOLDEN it would share
# "verify --exhaustive -n" with the n = 4 entry, and both ids would change
VERIFY_N6 = (("verify", "--exhaustive", "-n", "6", "--format", "json", "--deterministic"),
             "e73cb4917a10af28533e3e4e1de91bbeb979fb1932d5c9beda3dae643a82862c")


@pytest.mark.parametrize("argv,digest", GOLDEN + [VERIFY_N6],
                         ids=[" ".join(a[:3]) for a, _ in GOLDEN] + ["verify --exhaustive -n 6"])
def test_golden_output(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
