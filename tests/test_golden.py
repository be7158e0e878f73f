"""Byte-identity guard: output files hashed at fixed inputs and seeds.

The hashes were taken before the roster and its covariates, scores and
percentiles became columns.  Any change to a byte of these files fails
here; a deliberate change of output must update the hash and say why.
"""

import hashlib

from click.testing import CliRunner

from helpers import build_tiny_world
from resperf.cli import main
from resperf.corpus import write_publications, write_roster

TINY_INPUTS = {
    "roster.csv": "04eb9f9333d7a6df49106c744aea1486b99fbb006e324d55c5a893606e8f7966",
    "pubs.csv": "a70ab2711ae94b1fca427639f898a9edfd4d10e4f04464aa8311513ab32a7ea9",
}
COMPUTE_TINY = {
    "indicators.csv": "5eff0822e0b0b2a4519d6e28ca9fe1746d0ca016f4879cba8607d4929e90fcd8",
    "percentiles.csv": "96ee7e77ee9576f97b4d1151afaee42f459a956a9b9ee8baedcb34ff6a9d1cfe",
    "covariates.csv": "17a9baefad472604e83dd846014d99798be466d8f9ad827ed459e4681dd1190c",
}
SIMULATE_SEED_8 = {
    "roster.csv": "c479eddfa5dbf0208a4bc59bbbf60178c2daec9d573adf91ad5e66258114d7d5",
    "publications.csv": "222afe489d137892998d336866a49f6279ddec976eb2a4acc8e7a058db0e9902",
    "recovery_runs.csv": "4e7acfae85b13356487c23057eea4ef9c05515c61a219e7406d3716daf479fe3",
}


def digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def run(*args):
    res = CliRunner().invoke(main, [str(a) for a in args])
    assert res.exit_code == 0, res.output


def test_compute_on_the_tiny_world(tmp_path):
    roster, corpus = build_tiny_world()
    write_roster(tmp_path / "roster.csv", roster)
    write_publications(tmp_path / "pubs.csv", corpus)
    assert digests(tmp_path, TINY_INPUTS) == TINY_INPUTS
    run("compute", "--roster", tmp_path / "roster.csv", "--pubs", tmp_path / "pubs.csv",
        "--out", tmp_path / "out")
    assert digests(tmp_path / "out", COMPUTE_TINY) == COMPUTE_TINY


def test_simulate_at_seed_eight(tmp_path):
    run("simulate", "--runs", 2, "--n-professors", 300, "--seed", 8,
        "--out", tmp_path / "out")
    assert digests(tmp_path / "out", SIMULATE_SEED_8) == SIMULATE_SEED_8
