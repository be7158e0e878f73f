"""Byte-identity guard: output files hashed at fixed inputs and seeds.

The hashes were taken before the roster and its covariates, scores and
percentiles became columns.  Any change to a byte of these files fails
here; a deliberate change of output must update the hash and say why.
"""

import hashlib

from click.testing import CliRunner

from helpers import build_tiny_world, tiny_publications, write_pubs
from resperf.cli import main
from resperf.corpus import write_roster

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
    "recovery.json": "0368c509fea28afabed7b89e9f1ca6c0174aff1e1953f6a9d883804f854f1778",
}
CHAIN_SEED_8 = {
    "regression_table.txt": "3d31f29eb7c0052f684bde10201495ddf0e08557cc231c5c1b16eebd05b91f16",
    "regression_table.csv": "e41573817f881cf6424e7003a1114a643b038aeecf12fd9308c224fbf3eb30ca",
    "descriptives.txt": "5ba904a0f170b5902e33cb2c2fbacdb07b50e34f65961b175525c038ec3c20ed",
    "descriptives.csv": "daefe5429a656551885c7f9efcecb8e3036dcc69c92b1f483022f2605d4e0f66",
    "age_histogram.csv": "6c8e0c51109dc47633104359ab9021eca99332f2be84e5e5e1a60b813fc6cd33",
    "appointment_age_histogram.csv": "cec30a96950966a4b3309305f419e41455f9b87b3f0f034f3f4004ae9cc663bf",
    "fss_cv_by_sds.csv": "cbec676123d4288edec82393b263fb78a18560bf7aa12683b992c9124702381f",
    "fits.json": "8b44b5931f16e0162b601a008b81978cffc36b6d96fa62302cdb783e5e5a187e",
}


def digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def run(*args):
    res = CliRunner().invoke(main, [str(a) for a in args])
    assert res.exit_code == 0, res.output


def test_compute_on_the_tiny_world(tmp_path):
    roster = build_tiny_world()[0]
    write_roster(tmp_path / "roster.csv", roster)
    write_pubs(tmp_path / "pubs.csv", tiny_publications(), roster.ids)
    assert digests(tmp_path, TINY_INPUTS) == TINY_INPUTS
    run("compute", "--roster", tmp_path / "roster.csv", "--pubs", tmp_path / "pubs.csv",
        "--out", tmp_path / "out")
    assert digests(tmp_path / "out", COMPUTE_TINY) == COMPUTE_TINY


def test_simulate_at_seed_eight(tmp_path):
    run("simulate", "--runs", 2, "--n-professors", 300, "--seed", 8,
        "--out", tmp_path / "out")
    assert digests(tmp_path / "out", SIMULATE_SEED_8) == SIMULATE_SEED_8


def test_regress_and_report_on_a_simulated_world(tmp_path):
    sim, scored = tmp_path / "sim", tmp_path / "scored"
    run("simulate", "--runs", 1, "--n-professors", 300, "--seed", 8, "--out", sim)
    run("compute", "--roster", sim / "roster.csv", "--pubs", sim / "publications.csv",
        "--conventions", sim / "conventions.csv", "--out", scored)
    found = {}
    for fmt in ("text", "csv"):
        run("regress", "--data", scored, "--fmt", fmt, "--out", tmp_path / fmt)
        run("report", "--roster", sim / "roster.csv", "--indicators", scored / "indicators.csv",
            "--fmt", fmt, "--out", tmp_path / fmt)
        found |= digests(tmp_path / fmt, [name for name in CHAIN_SEED_8
                                          if (tmp_path / fmt / name).exists()])
    assert found == CHAIN_SEED_8
