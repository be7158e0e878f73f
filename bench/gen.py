"""Seeded input generator for the 20k-professor benchmark workloads.

The generator is the benchmark's own: it draws a roster and a publication
corpus with numpy and writes them in the program's input formats, so a
change to ``resperf.sim`` cannot change these workloads.  It keeps the drawn
arrays (``World``) so that the output checks can recompute every indicator
without reading anything the program wrote.

Planted effects: a professor's yearly publication rate and the citation and
impact-factor level of their papers fall with age and rise with seniority,
the signs the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CENSUS = date(2010, 12, 31)
WINDOW = (2006, 2010)
DAYS_PER_YEAR = 365.2425

POSITION_WEIGHTED = "position_weighted"
ALPHABETICAL = "alphabetical"
CONVENTIONS = (ALPHABETICAL, POSITION_WEIGHTED)

# (sds, uda, convention); two fields share most disciplines so that the SDS
# percentile cohorts and the UDA regression groups differ.
FIELDS = (
    ("MED/09", "MED", POSITION_WEIGHTED),
    ("MED/18", "MED", POSITION_WEIGHTED),
    ("BIO/10", "BIO", POSITION_WEIGHTED),
    ("BIO/14", "BIO", POSITION_WEIGHTED),
    ("AGR/02", "AVS", POSITION_WEIGHTED),
    ("MAT/03", "MAT", ALPHABETICAL),
    ("MAT/05", "MAT", ALPHABETICAL),
    ("FIS/03", "PHY", ALPHABETICAL),
    ("ING-INF/05", "IIE", ALPHABETICAL),
    ("ING-IND/10", "IIE", ALPHABETICAL),
)
CATEGORIES_PER_FIELD = 3

# (roster name, id prefix, pool size); shares of the roster below.
UNIVERSITY_TYPES = (("public", "PUB", 20), ("private", "PRI", 6),
                    ("polytechnic", "POL", 4), ("advanced_school", "ADV", 3))
UNIVERSITY_SHARES = (0.85, 0.07, 0.05, 0.03)
EXTERNAL_UNIVERSITIES = 12
EXTERNAL_CODE = 1000  # university codes >= this are outside the roster

BYLINE_MEAN = {POSITION_WEIGHTED: 5.0, ALPHABETICAL: 3.0}
MAX_BYLINE = 25
ROSTER_COAUTHOR_SHARE = 0.15
SAME_UNIVERSITY_SHARE = 0.45

# Log-scale effects per year, centred at age 55 and seniority 12.
AGE_EFFECT = -0.035
SENIORITY_EFFECT = 0.03
GENDER_EFFECT = 0.10
QUALITY_AGE_EFFECT = -0.02
QUALITY_SENIORITY_EFFECT = 0.02
BASE_LOG_RATE = 0.12
HETEROGENEITY = 0.6

# Lenient-corpus defects.
UNKNOWN_IF_SHARE = 1.0 / 3.0
UNKNOWN_IF_CELLS = 3
OUT_OF_WINDOW_YEARS = (2004, 2005, 2011, 2012)
OUT_OF_WINDOW_SHARE = 0.04
EXCLUDED_DOC_TYPES = ("editorial material", "Editorial Material", "reply")
EXCLUDED_SHARE = 0.05


@dataclass
class World:
    """Everything drawn for one workload; arrays are indexed by row order."""
    n_professors: int
    # roster
    field: np.ndarray          # field index per professor
    age_days: np.ndarray       # census - birth, days
    seniority_days: np.ndarray  # census - appointment, days
    male: np.ndarray
    utype: np.ndarray
    univ: np.ndarray           # university code per professor
    t: np.ndarray              # working years inside the window
    # publications
    year: np.ndarray
    category: np.ndarray       # global category index
    citations: np.ndarray
    if_milli: np.ndarray       # impact factor * 1000; -1 when unknown
    excluded: np.ndarray       # doc type dropped at ingest
    n_authors: np.ndarray
    shared: np.ndarray         # first and last author share a university
    # every byline slot, publication by publication
    offsets: np.ndarray        # slots of publication j: offsets[j]:offsets[j+1]
    slot_prof: np.ndarray      # professor index; -1 for an external author
    slot_univ: np.ndarray      # university code
    # authorship rows of rostered professors
    a_pub: np.ndarray
    a_pos: np.ndarray
    a_prof: np.ndarray

    @property
    def n_publications(self) -> int:
        return int(self.year.size)


def professor_id(i: int) -> str:
    return f"R{i:05d}"


def category_name(c: int) -> str:
    return f"SC{c:03d}"


def university_name(code: int) -> str:
    if code >= EXTERNAL_CODE:
        return f"EXT{code - EXTERNAL_CODE}"
    return f"{UNIVERSITY_TYPES[code // 100][1]}{code % 100}"


def draw(seed: int, n: int, lenient: bool) -> World:
    """Draw a roster of ``n`` professors and their corpus."""
    rng = np.random.default_rng(seed)
    field = rng.integers(0, len(FIELDS), size=n)
    age = 36.0 + 36.0 * rng.beta(2.2, 1.6, size=n)
    seniority = (age - 30.0) * rng.beta(2.0, 2.5, size=n)
    age_days = np.rint(age * DAYS_PER_YEAR).astype(np.int64)
    seniority_days = np.rint(seniority * DAYS_PER_YEAR).astype(np.int64)
    male = rng.random(n) < 0.75
    utype = rng.choice(len(UNIVERSITY_TYPES), size=n, p=UNIVERSITY_SHARES)
    pool = np.array([u[2] for u in UNIVERSITY_TYPES])
    univ = 100 * utype + rng.integers(0, pool[utype])
    # A few professors joined in 2007 or 2008: spans on year boundaries give
    # exactly 4 or 3 working years.
    t = np.full(n, float(WINDOW[1] - WINDOW[0] + 1))
    late = rng.random(n) < 0.06
    t[late] = rng.choice([4.0, 3.0], size=int(late.sum()))

    years_age = age_days / DAYS_PER_YEAR - 55.0
    years_sen = seniority_days / DAYS_PER_YEAR - 12.0
    log_rate = (BASE_LOG_RATE + AGE_EFFECT * years_age
                + SENIORITY_EFFECT * years_sen + GENDER_EFFECT * male)
    shape = 1.0 / HETEROGENEITY
    rate = np.exp(log_rate) * rng.gamma(shape, 1.0 / shape, size=n)
    counts = rng.poisson(rate * t)
    log_quality = (QUALITY_AGE_EFFECT * years_age
                   + QUALITY_SENIORITY_EFFECT * years_sen)

    owner = np.repeat(np.arange(n), counts)
    m = owner.size
    year = rng.integers(WINDOW[0], WINDOW[1] + 1, size=m)
    pub_field = field[owner]
    category = pub_field * CATEGORIES_PER_FIELD + rng.integers(
        0, CATEGORIES_PER_FIELD, size=m)
    n_cat = len(FIELDS) * CATEGORIES_PER_FIELD
    cite_base = 3.0 + 1.5 * (np.arange(n_cat) % 7)
    cite_mean = (cite_base[category] * (WINDOW[1] + 2 - year) / 2.0
                 * np.exp(log_quality[owner]) * rng.gamma(1 / 1.2, 1.2, size=m))
    citations = rng.poisson(cite_mean)
    if_mu = np.log(0.8 + 0.35 * (np.arange(n_cat) % 5))
    if_milli = np.maximum(1, np.rint(1000.0 * np.exp(
        if_mu[category] + 0.5 * log_quality[owner]
        + 0.35 * rng.standard_normal(m)))).astype(np.int64)

    excluded = np.zeros(m, dtype=bool)
    if lenient:
        if_milli[rng.random(m) < UNKNOWN_IF_SHARE] = -1
        cells = rng.choice(n_cat * (WINDOW[1] - WINDOW[0] + 1),
                           size=UNKNOWN_IF_CELLS, replace=False)
        cell_of = category * (WINDOW[1] - WINDOW[0] + 1) + (year - WINDOW[0])
        if_milli[np.isin(cell_of, cells)] = -1
        moved = rng.random(m) < OUT_OF_WINDOW_SHARE
        year[moved] = rng.choice(OUT_OF_WINDOW_YEARS, size=int(moved.sum()))
        excluded = rng.random(m) < EXCLUDED_SHARE

    conv_pw = np.array([f[2] == POSITION_WEIGHTED for f in FIELDS])
    mean_len = np.where(conv_pw[pub_field], BYLINE_MEAN[POSITION_WEIGHTED],
                        BYLINE_MEAN[ALPHABETICAL])
    n_authors = np.minimum(1 + rng.poisson(mean_len - 1.0), MAX_BYLINE)
    focal_pos = rng.integers(0, n_authors)
    # Rostered co-authors are owner + j * stride (mod n) for the j-th
    # co-author slot; j * stride < n keeps them distinct within a byline.
    stride = rng.integers(1, max(2, n // (MAX_BYLINE + 1)), size=m)

    offsets = np.concatenate(([0], np.cumsum(n_authors)))
    slot_pub = np.repeat(np.arange(m), n_authors)
    slot_pos = np.arange(offsets[-1]) - offsets[slot_pub]
    is_focal = slot_pos == focal_pos[slot_pub]
    ordinal = slot_pos + (slot_pos < focal_pos[slot_pub])  # 1.. for co-authors
    roster_co = (~is_focal) & (rng.random(slot_pub.size) < ROSTER_COAUTHOR_SHARE)
    slot_prof = np.full(slot_pub.size, -1, dtype=np.int64)
    slot_prof[is_focal] = owner
    slot_prof[roster_co] = (owner[slot_pub[roster_co]]
                            + ordinal[roster_co] * stride[slot_pub[roster_co]]) % n
    slot_univ = np.where(rng.random(slot_pub.size) < SAME_UNIVERSITY_SHARE,
                         univ[owner[slot_pub]],
                         EXTERNAL_CODE + rng.integers(0, EXTERNAL_UNIVERSITIES,
                                                      size=slot_pub.size))
    rostered = slot_prof >= 0
    slot_univ[rostered] = univ[slot_prof[rostered]]
    shared = slot_univ[offsets[:-1]] == slot_univ[offsets[1:] - 1]

    return World(n, field, age_days, seniority_days, male, utype, univ, t,
                  year, category, citations, if_milli, excluded, n_authors,
                  shared, offsets, slot_prof, slot_univ, slot_pub[rostered],
                  slot_pos[rostered], slot_prof[rostered])


def write_roster(world: World, path: Path) -> None:
    lines = ["id,gender,birth_date,appointment_date,sds,uda,university_type,"
             "active_start,active_end"]
    for i in range(world.n_professors):
        sds, uda, _ = FIELDS[world.field[i]]
        birth = CENSUS - timedelta(days=int(world.age_days[i]))
        appointed = CENSUS - timedelta(days=int(world.seniority_days[i]))
        span = ","
        if world.t[i] < WINDOW[1] - WINDOW[0] + 1:
            start = date(WINDOW[1] + 1 - int(world.t[i]), 1, 1)
            span = f"{start.isoformat()},{CENSUS.isoformat()}"
        lines.append(f"{professor_id(i)},{'M' if world.male[i] else 'F'},"
                     f"{birth.isoformat()},{appointed.isoformat()},{sds},{uda},"
                     f"{UNIVERSITY_TYPES[world.utype[i]][0]},{span}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_conventions(path: Path) -> None:
    lines = ["sds,convention"] + [f"{sds},{conv}" for sds, _, conv in FIELDS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _byline_tokens(world: World) -> list[str]:
    univ_names = {int(c): university_name(int(c))
                  for c in np.unique(world.slot_univ)}
    tokens = []
    serial = 0
    for prof, code in zip(world.slot_prof.tolist(), world.slot_univ.tolist()):
        if prof >= 0:
            author = professor_id(prof)
        else:
            serial += 1
            author = f"E{serial}"
        tokens.append(f"{author}@{univ_names[code]}")
    return tokens


def _doc_types(world: World, seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 7])
    m = world.n_publications
    kinds = np.where(rng.random(m) < 0.1, "review", "article").tolist()
    picks = rng.integers(0, len(EXCLUDED_DOC_TYPES), size=m)
    for j in np.flatnonzero(world.excluded).tolist():
        kinds[j] = EXCLUDED_DOC_TYPES[picks[j]]
    return kinds


def write_publications_csv(world: World, path: Path, seed: int) -> None:
    offsets = world.offsets
    tokens = _byline_tokens(world)
    kinds = _doc_types(world, seed)
    lines = ["id,year,subject_category,journal_if,citations,doc_type,byline"]
    for j, (y, c, cit, ifm) in enumerate(zip(
            world.year.tolist(), world.category.tolist(),
            world.citations.tolist(), world.if_milli.tolist())):
        if_text = "" if ifm < 0 else repr(ifm / 1000)
        byline = ";".join(tokens[offsets[j]:offsets[j + 1]])
        lines.append(f"W{j + 1:07d},{y},{category_name(c)},{if_text},{cit},"
                     f"{kinds[j]},{byline}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_publications_jsonl(world: World, path: Path, seed: int) -> None:
    """JSON lines with list bylines; unknown impact factors are null or absent."""
    offsets = world.offsets
    tokens = _byline_tokens(world)
    kinds = _doc_types(world, seed)
    lines = []
    for j, (y, c, cit, ifm) in enumerate(zip(
            world.year.tolist(), world.category.tolist(),
            world.citations.tolist(), world.if_milli.tolist())):
        byline = '", "'.join(tokens[offsets[j]:offsets[j + 1]])
        if ifm >= 0:
            if_part = f'"journal_if": {ifm / 1000!r}, '
        elif j % 3:
            if_part = '"journal_if": null, '
        else:
            if_part = ""
        lines.append(f'{{"id": "W{j + 1:07d}", "year": {y}, '
                     f'"subject_category": "{category_name(c)}", {if_part}'
                     f'"citations": {cit}, "doc_type": "{kinds[j]}", '
                     f'"byline": ["{byline}"]}}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(seed: int, n: int, lenient: bool, out: Path) -> tuple[World, dict]:
    """Draw a world and write its files into ``out``; returns the file paths."""
    out.mkdir(parents=True, exist_ok=True)
    world = draw(seed, n, lenient)
    files = {"roster": out / "roster.csv", "conventions": out / "conventions.csv"}
    write_roster(world, files["roster"])
    write_conventions(files["conventions"])
    if lenient:
        files["pubs"] = out / "publications.jsonl"
        write_publications_jsonl(world, files["pubs"], seed)
    else:
        files["pubs"] = out / "publications.csv"
        write_publications_csv(world, files["pubs"], seed)
    return world, files
