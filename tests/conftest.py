"""Shared fixtures: small deterministic corpora and hand-crafted records."""

from __future__ import annotations

import contextlib

import pytest

from repro.blocking import mfiblocks
from repro.datagen import build_corpus
from repro.evaluation import GoldStandard
from repro.geo import GeoPoint
from repro.records.schema import (
    Gender,
    Place,
    PlaceType,
    SourceKind,
    SourceRef,
    VictimRecord,
)


@contextlib.contextmanager
def scoring_dispatch_floor():
    """Dispatch every non-empty scored pair list.

    Lowers ``MIN_DISPATCH_PAIRS`` (512 in production) to 1 where the one
    scoring dispatch, ``mfiblocks.score_pairs``, reads it, so a test
    corpus far below the production floor still sends its scoring
    through a parallel executor's pool. Where the work runs never
    changes the ranked bytes.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mfiblocks, "MIN_DISPATCH_PAIRS", 1)
        yield


@pytest.fixture
def dispatch_small_scoring():
    """:func:`scoring_dispatch_floor` for the duration of one test."""
    with scoring_dispatch_floor():
        yield


@pytest.fixture
def closing():
    """``closing(executor)`` returns ``executor`` and closes it when the
    test ends, so no worker pool, and none of its threads, outlives the
    test that opened it."""
    opened = []

    def track(executor):
        opened.append(executor)
        return executor

    yield track
    for executor in reversed(opened):
        executor.close()


def make_record(
    book_id=1,
    source=("list", "L1"),
    first=("Guido",),
    last=("Foa",),
    gender=Gender.MALE,
    **kwargs,
):
    """Concise VictimRecord factory for tests."""
    kind, identifier = source
    return VictimRecord(
        book_id=book_id,
        source=SourceRef(SourceKind(kind), identifier),
        first=tuple(first),
        last=tuple(last),
        gender=gender,
        **kwargs,
    )


@pytest.fixture(scope="session")
def guido_records():
    """The paper's Table 1: three reports about Guido Foa (and a decoy).

    Records 1016196 / 1059654 / 1028769 mirror the published rows; the
    third spells the last name 'Foy' and lives in Canischio — the record
    a naive first+last query would miss.
    """
    torino = Place(city="Torino", county="Torino", region="Piemonte",
                   country="Italy", coords=GeoPoint(45.0703, 7.6869))
    turin = Place(city="Turin", county="Torino", region="Piemonte",
                  country="Italy", coords=GeoPoint(45.0703, 7.6869))
    canischio = Place(city="Canischio", county="Torino", region="Piemonte",
                      country="Italy", coords=GeoPoint(45.3742, 7.5961))
    auschwitz = Place(city="Auschwitz", country="Poland",
                      coords=GeoPoint(50.0343, 19.2098))
    son = VictimRecord(
        book_id=1016196,
        source=SourceRef(SourceKind.TESTIMONY, "sub-a"),
        first=("Guido",), last=("Foa",), gender=Gender.MALE,
        birth_day=2, birth_month=8, birth_year=1936,
        mother=("Estela",), father=("Italo",),
        places={PlaceType.BIRTH: (torino,), PlaceType.PERMANENT: (torino,)},
        person_id=2,
    )
    father_a = VictimRecord(
        book_id=1059654,
        source=SourceRef(SourceKind.TESTIMONY, "sub-b"),
        first=("Guido",), last=("Foa",), gender=Gender.MALE,
        birth_day=18, birth_month=11, birth_year=1920,
        spouse=("Helena",), mother=("Olga",), father=("Donato",),
        places={
            PlaceType.BIRTH: (torino,),
            PlaceType.PERMANENT: (torino,),
            PlaceType.DEATH: (auschwitz,),
        },
        person_id=1,
    )
    father_b = VictimRecord(
        book_id=1028769,
        source=SourceRef(SourceKind.LIST, "italy-deportation-1"),
        first=("Guido",), last=("Foy",), gender=Gender.MALE,
        birth_day=18, birth_month=11, birth_year=1920,
        mother=("Olga",), father=("Donato",),
        places={
            PlaceType.BIRTH: (turin,),
            PlaceType.PERMANENT: (canischio,),
        },
        person_id=1,
    )
    decoy = VictimRecord(
        book_id=1990001,
        source=SourceRef(SourceKind.LIST, "poland-camp-1"),
        first=("Avraham",), last=("Kesler",), gender=Gender.MALE,
        birth_year=1927,
        places={PlaceType.BIRTH: (Place(city="Lubaczow", country="Poland"),)},
        person_id=3,
    )
    return [son, father_a, father_b, decoy]


@pytest.fixture(scope="session")
def small_corpus():
    """A ~220-record single-community corpus with ground truth."""
    dataset, persons = build_corpus(
        n_persons=100, communities=("italy",), seed=11, name="test-corpus"
    )
    return dataset, persons


@pytest.fixture(scope="session")
def small_gold(small_corpus):
    dataset, _persons = small_corpus
    return GoldStandard.from_dataset(dataset)


@pytest.fixture(scope="session")
def multi_community_corpus():
    """A mixed-community corpus (exercises transliteration variety)."""
    dataset, persons = build_corpus(
        n_persons=120,
        communities=("poland", "greece", "ussr"),
        seed=13,
        name="test-multi",
    )
    return dataset, persons
