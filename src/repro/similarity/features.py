"""The 48 pairwise similarity features of Section 5.1.

The paper constructs "every conceivable similarity feature given the
record attributes" — 48 in total — and lets the ADTree learner prune the
useless ones. The feature families it spells out:

* ``sameXName`` (7) — trinary yes/partial/no per name attribute;
* ``XNdist`` (7) — max q-gram Jaccard between the attribute's names;
* ``BXdist`` (3) — birth day/month/year distance (the published trees
  threshold year distance at 1.5/4.5, i.e. *raw* years, so we keep raw
  component distances and note the normalizers in :mod:`repro.similarity.dates`);
* ``samePlaceXPartY`` (16) — binary per (place type, granularity part);
* ``XPGeoDist`` (4) — km between same-type places;
* ``sameSource``, ``sameGender``, ``sameProfession`` (3).

That enumerates 40; the remaining 8 "conceivable" features are not named
in the paper, so we fill the family out with natural candidates (phonetic
name match, Jaro-Winkler name variants, a combined DOB distance, and
item-bag overlap statistics). The ADTree prunes them exactly as the paper
describes — the learned trees select 8-10 features.

Feature names follow the published trees (Tables 7-8): ``sameFFN``,
``MFNdist``, ``FFNdist``, ``B3dist``, ``DPGeoDist``, ...

A feature value is a ``float`` (numeric), a ``str`` (categorical), or
``None`` (missing — either record lacks the underlying attribute). The
ADTree's missing-value semantics skip splitters whose feature is None.

Two shapes carry those values. :func:`extract_features` returns one
dict per pair (:data:`FeatureVector`) and is the scalar oracle; the
production extractor :func:`extract_features_batch` returns a
:class:`FeatureMatrix` — one column per feature over all pairs — which
the ADTree learner and the vectorized scorer read directly.
:meth:`FeatureMatrix.vectors` and :meth:`FeatureMatrix.from_vectors`
convert between the two without changing a value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from numpy.typing import NDArray

from repro.contracts import batch_kernel, hot_path
from repro.records.dataset import Dataset
from repro.records.itembag import Item, record_to_items
from repro.records.schema import PLACE_PARTS, PlacePart, PlaceType, VictimRecord
from repro.similarity.dates import day_distance, month_distance, year_distance
from repro.geo import haversine_km
from repro.similarity.strings import jaccard_qgrams, jaro_winkler

__all__ = [
    "FeatureKind",
    "FeatureSpec",
    "FeatureVector",
    "NumericColumn",
    "CategoricalColumn",
    "FeatureColumn",
    "FeatureMatrix",
    "FEATURES",
    "FEATURE_NAMES",
    "extract_features",
    "extract_features_batch",
    "soundex",
    "SAME_YES",
    "SAME_PARTIAL",
    "SAME_NO",
]

FeatureValue = Union[float, str, None]
FeatureVector = Dict[str, FeatureValue]

SAME_YES = "yes"
SAME_PARTIAL = "partial"
SAME_NO = "no"


class FeatureKind(str, enum.Enum):
    """Whether a feature yields numbers (thresholdable) or categories."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureSpec:
    """One pairwise feature: a name, a kind, and an extractor."""

    name: str
    kind: FeatureKind
    extract: Callable[[VictimRecord, VictimRecord], FeatureValue]
    description: str = ""


def soundex(name: str) -> str:
    """American Soundex code of a name (4 characters)."""
    if not name:
        return ""
    codes = {
        "b": "1", "f": "1", "p": "1", "v": "1",
        "c": "2", "g": "2", "j": "2", "k": "2", "q": "2",
        "s": "2", "x": "2", "z": "2",
        "d": "3", "t": "3",
        "l": "4",
        "m": "5", "n": "5",
        "r": "6",
    }
    text = "".join(ch for ch in name.lower() if ch.isalpha())
    if not text:
        return ""
    first = text[0].upper()
    encoded = [codes.get(ch, "") for ch in text]
    result = [first]
    previous = codes.get(text[0], "")
    for i, code in enumerate(encoded[1:], start=1):
        ch = text[i]
        if code and code != previous:
            result.append(code)
        if ch not in "hw":
            previous = code
    return ("".join(result) + "000")[:4]


# -- the columnar feature matrix -----------------------------------------------


@dataclass(frozen=True, eq=False)
class NumericColumn:
    """A numeric feature over n pairs: float64 values plus a present mask.

    Missing entries hold NaN in ``values`` and ``False`` in ``present``;
    present entries are the extractor's floats, bit for bit.
    """

    values: NDArray[np.float64]
    present: NDArray[np.bool_]

    @classmethod
    def from_values(cls, raw: Sequence[FeatureValue]) -> "NumericColumn":
        """Column of ``float(v)`` per value, ``None`` marking missing."""
        return cls(
            np.array(
                [np.nan if v is None else float(v) for v in raw],  # type: ignore[arg-type]
                dtype=np.float64,
            ),
            np.array([v is not None for v in raw], dtype=bool),
        )

    def to_list(self) -> List[FeatureValue]:
        return [
            value if present else None
            for value, present in zip(self.values.tolist(), self.present.tolist())
        ]


@dataclass(frozen=True, eq=False)
class CategoricalColumn:
    """A categorical feature over n pairs as integer codes.

    ``codes[i]`` indexes ``levels`` (``-1`` when missing). Codes are over
    ``str(value)``: ``levels`` holds one raw value per distinct string,
    sorted by that string, so ``labels[k] == str(levels[k])`` and a
    condition ``feature = s`` is ``codes == labels.index(s)``.
    """

    codes: NDArray[np.int64]
    levels: Tuple[object, ...]

    @classmethod
    def from_values(cls, raw: Sequence[object]) -> "CategoricalColumn":
        """Column coding each present value by ``str(value)``."""
        first: Dict[str, object] = {}
        keys: List[Optional[str]] = []
        for value in raw:
            if value is None:
                keys.append(None)
                continue
            key = str(value)
            first.setdefault(key, value)
            keys.append(key)
        labels = sorted(first)
        index = {label: code for code, label in enumerate(labels)}
        codes = np.array(
            [-1 if key is None else index[key] for key in keys], dtype=np.int64
        )
        return cls(codes, tuple(first[label] for label in labels))

    @property
    def present(self) -> NDArray[np.bool_]:
        return self.codes >= 0

    @property
    def labels(self) -> Tuple[str, ...]:
        """``str`` of each level, in code order (sorted)."""
        return tuple(str(level) for level in self.levels)

    def code(self, label: str) -> int:
        """Code of the level whose ``str`` is ``label``; -1 if unseen."""
        labels = self.labels
        return labels.index(label) if label in labels else -1

    def to_list(self) -> List[FeatureValue]:
        lookup = self.levels + (None,)  # code -1 reads the trailing None
        return [lookup[code] for code in self.codes.tolist()]  # type: ignore[misc]


FeatureColumn = Union[NumericColumn, CategoricalColumn]


class FeatureMatrix:
    """Feature values of n pairs, one column per feature name.

    The one production representation of pairwise features: the batch
    extractor builds it, :class:`~repro.classify.boosting.ADTreeLearner`
    fits on it and :meth:`~repro.classify.adtree.ADTreeModel.score_matrix`
    scores it. ``columns`` maps each name, in feature order, to its
    column. Dict vectors exist only at the API edge (:meth:`vectors`,
    :meth:`from_vectors`).
    """

    __slots__ = ("names", "columns", "n_rows")

    def __init__(
        self,
        names: Sequence[str],
        columns: Sequence[FeatureColumn],
        n_rows: int,
    ) -> None:
        if len(names) != len(columns):
            raise ValueError("one column per feature name")
        self.names: Tuple[str, ...] = tuple(names)
        self.columns: Dict[str, FeatureColumn] = dict(zip(self.names, columns))
        self.n_rows = n_rows

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return f"FeatureMatrix({self.n_rows} rows x {len(self.names)} features)"

    def vectors(self) -> List[FeatureVector]:
        """One dict per row, keys in feature order — the dict API edge."""
        if not self.names:
            return [{} for _row in range(self.n_rows)]
        lists = [column.to_list() for column in self.columns.values()]
        names = self.names
        return [dict(zip(names, row)) for row in zip(*lists)]

    @classmethod
    def from_vectors(cls, vectors: Sequence[FeatureVector]) -> "FeatureMatrix":
        """Columns of a dict sequence; ``from_vectors(vs).vectors() == vs``.

        Names are taken in first-seen key order and an absent key reads
        as missing. A column is numeric when its first present value is
        an ``int`` or ``float`` (not ``bool``) and categorical otherwise;
        numeric values come back as ``float``.
        """
        seen: Dict[str, None] = {}
        for vector in vectors:
            for name in vector:
                seen.setdefault(name)
        columns: List[FeatureColumn] = []
        for name in seen:
            raw = [vector.get(name) for vector in vectors]
            sample = next((value for value in raw if value is not None), None)
            if sample is None or (
                isinstance(sample, (int, float)) and not isinstance(sample, bool)
            ):
                columns.append(NumericColumn.from_values(raw))
            else:
                columns.append(CategoricalColumn.from_values(raw))
        return cls(list(seen), columns, len(vectors))


# -- name-attribute helpers ---------------------------------------------------

#: (feature code, record attribute) for the seven name attributes, in the
#: paper's order: First, Last, Spouse, Father, Mother, Mother's Maiden, Maiden.
_NAME_CODES: Tuple[Tuple[str, str], ...] = (
    ("FN", "first"),
    ("LN", "last"),
    ("SN", "spouse"),
    ("FFN", "father"),
    ("MFN", "mother"),
    ("MMN", "mother_maiden"),
    ("MN", "maiden"),
)

_PLACE_CODES: Tuple[Tuple[str, PlaceType], ...] = (
    ("BP", PlaceType.BIRTH),
    ("PP", PlaceType.PERMANENT),
    ("WP", PlaceType.WARTIME),
    ("DP", PlaceType.DEATH),
)


def _same_name(attribute: str) -> Callable[[VictimRecord, VictimRecord], FeatureValue]:
    def extractor(a: VictimRecord, b: VictimRecord) -> FeatureValue:
        names_a = set(a.names(attribute))
        names_b = set(b.names(attribute))
        if not names_a or not names_b:
            return None
        shared = names_a & names_b
        if names_a == names_b:
            return SAME_YES
        if shared:
            return SAME_PARTIAL
        return SAME_NO

    return extractor


def _name_dist(attribute: str) -> Callable[[VictimRecord, VictimRecord], FeatureValue]:
    def extractor(a: VictimRecord, b: VictimRecord) -> FeatureValue:
        names_a = a.names(attribute)
        names_b = b.names(attribute)
        if not names_a or not names_b:
            return None
        return max(
            jaccard_qgrams(x.lower(), y.lower()) for x in names_a for y in names_b
        )

    return extractor


def _name_jw(attribute: str) -> Callable[[VictimRecord, VictimRecord], FeatureValue]:
    def extractor(a: VictimRecord, b: VictimRecord) -> FeatureValue:
        names_a = a.names(attribute)
        names_b = b.names(attribute)
        if not names_a or not names_b:
            return None
        return max(
            jaro_winkler(x.lower(), y.lower()) for x in names_a for y in names_b
        )

    return extractor


def _name_soundex(attribute: str) -> Callable[[VictimRecord, VictimRecord], FeatureValue]:
    def extractor(a: VictimRecord, b: VictimRecord) -> FeatureValue:
        names_a = a.names(attribute)
        names_b = b.names(attribute)
        if not names_a or not names_b:
            return None
        codes_a = {soundex(name) for name in names_a}
        codes_b = {soundex(name) for name in names_b}
        return SAME_YES if codes_a & codes_b else SAME_NO

    return extractor


# -- date helpers --------------------------------------------------------------


def _birth_component_dist(
    component: str,
) -> Callable[[VictimRecord, VictimRecord], FeatureValue]:
    def extractor(a: VictimRecord, b: VictimRecord) -> FeatureValue:
        value_a = getattr(a, f"birth_{component}")
        value_b = getattr(b, f"birth_{component}")
        if value_a is None or value_b is None:
            return None
        if component == "day":
            return float(day_distance(value_a, value_b))
        if component == "month":
            return float(month_distance(value_a, value_b))
        return float(year_distance(value_a, value_b))

    return extractor


def _full_dob_dist(a: VictimRecord, b: VictimRecord) -> FeatureValue:
    """Approximate distance in days between full birth dates."""
    if None in (a.birth_year, b.birth_year, a.birth_month, b.birth_month,
                a.birth_day, b.birth_day):
        return None
    days_a = a.birth_year * 365 + (a.birth_month - 1) * 30 + a.birth_day
    days_b = b.birth_year * 365 + (b.birth_month - 1) * 30 + b.birth_day
    return float(abs(days_a - days_b))


# -- place helpers ---------------------------------------------------------------


def _same_place_part(
    place_type: PlaceType, part: PlacePart
) -> Callable[[VictimRecord, VictimRecord], FeatureValue]:
    def extractor(a: VictimRecord, b: VictimRecord) -> FeatureValue:
        parts_a = {
            place.part(part)
            for place in a.places_of(place_type)
            if place.part(part) is not None
        }
        parts_b = {
            place.part(part)
            for place in b.places_of(place_type)
            if place.part(part) is not None
        }
        if not parts_a or not parts_b:
            return None
        return SAME_YES if parts_a & parts_b else SAME_NO

    return extractor


def _geo_dist(place_type: PlaceType) -> Callable[[VictimRecord, VictimRecord], FeatureValue]:
    def extractor(a: VictimRecord, b: VictimRecord) -> FeatureValue:
        coords_a = [p.coords for p in a.places_of(place_type) if p.coords is not None]
        coords_b = [p.coords for p in b.places_of(place_type) if p.coords is not None]
        if not coords_a or not coords_b:
            return None
        return min(haversine_km(x, y) for x in coords_a for y in coords_b)

    return extractor


# -- provenance / categorical ------------------------------------------------------


def _same_source(a: VictimRecord, b: VictimRecord) -> FeatureValue:
    return SAME_YES if a.source.key == b.source.key else SAME_NO


def _same_gender(a: VictimRecord, b: VictimRecord) -> FeatureValue:
    if a.gender is None or b.gender is None:
        return None
    return SAME_YES if a.gender is b.gender else SAME_NO


def _same_profession(a: VictimRecord, b: VictimRecord) -> FeatureValue:
    if a.profession is None or b.profession is None:
        return None
    return SAME_YES if a.profession == b.profession else SAME_NO


# -- item-bag overlap ---------------------------------------------------------------


def _shared_item_jaccard(a: VictimRecord, b: VictimRecord) -> FeatureValue:
    items_a = record_to_items(a)
    items_b = record_to_items(b)
    union = items_a | items_b
    if not union:
        return None
    return len(items_a & items_b) / len(union)


def _n_shared_items(a: VictimRecord, b: VictimRecord) -> FeatureValue:
    return float(len(record_to_items(a) & record_to_items(b)))


def _pattern_overlap(a: VictimRecord, b: VictimRecord) -> FeatureValue:
    pattern_a = a.pattern()
    pattern_b = b.pattern()
    union = pattern_a | pattern_b
    if not union:
        return None
    return len(pattern_a & pattern_b) / len(union)


def _build_features() -> List[FeatureSpec]:
    specs: List[FeatureSpec] = []
    for code, attribute in _NAME_CODES:
        specs.append(
            FeatureSpec(
                f"same{code}",
                FeatureKind.CATEGORICAL,
                _same_name(attribute),
                f"yes/partial/no agreement of the {attribute} names",
            )
        )
    for code, attribute in _NAME_CODES:
        specs.append(
            FeatureSpec(
                f"{code}dist",
                FeatureKind.NUMERIC,
                _name_dist(attribute),
                f"max q-gram Jaccard between {attribute} names",
            )
        )
    for index, component in enumerate(("day", "month", "year"), start=1):
        specs.append(
            FeatureSpec(
                f"B{index}dist",
                FeatureKind.NUMERIC,
                _birth_component_dist(component),
                f"birth {component} distance",
            )
        )
    for code, place_type in _PLACE_CODES:
        for part in PLACE_PARTS:
            specs.append(
                FeatureSpec(
                    f"same{code}{part.value.capitalize()}",
                    FeatureKind.CATEGORICAL,
                    _same_place_part(place_type, part),
                    f"same {place_type.value} {part.value}",
                )
            )
    for code, place_type in _PLACE_CODES:
        specs.append(
            FeatureSpec(
                f"{code}GeoDist",
                FeatureKind.NUMERIC,
                _geo_dist(place_type),
                f"km between {place_type.value} places",
            )
        )
    specs.append(
        FeatureSpec("sameSource", FeatureKind.CATEGORICAL, _same_source,
                    "records come from the same list or submitter")
    )
    specs.append(
        FeatureSpec("sameGender", FeatureKind.CATEGORICAL, _same_gender,
                    "records carry the same gender")
    )
    specs.append(
        FeatureSpec("sameProfession", FeatureKind.CATEGORICAL, _same_profession,
                    "records carry the same profession code")
    )
    # The 8 additional "conceivable" features (see module docstring).
    specs.append(
        FeatureSpec("soundexFN", FeatureKind.CATEGORICAL, _name_soundex("first"),
                    "phonetic (Soundex) first-name agreement")
    )
    specs.append(
        FeatureSpec("soundexLN", FeatureKind.CATEGORICAL, _name_soundex("last"),
                    "phonetic (Soundex) last-name agreement")
    )
    specs.append(
        FeatureSpec("FNjw", FeatureKind.NUMERIC, _name_jw("first"),
                    "max Jaro-Winkler between first names")
    )
    specs.append(
        FeatureSpec("LNjw", FeatureKind.NUMERIC, _name_jw("last"),
                    "max Jaro-Winkler between last names")
    )
    specs.append(
        FeatureSpec("fullDOBdist", FeatureKind.NUMERIC, _full_dob_dist,
                    "approximate distance in days between full birth dates")
    )
    specs.append(
        FeatureSpec("itemJaccard", FeatureKind.NUMERIC, _shared_item_jaccard,
                    "Jaccard of the full item bags")
    )
    specs.append(
        FeatureSpec("nSharedItems", FeatureKind.NUMERIC, _n_shared_items,
                    "count of shared items")
    )
    specs.append(
        FeatureSpec("patternOverlap", FeatureKind.NUMERIC, _pattern_overlap,
                    "Jaccard of the records' data patterns")
    )
    return specs


#: The full feature registry, in a stable order.
FEATURES: Tuple[FeatureSpec, ...] = tuple(_build_features())
FEATURE_NAMES: Tuple[str, ...] = tuple(spec.name for spec in FEATURES)

_FEATURES_BY_NAME: Dict[str, FeatureSpec] = {spec.name: spec for spec in FEATURES}

if len(FEATURES) != 48:  # pragma: no cover - structural invariant
    raise AssertionError(f"expected 48 features, built {len(FEATURES)}")


def feature_spec(name: str) -> FeatureSpec:
    """Look up one feature by name."""
    try:
        return _FEATURES_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown feature: {name!r}") from None


@hot_path
def extract_features(
    a: VictimRecord,
    b: VictimRecord,
    names: Optional[Tuple[str, ...]] = None,
) -> FeatureVector:
    """Compute the feature vector for a candidate record pair.

    ``names`` restricts extraction to a subset (useful for ablations);
    by default all 48 features are computed. Missing attributes yield
    ``None`` values, which the ADTree handles natively.
    """
    selected = FEATURES if names is None else tuple(
        feature_spec(name) for name in names
    )
    return {spec.name: spec.extract(a, b) for spec in selected}


# -- batch extraction ---------------------------------------------------------
#
# ``extract_features_batch`` computes the same feature vectors as
# ``extract_features``, value-for-value, for a whole chunk of pairs at
# once. Candidate pairs inside a block share records and — thanks to
# multi-source reporting — the same few name spellings, so the batch
# form (a) computes per-record artifacts (name tuples, place-part sets,
# item bags) once per record instead of once per pair, (b) memoizes the
# expensive string metrics per *value pair*, and (c) vectorizes the
# date arithmetic with numpy. Every memoized entry is produced by the
# scalar helper itself and the integer date math is exact in float64,
# so each column is equal per pair to the scalar extractor; the
# property suite in ``tests/test_batch_kernels.py`` pins this.
#
# Item bags are the one per-record artifact two columns share: a
# ``Dataset`` already caches them (mining filled the cache in a
# pipeline run), and for a plain record mapping they are computed once
# per call. Every other column's per-record artifacts live only while
# that column is built, and each column is packed into a
# :class:`FeatureMatrix` column as soon as it is built.

_MemoKey = Tuple[object, ...]


class _BatchFeatureExtractor:
    """One batch call's records and value-pair memos."""

    __slots__ = ("pairs", "records", "_dataset", "_item_bags", "_value_memo")

    def __init__(
        self,
        dataset: Union[Dataset, Mapping[int, VictimRecord]],
        pairs: Sequence[Tuple[int, int]],
    ):
        self.pairs = pairs
        self.records: Dict[int, VictimRecord] = {
            rid: dataset[rid]
            for rid in sorted({rid for pair in pairs for rid in pair})
        }
        self._dataset = dataset
        self._item_bags: Optional[Mapping[int, FrozenSet[Item]]] = None
        self._value_memo: Dict[_MemoKey, object] = {}

    def per_record(
        self, build: Callable[[VictimRecord], object]
    ) -> Dict[int, object]:
        """``build`` applied once to every record of the batch, by id."""
        return {rid: build(record) for rid, record in self.records.items()}

    def item_bags(self) -> Mapping[int, FrozenSet[Item]]:
        """Item bag per record id, computed at most once per call."""
        if self._item_bags is None:
            if isinstance(self._dataset, Dataset):
                self._item_bags = self._dataset.item_bags
            else:
                self._item_bags = {
                    rid: record_to_items(record)
                    for rid, record in self.records.items()
                }
        return self._item_bags

    def best_metric(
        self,
        tag: str,
        reduce_fn: Callable[..., float],
        metric: Callable[[str, str], float],
        values_a: Tuple[object, ...],
        values_b: Tuple[object, ...],
    ) -> float:
        """``reduce_fn(metric(x, y) for x, y in product)``, memoized twice.

        The outer memo keys on the value tuples (record pairs repeat
        them), the inner on individual value pairs (different records
        repeat the same spellings). Both return the scalar helper's own
        floats, so the reduction is over identical values.
        """
        key: _MemoKey = (tag, values_a, values_b)
        memo = self._value_memo
        try:
            return memo[key]  # type: ignore[return-value]
        except KeyError:
            pass
        inner = tag + "1"
        best = reduce_fn(
            self.pair_metric(inner, metric, x, y)
            for x in values_a
            for y in values_b
        )
        memo[key] = best
        return best

    def pair_metric(
        self,
        tag: str,
        metric: Callable[[str, str], float],
        x: object,
        y: object,
    ) -> float:
        key: _MemoKey = (tag, x, y)
        memo = self._value_memo
        try:
            return memo[key]  # type: ignore[return-value]
        except KeyError:
            value = memo[key] = metric(x, y)  # type: ignore[arg-type]
            return value


_ColumnBuilder = Callable[[_BatchFeatureExtractor], List[FeatureValue]]


def _batch_same_name(attribute: str) -> _ColumnBuilder:
    def build(record: VictimRecord) -> object:
        return set(record.names(attribute))

    def column(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
        name_sets = ex.per_record(build)
        out: List[FeatureValue] = []
        for a, b in ex.pairs:
            names_a = name_sets[a]
            names_b = name_sets[b]
            if not names_a or not names_b:
                out.append(None)
            elif names_a == names_b:
                out.append(SAME_YES)
            elif names_a & names_b:  # type: ignore[operator]
                out.append(SAME_PARTIAL)
            else:
                out.append(SAME_NO)
        return out

    return column


def _lowered_qgram_jaccard(x: str, y: str) -> float:
    return jaccard_qgrams(x.lower(), y.lower())


def _lowered_jaro_winkler(x: str, y: str) -> float:
    return jaro_winkler(x.lower(), y.lower())


def _batch_name_metric(
    attribute: str, tag: str, metric: Callable[[str, str], float]
) -> _ColumnBuilder:
    def build(record: VictimRecord) -> object:
        return record.names(attribute)

    def column(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
        names = ex.per_record(build)
        out: List[FeatureValue] = []
        for a, b in ex.pairs:
            names_a = names[a]
            names_b = names[b]
            if not names_a or not names_b:
                out.append(None)
            else:
                out.append(
                    ex.best_metric(tag, max, metric, names_a, names_b)  # type: ignore[arg-type]
                )
        return out

    return column


def _batch_name_soundex(attribute: str) -> _ColumnBuilder:
    def build(record: VictimRecord) -> object:
        names = record.names(attribute)
        if not names:
            return None
        return {soundex(name) for name in names}

    def column(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
        codes = ex.per_record(build)
        out: List[FeatureValue] = []
        for a, b in ex.pairs:
            codes_a = codes[a]
            codes_b = codes[b]
            if codes_a is None or codes_b is None:
                out.append(None)
            else:
                out.append(
                    SAME_YES if codes_a & codes_b else SAME_NO  # type: ignore[operator]
                )
        return out

    return column


def _batch_birth_component(component: str) -> _ColumnBuilder:
    attr = f"birth_{component}"
    if component == "day":
        cycle, checker = 31, day_distance
    elif component == "month":
        cycle, checker = 12, month_distance
    else:
        cycle, checker = 0, year_distance

    def column(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
        count = len(ex.pairs)
        a_arr = np.zeros(count, dtype=np.int64)
        b_arr = np.zeros(count, dtype=np.int64)
        valid = np.zeros(count, dtype=bool)
        records = ex.records
        for index, (a, b) in enumerate(ex.pairs):
            value_a = getattr(records[a], attr)
            value_b = getattr(records[b], attr)
            if value_a is not None and value_b is not None:
                valid[index] = True
                a_arr[index] = value_a
                b_arr[index] = value_b
        diff = np.abs(a_arr - b_arr)
        if cycle:
            in_range = (
                (a_arr >= 1) & (a_arr <= cycle) & (b_arr >= 1) & (b_arr <= cycle)
            )
            bad = valid & ~in_range
            if bad.any():
                # Replicate the scalar helper's range ValueError.
                first = int(np.flatnonzero(bad)[0])
                checker(int(a_arr[first]), int(b_arr[first]))
            dist = np.minimum(diff, cycle - diff)
        else:
            dist = diff
        # Distances are small exact integers; int64 → float64 is exact.
        values: List[float] = dist.astype(np.float64).tolist()
        valid_list: List[bool] = valid.tolist()
        return [
            values[index] if valid_list[index] else None
            for index in range(count)
        ]

    return column


def _dob_triple(record: VictimRecord) -> object:
    return (record.birth_year, record.birth_month, record.birth_day)


def _batch_full_dob(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
    count = len(ex.pairs)
    days_a = np.zeros(count, dtype=np.int64)
    days_b = np.zeros(count, dtype=np.int64)
    valid = np.zeros(count, dtype=bool)
    triples = ex.per_record(_dob_triple)
    for index, (a, b) in enumerate(ex.pairs):
        year_a, month_a, day_a = triples[a]  # type: ignore[misc]
        year_b, month_b, day_b = triples[b]  # type: ignore[misc]
        if None in (year_a, year_b, month_a, month_b, day_a, day_b):
            continue
        valid[index] = True
        days_a[index] = year_a * 365 + (month_a - 1) * 30 + day_a
        days_b[index] = year_b * 365 + (month_b - 1) * 30 + day_b
    values: List[float] = (
        np.abs(days_a - days_b).astype(np.float64).tolist()
    )
    valid_list: List[bool] = valid.tolist()
    return [
        values[index] if valid_list[index] else None for index in range(count)
    ]


def _batch_same_place_part(
    place_type: PlaceType, part: PlacePart
) -> _ColumnBuilder:
    def build(record: VictimRecord) -> object:
        return {
            place.part(part)
            for place in record.places_of(place_type)
            if place.part(part) is not None
        }

    def column(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
        parts = ex.per_record(build)
        out: List[FeatureValue] = []
        for a, b in ex.pairs:
            parts_a = parts[a]
            parts_b = parts[b]
            if not parts_a or not parts_b:
                out.append(None)
            else:
                out.append(
                    SAME_YES if parts_a & parts_b else SAME_NO  # type: ignore[operator]
                )
        return out

    return column


def _batch_geo_dist(place_type: PlaceType) -> _ColumnBuilder:
    def build(record: VictimRecord) -> object:
        return tuple(
            place.coords
            for place in record.places_of(place_type)
            if place.coords is not None
        )

    def column(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
        coords = ex.per_record(build)
        out: List[FeatureValue] = []
        for a, b in ex.pairs:
            coords_a = coords[a]
            coords_b = coords[b]
            if not coords_a or not coords_b:
                out.append(None)
            else:
                out.append(
                    ex.best_metric(
                        "geo", min, haversine_km, coords_a, coords_b  # type: ignore[arg-type]
                    )
                )
        return out

    return column


def _batch_same_source(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
    records = ex.records
    return [
        SAME_YES if records[a].source.key == records[b].source.key else SAME_NO
        for a, b in ex.pairs
    ]


def _batch_same_gender(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
    records = ex.records
    out: List[FeatureValue] = []
    for a, b in ex.pairs:
        gender_a = records[a].gender
        gender_b = records[b].gender
        if gender_a is None or gender_b is None:
            out.append(None)
        else:
            out.append(SAME_YES if gender_a is gender_b else SAME_NO)
    return out


def _batch_same_profession(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
    records = ex.records
    out: List[FeatureValue] = []
    for a, b in ex.pairs:
        prof_a = records[a].profession
        prof_b = records[b].profession
        if prof_a is None or prof_b is None:
            out.append(None)
        else:
            out.append(SAME_YES if prof_a == prof_b else SAME_NO)
    return out


def _record_pattern(record: VictimRecord) -> object:
    return record.pattern()


def _batch_item_jaccard(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
    bags = ex.item_bags()
    out: List[FeatureValue] = []
    for a, b in ex.pairs:
        items_a = bags[a]
        items_b = bags[b]
        inter = len(items_a & items_b)  # type: ignore[operator]
        union = len(items_a) + len(items_b) - inter  # type: ignore[arg-type]
        out.append(inter / union if union else None)
    return out


def _batch_n_shared_items(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
    bags = ex.item_bags()
    return [float(len(bags[a] & bags[b])) for a, b in ex.pairs]


def _batch_pattern_overlap(ex: _BatchFeatureExtractor) -> List[FeatureValue]:
    patterns = ex.per_record(_record_pattern)
    out: List[FeatureValue] = []
    for a, b in ex.pairs:
        pattern_a = patterns[a]
        pattern_b = patterns[b]
        inter = len(pattern_a & pattern_b)  # type: ignore[operator]
        union = len(pattern_a) + len(pattern_b) - inter  # type: ignore[arg-type]
        out.append(inter / union if union else None)
    return out


def _build_batch_columns() -> Dict[str, _ColumnBuilder]:
    columns: Dict[str, _ColumnBuilder] = {}
    for code, attribute in _NAME_CODES:
        columns[f"same{code}"] = _batch_same_name(attribute)
        columns[f"{code}dist"] = _batch_name_metric(
            attribute, "qgram", _lowered_qgram_jaccard
        )
    for index, component in enumerate(("day", "month", "year"), start=1):
        columns[f"B{index}dist"] = _batch_birth_component(component)
    for code, place_type in _PLACE_CODES:
        for part in PLACE_PARTS:
            columns[f"same{code}{part.value.capitalize()}"] = (
                _batch_same_place_part(place_type, part)
            )
        columns[f"{code}GeoDist"] = _batch_geo_dist(place_type)
    columns["sameSource"] = _batch_same_source
    columns["sameGender"] = _batch_same_gender
    columns["sameProfession"] = _batch_same_profession
    columns["soundexFN"] = _batch_name_soundex("first")
    columns["soundexLN"] = _batch_name_soundex("last")
    columns["FNjw"] = _batch_name_metric("first", "jw", _lowered_jaro_winkler)
    columns["LNjw"] = _batch_name_metric("last", "jw", _lowered_jaro_winkler)
    columns["fullDOBdist"] = _batch_full_dob
    columns["itemJaccard"] = _batch_item_jaccard
    columns["nSharedItems"] = _batch_n_shared_items
    columns["patternOverlap"] = _batch_pattern_overlap
    return columns


#: Column builders for every registered feature, by name.
_BATCH_COLUMNS: Dict[str, _ColumnBuilder] = _build_batch_columns()

if set(_BATCH_COLUMNS) != set(FEATURE_NAMES):  # pragma: no cover - invariant
    raise AssertionError("batch column registry out of sync with FEATURES")


@batch_kernel
def extract_features_batch(
    dataset: Union[Dataset, Mapping[int, VictimRecord]],
    pairs: Sequence[Tuple[int, int]],
    names: Optional[Tuple[str, ...]] = None,
) -> FeatureMatrix:
    """Feature matrix of a chunk of pairs; ≡ :func:`extract_features`.

    Row ``i`` is pair ``i``; columns follow the selected specs' order.
    ``extract_features_batch(d, ps).vectors()[i]`` equals
    ``extract_features(d[a], d[b])`` for ``(a, b) = ps[i]`` — same keys,
    same order, same values. Subset selection via ``names`` behaves
    identically, including the ``ValueError`` on unknown names.
    """
    selected = FEATURES if names is None else tuple(
        feature_spec(name) for name in names
    )
    pair_list = list(pairs)
    extractor = _BatchFeatureExtractor(dataset, pair_list)
    columns: List[FeatureColumn] = []
    for spec in selected:
        raw = _BATCH_COLUMNS[spec.name](extractor) if pair_list else []
        columns.append(
            NumericColumn.from_values(raw)
            if spec.kind is FeatureKind.NUMERIC
            else CategoricalColumn.from_values(raw)
        )
    return FeatureMatrix(
        [spec.name for spec in selected], columns, len(pair_list)
    )
