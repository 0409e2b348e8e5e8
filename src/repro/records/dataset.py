"""Dataset container: records, item bags, serialization.

A :class:`Dataset` holds victim reports keyed by ``book_id`` and provides
the derived artifact the pipeline needs — the item bags (the
preprocessing stage of Figure 9), computed once and cached. The item →
records index of that stage lives in the miner: each mined itemset
carries its support set (:mod:`repro.mining.fpgrowth`).

JSON (de)serialization is provided so generated corpora can be persisted
and reloaded by benchmarks without regenerating.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.records.itembag import Item, record_to_items
from repro.records.schema import (
    Gender,
    Place,
    PlaceType,
    SourceKind,
    SourceRef,
    VictimRecord,
)
from repro.contracts import deterministic
from repro.geo import GeoPoint
from repro.resilience.quarantine import Quarantine, QuarantinePolicy

__all__ = ["Dataset", "record_to_dict", "record_from_dict"]


class Dataset:
    """An immutable collection of victim reports with derived item bags."""

    def __init__(self, records: Iterable[VictimRecord], name: str = "dataset"):
        self.name = name
        self._records: Dict[int, VictimRecord] = {}
        for record in records:
            if record.book_id in self._records:
                raise ValueError(f"duplicate book_id: {record.book_id}")
            self._records[record.book_id] = record
        self._item_bags: Optional[Dict[int, FrozenSet[Item]]] = None
        self._content_fingerprint: Optional[str] = None

    # -- basic container protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[VictimRecord]:
        return iter(self._records.values())

    def __contains__(self, book_id: int) -> bool:
        return book_id in self._records

    def __getitem__(self, book_id: int) -> VictimRecord:
        return self._records[book_id]

    @property
    def record_ids(self) -> List[int]:
        return list(self._records)

    def get(self, book_id: int) -> Optional[VictimRecord]:
        return self._records.get(book_id)

    # -- derived artifacts ---------------------------------------------------

    @property
    def item_bags(self) -> Dict[int, FrozenSet[Item]]:
        """Item bag per record id (computed lazily, cached)."""
        if self._item_bags is None:
            self._item_bags = {
                rid: record_to_items(record) for rid, record in self._records.items()
            }
        return self._item_bags

    def content_fingerprint(self) -> str:
        """SHA-256 over the canonical record content (cached).

        Records are serialized sorted by ``book_id`` with sorted keys,
        so the fingerprint depends only on *what* the dataset contains —
        never on construction order or hash seed. Checkpoint identity
        (``docs/RESILIENCE.md``) chains from this value: a resume
        against a different corpus can never hit.
        """
        if self._content_fingerprint is None:
            canonical = json.dumps(
                [
                    _record_to_dict(self._records[rid])
                    for rid in sorted(self._records)
                ],
                sort_keys=True,
                separators=(",", ":"),
                ensure_ascii=False,
            )
            self._content_fingerprint = hashlib.sha256(
                canonical.encode("utf-8")
            ).hexdigest()
        return self._content_fingerprint

    def subset(self, book_ids: Iterable[int], name: Optional[str] = None) -> "Dataset":
        """Return a new dataset restricted to the given record ids."""
        ids = list(book_ids)
        missing = [rid for rid in ids if rid not in self._records]
        if missing:
            raise KeyError(f"unknown book_ids: {missing[:5]}")
        return Dataset(
            (self._records[rid] for rid in ids),
            name=name or f"{self.name}-subset",
        )

    def true_pairs(self) -> FrozenSet[Tuple[int, int]]:
        """All record pairs sharing a ground-truth ``person_id``.

        This is the gold standard for synthetic corpora where every record
        carries its generating person; pairs are canonicalized as
        ``(min_id, max_id)``.
        """
        by_person: Dict[int, List[int]] = {}
        for record in self:
            if record.person_id is not None:
                by_person.setdefault(record.person_id, []).append(record.book_id)
        pairs = set()
        for rids in by_person.values():
            rids.sort()
            for i, a in enumerate(rids):
                for b in rids[i + 1:]:
                    pairs.add((a, b))
        return frozenset(pairs)

    # -- serialization --------------------------------------------------------

    def to_json(self, path: Union[str, Path]) -> None:
        """Write the dataset to a JSON file."""
        payload = {
            "name": self.name,
            "records": [_record_to_dict(record) for record in self],
        }
        Path(path).write_text(json.dumps(payload, ensure_ascii=False, indent=1))

    @classmethod
    def from_json(
        cls,
        path: Union[str, Path],
        policy: QuarantinePolicy = QuarantinePolicy.FAIL_FAST,
        quarantine: Optional[Quarantine] = None,
    ) -> "Dataset":
        """Load a dataset previously written by :meth:`to_json`.

        ``policy`` governs malformed record entries the same way
        :func:`repro.records.io.read_csv` treats bad CSV rows; the
        quarantine ``line_number`` is the 1-based ordinal of the record
        entry (JSON carries no physical line mapping). JSON entries
        have no per-cell repair story, so ``REPAIR`` degrades to
        ``QUARANTINE`` here.
        """
        quarantine = quarantine if quarantine is not None else Quarantine()
        payload = json.loads(Path(path).read_text())
        records = []
        seen_ids = set()
        for ordinal, entry in enumerate(payload["records"], start=1):
            try:
                record = _record_from_dict(entry)
                if record.book_id in seen_ids:
                    raise ValueError(f"duplicate book_id: {record.book_id}")
            except (KeyError, ValueError, TypeError) as error:
                if policy is QuarantinePolicy.FAIL_FAST:
                    raise ValueError(
                        f"{path}: record entry {ordinal}: bad record ({error})"
                    ) from error
                quarantine.record(
                    str(path), ordinal, None, str(error),
                    entry if isinstance(entry, dict) else {"entry": entry},
                )
                continue
            seen_ids.add(record.book_id)
            records.append(record)
        return cls(records, name=payload.get("name", "dataset"))


@deterministic
def record_to_dict(record: VictimRecord) -> dict:
    """The canonical JSON-safe encoding of one record.

    This is the single record codec of the repository: corpus files
    (:meth:`Dataset.to_json`), the content fingerprint, and the
    write-ahead log (:mod:`repro.resilience.wal`) all speak it, so a
    WAL replay reconstructs records byte-for-byte identical to the
    originals.
    """
    return _record_to_dict(record)


@deterministic
def record_from_dict(entry: dict) -> VictimRecord:
    """Inverse of :func:`record_to_dict` (raises on malformed entries)."""
    return _record_from_dict(entry)


def _record_to_dict(record: VictimRecord) -> dict:
    places = {}
    for place_type, values in record.places.items():
        places[place_type.value] = [_place_to_dict(place) for place in values]
    return {
        "book_id": record.book_id,
        "source": {"kind": record.source.kind.value, "id": record.source.identifier},
        "first": list(record.first),
        "last": list(record.last),
        "maiden": list(record.maiden),
        "father": list(record.father),
        "mother": list(record.mother),
        "mother_maiden": list(record.mother_maiden),
        "spouse": list(record.spouse),
        "gender": record.gender.value if record.gender else None,
        "birth_day": record.birth_day,
        "birth_month": record.birth_month,
        "birth_year": record.birth_year,
        "profession": record.profession,
        "places": places,
        "person_id": record.person_id,
    }


def _place_to_dict(place: Place) -> dict:
    return {
        "city": place.city,
        "county": place.county,
        "region": place.region,
        "country": place.country,
        "coords": list(place.coords) if place.coords else None,
    }


def _record_from_dict(entry: dict) -> VictimRecord:
    places = {}
    for type_name, values in entry.get("places", {}).items():
        places[PlaceType(type_name)] = tuple(
            _place_from_dict(value) for value in values
        )
    gender = Gender(entry["gender"]) if entry.get("gender") else None
    source = entry["source"]
    return VictimRecord(
        book_id=entry["book_id"],
        source=SourceRef(SourceKind(source["kind"]), source["id"]),
        first=tuple(entry.get("first", ())),
        last=tuple(entry.get("last", ())),
        maiden=tuple(entry.get("maiden", ())),
        father=tuple(entry.get("father", ())),
        mother=tuple(entry.get("mother", ())),
        mother_maiden=tuple(entry.get("mother_maiden", ())),
        spouse=tuple(entry.get("spouse", ())),
        gender=gender,
        birth_day=entry.get("birth_day"),
        birth_month=entry.get("birth_month"),
        birth_year=entry.get("birth_year"),
        profession=entry.get("profession"),
        places=places,
        person_id=entry.get("person_id"),
    )


def _place_from_dict(entry: dict) -> Place:
    coords = entry.get("coords")
    return Place(
        city=entry.get("city"),
        county=entry.get("county"),
        region=entry.get("region"),
        country=entry.get("country"),
        coords=GeoPoint(*coords) if coords else None,
    )
