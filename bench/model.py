"""A set-of-tuples model of a triple store: the ``graph_mutate`` oracle.

Deliberately naive — one ``set`` of ``(subject, predicate, object)`` rows
plus an entity -> rows index so a merge touches only the rows that mention
the dropped entity.  It shares no code with ``repro.core``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

Row = Tuple[str, str, object]


class SetModel:
    def __init__(self, entity_ids: Iterable[str], rows: Iterable[Row]):
        self.entities: Set[str] = set(entity_ids)
        self.rows: Set[Row] = set()
        self.mentions: Dict[str, Set[Row]] = {entity: set() for entity in self.entities}
        for row in rows:
            self.add(*row)

    def _ends(self, row: Row):
        return {end for end in (row[0], row[2]) if isinstance(end, str) and end in self.mentions}

    def add(self, subject: str, predicate: str, obj: object) -> bool:
        row = (subject, predicate, obj)
        if row in self.rows:
            return False
        self.rows.add(row)
        for end in self._ends(row):
            self.mentions[end].add(row)
        return True

    def remove(self, subject: str, predicate: str, obj: object) -> bool:
        row = (subject, predicate, obj)
        if row not in self.rows:
            return False
        self.rows.discard(row)
        for end in self._ends(row):
            self.mentions[end].discard(row)
        return True

    def merge(self, keep: str, drop: str) -> None:
        for subject, predicate, obj in list(self.mentions[drop]):
            self.remove(subject, predicate, obj)
            self.add(keep if subject == drop else subject, predicate, keep if obj == drop else obj)
        del self.mentions[drop]
        self.entities.discard(drop)

    def apply(self, op: Tuple) -> None:
        kind = op[0]
        if kind == "add":
            self.add(op[1], op[2], op[3])
        elif kind == "remove":
            self.remove(op[1], op[2], op[3])
        elif kind == "merge":
            self.merge(op[1], op[2])
