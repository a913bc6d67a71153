"""REP007 negative fixture: a full rehash inside the router's ``_write``.

The path places this under an ``api`` layer; ``_write`` routes one
write into every handle and the structure, so the rehash below must
fire — and nothing else.
"""


class Update:
    def __init__(self, db):
        self.db = db

    def _write(self, kind, name, tup, value):
        touched = max([0] + [prepared._apply(kind, name, tup, value)
                             for prepared in self.db.prepared])
        self.db.structure.set_weight(name, tup, value)
        # BAD: O(structure) rehash for one O(delta) write.
        self.db.expected = self.db.structure.rehash()
        return touched
