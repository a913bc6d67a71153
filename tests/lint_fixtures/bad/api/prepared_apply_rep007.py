"""REP007 negative fixture: a full rehash inside the handle's ``_apply``.

The path places this under an ``api`` layer; ``_apply`` routes one
write into a handle's live artifacts, so the rehash below must fire —
and nothing else.
"""


class Prepared:
    def __init__(self, db, plan):
        self.db = db
        self.plan = plan

    def _apply(self, kind, name, tup, value):
        changes = self.plan.write(kind, name, tup, value)
        # BAD: O(structure) rehash for one O(delta) write.
        self.stamp = self.db.structure.full_fingerprint()
        return len(changes)
