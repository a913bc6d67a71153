"""REP007 positive fixture: the handle's ``_apply`` reads only the O(1)
fingerprint; a full rehash outside the hot-path function set is
allowed."""


class Prepared:
    def __init__(self, db, plan):
        self.db = db
        self.plan = plan

    def _apply(self, kind, name, tup, value):
        changes = self.plan.write(kind, name, tup, value)
        self.stamp = self.db.structure.fingerprint()
        return len(changes)

    def verify(self):
        return self.db.structure.full_fingerprint() == self.stamp
