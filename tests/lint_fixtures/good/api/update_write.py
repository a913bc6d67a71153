"""REP007 positive fixture: the router's ``_write`` reads only the O(1)
fingerprint; a full rehash outside the hot-path function set is
allowed."""


class Update:
    def __init__(self, db):
        self.db = db

    def _write(self, kind, name, tup, value):
        touched = max([0] + [prepared._apply(kind, name, tup, value)
                             for prepared in self.db.prepared])
        self.db.structure.set_weight(name, tup, value)
        self.db.expected = self.db.structure.fingerprint()
        return touched

    def resync(self):
        self.db.expected = self.db.structure.rehash()
