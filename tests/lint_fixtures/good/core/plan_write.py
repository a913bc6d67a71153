"""REP007 positive fixture: the plan's ``write`` reads only the O(1)
fingerprint; a full rehash outside the hot-path function set (a
verification seam) is allowed."""


class Plan:
    def __init__(self, structure):
        self.structure = structure
        self.recorded = {}

    def write(self, kind, name, tup, value):
        self.recorded[(kind, name, tup)] = value
        self.stamp = self.structure.fingerprint()
        return [((kind, name, tup), kind, value)]

    def verify(self):
        return self.structure.full_fingerprint() == self.stamp
