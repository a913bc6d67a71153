"""REP007 negative fixture: a full rehash inside the plan's ``write``.

The path places this under a ``core`` layer, where REP007 applies;
``write`` turns a fact write into its input changes, so the rehash
below must fire — and nothing else.
"""


class Plan:
    def __init__(self, structure):
        self.structure = structure
        self.recorded = {}

    def write(self, kind, name, tup, value):
        self.recorded[(kind, name, tup)] = value
        # BAD: O(structure) rehash for one O(delta) write.
        self.stamp = self.structure.full_fingerprint()
        return [((kind, name, tup), kind, value)]
