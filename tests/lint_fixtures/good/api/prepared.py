"""REP003 positive fixture: an invalidation path that bumps the epoch
and drops its scope of the result cache."""


class PreparedQuery:
    def __init__(self, db, scope):
        self.db = db
        self.scope = scope
        self._plan = None

    def _invalidate(self):
        self._plan = None
        self.db._epoch += 1
        self.scope.clear()

    def refresh(self):
        # Not an invalidation path: the rule keys on the name.
        self._plan = None
