"""REP003 negative fixture: invalidation without the epoch bump, and
invalidation that bumps but leaves its cached results visible."""


class PreparedQuery:
    def __init__(self, db, scope):
        self.db = db
        self.scope = scope
        self._plan = None

    def _invalidate(self):  # REP003: never bumps db._epoch
        self._plan = None
        self.scope.clear()


class Service:
    def __init__(self):
        self._epoch = 0

    def invalidate_all(self):  # REP003: bumps, but drops no scope
        self._epoch += 1
