"""REP007 positive fixture (cache walks): the write evicts what it can
reach and never looks at the rest of the result cache; ``keys()`` on a
plain dict, and a whole-scope drop on an invalidation, stay allowed."""


class Service:
    def __init__(self, engine, result_cache):
        self.engine = engine
        self.result_cache = result_cache
        self._epoch = 0

    def _evict_affected(self, update_keys):
        self._epoch += 1
        affected = self.engine.affected_arguments(update_keys)
        if affected is None:
            self.result_cache.clear()
        else:
            self.result_cache.evict_product(affected)

    def update_weight(self, name, tup, value, weights):
        # A dict's keys() is not a cache walk.
        return sorted(weights.keys())

    def warm_keys(self):
        # Not a hot-path function: introspection may walk the cache.
        return self.result_cache.keys()
