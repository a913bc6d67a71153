"""REP007 negative fixture (cache walks): the retag protocol, which
charged every effective write for the whole result cache.  The path
places this under a ``serve`` layer; ``_evict_affected`` and
``_evict_points`` are hot-path function names, so the snapshot, the
scoped snapshot and the bulk retag below must all fire — and nothing
else."""


class Service:
    def __init__(self, engine, result_cache):
        self.engine = engine
        self.result_cache = result_cache
        self._epoch = 0

    def _evict_affected(self, update_keys):
        self._epoch += 1
        # BAD: snapshots and rewrites every cached entry per write.
        cached = self.result_cache.keys()
        survivors = [args for args in cached if args not in update_keys]
        self.result_cache.retag_many(survivors, self._epoch - 1, self._epoch)


class Prepared:
    def __init__(self, cache, namespace):
        self.cache = cache
        self.namespace = namespace

    def _evict_points(self, kind, name, tup):
        # BAD: one walk of the shared cache per scope per write.
        return self.cache.scope_keys(self.namespace)
