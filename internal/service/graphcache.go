package service

import (
	"container/list"
	"sync"

	"repro/internal/datagen"
)

// graphCacheBudget bounds the heap the executor's prepared-graph cache
// retains: generated datasets plus the PowerGraph partitionings memoized
// on them. 64 MiB holds a handful of 100k-edge graphs with their
// partitionings (about 8 MiB each at 8 machines). It is a constant, not
// a flag: the cache only saves set-up time, never changes a result, and
// one bound per process keeps "memory has a budget" checkable.
const graphCacheBudget = 64 << 20

// datasetKey identifies a generated graph: the request fields that feed
// datagen.Generate. Every executor dataset is directed.
type datasetKey struct {
	kind     string
	vertices int64
	edges    int64
	seed     int64
}

// GraphCacheStats is a point-in-time view of the prepared-graph cache
// for /metrics.
type GraphCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64
}

// graphCache is the executor's byte-bounded LRU of prepared graphs.
// Each entry is generated once, outside the cache lock, while concurrent
// requests for the same key wait on the entry; hits on other keys never
// wait for a generation. An entry is charged its dataset's MemoryBytes,
// which includes every partitioning a job memoized on it, and is
// re-charged after each job (settle). Eviction drops the least recently
// used entries other than the one just used until the charge fits the
// budget, so the cache retains at most budget bytes plus that newest
// entry. An evicted dataset stays valid for jobs still holding it;
// datasets are immutable.
//
// Partitionings are retained only for graphs that are reused: the job
// that misses runs on a twin of the cached dataset (datagen.Dataset.Twin),
// so what it partitions is freed with it, and jobs that hit share the
// cached dataset and its memo. A stream of one-off graphs therefore never
// holds more than their datasets, while a reused graph pays one extra
// partitioning build, on its first hit.
type graphCache struct {
	budget int64
	gen    func(datasetKey) (*datagen.Dataset, error)

	mu      sync.Mutex
	entries map[datasetKey]*list.Element // value *graphEntry
	lru     *list.List                   // front is most recently used
	bytes   int64
	hits    uint64
	misses  uint64
	evicted uint64
}

type graphEntry struct {
	key   datasetKey
	once  sync.Once
	ds    *datagen.Dataset
	err   error
	bytes int64 // charged bytes, guarded by graphCache.mu
}

func newGraphCache(budget int64, gen func(datasetKey) (*datagen.Dataset, error)) *graphCache {
	return &graphCache{
		budget:  budget,
		gen:     gen,
		entries: map[datasetKey]*list.Element{},
		lru:     list.New(),
	}
}

// get returns the dataset for key, generating it on a miss, and the
// entry holding it; the caller passes the entry to settle once its job
// has finished with the dataset.
func (c *graphCache) get(key datasetKey) (*datagen.Dataset, *graphEntry, error) {
	c.mu.Lock()
	el, hit := c.entries[key]
	if hit {
		c.hits++
		c.lru.MoveToFront(el)
	} else {
		c.misses++
		el = c.lru.PushFront(&graphEntry{key: key})
		c.entries[key] = el
	}
	ent := el.Value.(*graphEntry)
	c.mu.Unlock()

	ent.once.Do(func() { ent.ds, ent.err = c.gen(key) })
	if ent.err != nil {
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur.Value == ent {
			c.remove(cur)
		}
		c.mu.Unlock()
		return nil, nil, ent.err
	}
	c.settle(ent)
	if !hit {
		return ent.ds.Twin(), ent, nil
	}
	return ent.ds, ent, nil
}

// settle re-charges ent with its dataset's current footprint (a job may
// have memoized a partitioning on it) and evicts least recently used
// entries other than ent until the cache fits its budget.
func (c *graphCache) settle(ent *graphEntry) {
	b := ent.ds.MemoryBytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[ent.key]
	if !ok || el.Value != ent {
		return // evicted while its job ran; nothing is charged for it
	}
	c.bytes += b - ent.bytes
	ent.bytes = b
	for c.bytes > c.budget {
		victim := c.lru.Back()
		if victim == el {
			victim = victim.Prev()
		}
		if victim == nil {
			break
		}
		c.remove(victim)
		c.evicted++
	}
}

// remove drops one entry and its charge; c.mu must be held.
func (c *graphCache) remove(el *list.Element) {
	ent := el.Value.(*graphEntry)
	c.lru.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.bytes
}

func (c *graphCache) stats() GraphCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return GraphCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
		Entries: c.lru.Len(), Bytes: c.bytes,
	}
}
