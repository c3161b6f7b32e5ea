package serve

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	contextrank "repro"
)

// DefaultCacheSize is the rank cache capacity when Options leaves it zero.
const DefaultCacheSize = 1024

// rankKey builds the cache key for one ranking request. The epoch makes
// every data mutation an implicit full invalidation (stale entries are
// never hit again and age out of the LRU); the fingerprint does the same
// per user for session context changes. The empty algorithm is normalized
// to the default so both spellings share one entry and coalesce.
// Free-form fields are length-prefixed: a bare separator byte would let
// values containing that byte collide across fields (JSON strings can
// carry any byte, including NUL).
func rankKey(user, target, fingerprint string, epoch int64, opts contextrank.RankOptions) string {
	if opts.Algorithm == "" {
		opts.Algorithm = contextrank.AlgorithmFactorized
	}
	var b strings.Builder
	b.Grow(len(user) + len(target) + len(fingerprint) + 64)
	field := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	field(user)
	field(target)
	field(string(opts.Algorithm))
	field(fingerprint)
	b.WriteString(strconv.FormatFloat(opts.Threshold, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.Limit))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(opts.TopK))
	b.WriteByte('|')
	if opts.Explain {
		b.WriteByte('e')
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(epoch, 10))
	return b.String()
}

// cacheEntry is one cached ranking together with the epoch it was computed
// at. The result slice is shared between all readers of the entry and must
// be treated as immutable.
type cacheEntry struct {
	key   string
	res   []contextrank.Result
	epoch int64
}

// flight is one in-progress computation that concurrent identical misses
// wait on instead of recomputing (singleflight). epoch is the epoch the
// leader actually observed, so waiters report the truth about the result
// they share rather than their own pre-read.
type flight struct {
	wg    sync.WaitGroup
	res   []contextrank.Result
	epoch int64
	err   error
}

// rankCache is an LRU of rank results with singleflight miss coalescing.
//
// The effectiveness counters (and the size mirror) are atomics rather than
// mu-guarded fields so stats() never touches c.mu: the mutex is contended
// by every rank request, and a /v1/stats scrape must not queue behind —
// or stall — rank traffic.
type rankCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> *cacheEntry element
	flights  map[string]*flight

	size      atomic.Int64 // mirrors ll.Len(), maintained under c.mu
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evicted   atomic.Int64
}

func newRankCache(capacity int) *rankCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &rankCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// get returns the cached result for key, marking it most recently used.
func (c *rankCache) get(key string) ([]contextrank.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put inserts a computed result under key — the batch path's store, which
// computes outside the cache (sharing one plan across items) instead of
// through do's singleflight.
func (c *rankCache) put(key string, res []contextrank.Result, epoch int64) {
	c.mu.Lock()
	c.addLocked(key, res, epoch)
	c.mu.Unlock()
}

// addLocked inserts under c.mu.
func (c *rankCache) addLocked(key string, res []contextrank.Result, epoch int64) {
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.res, ent.epoch = res, epoch
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, epoch: epoch})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evicted.Add(1)
	}
	c.size.Store(int64(c.ll.Len()))
}

// do returns the cached result for key or computes it once, coalescing
// concurrent identical misses onto a single computation.
//
// compute returns the result together with the key it should be stored
// under and the epoch it was computed at — usually key itself, but the
// leader re-derives both from what it actually observed under the read
// lock, so a result computed just after a mutation is filed under the new
// epoch rather than the stale one. The returned epoch always describes
// the result (for hits, the epoch the entry was computed at; for
// coalesced waiters, the leader's). Errors are returned to every
// coalesced caller and never cached.
func (c *rankCache) do(key string, compute func() (res []contextrank.Result, storeKey string, epoch int64, err error)) (res []contextrank.Result, epoch int64, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		// Copy before unlocking: addLocked may rewrite the entry in
		// place under c.mu, racing an unlocked field read.
		ent := el.Value.(*cacheEntry)
		res, epoch := ent.res, ent.epoch
		c.mu.Unlock()
		return res, epoch, true, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.coalesced.Add(1)
		c.mu.Unlock()
		fl.wg.Wait()
		return fl.res, fl.epoch, true, fl.err
	}
	fl := &flight{}
	fl.wg.Add(1)
	c.flights[key] = fl
	c.misses.Add(1)
	c.mu.Unlock()

	res, storeKey, epoch, err := compute()
	fl.res, fl.epoch, fl.err = res, epoch, err

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		// Only the key matching what was actually observed is cached.
		// Never file the result under the originally requested key when
		// they differ: fingerprints round-trip (context X → Y → X yields
		// the same key again with no epoch bump), so a stale-key entry
		// holding a Y-context result would later be served as a hit for
		// a genuine X-context request. Waiters coalesced onto this
		// flight receive the result directly and never re-consult the
		// cache, so nothing is lost.
		c.addLocked(storeKey, res, epoch)
	}
	c.mu.Unlock()
	fl.wg.Done()
	return res, epoch, false, err
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	Evicted   int64   `json:"evicted"`
	HitRate   float64 `json:"hit_rate"`
	// Refreshed counts misses served by incrementally refreshing a
	// predecessor plan instead of a full recompile (plan cache only).
	Refreshed int64 `json:"refreshed,omitempty"`
}

// stats snapshots the counters without taking c.mu, so a stats scrape
// never queues behind rank traffic holding the cache mutex. The fields
// are read independently and may be mutually inconsistent by a request
// or two; effectiveness ratios do not care.
func (c *rankCache) stats() CacheStats {
	s := CacheStats{
		Size:      int(c.size.Load()),
		Capacity:  c.capacity,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evicted:   c.evicted.Load(),
	}
	if total := s.Hits + s.Misses + s.Coalesced; total > 0 {
		s.HitRate = float64(s.Hits+s.Coalesced) / float64(total)
	}
	return s
}

func (s CacheStats) String() string {
	return fmt.Sprintf("size=%d/%d hits=%d misses=%d coalesced=%d evicted=%d hit-rate=%.1f%%",
		s.Size, s.Capacity, s.Hits, s.Misses, s.Coalesced, s.Evicted, 100*s.HitRate)
}
