package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"crncompose/internal/metrics"
)

// requestKey derives the content address of a canonical request: the SHA-256
// of its JSON encoding — the same discipline the distributed checkpoint uses
// to pin a JobSpec (internal/dist/checkpoint.go). Canonical requests embed
// every input the computation depends on (the parse→String-normalized CRN
// text, function name, grid bounds, budgets, seeds) with all defaults filled
// in, so textually different requests for the same computation collapse to
// one key, and the engines' determinism turns a cache hit into a correctness
// guarantee: the cached bytes are the bytes a fresh run would produce.
func requestKey(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Canonical requests are plain data; marshal cannot fail.
		panic("serve: canonical request not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Cache sources, surfaced as the X-Cache response header.
const (
	cacheMiss  = "miss"  // this request ran the computation
	cacheHit   = "hit"   // replayed from the store
	cacheDedup = "dedup" // joined an identical in-flight computation
)

// resultCache is a bounded content-addressed response cache with in-flight
// deduplication: concurrent do calls for the same key share one computation
// (singleflight — N identical concurrent requests cost one engine run), and
// completed bodies are kept under LRU eviction bounded by max entries.
// Every stored value is the body of a 200 JSON response, so the body is all
// the cache keeps. Errors are never stored; every waiter of a failed flight
// receives the error and the next request retries.
type resultCache struct {
	mu       sync.Mutex
	max      int        // ≤ 0 disables storage (dedup still applies)
	ll       *list.List // LRU order, front = most recent
	items    map[string]*list.Element
	inflight map[string]*flight

	// The counters live on the server's registry, so the cache's accounting
	// and the /metrics scrape are the same numbers.
	hits, misses, dedups, evictions *metrics.Counter
	entries                         *metrics.Gauge
}

type cacheItem struct {
	key  string
	body []byte
}

type flight struct {
	done    chan struct{}
	waiters int // requests parked on this flight (observability + tests)
	body    []byte
	err     error
}

// newResultCache builds a cache bounded by max entries whose counters
// register on reg.
func newResultCache(max int, reg *metrics.Registry) *resultCache {
	return &resultCache{
		max:      max,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
		hits: reg.Counter("crn_cache_hits_total",
			"Result-cache hits: responses replayed from the store."),
		misses: reg.Counter("crn_cache_misses_total",
			"Result-cache misses: requests that ran the computation."),
		dedups: reg.Counter("crn_cache_dedups_total",
			"Requests that joined an identical in-flight computation (singleflight)."),
		evictions: reg.Counter("crn_cache_evictions_total",
			"Entries evicted by the LRU bound."),
		entries: reg.Gauge("crn_cache_entries",
			"Entries currently stored in the result cache."),
	}
}

// get returns the stored body for key, marking it most recently used.
func (rc *resultCache) get(key string) ([]byte, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.items[key]; ok {
		rc.ll.MoveToFront(el)
		rc.hits.Inc()
		return el.Value.(*cacheItem).body, true
	}
	return nil, false
}

// do returns the body for key, computing it at most once across concurrent
// callers: a stored body is replayed, an in-flight computation is joined,
// and otherwise this caller computes (without holding the lock) and stores
// the result. The source return is one of cacheHit, cacheDedup, cacheMiss.
// Server.answer is its one caller.
func (rc *resultCache) do(key string, compute func() ([]byte, error)) ([]byte, string, error) {
	rc.mu.Lock()
	if el, ok := rc.items[key]; ok {
		rc.ll.MoveToFront(el)
		rc.hits.Inc()
		rc.mu.Unlock()
		return el.Value.(*cacheItem).body, cacheHit, nil
	}
	if fl, ok := rc.inflight[key]; ok {
		fl.waiters++
		rc.dedups.Inc()
		rc.mu.Unlock()
		<-fl.done
		return fl.body, cacheDedup, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	rc.inflight[key] = fl
	rc.misses.Inc()
	rc.mu.Unlock()

	fl.body, fl.err = compute()

	rc.mu.Lock()
	delete(rc.inflight, key)
	if fl.err == nil {
		rc.storeLocked(key, fl.body)
	}
	rc.mu.Unlock()
	close(fl.done)
	return fl.body, cacheMiss, fl.err
}

// storeLocked inserts (or refreshes) key at the front of the LRU and evicts
// past max. Caller holds rc.mu. No-op when storage is disabled.
func (rc *resultCache) storeLocked(key string, body []byte) {
	if rc.max <= 0 {
		return
	}
	if el, ok := rc.items[key]; ok {
		el.Value.(*cacheItem).body = body
		rc.ll.MoveToFront(el)
		return
	}
	rc.items[key] = rc.ll.PushFront(&cacheItem{key: key, body: body})
	for rc.ll.Len() > rc.max {
		last := rc.ll.Back()
		rc.ll.Remove(last)
		delete(rc.items, last.Value.(*cacheItem).key)
		rc.evictions.Inc()
	}
	rc.entries.Set(int64(rc.ll.Len()))
}

// put stores a computed body directly (used by the async job runner so a
// finished job's body serves later /v1/check requests as plain cache hits).
func (rc *resultCache) put(key string, body []byte) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.storeLocked(key, body)
}

// cacheStats is the /v1/stats snapshot of the cache. Field names are
// a stable API (pinned by TestStatsJSONKeys); Inflight is the number
// of computations currently running under singleflight.
type cacheStats struct {
	Entries   int    `json:"entries"`
	Max       int    `json:"max"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Dedups    uint64 `json:"dedups"`
	Evictions uint64 `json:"evictions"`
	Inflight  int    `json:"inflight"`
}

func (rc *resultCache) stats() cacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return cacheStats{
		Entries:   rc.ll.Len(),
		Max:       rc.max,
		Hits:      rc.hits.Value(),
		Misses:    rc.misses.Value(),
		Dedups:    rc.dedups.Value(),
		Evictions: rc.evictions.Value(),
		Inflight:  len(rc.inflight),
	}
}
