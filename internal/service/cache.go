// Package service turns the experiment drivers into a long-running,
// queryable system: a job model over the registry, a bounded worker
// pool that executes jobs through the shared recording-bank machinery,
// a content-addressed result cache with in-flight deduplication, and an
// HTTP JSON API on top. cmd/penelope exposes it as `penelope serve`.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"penelope/internal/experiments"
)

// ResultKey content-addresses one experiment request: the SHA-256 of
// the experiment id and the canonicalized Options. Every request that
// would run the same simulation — permuted JSON fields, zeroed or
// defaulted options — maps to the same key, so overlapping sweeps
// deduplicate against each other and against past runs.
func ResultKey(experiment string, o experiments.Options) string {
	sum := sha256.Sum256([]byte(experiment + "|" + o.Key()))
	return hex.EncodeToString(sum[:16])
}

// Entry is one cache slot: created when the first request for its key
// arrives, completed exactly once when the leader finishes computing.
// Followers wait on done.
type Entry struct {
	Key string

	done    chan struct{}
	payload []byte // marshaled result payload, set before done closes
	err     error  // terminal error, set before done closes
}

// Wait blocks until the entry completes and returns the marshaled
// payload or the leader's error.
func (e *Entry) Wait() ([]byte, error) {
	<-e.done
	return e.payload, e.err
}

// Ready reports whether the entry has completed, without blocking.
func (e *Entry) Ready() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// CacheStats are the cache counters the /metrics endpoint reports.
type CacheStats struct {
	// Entries is the number of completed results held.
	Entries int `json:"entries" metric:"gauge penelope_cache_entries" help:"Completed results held in the in-memory cache."`
	// Hits counts requests served from a completed entry.
	Hits uint64 `json:"hits" metric:"counter penelope_cache_hits_total" help:"Requests served from a completed cache entry."`
	// Misses counts requests that had to run the simulation.
	Misses uint64 `json:"misses" metric:"counter penelope_cache_misses_total" help:"Requests that had to run the simulation."`
	// InflightDedups counts requests that attached to a simulation
	// another request had already started.
	InflightDedups uint64 `json:"inflight_dedups" metric:"counter penelope_cache_inflight_dedups_total" help:"Requests that attached to an already-running simulation."`
}

// Cache is the content-addressed result cache. Acquire is the only
// entry point for computing: the first caller for a key becomes the
// leader and must Complete (or Abandon) the entry; every concurrent or
// later caller shares the leader's outcome, so N identical requests
// trigger exactly one simulation.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*Entry
	stats   CacheStats
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*Entry)}
}

// Acquire returns the entry for key. leader reports whether the caller
// must compute and Complete it; when leader is false, ready reports
// whether the entry had already completed (a cache hit) as opposed to
// still being computed (an in-flight dedup).
func (c *Cache) Acquire(key string) (e *Entry, leader, ready bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.Ready() {
			c.stats.Hits++
			return e, false, true
		}
		c.stats.InflightDedups++
		return e, false, false
	}
	e = &Entry{Key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	return e, true, false
}

// Get returns the completed entry for key, if any. In-flight entries
// are not visible: GET /v1/results only serves finished payloads.
func (c *Cache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.Ready() {
		return nil, false
	}
	return e, true
}

// Complete finishes a leader's entry. A successful payload stays
// resident and serves every later request for the key; an error is
// propagated to current waiters and the entry is dropped so the next
// request retries.
func (c *Cache) Complete(e *Entry, payload []byte, err error) {
	c.mu.Lock()
	if err != nil {
		delete(c.entries, e.Key)
	}
	c.mu.Unlock()
	e.payload, e.err = payload, err
	close(e.done)
}

// Abandon releases a leader's entry without computing it (e.g. the job
// queue was full). Waiters get the reason as an error; the next request
// for the key starts fresh.
func (c *Cache) Abandon(e *Entry, reason string) {
	c.Complete(e, nil, fmt.Errorf("service: %s", reason))
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = 0
	for _, e := range c.entries {
		if e.Ready() {
			s.Entries++
		}
	}
	return s
}
