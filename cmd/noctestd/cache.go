package main

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"noctest/internal/core"
)

// modelCache is the server's bounded, content-addressed cache of
// compiled models: the compile-once half of the engine, amortised
// across requests instead of across strategies. Keys are content
// hashes of (upload bytes, compile-relevant options), so two uploads
// of the same system under the same options share one *core.Model no
// matter which client sent them — safe because a Model is immutable
// and ScheduleModel isolates all run state per call.
//
// Eviction is LRU over a fixed entry budget. Concurrent misses on one
// key compile once: the first requester inserts an in-flight entry and
// compiles, later requesters wait on it, so a burst of identical cold
// requests costs one Compile, not one per request. A failed compile is
// removed immediately — errors are returned to the waiters but never
// cached, so a transient failure does not poison the key.
type modelCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	byKey map[string]*list.Element // key -> element holding *cacheEntry

	hits, misses, bypassed, evictions, compiles atomic.Uint64
}

// cacheEntry is one cached (possibly still compiling) model. ready is
// closed once model/err are final.
type cacheEntry struct {
	key   string
	ready chan struct{}
	model *core.Model
	err   error
}

// newModelCache returns a cache bounded to capacity entries (floored
// at 1: a server that cannot hold even one model cannot serve warm
// requests at all — use bypass per request to measure cold costs).
func newModelCache(capacity int) *modelCache {
	if capacity < 1 {
		capacity = 1
	}
	return &modelCache{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the model cached under key, compiling it via compile on
// a miss, and reports whether the call was a hit. Waiting on an
// in-flight sibling compile counts as a hit: the request did not pay
// for Compile itself.
func (mc *modelCache) Get(key string, compile func() (*core.Model, error)) (*core.Model, bool, error) {
	mc.mu.Lock()
	if el, ok := mc.byKey[key]; ok {
		mc.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		mc.hits.Add(1)
		mc.mu.Unlock()
		<-ent.ready
		return ent.model, true, ent.err
	}
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	el := mc.ll.PushFront(ent)
	mc.byKey[key] = el
	mc.misses.Add(1)
	for mc.ll.Len() > mc.cap {
		old := mc.ll.Back()
		mc.ll.Remove(old)
		delete(mc.byKey, old.Value.(*cacheEntry).key)
		mc.evictions.Add(1)
		// An evicted in-flight entry keeps compiling for its waiters;
		// only the cache forgets it.
	}
	mc.mu.Unlock()

	mc.compiles.Add(1)
	// A panicking compile must not strand the in-flight entry: waiters
	// would block on ready forever and the key would be poisoned. The
	// deferred cleanup converts the panic into the entry's error, wakes
	// every waiter, drops the entry so the next Get retries — and then
	// lets the panic continue to the caller (the HTTP panic guard turns
	// it into a 500 incident there).
	completed := false
	defer func() {
		if completed {
			return
		}
		ent.err = fmt.Errorf("model compile panicked; retry")
		mc.dropEntry(key, el)
		close(ent.ready)
	}()
	ent.model, ent.err = compile()
	completed = true
	if ent.err != nil {
		mc.dropEntry(key, el)
	}
	close(ent.ready)
	return ent.model, false, ent.err
}

// dropEntry removes the entry from the cache if it is still the one
// registered under key (a sibling may have replaced it).
func (mc *modelCache) dropEntry(key string, el *list.Element) {
	mc.mu.Lock()
	if el2, ok := mc.byKey[key]; ok && el2 == el {
		mc.ll.Remove(el)
		delete(mc.byKey, key)
	}
	mc.mu.Unlock()
}

// Bypass compiles without consulting or filling the cache — the cold
// regime the load benchmark measures — keeping the compile counter
// accurate.
func (mc *modelCache) Bypass(compile func() (*core.Model, error)) (*core.Model, error) {
	mc.bypassed.Add(1)
	mc.compiles.Add(1)
	return compile()
}

// Len returns the current entry count.
func (mc *modelCache) Len() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.ll.Len()
}

// SearchStats sums the kernel search telemetry of every ready cached
// model — orders scored, placements, prunes and checkpoint answers —
// without blocking on in-flight compiles: an entry still compiling is
// skipped. The second result is the number of models aggregated.
func (mc *modelCache) SearchStats() (core.SearchStats, int) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	var agg core.SearchStats
	models := 0
	for el := mc.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		select {
		case <-ent.ready:
			if ent.err == nil && ent.model != nil {
				agg.Add(ent.model.SearchStats())
				models++
			}
		default: // still compiling: skip rather than stall /stats
		}
	}
	return agg, models
}
