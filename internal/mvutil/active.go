// Package mvutil provides small utilities shared by the multi-versioned
// engines (TWM in internal/core and JVSTM in internal/jvstm): an active
// transaction registry used to bound version garbage collection.
package mvutil

import (
	"sync"
	"sync/atomic"
)

// ActiveSet tracks the start timestamps of in-flight transactions so a
// version garbage collector can compute the oldest snapshot any active
// transaction may still read. It is sharded to keep registration off the
// global contention path: a Slot is pinned to a home shard the first time it
// registers, so the steady-state Register/Unregister path touches only that
// shard's lock — no globally shared counter.
type ActiveSet struct {
	seq    atomic.Uint64 // home-shard assignment; cold path (once per Slot)
	shards [activeShards]activeShard
}

// activeShards must be a power of two (shard choice is a mask).
const activeShards = 16

// activeShard is padded out to 128 bytes (two cache lines, the destructive
// interference granularity with adjacent-line prefetching) so concurrent
// registrations on neighboring shards do not false-share.
type activeShard struct {
	mu    sync.Mutex
	slots map[*Slot]struct{}

	_ [128 - 16]byte
}

// Slot is one registration. Slots are reusable: engines embed one in their
// pooled transaction descriptor and pass it to Register on every Begin, so
// registration allocates nothing. A Slot must not be registered with more
// than one ActiveSet over its lifetime (its home shard is sticky), and
// Register/Unregister calls on it must alternate.
type Slot struct {
	start uint64
	home  *activeShard
}

// NewActiveSet returns an initialized registry.
func NewActiveSet() *ActiveSet {
	a := &ActiveSet{}
	for i := range a.shards {
		a.shards[i].slots = make(map[*Slot]struct{})
	}
	return a
}

// Register records a transaction whose start timestamp will be at least
// start. It must be called before the transaction samples its snapshot, so
// the GC bound can never overtake a live snapshot. The first registration of
// a Slot picks its home shard (one global atomic add, amortized over the
// slot's pooled lifetime); later registrations go straight to that shard.
func (a *ActiveSet) Register(slot *Slot, start uint64) {
	sh := slot.home
	if sh == nil {
		sh = &a.shards[a.seq.Add(1)&(activeShards-1)]
		slot.home = sh
	}
	slot.start = start
	sh.mu.Lock()
	sh.slots[slot] = struct{}{}
	sh.mu.Unlock()
}

// Unregister removes a finished transaction. Unregistering a slot that was
// never registered is a no-op.
func (a *ActiveSet) Unregister(slot *Slot) {
	sh := slot.home
	if sh == nil {
		return
	}
	sh.mu.Lock()
	delete(sh.slots, slot)
	sh.mu.Unlock()
}

// MinStart returns the smallest registered start timestamp, or fallback when
// nothing is registered.
func (a *ActiveSet) MinStart(fallback uint64) uint64 {
	min := fallback
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for slot := range sh.slots {
			if slot.start < min {
				min = slot.start
			}
		}
		sh.mu.Unlock()
	}
	return min
}
