// Package vclock implements the Lamport clock that versions the cache
// coherence protocol: a caching proxy stamps its copies with the version
// it observed, and invalidations carry the coordinator's clock so stale
// updates are recognised regardless of message reordering in the
// (simulated) network.
package vclock

import "sync"

// Lamport is a thread-safe Lamport logical clock. The zero value is ready
// to use.
type Lamport struct {
	mu  sync.Mutex
	now uint64
}

// Tick advances the clock for a local event and returns the new time.
func (l *Lamport) Tick() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now++
	return l.now
}

// Observe merges a timestamp received in a message and returns the clock's
// new time (max(local, remote)+1).
func (l *Lamport) Observe(remote uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if remote > l.now {
		l.now = remote
	}
	l.now++
	return l.now
}

// Now reads the clock without advancing it.
func (l *Lamport) Now() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.now
}
