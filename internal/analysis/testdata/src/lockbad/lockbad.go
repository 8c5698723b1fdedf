// Package lockbad seeds violations for the lockcheck analyzer.
package lockbad

import "sync"

// Store is the well-behaved shape: pointer receivers, deferred unlocks.
type Store struct {
	mu sync.RWMutex
	m  map[string]int
}

// Get is clean: deferred RUnlock pairs with RLock.
func (s *Store) Get(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[k]
}

// Leak acquires and never releases.
func (s *Store) Leak() {
	s.mu.Lock() // want "s.mu.Lock() is never unlocked"
	s.m["x"] = 1
}

// RLeak read-acquires and never releases.
func (s *Store) RLeak() int {
	s.mu.RLock() // want "s.mu.RLock() is never runlocked"
	return s.m["x"]
}

// WrongRelease releases a write lock with the read-side method.
func (s *Store) WrongRelease() {
	s.mu.Lock() // want "released with RUnlock"
	s.m["x"] = 1
	s.mu.RUnlock()
}

// WrongRRelease releases a read lock with the write-side method.
func (s *Store) WrongRRelease() int {
	s.mu.RLock() // want "released with Unlock"
	v := s.m["x"]
	s.mu.Unlock()
	return v
}

// EarlyReturn returns while holding the inline lock.
func (s *Store) EarlyReturn(k string) int {
	s.mu.Lock()
	if v, ok := s.m[k]; ok {
		return v // want "return between s.mu.Lock() and s.mu.Unlock() leaves the mutex held"
	}
	s.mu.Unlock()
	return 0
}

// DeferredReturn is the same shape made safe by defer.
func (s *Store) DeferredReturn(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[k]; ok {
		return v
	}
	return 0
}

// ClosureScope locks inside a closure: the closure is its own scope, so the
// leak is attributed there, not to the enclosing function.
func (s *Store) ClosureScope() func() {
	return func() {
		s.mu.Lock() // want "s.mu.Lock() is never unlocked"
	}
}
