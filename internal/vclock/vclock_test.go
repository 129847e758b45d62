package vclock

import (
	"sync"
	"testing"
)

func TestLamportMonotonic(t *testing.T) {
	var l Lamport
	prev := l.Now()
	for i := 0; i < 100; i++ {
		now := l.Tick()
		if now <= prev {
			t.Fatalf("Tick not monotonic: %d after %d", now, prev)
		}
		prev = now
	}
}

func TestLamportObserve(t *testing.T) {
	var l Lamport
	l.Tick() // 1
	if got := l.Observe(10); got != 11 {
		t.Errorf("Observe(10) = %d, want 11", got)
	}
	if got := l.Observe(3); got != 12 {
		t.Errorf("Observe(3) = %d, want 12 (max+1)", got)
	}
}

func TestLamportConcurrent(t *testing.T) {
	var l Lamport
	var wg sync.WaitGroup
	const workers, ticks = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < ticks; j++ {
				l.Tick()
			}
		}()
	}
	wg.Wait()
	if got := l.Now(); got != workers*ticks {
		t.Errorf("after %d ticks Now() = %d", workers*ticks, got)
	}
}
