package metrics

import (
	"reflect"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatal("zero counter not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("Load = %d, want 5", c.Load())
	}
}

func TestSetCreateAndGet(t *testing.T) {
	s := NewSet()
	if s.Get("missing") != 0 {
		t.Error("missing counter nonzero")
	}
	s.Counter("a").Add(3)
	s.Counter("a").Inc()
	s.Counter("b").Inc()
	if got := s.Get("a"); got != 4 {
		t.Errorf("a = %d", got)
	}
	if got := s.Snapshot(); !reflect.DeepEqual(got, map[string]uint64{"a": 4, "b": 1}) {
		t.Errorf("Snapshot = %v", got)
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestSortedSnapshotOrdering(t *testing.T) {
	s := NewSet()
	// Insert in deliberately unsorted order.
	for _, name := range []string{"zeta", "alpha", "mid", "beta.sub", "beta"} {
		s.Counter(name).Inc()
	}
	s.Counter("alpha").Add(9)
	got := s.SortedSnapshot()
	want := []NamedValue{
		{"alpha", 10}, {"beta", 1}, {"beta.sub", 1}, {"mid", 1}, {"zeta", 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedSnapshot = %v, want %v", got, want)
	}
	// The ordered view must agree with the map snapshot.
	m := s.Snapshot()
	if len(m) != len(got) {
		t.Fatalf("Snapshot has %d entries, SortedSnapshot %d", len(m), len(got))
	}
	for _, nv := range got {
		if m[nv.Name] != nv.Value {
			t.Errorf("%s: map %d, sorted %d", nv.Name, m[nv.Name], nv.Value)
		}
	}
}

func TestSortedSnapshotConcurrentWriters(t *testing.T) {
	// The sort runs outside the lock; hammer concurrent counter creation to
	// let the race detector check the copy-then-sort sequencing.
	s := NewSet()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Counter(string(rune('a' + i%26))).Inc()
		}
	}()
	for i := 0; i < 100; i++ {
		snap := s.SortedSnapshot()
		for j := 1; j < len(snap); j++ {
			if snap[j-1].Name >= snap[j].Name {
				t.Fatalf("snapshot out of order at %d: %v", j, snap)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestSetConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := s.Get("shared"); got != workers*per {
		t.Errorf("shared = %d, want %d", got, workers*per)
	}
}

func TestCachedCounterPointer(t *testing.T) {
	s := NewSet()
	c1 := s.Counter("x")
	c2 := s.Counter("x")
	if c1 != c2 {
		t.Error("Counter returned distinct pointers for one name")
	}
}

func TestNilSetHandsOutUsableMetrics(t *testing.T) {
	var s *Set
	c := s.Counter("x")
	c.Inc()
	g := s.Gauge("y")
	g.Add(3)
	if c.Load() != 1 || g.Load() != 3 {
		t.Errorf("counter %d, gauge %d; want 1, 3", c.Load(), g.Load())
	}
	if s.Counter("x") == c {
		t.Error("nil set returned a shared counter")
	}
}
