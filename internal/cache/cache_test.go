package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetAddHitMissAccounting(t *testing.T) {
	c := New(1000)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add("a", 1, 10)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.Entries != 1 || st.Bytes != 10 || st.MaxBytes != 1000 {
		t.Fatalf("stats %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestLRUEvictionUnderByteBound(t *testing.T) {
	c := New(100)
	c.Add("a", "A", 40)
	c.Add("b", "B", 40)
	// Touch a so b becomes the LRU entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a vanished")
	}
	c.Add("c", "C", 40) // 120 > 100: evicts b, the cold end
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want b only", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 80 || st.Entries != 2 {
		t.Fatalf("resident %d bytes / %d entries, want 80 / 2", st.Bytes, st.Entries)
	}
}

func TestAddReplacesAndResizes(t *testing.T) {
	c := New(100)
	c.Add("a", "old", 30)
	c.Add("a", "new", 50)
	if c.Len() != 1 || c.Bytes() != 50 {
		t.Fatalf("after replace: %d entries, %d bytes", c.Len(), c.Bytes())
	}
	v, ok := c.Get("a")
	if !ok || v.(string) != "new" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
}

func TestOversizedEntryNotStored(t *testing.T) {
	c := New(100)
	c.Add("small", 1, 60)
	c.Add("huge", 2, 101) // larger than the whole bound: dropped
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry was admitted")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("oversized insert evicted the resident set")
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c := New(0)
	for i := 0; i < 100; i++ {
		c.Add(fmt.Sprint(i), i, 1<<20)
	}
	st := c.Stats()
	if st.Entries != 100 || st.Evictions != 0 {
		t.Fatalf("unbounded cache: %+v", st)
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New(1000)
	var computed int
	get := func() (any, error) {
		return c.Do("k", func() (any, int64, error) {
			computed++
			return 42, 8, nil
		})
	}
	for i := 0; i < 3; i++ {
		v, err := get()
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if computed != 1 {
		t.Fatalf("compute ran %d times, want 1", computed)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(1000)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := c.Do("k", func() (any, int64, error) {
			calls++
			return nil, 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Do err = %v, want boom", err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed compute cached: ran %d times, want 2", calls)
	}
	if c.Len() != 0 {
		t.Fatal("error value resident in cache")
	}
}

// TestDoComputePanicFinishesCall: a compute that panics still finishes its
// in-flight call. The panic reaches the computing caller, a caller that
// joined the call gets ErrComputePanicked instead of blocking forever, and
// the next Do on the key computes afresh.
func TestDoComputePanicFinishesCall(t *testing.T) {
	c := New(1000)
	entered, joined := make(chan struct{}), make(chan error)
	go func() {
		<-entered
		_, err := c.Do("k", func() (any, int64, error) {
			t.Error("joined caller ran compute")
			return nil, 0, nil
		})
		joined <- err
	}()
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("recovered %v, want the compute's panic", p)
			}
		}()
		c.Do("k", func() (any, int64, error) {
			close(entered)
			// Wait until the other caller has joined this call.
			for c.Stats().Hits == 0 {
				runtime.Gosched()
			}
			panic("boom")
		})
	}()
	select {
	case err := <-joined:
		if !errors.Is(err, ErrComputePanicked) {
			t.Fatalf("joined caller err = %v, want ErrComputePanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("joined caller still blocked after the compute panicked")
	}
	v, err := c.Do("k", func() (any, int64, error) { return "fresh", 5, nil })
	if err != nil || v != "fresh" || c.Len() != 1 {
		t.Fatalf("Do after the panic = %v, %v (len %d)", v, err, c.Len())
	}
}

// TestDoSingleFlight drives many goroutines through one key under -race:
// exactly one compute must run, and every caller must see its value.
func TestDoSingleFlight(t *testing.T) {
	c := New(1 << 20)
	var computes atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	const goroutines = 32
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Do("shared", func() (any, int64, error) {
				computes.Add(1)
				return "value", 5, nil
			})
			if err != nil || v.(string) != "value" {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses != goroutines {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

// TestConcurrentMixedAccess hammers Get/Add/Do across keys under -race.
func TestConcurrentMixedAccess(t *testing.T) {
	c := New(512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprint((g + i) % 16)
				switch i % 3 {
				case 0:
					c.Add(key, i, 64)
				case 1:
					c.Get(key)
				default:
					if _, err := c.Do(key, func() (any, int64, error) { return i, 64, nil }); err != nil {
						t.Errorf("Do: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if b := c.Bytes(); b > 512 {
		t.Fatalf("resident bytes %d exceed bound 512", b)
	}
}
