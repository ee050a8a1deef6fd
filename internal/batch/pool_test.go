package batch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolReuseAcrossBatches(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 4})
	defer p.Close()
	for batchNo := 0; batchNo < 3; batchNo++ {
		results, st, err := Run(context.Background(), p, squares(16), nil, false, nil)
		if err != nil {
			t.Fatalf("batch %d: %v", batchNo, err)
		}
		for i, r := range results {
			if r.Err != nil || r.Value != i*i {
				t.Fatalf("batch %d job %d: %+v", batchNo, i, r)
			}
		}
		if st.Jobs != 16 || st.Workers != 4 {
			t.Fatalf("batch %d stats %+v", batchNo, st)
		}
	}
	if got := p.Admitted(); got != 0 {
		t.Fatalf("%d admission slots still held after every batch drained", got)
	}
}

func TestPoolBoundsConcurrencyAcrossBatches(t *testing.T) {
	const workers = 3
	p := NewPool(PoolConfig{Workers: workers})
	defer p.Close()
	var cur, max atomic.Int32
	job := func(context.Context) (struct{}, error) {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	}
	jobs := make([]Job[struct{}], 12)
	for i := range jobs {
		jobs[i] = job
	}
	var wg sync.WaitGroup
	for b := 0; b < 3; b++ { // three concurrent batches share the 3 workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := Run(context.Background(), p, jobs, nil, false, nil); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := max.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs across batches, pool bound is %d", got, workers)
	}
}

func TestPoolQueueDepthAdmission(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 2})
	defer p.Close()

	// A batch larger than the whole depth can never fit.
	if _, err := Stream(context.Background(), p, squares(3), nil, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized batch err = %v, want ErrOverloaded", err)
	}

	// Fill the queue with a batch the collector hasn't drained yet, then
	// watch a second batch bounce and admission recover after draining.
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := []Job[int]{
		func(context.Context) (int, error) { close(started); <-release; return 1, nil },
		func(context.Context) (int, error) { return 2, nil },
	}
	ch, err := Stream(context.Background(), p, blocked, nil, false)
	if err != nil {
		t.Fatalf("admitting batch rejected: %v", err)
	}
	<-started // both slots held: one running, one queued
	if _, err := Stream(context.Background(), p, squares(1), nil, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second batch err = %v, want ErrOverloaded while queue is full", err)
	}
	close(release)
	for range ch {
	}
	results, _, err := Run(context.Background(), p, squares(2), nil, false, nil)
	if err != nil {
		t.Fatalf("drained pool still rejects: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestPoolRejectsAfterClose(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1})
	p.Close()
	if _, err := Stream(context.Background(), p, squares(1), nil, false); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	if _, _, err := Run(context.Background(), p, squares(1), nil, false, nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Run err = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolCloseWaitsForInFlightBatch(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2})
	release := make(chan struct{})
	jobs := []Job[int]{func(context.Context) (int, error) { <-release; return 9, nil }}
	ch, err := Stream(context.Background(), p, jobs, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	r := <-ch
	if r.Err != nil || r.Value != 9 {
		t.Fatalf("result %+v", r)
	}
	for range ch {
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after the batch drained")
	}
}

// TestRunOnDeviceStatsArePerBatchDeltas pins the shared-device accounting:
// two sequential batches on one pool each report only their own acquires.
func TestRunOnDeviceStatsArePerBatchDeltas(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2, FPGAs: 1})
	defer p.Close()
	job := func(ctx context.Context) (int, error) {
		release, err := AcquireDevice(ctx)
		if err != nil {
			return 0, err
		}
		defer release()
		return 1, nil
	}
	for batchNo := 0; batchNo < 2; batchNo++ {
		_, st, err := Run(context.Background(), p, []Job[int]{job, job}, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.FPGAs != 1 {
			t.Fatalf("batch %d: FPGAs = %d, want 1", batchNo, st.FPGAs)
		}
		if st.DeviceAcquires != 2 {
			t.Fatalf("batch %d: acquires = %d, want per-batch delta 2", batchNo, st.DeviceAcquires)
		}
	}
	if total := p.Device().Stats().Acquires; total != 4 {
		t.Fatalf("device lifetime acquires = %d, want 4", total)
	}
}

func TestPoolFailFastIsolatedPerBatch(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2})
	defer p.Close()
	boom := errors.New("boom")
	bad := make([]Job[int], 8)
	for i := range bad {
		i := i
		bad[i] = func(context.Context) (int, error) {
			if i == 0 {
				return 0, boom
			}
			time.Sleep(time.Millisecond)
			return i, nil
		}
	}
	if _, _, err := Run(context.Background(), p, bad, nil, true, nil); !errors.Is(err, boom) {
		t.Fatalf("fail-fast batch err = %v, want boom", err)
	}
	// The sibling batch's context is its own: the tripped batch above must
	// not poison it.
	results, st, err := Run(context.Background(), p, squares(4), nil, false, nil)
	if err != nil || st.Errors != 0 || st.Skipped != 0 {
		t.Fatalf("healthy batch after fail-fast sibling: err=%v stats=%+v", err, st)
	}
	for i, r := range results {
		if r.Err != nil || r.Value != i*i {
			t.Fatalf("job %d: %+v", i, r)
		}
	}
}
