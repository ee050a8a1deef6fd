package batch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flex-eda/flex/internal/sched"
)

// deviceJobs builds n jobs that each hold the batch device for a moment and
// record how many holders overlap, returning the job's index as its value.
func deviceJobs(n int, holders, maxHolders *atomic.Int32) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			release, err := AcquireDevice(ctx)
			if err != nil {
				return 0, err
			}
			defer release()
			h := holders.Add(1)
			for {
				m := maxHolders.Load()
				if h <= m || maxHolders.CompareAndSwap(m, h) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			holders.Add(-1)
			return i, nil
		}
	}
	return jobs
}

func TestDeviceBoundsConcurrentHolders(t *testing.T) {
	for _, capacity := range []int{1, 2} {
		var holders, max atomic.Int32
		p := NewPool(PoolConfig{Workers: 6, FPGAs: capacity})
		_, st, err := Run(context.Background(), p, deviceJobs(12, &holders, &max), nil, false, nil)
		p.Close()
		dev := p.Device()
		if err != nil {
			t.Fatalf("capacity=%d: %v", capacity, err)
		}
		if got := max.Load(); int(got) > capacity {
			t.Fatalf("capacity=%d: observed %d concurrent holders", capacity, got)
		}
		ds := dev.Stats()
		if ds.Acquires != 12 {
			t.Fatalf("capacity=%d: %d acquires, want 12", capacity, ds.Acquires)
		}
		if ds.Capacity != capacity || st.FPGAs != capacity {
			t.Fatalf("capacity=%d: device reports %d, stats report %d", capacity, ds.Capacity, st.FPGAs)
		}
		if st.DeviceAcquires != 12 {
			t.Fatalf("capacity=%d: stats count %d acquires", capacity, st.DeviceAcquires)
		}
		if ds.Hold <= 0 || st.DeviceHold <= 0 {
			t.Fatalf("capacity=%d: no hold time recorded (device %v, stats %v)", capacity, ds.Hold, st.DeviceHold)
		}
	}
}

// TestDeviceContentionRecorded pins the scheduling signature: with one
// board and jobs that are all in the device phase, later jobs must wait,
// and the wait lands in their Result and the aggregate stats.
func TestDeviceContentionRecorded(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2, FPGAs: 1})
	defer p.Close()
	gate := make(chan struct{})
	first := make(chan struct{})
	jobs := []Job[int]{
		func(ctx context.Context) (int, error) {
			release, err := AcquireDevice(ctx)
			if err != nil {
				return 0, err
			}
			defer release()
			close(first) // board held; let the second job start queueing
			<-gate
			return 1, nil
		},
		func(ctx context.Context) (int, error) {
			<-first
			go func() {
				// Give the acquire below a beat to start blocking, then
				// free the board. Worst case the sleep is too short and
				// the wait is just smaller — never flaky-negative.
				time.Sleep(5 * time.Millisecond)
				close(gate)
			}()
			release, err := AcquireDevice(ctx)
			if err != nil {
				return 0, err
			}
			defer release()
			return 2, nil
		},
	}
	results, st, err := Run(context.Background(), p, jobs, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].DeviceWait <= 0 {
		t.Fatalf("second job waited %v, want > 0", results[1].DeviceWait)
	}
	if st.DeviceWait <= 0 || st.DeviceContended == 0 {
		t.Fatalf("aggregate stats missed the contention: %+v", st)
	}
	if p.Device().Stats().Contended == 0 {
		t.Fatal("device counted no contended acquires")
	}
}

// TestDeviceDeterministicAcrossWorkersAndCapacity is the determinism
// contract extended to the device dimension: any workers × boards
// combination must produce identical values.
func TestDeviceDeterministicAcrossWorkersAndCapacity(t *testing.T) {
	const n = 24
	var want []int
	for _, workers := range []int{1, 4} {
		for _, capacity := range []int{1, 2, 3} {
			var holders, max atomic.Int32
			results, _, err := runPool(context.Background(), PoolConfig{Workers: workers, FPGAs: capacity},
				deviceJobs(n, &holders, &max), false, nil)
			if err != nil {
				t.Fatalf("workers=%d fpgas=%d: %v", workers, capacity, err)
			}
			got, err := Values(results)
			if err != nil {
				t.Fatalf("workers=%d fpgas=%d: %v", workers, capacity, err)
			}
			if want == nil {
				want = got
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d fpgas=%d: result[%d] = %d, want %d",
						workers, capacity, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAcquireDeviceWithoutDeviceIsFree(t *testing.T) {
	release, err := AcquireDevice(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // idempotent

	results, st, err := runPool(context.Background(), PoolConfig{Workers: 1, FPGAs: -1},
		[]Job[int]{func(ctx context.Context) (int, error) {
			r, err := AcquireDevice(ctx)
			if err != nil {
				return 0, err
			}
			defer r()
			return 42, nil
		}}, false, nil)
	if err != nil || results[0].Err != nil || results[0].Value != 42 {
		t.Fatalf("device-less batch: %+v, %v", results, err)
	}
	if st.FPGAs != 0 || st.DeviceWait != 0 || results[0].DeviceWait != 0 {
		t.Fatalf("device-less batch recorded device stats: %+v", st)
	}
}

func TestAcquireDeviceHonorsCancel(t *testing.T) {
	dev := newDevice(1, 0, sched.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = withDevice(ctx, dev)

	hold, err := AcquireDevice(ctx)
	if err != nil {
		t.Fatal(err)
	}

	waitErr := make(chan error, 1)
	go func() {
		_, err := AcquireDevice(ctx)
		waitErr <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked acquire returned %v, want context.Canceled", err)
	}
	hold() // stats for the successful acquisition land at release time
	// The aborted wait is real contention and must stay on the books.
	ds := dev.Stats()
	if ds.Wait <= 0 || ds.Contended == 0 {
		t.Fatalf("canceled wait vanished from stats: %+v", ds)
	}
	if ds.Acquires != 1 {
		t.Fatalf("acquires = %d, want 1 (the canceled attempt never got a token)", ds.Acquires)
	}
}

func TestDeviceReleaseIdempotent(t *testing.T) {
	dev := newDevice(1, 0, sched.Config{})
	ctx := withDevice(context.Background(), dev)
	release, err := AcquireDevice(ctx)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // double release must not free a second token
	if got := dev.Stats().Acquires; got != 1 {
		t.Fatalf("acquires = %d, want 1", got)
	}
	// The pool still has exactly one token: two holders must contend.
	again, err := AcquireDevice(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer again()
	if _, err := dev.sem.Acquire(canceledCtx(), sched.Class{}); !errors.Is(err, context.Canceled) {
		t.Fatal("second token available after double release")
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
