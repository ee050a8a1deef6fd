package experiments

import (
	"testing"
	"time"
)

// TestSchedExperimentPriorityBeatsBulk pins the acceptance criterion on a
// forced single worker: with every job admitted at once and the priority
// scheduler draining the queue, the urgent class's p99 queue wait lands
// strictly below the bulk class's (bulk was submitted first — the
// adversarial order), and every class's table columns stay deterministic.
func TestSchedExperimentPriorityBeatsBulk(t *testing.T) {
	opt := Options{Scale: 0.008, Designs: []string{"fft_a_md2"}, Workers: 1, FPGAs: 1}
	pts, err := Sched(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d classes, want 3", len(pts))
	}
	byLabel := map[string]SchedPoint{}
	for _, p := range pts {
		byLabel[p.Label] = p
		if p.Jobs != 3 || p.Legal != 3 {
			t.Fatalf("class %s: %d jobs, %d legal (determinism broken)", p.Label, p.Jobs, p.Legal)
		}
	}
	urgent, bulk := byLabel["urgent"], byLabel["bulk"]
	if urgent.Priority <= bulk.Priority {
		t.Fatalf("class ladder inverted: %+v", pts)
	}
	if urgent.P99Wait >= bulk.P99Wait {
		t.Fatalf("urgent p99 wait %v not strictly below bulk p99 %v under priority scheduling",
			urgent.P99Wait, bulk.P99Wait)
	}
}

// TestSchedExperimentTableDeterministic pins the stdout contract: the
// rendered columns are identical across pools and schedules.
func TestSchedExperimentTableDeterministic(t *testing.T) {
	var want []SchedPoint
	for _, workers := range []int{1, 4} {
		pts, err := Sched(Options{Scale: 0.008, Designs: []string{"fft_a_md2"}, Workers: workers}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = pts
			continue
		}
		for i := range pts {
			if pts[i].Label != want[i].Label || pts[i].Jobs != want[i].Jobs ||
				pts[i].Legal != want[i].Legal || pts[i].Priority != want[i].Priority {
				t.Fatalf("workers=%d: deterministic columns moved: %+v vs %+v",
					workers, pts[i], want[i])
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := []time.Duration{40, 10, 30, 20} // unsorted on purpose
	if got := percentile(ds, 50); got != 20 {
		t.Fatalf("p50 = %v, want 20", got)
	}
	if got := percentile(ds, 99); got != 40 {
		t.Fatalf("p99 = %v, want the top rank of a small sample", got)
	}
	if got := percentile(ds, 100); got != 40 {
		t.Fatalf("p100 = %v, want max", got)
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("empty sample must yield 0")
	}
	if ds[0] != 40 {
		t.Fatal("percentile mutated its input")
	}
}
