package par

import (
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	for _, c := range []struct{ workers, n, want int }{
		{0, 5, 1}, {-3, 5, 1}, {1, 5, 1}, {4, 5, 4}, {8, 5, 5}, {4, 0, 1},
	} {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestForRunsEachItemOnce: every item runs exactly once on a worker index
// inside the resolved width, with and without a claim order.
func TestForRunsEachItemOnce(t *testing.T) {
	const n = 1000
	reversed := make([]int, n)
	for c := range reversed {
		reversed[c] = n - 1 - c
	}
	for _, workers := range []int{0, 1, 2, 3, 7, 2000} {
		for _, order := range [][]int{nil, reversed} {
			var runs [n]atomic.Int32
			width := Workers(workers, n)
			var badWorker atomic.Bool
			For(workers, n, order, func(w, i int) {
				if w < 0 || w >= width {
					badWorker.Store(true)
				}
				runs[i].Add(1)
			})
			if badWorker.Load() {
				t.Fatalf("workers=%d: worker index outside [0, %d)", workers, width)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("workers=%d order=%v: item %d ran %d times", workers, order != nil, i, got)
				}
			}
		}
	}
}

// TestForSerialFollowsOrder: one worker runs the items in claim order on
// worker 0.
func TestForSerialFollowsOrder(t *testing.T) {
	order := []int{3, 0, 2, 1}
	var got []int
	For(1, len(order), order, func(w, i int) {
		if w != 0 {
			t.Fatalf("serial worker index %d", w)
		}
		got = append(got, i)
	})
	for c := range order {
		if got[c] != order[c] {
			t.Fatalf("serial order %v, want %v", got, order)
		}
	}
}
