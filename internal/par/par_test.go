package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 257
		var hits [n]atomic.Int32
		var states atomic.Int32
		err := Do(n, workers, func() int { return int(states.Add(1)) }, func(_ int, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
		if workers > 0 && int(states.Load()) > workers {
			t.Errorf("workers=%d: %d states made", workers, states.Load())
		}
	}
	if err := Do[struct{}](0, 4, nil, func(struct{}, int) error { return errors.New("ran") }); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// One worker hands items out in input order and stops at the first
// failure: no later item starts.
func TestDoOneWorkerStopsAtFirstError(t *testing.T) {
	var ran []int
	err := Do[struct{}](10, 1, nil, func(_ struct{}, i int) error {
		ran = append(ran, i)
		if i == 4 || i == 6 {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "item 4" {
		t.Fatalf("err = %v, want item 4", err)
	}
	if fmt.Sprint(ran) != "[0 1 2 3 4]" {
		t.Errorf("ran %v, want [0 1 2 3 4]", ran)
	}
}

// With several workers, items above a failing one may already be running
// beside it; whichever fails first in time, the lowest-index error among
// the items that ran is the one returned.
func TestDoReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{2, 7} {
		for trial := 0; trial < 50; trial++ {
			release := make(chan struct{})
			var ran [8]atomic.Bool
			err := Do[struct{}](8, workers, nil, func(_ struct{}, i int) error {
				ran[i].Store(true)
				switch i {
				case 0:
					// Fails last in time, after item 1 has failed.
					<-release
					return errors.New("item 0")
				case 1:
					close(release)
					return errors.New("item 1")
				}
				return nil
			})
			if err == nil || err.Error() != "item 0" {
				t.Fatalf("workers=%d: err = %v, want item 0", workers, err)
			}
			if !ran[0].Load() || !ran[1].Load() {
				t.Fatalf("workers=%d: items 0 and 1 must both run", workers)
			}
		}
	}
}

// Once an item has failed no further item is handed out, even to a
// worker that is still busy with an earlier one.
func TestDoHandsOutNothingAfterAnError(t *testing.T) {
	const n = 1000
	failed := make(chan struct{})
	var ran atomic.Int32
	err := Do[struct{}](n, 2, nil, func(_ struct{}, i int) error {
		ran.Add(1)
		switch i {
		case 0:
			close(failed)
			return errors.New("item 0")
		case 1:
			<-failed
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if r := ran.Load(); r == n {
		t.Errorf("all %d items ran after item 0 failed", r)
	}
}
