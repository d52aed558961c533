package parallel

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestForEachOptRetryRecovers proves transient failures are absorbed: every
// task fails on its first attempt and succeeds on retry, so the fan-out
// returns nil and the results match a failure-free run.
func TestForEachOptRetryRecovers(t *testing.T) {
	const n = 64
	var mu sync.Mutex
	attempts := make(map[int]int)
	out := make([]int, n)
	err := ForEachOpt(n, Options{Workers: 4, Retries: 2}, func(i int) error {
		mu.Lock()
		attempts[i]++
		a := attempts[i]
		mu.Unlock()
		if a == 1 {
			return fmt.Errorf("transient %d", i)
		}
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatalf("retries should absorb transient failures: %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestForEachOptPermanentFailure matches ForEach's contract: the lowest
// failing index's error is returned once retries are exhausted.
func TestForEachOptPermanentFailure(t *testing.T) {
	err := ForEachOpt(16, Options{Workers: 4, Retries: 3}, func(i int) error {
		if i%5 == 2 {
			return fmt.Errorf("permanent %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "permanent 2" {
		t.Fatalf("want lowest-index permanent error, got %v", err)
	}
}

// TestMapOptDeterministic asserts MapOpt output is index-ordered and
// identical across worker counts even with injected transient failures.
func TestMapOptDeterministic(t *testing.T) {
	run := func(workers int) []int {
		var mu sync.Mutex
		attempts := make(map[int]int)
		out, err := MapOpt(40, Options{Workers: workers, Retries: 1}, func(i int) (int, error) {
			mu.Lock()
			attempts[i]++
			first := attempts[i] == 1
			mu.Unlock()
			if first && i%3 == 0 {
				return 0, errors.New("flaky")
			}
			return i * 7, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	ref := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d diverges at %d: %d vs %d", w, i, got[i], ref[i])
			}
		}
	}
}
