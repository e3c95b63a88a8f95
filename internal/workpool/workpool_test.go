package workpool

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/governor"
)

// Go delivers f's error, and a panic in f as an internal error, to onErr.
func TestGoContainsPanic(t *testing.T) {
	boom := errors.New("boom")
	var wg sync.WaitGroup
	var mu sync.Mutex
	var got []error
	onErr := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, err)
	}
	Go(&wg, onErr, func() error { return boom })
	Go(&wg, onErr, func() error { panic("blew up") })
	Go(&wg, onErr, func() error { return nil })
	Go(&wg, nil, func() error { panic("nobody listening") })
	wg.Wait()
	if len(got) != 2 {
		t.Fatalf("onErr saw %v, want the error and the panic", got)
	}
	for _, err := range got {
		if !errors.Is(err, boom) && !errors.Is(err, governor.ErrInternal) {
			t.Errorf("onErr saw %v, want boom or ErrInternal", err)
		}
	}
}

func TestAsyncContainsPanic(t *testing.T) {
	if err := <-Async(func() error { return nil }); err != nil {
		t.Fatalf("got %v, want nil", err)
	}
	if err := <-Async(func() error { panic("blew up") }); !errors.Is(err, governor.ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
}

func TestWithTimeout(t *testing.T) {
	boom := errors.New("boom")
	for _, d := range []time.Duration{0, time.Minute} {
		if err := WithTimeout(d, func() error { return boom }); !errors.Is(err, boom) {
			t.Errorf("d=%v: got %v, want f's error", d, err)
		}
	}
	release := make(chan struct{})
	defer close(release)
	err := WithTimeout(time.Millisecond, func() error { <-release; return nil })
	var be *governor.BudgetError
	if !errors.As(err, &be) || be.Resource != "wall-clock" || !errors.Is(err, governor.ErrBudgetExceeded) {
		t.Fatalf("got %v, want the wall-clock budget error", err)
	}
}
