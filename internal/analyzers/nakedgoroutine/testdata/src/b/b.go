package b

import "sync"

func spawnRaw(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() { // want `naked go statement .*; use workpool.Go or workpool.Async`
		defer wg.Done()
	}()
}

func spawnLoop(fs []func()) {
	for _, f := range fs {
		go f() // want `naked go statement .*; use workpool.Go or workpool.Async`
	}
}

// inline stays on the calling goroutine: nothing to flag.
func inline(f func()) {
	f()
}
