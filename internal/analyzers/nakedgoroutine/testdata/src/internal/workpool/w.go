// Package workpool stands in for the real spawn primitive: raw go
// statements are its whole point and stay legal here.
package workpool

import "sync"

func Go(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
}
