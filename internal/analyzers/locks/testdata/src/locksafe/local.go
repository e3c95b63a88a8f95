package locksafe

import "sync"

// localLeak returns while holding a function-local mutex, which is named
// by the function that declares it.
func localLeak(cond bool) int {
	var mu sync.Mutex
	mu.Lock()
	if cond {
		return 1 // want `lock locksafe.localLeak.mu \(acquired at`
	}
	mu.Unlock()
	return 0
}
