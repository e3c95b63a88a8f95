//go:build race

package executor

// Under the race detector sync.Pool drops a random share of what is put
// back, so the selection-vector pool hands out fresh buffers more often.
func init() { raceBuild = true }
