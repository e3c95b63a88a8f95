package server

import (
	"sync"

	els "repro"
)

// memPool is the process-wide working-memory pool (Config.MemoryPool)
// divided into equal per-tenant shares. Query-class requests reserve
// their tenant's expected working memory before they reach the tenant's
// admission queue; a reservation that does not fit the tenant's share (or
// the pool as a whole) is shed immediately with a typed, retryable
// pressure error instead of queueing work that is doomed to exhaust the
// process. The shed unwraps to ErrOverloaded, so the existing wire
// machinery attaches a Retry-After hint and clients classify it exactly
// like an admission shed.
//
// The pool bounds reservations, not true allocations: inside the slot the
// query's own governor (Limits.MaxMemory) enforces the byte budget
// exactly and partitions hash joins that exceed it, so the pool's job is only
// to keep N tenants' worth of budgets from being admitted into a process
// that cannot hold them simultaneously.
type memPool struct {
	total int64 // 0 disables the pool
	share int64 // per-tenant cap: total / number of tenants

	//lockorder:level 16
	mu    sync.Mutex
	used  map[string]int64 // per-tenant bytes currently reserved
	inUse int64            // pool-wide bytes currently reserved

	sheds counter
}

// newMemPool sizes the pool; total <= 0 disables it (every acquire
// succeeds).
func newMemPool(total int64, tenants int) *memPool {
	p := &memPool{used: make(map[string]int64)}
	if total > 0 && tenants > 0 {
		p.total = total
		p.share = total / int64(tenants)
	}
	return p
}

// enabled reports whether the pool bounds anything.
func (p *memPool) enabled() bool { return p.total > 0 }

// acquire reserves n bytes for tenant, or sheds with a typed
// *els.MemoryPressureError when the tenant's share or the pool is
// exhausted. The returned release is idempotent and must be called when
// the request finishes.
func (p *memPool) acquire(tenant string, n int64) (release func(), err error) {
	if !p.enabled() || n <= 0 {
		return func() {}, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used[tenant]+n > p.share || p.inUse+n > p.total {
		p.sheds.add(1)
		return nil, &els.MemoryPressureError{
			Tenant: tenant, Requested: n, InUse: p.used[tenant], Share: p.share,
		}
	}
	p.used[tenant] += n
	p.inUse += n
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			p.used[tenant] -= n
			p.inUse -= n
			p.mu.Unlock()
		})
	}, nil
}

// tenantInUse returns one tenant's current reservation.
func (p *memPool) tenantInUse(tenant string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used[tenant]
}

// snapshot returns the pool-wide reservation gauge.
func (p *memPool) snapshot() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}
