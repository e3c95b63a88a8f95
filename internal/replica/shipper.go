package replica

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/workpool"
)

// PointShip is the faultinject probe-point prefix fired on every frame a
// shipper sends down one follower's link, scoped as PointShip + ":" + id.
// Arm it with a faultinject.LinkFault payload (drop / bit-flip / truncate),
// a Delay (slow link), or a plain Err (transport failure — the frame is
// lost).
const PointShip = "replica.ship"

// linkQueue bounds each follower's in-flight frame queue; overflow drops
// the frame and schedules a resync instead of blocking the primary's
// mutation path.
const linkQueue = 256

// Source yields the primary's current full catalog and version — the
// resync payload. It must be wait-free (the snapshot store's Current is
// one atomic load) because link workers call it while the primary mutates.
type Source func() (*catalog.Catalog, uint64)

// Shipper streams a primary's acknowledged WAL records to attached
// followers. It implements durable.FrameSink: the durable store hands it
// every record the instant the record's fsync succeeds, and the shipper
// fans it out to per-follower bounded queues drained by one worker
// goroutine each, so a slow, faulty, or dead follower never blocks the
// primary's mutation path or its sibling followers.
//
// Delivery is at-least-once and self-healing: lost or mangled frames are
// detected by the follower (checksum, version gap) and answered with a
// full-catalog resync; duplicate frames are skipped idempotently. The only
// failure the shipper will not repair on its own is divergence — a
// follower that failed its digest audit stays quarantined until it is
// explicitly re-attached.
type Shipper struct {
	src Source

	//lockorder:level 44
	mu     sync.Mutex
	links  map[string]*link
	wg     sync.WaitGroup
	closed bool

	framesShipped atomic.Uint64 // delta frames delivered and applied
	resyncs       atomic.Uint64 // full-catalog resyncs completed
	queueDrops    atomic.Uint64 // frames dropped on queue overflow
	linkDrops     atomic.Uint64 // frames lost to injected link faults
}

// link is one follower's delivery state.
type link struct {
	id   string
	fol  *Follower
	ch   chan *item
	kick chan struct{} // resync request; capacity 1
	done chan struct{}

	needResync atomic.Bool
	halted     atomic.Bool // diverged: delivery stops until re-attach
	down       atomic.Bool // follower durable store failed; reopen required
}

// requestResync flags the link and wakes its worker.
func (l *link) requestResync() {
	l.needResync.Store(true)
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// item is one acknowledged mutation fanned out to every link. The wire
// encoding (including the catalog digest) is computed lazily, once,
// off the primary's mutation path, and shared by all links.
type item struct {
	version uint64
	delta   []byte
	next    *catalog.Catalog

	once   sync.Once
	enc    []byte
	encErr error
}

// encoded returns the item's wire frame, computing it on first use.
func (it *item) encoded() ([]byte, error) {
	it.once.Do(func() {
		digest, err := CatalogDigest(it.next, it.version)
		if err != nil {
			it.encErr = fmt.Errorf("%w: digest for shipped version %d: %w", governor.ErrInternal, it.version, err)
			return
		}
		it.enc = EncodeFrame(Frame{Kind: FrameDelta, Version: it.version, Digest: digest, Body: it.delta})
	})
	return it.enc, it.encErr
}

// NewShipper creates a shipper reading resync state from src.
func NewShipper(src Source) *Shipper {
	return &Shipper{src: src, links: map[string]*link{}}
}

// ShipFrame implements durable.FrameSink. It is called under the primary's
// store locks, so it only announces the version (an atomic per follower)
// and enqueues; a full queue drops the frame and schedules a resync rather
// than block.
func (s *Shipper) ShipFrame(version uint64, delta []byte, next *catalog.Catalog) {
	it := &item{version: version, delta: delta, next: next}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for _, l := range s.links {
		// The announce is the reliable control channel: even when the data
		// frame below is lost, the follower knows how far ahead the
		// primary is, so lag — and the staleness contract — stay honest.
		l.fol.Announce(version)
		select {
		case l.ch <- it:
		default:
			s.queueDrops.Add(1)
			l.requestResync()
		}
	}
}

// Attach registers a follower and starts (or restarts) its delivery
// worker. Re-attaching an already-attached follower lifts a divergence
// halt and schedules a resync — the explicit heal path for a quarantined
// replica. Attaching a new follower immediately schedules its initial
// catch-up.
func (s *Shipper) Attach(fol *Follower) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%w: shipper is closed", governor.ErrClosed)
	}
	if old, ok := s.links[fol.ID()]; ok && old.fol == fol {
		old.halted.Store(false)
		old.down.Store(false)
		s.mu.Unlock()
		old.requestResync()
		return nil
	}
	if old, ok := s.links[fol.ID()]; ok {
		close(old.done) // same id, new follower object (reopened): replace
	}
	l := &link{
		id:   fol.ID(),
		fol:  fol,
		ch:   make(chan *item, linkQueue),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.links[fol.ID()] = l
	workpool.Go(&s.wg, func(error) {}, func() error {
		s.run(l)
		return nil
	})
	s.mu.Unlock()
	l.requestResync()
	return nil
}

// Detach stops delivering to the named follower and forgets it. The
// follower itself is untouched (it keeps serving at its last version,
// growing stale) — this is the promote path's first step.
func (s *Shipper) Detach(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.links[id]; ok {
		close(l.done)
		delete(s.links, id)
	}
}

// Nudge schedules a resync check on every attached, non-halted link —
// the catch-up prod WaitForReplicas and the chaos harness use after
// faults are disarmed. Links halted by divergence are deliberately left
// alone: quarantine must stay observable until an explicit re-attach.
func (s *Shipper) Nudge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		if !l.halted.Load() {
			l.requestResync()
		}
	}
}

// Close stops every link worker and waits for them. Followers are left at
// whatever version they reached.
func (s *Shipper) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, l := range s.links {
		close(l.done)
	}
	s.links = map[string]*link{}
	s.mu.Unlock()
	s.wg.Wait()
}

// run is one link's delivery loop.
func (s *Shipper) run(l *link) {
	for {
		select {
		case <-l.done:
			return
		case it := <-l.ch:
			s.deliver(l, it)
		case <-l.kick:
			if l.needResync.Swap(false) {
				s.sync(l)
			}
		}
	}
}

// deliver sends one delta frame through the (fault-injectable) link and
// dispatches on the follower's verdict.
func (s *Shipper) deliver(l *link, it *item) {
	if l.halted.Load() || l.down.Load() {
		return
	}
	data, err := it.encoded()
	if err != nil {
		// Could not even encode (primary-side bug); a resync ships the
		// authoritative full catalog instead.
		l.requestResync()
		return
	}
	data, lost := s.transmit(l, data)
	if lost {
		// The frame vanished in flight. The follower will detect the gap
		// from the next frame; the announce already made the lag visible,
		// and Nudge/WaitForReplicas resync stragglers.
		return
	}
	s.dispatch(l, l.fol.Apply(data))
}

// sync ships a full-catalog frame at the primary's current version,
// skipping the send when the follower is already provably identical.
func (s *Shipper) sync(l *link) {
	if l.down.Load() {
		return
	}
	cat, ver := s.src()
	fver, fdigest, ferr := l.fol.CurrentDigest()
	if ferr == nil && fver == ver && l.fol.Quarantined() == nil {
		if pdigest, perr := CatalogDigest(cat, ver); perr == nil && pdigest == fdigest {
			return // already in sync; nothing to ship
		}
	}
	var body catalogExport
	if err := cat.ExportVersionedJSON(&body, ver); err != nil {
		return // primary-side encode failure; the next nudge retries
	}
	fr := Frame{Kind: FrameFull, Version: ver, Digest: body.sum(), Body: body.buf}
	data, lost := s.transmit(l, EncodeFrame(fr))
	if lost {
		// The resync itself was eaten by the link; back off briefly and
		// try again so an unbounded drop fault cannot spin this worker.
		time.Sleep(time.Millisecond)
		l.requestResync()
		return
	}
	err := l.fol.Apply(data)
	if err == nil {
		l.halted.Store(false)
		s.resyncs.Add(1)
		return
	}
	if NeedsResync(err) {
		time.Sleep(time.Millisecond)
		l.requestResync()
		return
	}
	s.dispatch(l, err)
}

// dispatch routes a follower verdict to the link's recovery action.
func (s *Shipper) dispatch(l *link, err error) {
	switch {
	case err == nil:
		s.framesShipped.Add(1)
	case NeedsResync(err):
		s.sync(l)
	case errors.Is(err, governor.ErrDiverged):
		// The follower quarantined itself; stop feeding it. Only an
		// explicit re-attach (the operator acknowledging the divergence)
		// resumes delivery, via a certifying full resync.
		l.halted.Store(true)
	case errors.Is(err, governor.ErrDurability):
		// The follower's own disk failed — it is down until reopened.
		l.down.Store(true)
	default:
		l.requestResync()
	}
}

// transmit passes one encoded frame through the link's fault-injection
// point, returning the (possibly mangled) bytes or lost=true when the
// frame was swallowed.
func (s *Shipper) transmit(l *link, data []byte) (_ []byte, lost bool) {
	f, ok := faultinject.Fire(PointShip + ":" + l.id)
	if !ok {
		return data, false
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if lf, isLink := f.Payload.(faultinject.LinkFault); isLink {
		switch {
		case lf.Drop:
			s.linkDrops.Add(1)
			return nil, true
		case lf.Truncate >= 0 && lf.Truncate < len(data):
			return append([]byte(nil), data[:lf.Truncate]...), false
		case lf.CorruptBit >= 0:
			mangled := append([]byte(nil), data...)
			bit := lf.CorruptBit % (len(mangled) * 8)
			mangled[bit/8] ^= 1 << (bit % 8)
			return mangled, false
		}
		return data, false
	}
	if f.Err != nil {
		s.linkDrops.Add(1)
		return nil, true
	}
	return data, false
}

// catalogExport accumulates an export while hashing it, so full frames
// get body and digest in one pass.
type catalogExport struct {
	buf []byte
}

func (c *catalogExport) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (c *catalogExport) sum() [DigestSize]byte {
	return sha256.Sum256(c.buf)
}

// Stats is a point-in-time snapshot of the shipper's counters and every
// attached follower's state.
type Stats struct {
	// Followers lists attached followers in sorted-id order.
	Followers []FollowerStats
	// FramesShipped counts delta frames delivered and applied.
	FramesShipped uint64
	// Resyncs counts full-catalog resynchronizations completed.
	Resyncs uint64
	// QueueDrops counts frames dropped because a follower's queue was
	// full; LinkDrops counts frames lost to injected link faults.
	QueueDrops, LinkDrops uint64
}

// Stats snapshots the shipper; the zero Stats for a nil shipper.
func (s *Shipper) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	links := make([]*link, 0, len(s.links))
	for _, l := range s.links {
		links = append(links, l)
	}
	s.mu.Unlock()
	st := Stats{
		FramesShipped: s.framesShipped.Load(),
		Resyncs:       s.resyncs.Load(),
		QueueDrops:    s.queueDrops.Load(),
		LinkDrops:     s.linkDrops.Load(),
	}
	for _, l := range links {
		fs := l.fol.Stats()
		fs.Down = l.down.Load()
		st.Followers = append(st.Followers, fs)
	}
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].ID < st.Followers[j].ID })
	return st
}
