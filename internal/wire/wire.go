// Package wire defines the protocol a serving process (cmd/elsserve)
// speaks with its clients (the database/sql driver, elsbench's client
// swarms, the chaos fleet): length-prefixed, crc32-checksummed JSON frames
// over a byte stream, carrying one request or one response each.
//
// # Frames
//
// The envelope is the same framing discipline the WAL and the replication
// stream use (internal/durable, internal/replica):
//
//	u32 payload length | u32 IEEE-CRC-32 of payload | payload
//
// with the payload being one JSON document. Every way the bytes can be
// wrong — truncated header, oversized length, short payload, checksum
// mismatch — yields an error matching governor.ErrBadWire, and decode
// never panics on adversarial input. JSON (rather than a binary layout)
// keeps the payloads inspectable on the wire and evolvable field by
// field; the envelope supplies the integrity check JSON lacks.
//
// # Error taxonomy on the wire
//
// A failed request produces a Response carrying an *Error: the sentinel
// class encoded as a stable string code, the message, a retryable flag
// computed by the same classification els.Retryable applies in-process,
// and an optional Retry-After hint for load-dependent failures
// (overloaded, draining, stale replica). RemoteError reconstructs a typed
// error on the client side, so errors.Is against the public els sentinels
// works identically whether the caller is in-process or across the wire.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"repro/internal/governor"
)

// DefaultMaxFrame bounds a frame payload unless the server or client is
// configured otherwise — requests and responses are small JSON documents,
// so 4 MiB is generous while still refusing absurd allocations.
const DefaultMaxFrame = 4 << 20

// frameHeaderSize is the envelope: u32 length + u32 crc.
const frameHeaderSize = 8

// WriteFrame writes one framed payload to w.
func WriteFrame(w io.Writer, payload []byte) error {
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("%w: writing frame: %w", governor.ErrBadWire, err)
	}
	return nil
}

// ReadFrame reads one framed payload from r, refusing payloads larger
// than max (0 selects DefaultMaxFrame). A cleanly closed stream before
// any header byte returns io.EOF untouched, so callers can distinguish an
// orderly hangup from a torn frame; every other malformation — short
// header, oversized length, short payload, checksum mismatch — matches
// governor.ErrBadWire.
func ReadFrame(r io.Reader, max uint32) ([]byte, error) {
	if max == 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: reading frame header: %w", governor.ErrBadWire, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > max {
		return nil, fmt.Errorf("%w: frame payload %d bytes exceeds limit %d", governor.ErrBadWire, n, max)
	}
	payload, err := readPayload(r, n)
	if err != nil {
		return nil, fmt.Errorf("%w: reading %d-byte frame payload: %w", governor.ErrBadWire, n, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: frame checksum mismatch (computed %08x, framed %08x)",
			governor.ErrBadWire, got, want)
	}
	return payload, nil
}

// readPayload reads exactly n bytes from r. Up to 64 KiB it allocates the
// payload once; beyond that the buffer doubles as bytes arrive, so a header
// announcing more than the stream holds costs about what the stream
// delivered, not what the header claimed.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	payload := make([]byte, 0, min(n, 64<<10))
	for len(payload) < int(n) {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(int(n)-len(payload), len(payload)))
		}
		got, err := io.ReadFull(r, payload[len(payload):min(cap(payload), int(n))])
		payload = payload[:len(payload)+got]
		if err == io.EOF && len(payload) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return payload, err
		}
	}
	return payload, nil
}

// Operations a request can name.
const (
	// OpPing checks liveness; with a tenant set it also checks that the
	// tenant is routable.
	OpPing = "ping"
	// OpEstimate runs EstimateContext and returns an Estimate payload.
	OpEstimate = "estimate"
	// OpQuery runs QueryContext (plan + execute) and returns a Result.
	OpQuery = "query"
	// OpExplain runs ExplainContext and returns the report text.
	OpExplain = "explain"
	// OpDeclare registers statistics-only tables (DeclareStats) — the wire
	// mutation path; a nil-error response means the mutation is
	// acknowledged (durable on a durable tenant).
	OpDeclare = "declare"
	// OpDigest returns the tenant's catalog version and hex SHA-256
	// digest — the identity the recovery audits compare across restarts.
	OpDigest = "digest"
	// OpStats returns the server's observability document (ServerStats).
	OpStats = "stats"
	// OpFault is the chaos hook: honored only when the server was started
	// with EnableFaultOps (tests and the chaos fleet), it injects a
	// tenant-targeted failure ("panic" poisons the handler, "stall"
	// sleeps past the client's patience). Production servers reject it.
	OpFault = "fault"
)

// Request is one client request.
type Request struct {
	// ID is echoed in the response so a client can detect desynced
	// streams.
	ID uint64 `json:"id"`
	// Op names the operation (Op* constants).
	Op string `json:"op"`
	// Tenant routes the request to one tenant's bulkhead.
	Tenant string `json:"tenant,omitempty"`
	// SQL is the statement for estimate/query/explain.
	SQL string `json:"sql,omitempty"`
	// Algo selects the estimation algorithm by its String() name
	// (case-insensitive); empty means ELS.
	Algo string `json:"algo,omitempty"`
	// DeadlineMillis is the client's remaining budget for this call; the
	// server derives the serving context's deadline from it, so a client
	// deadline bounds queue wait, planning, and execution exactly like an
	// in-process context deadline would.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Table, Rows, and Distinct carry an OpDeclare mutation.
	Table    string             `json:"table,omitempty"`
	Rows     float64            `json:"rows,omitempty"`
	Distinct map[string]float64 `json:"distinct,omitempty"`
	// Fault selects the OpFault kind ("panic", "stall").
	Fault string `json:"fault,omitempty"`
	// StallMillis is how long an OpFault stall sleeps.
	StallMillis int64 `json:"stall_ms,omitempty"`
}

// Estimate is the wire form of an els.Estimate.
type Estimate struct {
	Algorithm      string   `json:"algorithm"`
	FinalSize      float64  `json:"final_size"`
	JoinOrder      []string `json:"join_order,omitempty"`
	CatalogVersion uint64   `json:"catalog_version"`
	Warnings       []string `json:"warnings,omitempty"`
}

// Result is the wire form of an executed query's els.Result.
type Result struct {
	Count          int64      `json:"count"`
	Columns        []string   `json:"columns,omitempty"`
	Rows           [][]string `json:"rows,omitempty"`
	CatalogVersion uint64     `json:"catalog_version"`
}

// Response is one server response.
type Response struct {
	// ID echoes the request's ID.
	ID uint64 `json:"id"`
	// OK is true iff Err is nil.
	OK bool `json:"ok"`
	// Err carries the typed failure of a refused or failed request.
	Err *Error `json:"error,omitempty"`
	// Estimate, Result, and Explain carry the op-specific success
	// payloads.
	Estimate *Estimate `json:"estimate,omitempty"`
	Result   *Result   `json:"result,omitempty"`
	Explain  string    `json:"explain,omitempty"`
	// Version and Digest carry OpDigest (and OpDeclare acknowledges with
	// the published Version).
	Version uint64 `json:"version,omitempty"`
	Digest  string `json:"digest,omitempty"`
	// Stats carries OpStats.
	Stats *ServerStats `json:"stats,omitempty"`
}

// Error is the wire form of a typed failure.
type Error struct {
	// Code is the failure class's stable wire name: the Code column of
	// the taxonomy table in internal/governor.
	Code string `json:"code"`
	// Message is the server-side error text.
	Message string `json:"message"`
	// Retryable mirrors els.Retryable's verdict on the server side, so a
	// client need not re-derive the classification.
	Retryable bool `json:"retryable"`
	// RetryAfterMillis hints when a retryable, load-dependent failure
	// (overloaded, draining, stale replica) is worth resubmitting; 0
	// means no hint.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
	// Tenant and Quarantined detail CodeTenant failures.
	Tenant      string `json:"tenant,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

// CodeOf classifies err into its wire code, by the taxonomy table's
// priority order. Errors outside the taxonomy (which the serving layer's
// recovery should have made impossible) are reported as internal, never
// dropped.
func CodeOf(err error) string {
	c, ok := governor.Classify(err)
	if !ok {
		return CodeOf(governor.ErrInternal)
	}
	return c.Code
}

// Sentinel returns the taxonomy sentinel a wire code names (ErrInternal
// for unknown codes, mirroring CodeOf's fallback).
func Sentinel(code string) error {
	if c, ok := governor.ClassByCode(code); ok {
		return c.Err
	}
	return governor.ErrInternal
}

// FromError converts a typed serving failure into its wire form.
// retryAfter is the hint attached to load-dependent classes (overloaded,
// closed, stale replica); pass 0 for no hint.
func FromError(err error, retryAfter time.Duration) *Error {
	e := &Error{
		Code:      CodeOf(err),
		Message:   err.Error(),
		Retryable: governor.Retryable(err),
	}
	var terr *governor.TenantError
	if errors.As(err, &terr) {
		e.Tenant = terr.Tenant
		e.Quarantined = terr.Quarantined
	}
	switch Sentinel(e.Code) {
	case governor.ErrOverloaded, governor.ErrClosed, governor.ErrStaleReplica:
		e.RetryAfterMillis = retryAfter.Milliseconds()
	}
	return e
}

// RemoteError is the client-side reconstruction of a wire Error: it
// unwraps to the taxonomy sentinel its code names, so errors.Is against
// the public els sentinels works across the wire, and exposes the
// Retry-After hint via errors.As.
type RemoteError struct {
	Wire Error
}

func (e *RemoteError) Error() string { return e.Wire.Message }

// Unwrap makes errors.Is(err, <sentinel>) hold for the code's sentinel.
func (e *RemoteError) Unwrap() error { return Sentinel(e.Wire.Code) }

// RetryAfter returns the server's resubmission hint, or 0.
func (e *RemoteError) RetryAfter() time.Duration {
	return time.Duration(e.Wire.RetryAfterMillis) * time.Millisecond
}

// TenantStats is one tenant's slice of the server observability document:
// the SLO inputs deploy/OBSERVABILITY.md defines are all sourced from
// these counters.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// CatalogVersion is the tenant's current published version.
	CatalogVersion uint64 `json:"catalog_version"`
	// Durable reports whether the tenant has a durable directory.
	Durable bool `json:"durable"`
	// Degraded and DegradedReason report a tripped bulkhead quarantine.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Requests and Failures count wire requests routed to this tenant and
	// the ones that returned a wire error.
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// Admitted, ShedQueueFull, ShedQueueTimeout, and RejectedClosed are
	// the tenant's admission counters (els.RobustnessStats).
	Admitted         uint64 `json:"admitted"`
	ShedQueueFull    uint64 `json:"shed_queue_full"`
	ShedQueueTimeout uint64 `json:"shed_queue_timeout"`
	RejectedClosed   uint64 `json:"rejected_closed"`
	// InFlight and Waiting are current gauges; both must be zero after a
	// drain (the slot-leak audit).
	InFlight int `json:"in_flight"`
	Waiting  int `json:"waiting"`
	// BreakerState is the tenant's circuit-breaker state.
	BreakerState string `json:"breaker_state"`
	// P50/P99 are latency quantiles in milliseconds over this tenant's
	// served requests, and the admission-wait quantiles over its admitted
	// queries.
	P50Millis     float64 `json:"p50_ms"`
	P99Millis     float64 `json:"p99_ms"`
	P99WaitMillis float64 `json:"p99_admission_wait_ms"`
	// SpilledQueries and SpilledBytes mirror the tenant system's memory
	// governance counters: queries that partitioned a hash-join build to
	// fit their byte budget and the build bytes those passes routed (no
	// disk is involved). PeakQueryBytes is the largest
	// single-query working-memory high-water mark.
	SpilledQueries uint64 `json:"spilled_queries,omitempty"`
	SpilledBytes   int64  `json:"spilled_bytes,omitempty"`
	PeakQueryBytes int64  `json:"peak_query_bytes,omitempty"`
	// MemSheds counts requests the server's memory pool refused for this
	// tenant (typed retryable pressure errors) before they reached
	// admission.
	MemSheds uint64 `json:"mem_sheds,omitempty"`
	// MemInUse is the tenant's current reservation against its pool
	// share, in bytes.
	MemInUse int64 `json:"mem_in_use,omitempty"`
}

// ServerStats is the server observability document OpStats returns.
type ServerStats struct {
	// Tenants lists every hosted tenant in sorted-name order.
	Tenants []TenantStats `json:"tenants"`
	// ActiveConns is the current connection gauge; ConnsAccepted the
	// lifetime total.
	ActiveConns   int    `json:"active_conns"`
	ConnsAccepted uint64 `json:"conns_accepted"`
	// Requests counts every dispatched request; BadFrames counts frames
	// (or request documents) that failed protocol validation.
	Requests  uint64 `json:"requests"`
	BadFrames uint64 `json:"bad_frames"`
	// MemoryPool is the process-wide byte pool the server divides among
	// tenants (0 = unlimited); MemoryInUse is the pool's current total
	// reservation and MemSheds the requests refused under pool pressure.
	MemoryPool  int64  `json:"memory_pool,omitempty"`
	MemoryInUse int64  `json:"memory_in_use,omitempty"`
	MemSheds    uint64 `json:"mem_sheds,omitempty"`
	// Draining reports an in-progress graceful drain; DrainMillis is the
	// duration of the completed drain (0 before Shutdown finishes).
	Draining    bool    `json:"draining"`
	DrainMillis float64 `json:"drain_ms"`
	// UptimeMillis is time since the server started accepting.
	UptimeMillis float64 `json:"uptime_ms"`
}

// EncodeRequest and DecodeResponse (and their mirrors) are the canonical
// JSON codecs — trivial today, but the single place to version the
// payload format later.

// EncodeRequest marshals a request payload.
func EncodeRequest(req *Request) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("%w: encoding request: %w", governor.ErrBadWire, err)
	}
	return b, nil
}

// DecodeRequest unmarshals a request payload.
func DecodeRequest(b []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(b, &req); err != nil {
		return nil, fmt.Errorf("%w: decoding request: %w", governor.ErrBadWire, err)
	}
	return &req, nil
}

// EncodeResponse marshals a response payload.
func EncodeResponse(resp *Response) ([]byte, error) {
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("%w: encoding response: %w", governor.ErrBadWire, err)
	}
	return b, nil
}

// DecodeResponse unmarshals a response payload.
func DecodeResponse(b []byte) (*Response, error) {
	var resp Response
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, fmt.Errorf("%w: decoding response: %w", governor.ErrBadWire, err)
	}
	return &resp, nil
}
