package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/governor"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"op":"ping"}`)
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip produced %q, want %q", got, payload)
	}
	// The stream is empty now: a clean EOF, not a wire error.
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("empty stream read = %v, want io.EOF", err)
	}
}

// Every way the bytes can be wrong yields a typed bad-wire error, and
// decode never panics on adversarial input.
func TestFrameTorture(t *testing.T) {
	mkFrame := func(payload []byte) []byte {
		var buf bytes.Buffer
		WriteFrame(&buf, payload)
		return buf.Bytes()
	}
	whole := mkFrame([]byte("hello wire"))
	cases := map[string][]byte{
		"truncated header":  whole[:5],
		"truncated payload": whole[:len(whole)-3],
		"corrupt crc": func() []byte {
			b := append([]byte(nil), whole...)
			b[4] ^= 0xFF
			return b
		}(),
		"corrupt payload": func() []byte {
			b := append([]byte(nil), whole...)
			b[len(b)-1] ^= 0xFF
			return b
		}(),
		"oversized length": func() []byte {
			b := append([]byte(nil), whole...)
			binary.LittleEndian.PutUint32(b[0:4], DefaultMaxFrame+1)
			return b
		}(),
	}
	for name, raw := range cases {
		if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, governor.ErrBadWire) {
			t.Errorf("%s: err = %v, want ErrBadWire", name, err)
		}
	}
}

// Every taxonomy sentinel crosses the wire and reconstructs: CodeOf maps
// the error to a stable code, Sentinel maps the code back, and the
// round-tripped RemoteError satisfies errors.Is against the original
// sentinel.
func TestErrorCodesRoundTripTheTaxonomy(t *testing.T) {
	all := []error{
		governor.ErrCanceled, governor.ErrBudgetExceeded, governor.ErrBadStats,
		governor.ErrParse, governor.ErrInternal, governor.ErrOverloaded,
		governor.ErrClosed, governor.ErrDurability, governor.ErrStaleReplica,
		governor.ErrDiverged, governor.ErrBadWire, governor.ErrTenant,
	}
	for _, sentinel := range all {
		wrapped := &governor.TenantError{Tenant: "x", Reason: "r", Cause: sentinel}
		var src error = sentinel
		if sentinel == governor.ErrTenant {
			src = wrapped // the structured form is how it actually travels
		}
		we := FromError(src, 0)
		if we.Code == "" || Sentinel(we.Code) == nil {
			t.Fatalf("%v: code %q has no sentinel", sentinel, we.Code)
		}
		remote := &RemoteError{Wire: *we}
		if !errors.Is(remote, sentinel) {
			t.Errorf("%v: reconstructed remote error does not match the sentinel (code %q)", sentinel, we.Code)
		}
	}
	// An unknown code (a newer server, a corrupted reply) still lands
	// inside the taxonomy: it degrades to the internal class rather than
	// producing an unclassifiable error.
	if !errors.Is(Sentinel("no-such-code"), governor.ErrInternal) {
		t.Error("unknown code did not degrade to ErrInternal")
	}
}

// The retryable flag on the wire matches els.Retryable's classification,
// and Retry-After hints attach only to the load-dependent classes.
func TestFromErrorRetryableAndHints(t *testing.T) {
	cases := []struct {
		err       error
		retryable bool
		wantHint  bool
	}{
		{governor.ErrInternal, true, false},
		{governor.ErrOverloaded, true, true},
		{governor.ErrStaleReplica, true, true},
		{governor.ErrClosed, false, true},
		{governor.ErrParse, false, false},
		{governor.ErrCanceled, false, false},
		{governor.ErrTenant, false, false},
	}
	for _, c := range cases {
		we := FromError(c.err, 30*time.Millisecond)
		if we.Retryable != c.retryable {
			t.Errorf("%v: retryable = %v, want %v", c.err, we.Retryable, c.retryable)
		}
		if got := we.RetryAfterMillis > 0; got != c.wantHint {
			t.Errorf("%v: hint attached = %v, want %v", c.err, got, c.wantHint)
		}
	}
}

func TestRequestResponseJSONRoundTrip(t *testing.T) {
	req := &Request{
		ID: 7, Op: OpDeclare, Tenant: "acme", Table: "T", Rows: 1000,
		Distinct: map[string]float64{"a": 10}, DeadlineMillis: 250,
	}
	raw, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != req.ID || back.Op != req.Op || back.Tenant != req.Tenant ||
		back.Table != req.Table || back.Rows != req.Rows || back.Distinct["a"] != 10 ||
		back.DeadlineMillis != 250 {
		t.Fatalf("request round trip mangled: %+v", back)
	}
	if _, err := DecodeRequest([]byte("not json")); !errors.Is(err, governor.ErrBadWire) {
		t.Fatalf("garbage request decode = %v, want ErrBadWire", err)
	}
	if _, err := DecodeResponse([]byte("{")); !errors.Is(err, governor.ErrBadWire) {
		t.Fatalf("garbage response decode = %v, want ErrBadWire", err)
	}
}

// Every row of the taxonomy table crosses the wire intact: FromError
// encodes the row's code and retryable flag, and the RemoteError rebuilt
// from them classifies back to the same row.
func TestTaxonomyRowsCrossTheWire(t *testing.T) {
	for _, row := range governor.Taxonomy() {
		we := FromError(fmt.Errorf("serving: %w", row.Err), 0)
		if we.Code != row.Code || we.Retryable != row.Retryable {
			t.Errorf("%s: encoded as code %q retryable %v, want %q %v",
				row.Code, we.Code, we.Retryable, row.Code, row.Retryable)
		}
		remote := error(&RemoteError{Wire: *we})
		back, ok := governor.Classify(remote)
		if !ok || back != row {
			t.Errorf("%s: remote error classifies as %+v (in taxonomy: %v)", row.Code, back, ok)
		}
		if governor.Retryable(remote) != row.Retryable {
			t.Errorf("%s: remote error retryable = %v", row.Code, !row.Retryable)
		}
	}
}
